"""Layerwise adversarial perturbations.

Two constructions, both built from the batch's one unperturbed forward
pass, which the caller has already run and passes in:

* supervised: r* = -eps * g / ||g||2 with g the activation gradient of the
  log-likelihood at the injection point (needs labels);
* virtual: draw a random unit direction e, nudge the activation by xi * e,
  backpropagate the KL divergence between the frozen unperturbed output
  distribution and the nudged one, and rescale that gradient to eps. This is
  a single finite-difference power-iteration step toward the KL Hessian's
  dominant eigenvector and reads no labels.

Perturbations are per sample; norms are L2 over the flattened tensor.

Scale: ``epsilon`` and ``xi`` are absolute L2 norms per window (per sample),
in the units of the injection point they act on - min-max scaled SMART
values at the input, raw activations at points 1-4. One ``epsilon`` thus
means very different relative sizes at different points, and every
selected point uses it. The virtual construction approximates the
power-iteration step only while ``xi`` is small next to the activation it
nudges and next to ``epsilon``; at larger ``xi`` the probe measures a finite
jump, not the local curvature.

Precision: noise, ``unit_rows`` and ``scale_rows`` are float64. The nudge
``xi * e`` is formed in float64 and handed to the nudged pass already cast
to the dtype of the activation it perturbs, and each returned tensor is
given in that dtype too. On a float32 network (every training pass)
``xi`` also has a floor: the nudge must stand clear of float32 rounding in
the activation and in the output. On a 3-epoch benchmark-size network,
median activation norms 1.7 to 4.4, the per-window cosine of float32 to
float64 directions was at least 0.9995 at ``xi`` >= 0.1 and 0.978 at 0.01;
at 0.001 the median stayed above 0.9997 but single windows fell to 0.66,
and at 1e-4 directions were lost (cosines near 0, or no gradient at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model

NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-12

LAYER_SELECTIONS = {
    "input": (0,),
    "bottom": (1, 2),
    "top": (3, 4),
    "all": (0, 1, 2, 3, 4),
}

MODES = ("none", "supervised_at", "virtual_at")


@dataclass
class PerturbationConfig:
    mode: str = "none"
    layers: str = "all"
    epsilon: float = 20.0
    xi: float = 10.0
    lam: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "none" and self.layers not in LAYER_SELECTIONS:
            raise ValueError(
                f"layers must be one of {tuple(LAYER_SELECTIONS)}, got {self.layers!r}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon!r}")
        if not math.isfinite(self.xi) or self.xi <= 0:
            raise ValueError(f"xi must be finite and positive, got {self.xi!r}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam!r}")

    @property
    def points(self) -> tuple[int, ...]:
        if self.mode == "none":
            return ()
        return LAYER_SELECTIONS[self.layers]


def kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise KL(P_i || Q_i) in nats, log arguments floored at 1e-12 so
    degenerate rows stay finite; each row clamped below at exactly 0."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    vals = np.sum(P * np.log(np.maximum(P, PROB_FLOOR) / np.maximum(Q, PROB_FLOOR)), axis=-1)
    return np.maximum(0.0, vals)


def unit_rows(E: np.ndarray) -> np.ndarray:
    """Normalize each sample's flattened tensor of the contiguous array
    ``E`` to unit L2 norm, in place; returns ``E``."""
    flat = E.reshape(E.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    flat /= np.where(norms < NORM_FLOOR, 1.0, norms)
    return E


def scale_rows(G: np.ndarray, eps: float) -> np.ndarray:
    """Per-sample eps * g/||g|| as a new float64 array, exactly +0.0 rows
    where ||g|| < 1e-12 or eps == 0. Negative eps flips the direction
    (supervised sign). One float64 copy of ``G`` is scaled in place."""
    if eps == 0.0:
        return np.zeros(G.shape)
    out = np.array(G, dtype=float, order="C")
    flat = out.reshape(G.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    ok = norms >= NORM_FLOOR
    factor = np.zeros_like(norms)
    factor[ok] = eps / norms[ok]
    flat *= factor[:, None]
    flat[~ok] = 0.0  # 0 * a negative entry is -0.0
    return out


def _noise_rng(seed: int, epoch: int, batch_index: int, point: int):
    # dedicated stream per (run seed, epoch, batch, point): perturbation noise
    # never touches the data-order stream
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(epoch), int(batch_index), int(point)]))


def compute_perturbation_tensors(net: model.Network, base: model.Activations,
                                 labels: Optional[Sequence],
                                 config: PerturbationConfig, *,
                                 seed: int = 0, epoch: int = 0,
                                 batch_index: int = 0) -> dict[int, np.ndarray]:
    """Stacked perturbations, one (batch, ...) tensor per selected point.

    All selected points are derived from ``base``, the batch's unperturbed
    pass; the caller applies them simultaneously in one perturbed forward.
    The supervised construction needs a label in ``0 .. classes - 1`` for
    every sample and backpropagates the log-likelihood through ``base`` once,
    so its ``base`` must be a full ``ForwardCache``. The virtual one ignores
    ``labels`` and reads only the ``Activations``: one power-iteration step
    per point, its KL gradient evaluated at r = xi * e only (its value and
    gradient at r = 0 both vanish). Each probe frees its arrays at their
    last reader: the float64 noise once the nudge is cast, the nudge once
    the nudged pass has added it, and the nudged pass (its LSTM internals
    and activations) and the other points' gradients once the gradient at
    the probed point is known, before ``scale_rows`` makes its float64 copy.
    So the LSTM internals of at most one probe are alive at a time, and none
    while a probe's result is scaled.
    """
    points = config.points
    if config.mode == "none":
        return {}
    if config.mode == "supervised_at":
        if labels is None or any(lbl is None for lbl in labels):
            raise ValueError("supervised adversarial mode requires a label for every sample")
        rows, classes = base.probs.shape
        if len(labels) != rows:
            raise ValueError(f"supervised adversarial mode requires one label per sample: "
                             f"{len(labels)} labels for {rows} samples")
        idx = np.asarray(labels, dtype=int)
        if idx.min() < 0 or idx.max() >= classes:
            raise ValueError(f"supervised adversarial mode requires labels in 0..{classes - 1}")
        dlogits = -model.nll_dlogits(base.probs, idx)  # gradient of +log p(label)
        _, act = model.backward_batch(net, base, dlogits,
                                      want_param_grads=False, down_to=min(points))
        return {m: scale_rows(act[m], -config.epsilon).astype(act[m].dtype, copy=False)
                for m in points}

    out: dict[int, np.ndarray] = {}
    for m in points:
        rng = _noise_rng(seed, epoch, batch_index, m)
        e = unit_rows(rng.standard_normal(base.xhat[m].shape))
        e *= config.xi
        nudge = e.astype(base.xhat[m].dtype, copy=False)  # the cast inject makes
        del e
        nudged = model.resume_forward(net, base, m, nudge)
        del nudge
        g = model.backward_batch(net, nudged, model.kl_dlogits(base.probs, nudged.probs),
                                 want_param_grads=False, down_to=m)[1][m]
        del nudged  # its LSTM internals, before scale_rows's float64 copy
        out[m] = scale_rows(g, config.epsilon).astype(g.dtype, copy=False)
        del g
    return out
