"""Layerwise adversarial perturbations.

Two constructions, sharing one unperturbed forward pass per batch:

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
means very different relative sizes at different points. The virtual
construction approximates the power-iteration step only while ``xi`` is small
next to the activation it nudges and next to ``epsilon``; at larger ``xi`` the
probe measures a finite jump, not the local curvature.
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
    epsilon_per_point: Optional[dict[int, float]] = None
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
        for m, e in (self.epsilon_per_point or {}).items():
            if m not in model.ALL_POINTS:
                raise ValueError(f"unknown injection point {m}")
            if not math.isfinite(e) or e < 0:
                raise ValueError(
                    f"epsilon_per_point[{m}] must be finite and non-negative, got {e!r}")
        if not math.isfinite(self.xi) or self.xi <= 0:
            raise ValueError(f"xi must be finite and positive, got {self.xi!r}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam!r}")

    @property
    def points(self) -> tuple[int, ...]:
        if self.mode == "none":
            return ()
        return LAYER_SELECTIONS[self.layers]

    def eps_for(self, point: int) -> float:
        if self.epsilon_per_point and point in self.epsilon_per_point:
            return self.epsilon_per_point[point]
        return self.epsilon


def kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise KL(P_i || Q_i) in nats, log arguments floored at 1e-12 so
    degenerate rows stay finite; each row clamped below at exactly 0."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    vals = np.sum(P * np.log(np.maximum(P, PROB_FLOOR) / np.maximum(Q, PROB_FLOOR)), axis=-1)
    return np.maximum(0.0, vals)


def unit_rows(E: np.ndarray) -> np.ndarray:
    """Normalize each sample's flattened tensor to unit L2 norm."""
    flat = E.reshape(E.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    safe = np.where(norms < NORM_FLOOR, 1.0, norms)
    return (flat / safe).reshape(E.shape)


def scale_rows(G: np.ndarray, eps: float) -> np.ndarray:
    """Per-sample eps * g/||g||, exactly zero rows where ||g|| < 1e-12 or
    eps == 0. Negative eps flips the direction (supervised sign)."""
    flat = np.asarray(G, dtype=float).reshape(G.shape[0], -1)
    out = np.zeros_like(flat)
    if eps != 0.0:
        norms = np.linalg.norm(flat, axis=1)
        ok = norms >= NORM_FLOOR
        out[ok] = (eps / norms[ok])[:, None] * flat[ok]
    return out.reshape(G.shape)


def _noise_rng(seed: int, epoch: int, batch_index: int, point: int):
    # dedicated stream per (run seed, epoch, batch, point): perturbation noise
    # never touches the data-order stream
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(epoch), int(batch_index), int(point)]))


def compute_perturbation_tensors(net: model.Network, X: np.ndarray,
                                 labels: Optional[Sequence] = None,
                                 config: Optional[PerturbationConfig] = None, *,
                                 seed: int = 0, epoch: int = 0,
                                 batch_index: int = 0,
                                 base: Optional[model.Activations] = None
                                 ) -> dict[int, np.ndarray]:
    """Stacked perturbations, one (batch, ...) tensor per selected point.

    All selected points are derived from one unperturbed pass ``base`` (run
    here when not given); the caller applies them simultaneously in one
    perturbed forward. The supervised construction needs a label for every
    sample and backpropagates the log-likelihood through ``base`` once, so
    its ``base`` must be a full ``ForwardCache``. The virtual one reads only
    the ``Activations``: one power-iteration step per point, its KL gradient
    evaluated at r = xi * e only (its value and gradient at r = 0 both
    vanish). Each nudged pass is freed before the next one runs, so the LSTM
    internals of at most one probe are alive at a time.
    """
    config = config or PerturbationConfig()
    points = config.points
    if config.mode == "none":
        return {}
    if config.mode == "supervised_at":
        if labels is None or any(lbl is None for lbl in labels):
            raise ValueError("supervised adversarial mode requires a label for every sample")
        if base is None:
            base = model.forward_batch(net, X)
        dlogits = -model.nll_dlogits(base.probs, labels)  # gradient of +log p(label)
        _, act = model.backward_batch(net, base, dlogits,
                                      want_param_grads=False, down_to=min(points))
        return {m: scale_rows(act[m], -config.eps_for(m)) for m in points}

    if base is None:
        base = model.forward_batch(net, X).activations()
    out: dict[int, np.ndarray] = {}
    for m in points:
        rng = _noise_rng(seed, epoch, batch_index, m)
        e = unit_rows(rng.standard_normal(base.xhat[m].shape))
        nudged = model.resume_forward(net, base, m, config.xi * e)
        dlogits = model.kl_dlogits(base.probs, nudged.probs)
        _, act = model.backward_batch(net, nudged, dlogits,
                                      want_param_grads=False, down_to=m)
        out[m] = scale_rows(act[m], config.eps_for(m))
        del nudged, act
    return out
