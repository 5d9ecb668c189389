"""End-to-end training: loss assembly, RMSProp, and the two-round schedule.

Per batch: (1) sample labeled rows (one shuffled pass per epoch) plus
unlabeled rows drawn with replacement, in proportion to the pool sizes;
(2) unperturbed forward, negative log-likelihood on the labeled rows;
supervised perturbations, which backpropagate through this pass, are built
here; (3) the NLL's parameter backward through that pass, after which its
LSTM internals are freed; (4) virtual perturbations from that pass's
activations and output; (5) one perturbed forward with every selected
point perturbed simultaneously, giving the adversarial KL term, and its
parameter backward, added to step 3's gradients: together the gradient of
total = nll + lambda * lap; (6) RMSProp update, unless the loss is not
finite, which stops training with NonFiniteLossError.

Each array of a step is freed after its last reader, so at most one pass's
LSTM internals are alive at a time, and none when a new LSTM pass starts:
the clean pass's LSTM internals and its activation gradients go after its
parameter backward; its activations after the virtual probes, keeping only
its output; each probe's float64 noise, nudge and nudged pass inside the
probe (see ``perturb.compute_perturbation_tensors``); and the perturbation
tensors once the perturbed forward has added them.

Precision: every pass of steps 2-5 runs in ``TRAIN_DTYPE`` (float32) on a
copy of the float64 master network made at the start of the step, on
features cast once before the first epoch. The gradients are upcast to
float64 once per step, and the master parameters, the RMSProp state,
validation and the returned checkpoint stay float64.

Perturbation noise lives on its own RNG stream keyed by
(seed, epoch, batch, point), so computing perturbations never disturbs
batch composition; with lambda = 0 the adversarial term contributes exactly
nothing and the parameter trajectory matches plain training bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import evaluate as eval_mod
from . import model, perturb

RMSPROP_RHO = 0.9     # decay of the squared-gradient average
RMSPROP_DELTA = 1e-8  # added to its square root

REPORT_MAGIC = "# lpat-train-report v1"

TRAIN_DTYPE = np.float32  # precision of every training pass


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 210
    unlabeled_frac: float = 1.0
    seed: int = 0
    hidden1: int = 128
    hidden2: int = 128
    lstm_units: int = 200

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch size and epochs must be positive")
        if not 0.0 <= self.unlabeled_frac <= 1.0:
            raise ValueError("unlabeled_frac must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if min(self.hidden1, self.hidden2, self.lstm_units) <= 0:
            raise ValueError("layer widths must be positive")


class NonFiniteLossError(ValueError):
    """A training step's loss is not finite; no update was made from it.

    ``epoch`` and ``batch`` are 1-based; ``term`` is ``nll`` or ``lap``,
    the first of the two loss terms that is not finite.
    """

    def __init__(self, epoch: int, batch: int, term: str):
        super().__init__(f"epoch {epoch}, batch {batch}: the {term} term of the "
                         "training loss is not finite; check the data for "
                         "non-finite values, or lower the learning rate")
        self.epoch = epoch
        self.batch = batch
        self.term = term


def init_optimizer(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One zeroed squared-gradient accumulator per parameter."""
    return {k: np.zeros_like(v) for k, v in params.items()}


def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 acc: dict[str, np.ndarray], lr: float) -> None:
    """acc <- rho*acc + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(acc)+delta).

    Updates the float64 params and acc in place; every parameter needs a
    gradient entry.
    """
    # two float64 scratch arrays that every parameter reuses, filled operation
    # by operation in the formula's order, so every result rounds as the
    # formula's would
    size = max((p.size for p in params.values()), default=0)
    t_all, u_all = np.empty(size), np.empty(size)
    for name, p in params.items():
        g = grads[name]
        a = acc[name]
        t, u = t_all[:p.size].reshape(p.shape), u_all[:p.size].reshape(p.shape)
        a *= RMSPROP_RHO
        np.multiply(g, 1.0 - RMSPROP_RHO, out=t)
        t *= g
        a += t
        np.multiply(g, lr, out=t)
        np.sqrt(a, out=u)
        u += RMSPROP_DELTA
        t /= u
        p -= t


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_macro_f1: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0  # 1-based epoch number of the retained checkpoint


def nll_loss(probabilities, labels) -> float:
    """-(1/N) sum log p(label), probabilities floored at 1e-12."""
    probs = np.atleast_2d(np.asarray(probabilities, dtype=float))
    labels = list(labels)
    if len(labels) != probs.shape[0]:
        raise ValueError("one label per probability row required")
    if any(lbl is None for lbl in labels):
        raise ValueError("nll_loss is defined on labeled samples only")
    idx = np.asarray(labels, dtype=int)
    picked = probs[np.arange(probs.shape[0]), idx]
    return float(-np.mean(np.log(np.maximum(picked, perturb.PROB_FLOOR))))


def lap_loss_from_probs(p_ref: np.ndarray, p_pert: np.ndarray) -> float:
    """Mean KL between frozen reference rows and perturbed prediction rows."""
    return float(np.mean(perturb.kl_rows(p_ref, p_pert)))


def predict(net: model.Network, features) -> tuple[int, np.ndarray]:
    """Class (argmax, ties to the lowest index) plus the probability vector
    of one (w, n) window.

    Prediction never engages the injection machinery.
    """
    probs = model.predict_proba(net, np.asarray(features, dtype=float)[None])[0]
    return int(np.argmax(probs)), probs


def _stack_features(samples) -> np.ndarray:
    return np.stack([np.asarray(s.features, dtype=float) for s in samples])


def select_unlabeled(pool, frac: float, seed: int) -> list:
    """Fixed, seed-deterministic subset of floor(frac * len(pool)) samples."""
    take = int(np.floor(frac * len(pool)))
    if not take:
        return []
    order = np.random.default_rng(
        np.random.SeedSequence([seed, 2])).permutation(len(pool))
    return [pool[i] for i in order[:take]]


def _batch_layout(n_labeled: int, n_unlabeled: int, batch_size: int) -> tuple[int, int]:
    """Rows per batch drawn from each pool, proportional to pool sizes; at
    least one labeled row so the supervised loss is always defined."""
    if n_unlabeled == 0:
        return min(batch_size, n_labeled), 0
    frac = n_unlabeled / (n_labeled + n_unlabeled)
    n_u = min(int(round(batch_size * frac)), batch_size - 1)
    return batch_size - n_u, n_u


def _batch_gradients(net: model.Network, Xb: np.ndarray, yb: np.ndarray,
                     pcfg: perturb.PerturbationConfig, seed: int, epoch: int,
                     b: int) -> tuple[dict[str, np.ndarray], float]:
    """Parameter gradients and loss of one batch whose first ``len(yb)``
    rows are labeled; raises NonFiniteLossError when the loss is not finite.

    Steps 2-5 of the module docstring. Every cache of the batch is freed by
    the time this returns, so none is alive at the next batch's forward.
    """
    n_lab = len(yb)
    cache = model.forward_batch(net, Xb)
    nll = nll_loss(cache.probs[:n_lab], yb)

    loss = nll
    tensors = {}
    if pcfg.mode == "supervised_at":
        # the one probe that backpropagates through the clean LSTM; train()
        # refuses unlabeled rows in this mode, so every row has a label
        tensors = perturb.compute_perturbation_tensors(net, cache, yb, pcfg)

    dlogits = np.zeros_like(cache.probs)
    dlogits[:n_lab] = model.nll_dlogits(cache.probs[:n_lab], yb) / n_lab
    # the parameter gradients alone: nothing below reads the clean pass's
    # activation gradients or LSTM internals, so free them before the probes
    # and the perturbed pass run the LSTM again
    grads = model.backward_batch(net, cache, dlogits)[0]
    clean = cache.activations()
    del cache

    if pcfg.mode == "virtual_at":
        tensors = perturb.compute_perturbation_tensors(
            net, clean, None, pcfg, seed=seed, epoch=epoch, batch_index=b)
    # the perturbed pass starts from Xb: only the clean output is read below
    p_clean = clean.probs
    del clean

    if tensors:
        pert_cache = model.forward_batch(net, Xb, tensors)
        del tensors
        lap = lap_loss_from_probs(p_clean, pert_cache.probs)
        loss = nll + pcfg.lam * lap
        if pcfg.lam != 0.0:
            dl_pert = (pcfg.lam * model.kl_dlogits(p_clean, pert_cache.probs)
                       / Xb.shape[0])
            grads2 = model.backward_batch(net, pert_cache, dl_pert)[0]
            for k in grads:
                grads[k] += grads2[k]

    if not math.isfinite(loss):
        raise NonFiniteLossError(epoch, b + 1, "nll" if not math.isfinite(nll) else "lap")
    return grads, loss


def train(dataset, train_config: TrainConfig,
          perturbation_config: Optional[perturb.PerturbationConfig] = None
          ) -> tuple[model.Network, TrainReport]:
    """Train on a DatasetSplit-shaped object (train_labeled / train_unlabeled /
    valid sample lists); returns the best-validation-macro-F1 checkpoint and
    the per-epoch report.

    With an empty validation set the final-epoch parameters are retained
    (the small-population protocol) and the validation columns read NaN.
    """
    cfg = train_config
    pcfg = perturbation_config or perturb.PerturbationConfig()
    labeled = list(dataset.train_labeled)
    if not labeled:
        raise ValueError("training requires at least one labeled sample")
    unlabeled_pool = list(dataset.train_unlabeled)
    valid = list(dataset.valid)

    unlabeled = select_unlabeled(unlabeled_pool, cfg.unlabeled_frac, cfg.seed)
    if pcfg.mode == "supervised_at" and unlabeled:
        raise ValueError(
            "supervised adversarial mode (lpat train --mode at) cannot train on "
            "unlabeled samples; set unlabeled_frac to 0 (--unlabeled-frac 0) or "
            "switch to virtual_at (--mode vat or lpat)")

    X_l = _stack_features(labeled).astype(TRAIN_DTYPE)
    y_l = np.array([int(s.label) for s in labeled])
    X_u = _stack_features(unlabeled).astype(TRAIN_DTYPE) if unlabeled else None

    n = X_l.shape[2]
    net = model.init_network(n, cfg.hidden1, cfg.hidden2, cfg.lstm_units,
                             classes=eval_mod.N_CLASSES, seed=cfg.seed)
    params = net.params()
    acc = init_optimizer(params)
    rng_data = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))

    n_l_rows, n_u_rows = _batch_layout(len(labeled), len(unlabeled), cfg.batch_size)
    report = TrainReport()
    best_f1 = -1.0
    best_net = None

    for epoch in range(1, cfg.epochs + 1):
        order = rng_data.permutation(len(labeled))
        batch_losses = []
        for b, lo in enumerate(range(0, len(labeled), n_l_rows)):
            li = order[lo:lo + n_l_rows]
            Xb = X_l[li]
            yb = y_l[li]
            if n_u_rows:
                ui = rng_data.integers(0, len(unlabeled), size=n_u_rows)
                Xb = np.concatenate([Xb, X_u[ui]], axis=0)
            grads, loss = _batch_gradients(net.astype(TRAIN_DTYPE), Xb, yb, pcfg,
                                           cfg.seed, epoch, b)
            rmsprop_step(params, {k: g.astype(np.float64) for k, g in grads.items()},
                         acc, cfg.learning_rate)
            batch_losses.append(loss)

        valid_loss = float("nan")
        valid_f1 = float("nan")
        if valid:
            valid_loss, valid_f1 = _validate(net, valid)
            if valid_f1 > best_f1:
                best_f1 = valid_f1
                best_net = net.copy()
                report.best_epoch = epoch
        report.epochs.append(EpochStats(
            epoch=epoch, train_loss=float(np.mean(batch_losses)),
            valid_loss=valid_loss, valid_macro_f1=valid_f1))

    if best_net is None:
        best_net = net
        report.best_epoch = cfg.epochs
    return best_net, report


def _validate(net: model.Network, samples) -> tuple[float, float]:
    labels = [int(s.label) for s in samples]
    probs = model.predict_proba(net, _stack_features(samples))
    preds = probs.argmax(axis=1)
    rep = eval_mod.metrics_from_confusion(eval_mod.confusion_matrix(labels, preds))
    return nll_loss(probs, labels), rep.macro_f1


def format_report(report: TrainReport) -> str:
    """One epoch per line: epoch, train loss, valid loss, valid macro-F1."""
    lines = [REPORT_MAGIC, "# epoch train_loss valid_loss valid_macro_f1"]
    for st in report.epochs:
        lines.append(f"{st.epoch} {st.train_loss!r} {st.valid_loss!r} {st.valid_macro_f1!r}")
    lines.append(f"# best_epoch {report.best_epoch}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> TrainReport:
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_MAGIC:
        raise ValueError("not a training report file")
    report = TrainReport()
    for ln in lines[1:]:
        if ln.startswith("# best_epoch "):
            report.best_epoch = int(ln.split()[-1])
        elif ln.startswith("#") or not ln.strip():
            continue
        else:
            e, tl, vl, vf = ln.split()
            report.epochs.append(EpochStats(int(e), float(tl), float(vl), float(vf)))
    return report
