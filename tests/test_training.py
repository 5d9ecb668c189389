import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from lpat import evaluate as ev
from lpat import checkpoint, model, perturb, training

from oracles import fd_grad_wrt, kl_divergence, rel_error


class FakeSample:
    def __init__(self, features, label=None, serial="s0"):
        self.features = features
        self.label = label
        self.serial = serial


def toy_dataset(seed=0, per_class=30, w=4, n=2, noise=0.02, n_valid=6,
                n_unlabeled=0):
    """Linearly separable three-class task: each class sits at its own level."""
    rng = np.random.default_rng(seed)
    levels = {0: 0.2, 1: 0.5, 2: 0.8}

    def make(label, count):
        out = []
        for _ in range(count):
            feats = np.clip(levels[label] + noise * rng.normal(size=(w, n)), 0, 1)
            out.append(FakeSample(feats, label))
        return out

    train = [s for lbl in (0, 1, 2) for s in make(lbl, per_class)]
    valid = [s for lbl in (0, 1, 2) for s in make(lbl, n_valid)]
    unlabeled = []
    for _ in range(n_unlabeled):
        lbl = int(rng.integers(0, 3))
        s = make(lbl, 1)[0]
        s.label = None
        unlabeled.append(s)
    return SimpleNamespace(train_labeled=train, train_unlabeled=unlabeled,
                           valid=valid)


def small_cfg(**kw):
    base = dict(learning_rate=0.005, batch_size=32, epochs=8, seed=0,
                hidden1=8, hidden2=8, lstm_units=12, unlabeled_frac=1.0)
    base.update(kw)
    return training.TrainConfig(**base)


def params_equal(a: model.Network, b: model.Network) -> bool:
    return all(np.array_equal(v, b.params()[k]) for k, v in a.params().items())


# -------------------------------------------------------------------- losses

def test_nll_zero_when_true_class_gets_full_probability():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert training.nll_loss(probs, [0, 1]) == 0.0


def test_nll_single_half_probability_is_ln2():
    assert training.nll_loss(np.array([[0.5, 0.25, 0.25]]), [0]) == \
        pytest.approx(np.log(2.0), abs=1e-12)


def test_nll_is_the_mean_of_per_sample_losses():
    probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
    a = training.nll_loss(probs[:1], [0])
    b = training.nll_loss(probs[1:], [0])
    assert training.nll_loss(probs, [0, 0]) == pytest.approx((a + b) / 2, rel=1e-15)


def test_nll_rejects_unlabeled_samples():
    with pytest.raises(ValueError):
        training.nll_loss(np.array([[1.0, 0.0, 0.0]]), [None])


def test_lap_loss_zero_for_zero_perturbations():
    net = model.init_network(2, 4, 4, 5, 3, seed=0)
    rng = np.random.default_rng(0)
    batch = rng.uniform(size=(3, 3, 2))
    base = model.forward_batch(net, batch)
    zeros = model.forward_batch(net, batch, {0: np.zeros((3, 3, 2))})
    assert training.lap_loss_from_probs(base.probs, zeros.probs) == 0.0
    empty = model.forward_batch(net, batch, {})
    assert training.lap_loss_from_probs(base.probs, empty.probs) == 0.0


def test_lap_loss_closed_form_single_pair():
    val = training.lap_loss_from_probs(np.array([[1.0, 0.0, 0.0]]),
                                       np.array([[0.5, 0.5, 0.0]]))
    assert val == pytest.approx(np.log(2.0), abs=1e-12)


def test_lap_loss_nonnegative_for_real_perturbations():
    net = model.init_network(2, 4, 4, 5, 3, seed=1)
    rng = np.random.default_rng(1)
    batch = rng.uniform(size=(5, 3, 2))
    cfg = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                     epsilon=1.0, xi=1.0)
    base = model.forward_batch(net, batch)
    tensors = perturb.compute_perturbation_tensors(net, base, None, cfg, seed=2)
    pert = model.forward_batch(net, batch, tensors)
    assert training.lap_loss_from_probs(base.probs, pert.probs) >= 0.0


# ------------------------------------------------------------------- rmsprop

def test_rmsprop_zero_gradient_leaves_parameters_unchanged():
    params = {"w": np.array([1.5, -2.0])}
    state = training.init_optimizer(params)
    training.rmsprop_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.5, -2.0])


def test_rmsprop_hand_computed_first_step():
    params = {"w": np.array([1.0])}
    state = training.init_optimizer(params)
    training.rmsprop_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    assert state["w"][0] == pytest.approx(0.1, abs=1e-15)
    delta = params["w"][0] - 1.0
    assert delta == pytest.approx(-0.001 / (np.sqrt(0.1) + 1e-8), rel=1e-12)
    assert delta == pytest.approx(-0.0031623, abs=1e-7)


def test_rmsprop_repeated_identical_gradients_shrink_the_step():
    params = {"w": np.array([0.0])}
    state = training.init_optimizer(params)
    training.rmsprop_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    first = abs(params["w"][0])
    before = params["w"][0]
    training.rmsprop_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    second = abs(params["w"][0] - before)
    assert second < first


def test_rmsprop_step_rounds_as_its_formula():
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = {"w": rng.normal(size=(40, 30)), "b": rng.normal(size=30)}
        acc = {k: rng.uniform(size=v.shape) for k, v in params.items()}
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=v.shape)
                 for k, v in params.items()}
        want_acc = {k: a * training.RMSPROP_RHO + (1.0 - training.RMSPROP_RHO)
                    * grads[k] * grads[k] for k, a in acc.items()}
        want = {k: p - 0.003 * grads[k] / (np.sqrt(want_acc[k]) + training.RMSPROP_DELTA)
                for k, p in params.items()}
        training.rmsprop_step(params, grads, acc, lr=0.003)
        for k in params:
            assert acc[k].tobytes() == want_acc[k].tobytes()
            assert params[k].tobytes() == want[k].tobytes()


# ------------------------------------------------------------------ training

def test_training_fits_a_separable_task():
    data = toy_dataset(seed=1)
    cfg = small_cfg(epochs=50)
    net, report = training.train(data, cfg, perturb.PerturbationConfig(mode="none"))
    assert report.epochs[-1].train_loss < 0.05
    assert len(report.epochs) == 50


def test_lambda_zero_reduces_to_basic_training_exactly():
    data = toy_dataset(seed=2, n_unlabeled=20)
    cfg = small_cfg(epochs=3)
    vat = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                     epsilon=1.0, xi=1.0, lam=0.0)
    net_a, rep_a = training.train(data, cfg, vat)
    net_b, rep_b = training.train(data, cfg, perturb.PerturbationConfig(mode="none"))
    assert params_equal(net_a, net_b)
    assert rep_a.epochs == rep_b.epochs


def test_same_seed_gives_identical_reports_and_parameters():
    data = toy_dataset(seed=3, n_unlabeled=10)
    cfg = small_cfg(epochs=3)
    pcfg = perturb.PerturbationConfig(mode="virtual_at", layers="bottom",
                                      epsilon=0.5, xi=1.0, lam=1.0)
    net_a, rep_a = training.train(data, cfg, pcfg)
    net_b, rep_b = training.train(data, cfg, pcfg)
    assert params_equal(net_a, net_b)
    assert rep_a == rep_b


def test_different_seeds_change_the_trajectory():
    data = toy_dataset(seed=4)
    net_a, _ = training.train(data, small_cfg(epochs=2, seed=0),
                              perturb.PerturbationConfig(mode="none"))
    net_b, _ = training.train(data, small_cfg(epochs=2, seed=1),
                              perturb.PerturbationConfig(mode="none"))
    assert not params_equal(net_a, net_b)


def test_supervised_mode_refuses_an_unlabeled_pool():
    data = toy_dataset(seed=5, n_unlabeled=8)
    pcfg = perturb.PerturbationConfig(mode="supervised_at", layers="input",
                                      epsilon=0.5)
    with pytest.raises(ValueError):
        training.train(data, small_cfg(epochs=1), pcfg)
    # consuming none of the unlabeled pool makes it legal
    net, _ = training.train(data, small_cfg(epochs=1, unlabeled_frac=0.0), pcfg)
    assert net is not None


def test_returned_checkpoint_attains_the_best_validation_macro_f1():
    data = toy_dataset(seed=6, per_class=20)
    cfg = small_cfg(epochs=10)
    net, report = training.train(data, cfg, perturb.PerturbationConfig(mode="none"))
    best = max(e.valid_macro_f1 for e in report.epochs)
    assert report.epochs[report.best_epoch - 1].valid_macro_f1 == best
    rep = ev.evaluate(net, data.valid)
    assert rep.macro_f1 == pytest.approx(best, abs=1e-12)


def test_empty_validation_split_keeps_final_epoch():
    data = toy_dataset(seed=7, per_class=10)
    data.valid = []
    net, report = training.train(data, small_cfg(epochs=3),
                                 perturb.PerturbationConfig(mode="none"))
    assert report.best_epoch == 3
    assert np.isnan(report.epochs[0].valid_loss)


def test_training_requires_labeled_samples():
    data = SimpleNamespace(train_labeled=[], train_unlabeled=[], valid=[])
    with pytest.raises(ValueError):
        training.train(data, small_cfg(), perturb.PerturbationConfig(mode="none"))


def test_select_unlabeled_takes_the_floor_fraction_deterministically():
    pool = list(range(100))
    chosen = training.select_unlabeled(pool, 0.6, seed=4)
    assert len(chosen) == 60
    assert chosen == training.select_unlabeled(pool, 0.6, seed=4)
    assert chosen != training.select_unlabeled(pool, 0.6, seed=5)
    assert training.select_unlabeled(pool, 0.0, seed=4) == []
    assert len(training.select_unlabeled(pool, 1.0, seed=4)) == 100


STEP_LAM = 2.0


def _capture_first_step(monkeypatch, mode, n_unlabeled):
    """Train a one-step epoch at lambda ``STEP_LAM``, recording what that step
    saw and produced: the network before the update, the batch, its labels
    and perturbations, all in ``training.TRAIN_DTYPE``, the gradients handed
    to RMSProp, and the report."""
    data = toy_dataset(seed=9, per_class=4, n_valid=0, n_unlabeled=n_unlabeled)
    cfg = small_cfg(epochs=1, hidden1=3, hidden2=3, lstm_units=4,
                    unlabeled_frac=1.0 if n_unlabeled else 0.0)
    pcfg = perturb.PerturbationConfig(mode=mode, layers="all", epsilon=1.0,
                                      xi=1e-3, lam=STEP_LAM)
    seen = {}
    real_batch = training._batch_gradients
    real_perturb = perturb.compute_perturbation_tensors
    real_step = training.rmsprop_step

    def spy_batch(net, Xb, yb, *args):
        seen.setdefault("batch", (net.copy(), Xb.copy(), yb.copy()))
        return real_batch(net, Xb, yb, *args)

    def spy_perturb(*args, **kw):
        tensors = real_perturb(*args, **kw)
        seen.setdefault("tensors", {m: t.copy() for m, t in tensors.items()})
        return tensors

    def spy_step(params, grads, state, lr):
        seen.setdefault("grads", {k: g.copy() for k, g in grads.items()})
        real_step(params, grads, state, lr)

    monkeypatch.setattr(training, "_batch_gradients", spy_batch)
    monkeypatch.setattr(perturb, "compute_perturbation_tensors", spy_perturb)
    monkeypatch.setattr(training, "rmsprop_step", spy_step)
    _, report = training.train(data, cfg, pcfg)
    net, X, y = seen["batch"]
    tensors = seen["tensors"]
    assert len(y) == 12 and (len(X) > len(y)) == bool(n_unlabeled)
    assert len(report.epochs) == 1
    assert {a.dtype for a in (X, *tensors.values())} == {np.dtype(training.TRAIN_DTYPE)}
    return (net, X, y, tensors), seen["grads"], report


@pytest.mark.parametrize("mode,n_unlabeled", [("supervised_at", 0),
                                              ("virtual_at", 6)])
def test_training_step_gradient_is_that_of_nll_plus_lambda_lap(monkeypatch, mode,
                                                               n_unlabeled):
    """The update direction is the exact gradient of the documented objective
    nll + lambda * lap, perturbations and reference distribution held fixed,
    finite differences taken in float64 at the point the float32 step saw."""
    (net, X, y, tensors), grads, _ = _capture_first_step(monkeypatch, mode, n_unlabeled)
    # exactly the values the float32 step saw, as float64
    net, X = net.astype(np.float64), X.astype(np.float64)
    tensors = {m: t.astype(np.float64) for m, t in tensors.items()}
    n_lab = len(y)
    assert sorted(tensors) == list(perturb.LAYER_SELECTIONS["all"])
    p_ref = model.forward_batch(net, X).probs

    def nll():
        p = model.forward_batch(net, X).probs[:n_lab]
        return -np.mean(np.log(p[np.arange(n_lab), y]))

    def objective():
        q = model.forward_batch(net, X, tensors).probs
        return nll() + STEP_LAM * np.mean(np.sum(p_ref * np.log(p_ref / q), axis=1))

    for name, arr in net.params().items():
        fd = fd_grad_wrt(arr, objective, step=1e-5)
        err = rel_error(grads[name], fd)
        assert err < 1e-6, f"{mode} {name}: rel err {err:.2e}"
    # the adversarial term is not negligible: without it the gradient differs
    gap = max(rel_error(grads[name], fd_grad_wrt(arr, nll, step=1e-5))
              for name, arr in net.params().items())
    assert gap > 1e-3, f"{mode}: lap term moves the gradient by only {gap:.2e}"


@pytest.mark.parametrize("mode,n_unlabeled", [("supervised_at", 0),
                                              ("virtual_at", 6)])
def test_one_step_epoch_reports_nll_plus_lambda_lap(monkeypatch, mode, n_unlabeled):
    """The train loss an epoch of one step reports is nll + lambda * lap,
    both computed here in float64 from the step's own forward passes: re-run
    on the captured float32 network, batch and perturbations, then upcast."""
    (net, X, y, tensors), _, report = _capture_first_step(monkeypatch, mode, n_unlabeled)
    n_lab = len(y)
    p_ref = model.forward_batch(net, X).probs.astype(np.float64)
    q = model.forward_batch(net, X, tensors).probs.astype(np.float64)
    nll = -np.mean(np.log(p_ref[np.arange(n_lab), y]))
    lap = np.mean([kl_divergence(p_ref[i], q[i]) for i in range(len(X))])
    assert lap > 0.0
    assert report.epochs[0].train_loss == pytest.approx(nll + STEP_LAM * lap, rel=1e-12)


def test_adversarial_modes_actually_train():
    data = toy_dataset(seed=8, per_class=15, n_unlabeled=15)
    cfg = small_cfg(epochs=12)
    for pcfg in (
        perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                   epsilon=0.5, xi=1.0, lam=1.0),
        perturb.PerturbationConfig(mode="supervised_at", layers="top",
                                   epsilon=0.5, lam=1.0),
    ):
        cfg_run = small_cfg(epochs=12,
                            unlabeled_frac=0.0 if pcfg.mode == "supervised_at" else 1.0)
        net, report = training.train(data, cfg_run, pcfg)
        assert report.epochs[-1].valid_loss < report.epochs[0].valid_loss


def _spy_updates(monkeypatch):
    """Record the gradients of every RMSProp update ``training.train`` makes."""
    updates = []
    real_step = training.rmsprop_step

    def spy_step(params, grads, state, lr):
        updates.append({k: g.copy() for k, g in grads.items()})
        real_step(params, grads, state, lr)

    monkeypatch.setattr(training, "rmsprop_step", spy_step)
    return updates


def test_a_non_finite_nll_stops_training_before_its_update(monkeypatch):
    data = toy_dataset(seed=4, per_class=10)
    data.train_labeled[7].features[2, 1] = np.nan
    updates = _spy_updates(monkeypatch)
    with pytest.raises(training.NonFiniteLossError,
                       match=r"^epoch 1, batch \d+: the nll term") as info:
        training.train(data, small_cfg(batch_size=8, epochs=3))
    err = info.value
    assert (err.epoch, err.term) == (1, "nll") and err.batch >= 1
    # every batch before the bad one updated, with finite gradients only
    assert len(updates) == err.batch - 1
    assert all(np.all(np.isfinite(g)) for u in updates for g in u.values())


def test_a_non_finite_unlabeled_window_stops_virtual_training_at_lap(monkeypatch):
    data = toy_dataset(seed=4, per_class=10, n_unlabeled=1)
    data.train_unlabeled[0].features[0, 0] = np.inf
    updates = _spy_updates(monkeypatch)
    pcfg = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                      epsilon=0.5, xi=0.01, lam=0.0)
    with np.errstate(invalid="ignore"), pytest.raises(
            training.NonFiniteLossError,
            match="^epoch 1, batch 1: the lap term") as info:
        training.train(data, small_cfg(epochs=2), pcfg)
    assert (info.value.epoch, info.value.batch, info.value.term) == (1, 1, "lap")
    assert updates == []


@pytest.mark.parametrize("mode,n_unlabeled", [("none", 8), ("supervised_at", 0),
                                              ("virtual_at", 8)])
def test_no_lstm_pass_starts_while_another_passes_internals_are_alive(
        monkeypatch, mode, n_unlabeled):
    """Each pass's LSTM internals are freed after their last reader: when
    any LSTM pass starts (clean, probe, perturbed, or the inference pass of
    validation), none of an earlier training pass's gates, c, tanh_c and h
    buffers is still alive. CPython frees an array when its last reference
    goes, so the count is deterministic."""
    real_lstm = model._lstm_forward
    passes = []
    alive_at_start = []
    inference_passes = []

    def count_alive():
        alive_at_start.append(sum(any(ref() is not None for ref in refs)
                                  for refs in passes))

    def spy_lstm(p, x, history=True):
        count_alive()
        out = real_lstm(p, x, history)
        if history:
            # the returned arrays are views; their bases own the buffers
            passes.append([weakref.ref(a.base) for a in out])
        else:
            inference_passes.append(len(x))
        return out

    monkeypatch.setattr(model, "_lstm_forward", spy_lstm)
    updates = _spy_updates(monkeypatch)
    data = toy_dataset(seed=3, per_class=10, n_unlabeled=n_unlabeled)
    pcfg = perturb.PerturbationConfig(mode=mode, layers="all", epsilon=0.5,
                                      xi=0.1, lam=1.0)
    epochs = 2
    training.train(data, small_cfg(epochs=epochs,
                                   unlabeled_frac=1.0 if n_unlabeled else 0.0), pcfg)
    # training passes: the clean pass, the three sequence probes, the
    # perturbed pass; validation runs one inference pass per epoch
    per_step = {"none": 1, "supervised_at": 2, "virtual_at": 5}[mode]
    assert len(passes) == per_step * len(updates)
    assert inference_passes == [len(data.valid)] * epochs
    assert max(alive_at_start) == 0


def test_a_virtual_step_peaks_less_than_one_pass_of_lstm_state_above_a_plain_step():
    """The virtual probes and the perturbed pass run while the clean pass's
    LSTM internals, its activation gradients and each probe's nudged pass
    are freed, so a virtual_at step over every point peaks less than one
    pass's c, tanh_c and h (3 * w * B * q values) above a plain step, at
    B = 128, w = 20 and the default widths."""
    cfg = training.TrainConfig()
    B, w, q = cfg.batch_size, 20, cfg.lstm_units
    net = model.init_network(8, cfg.hidden1, cfg.hidden2, q,
                             seed=0).astype(training.TRAIN_DTYPE)
    rng = np.random.default_rng(0)
    Xb = rng.uniform(size=(B, w, 8)).astype(training.TRAIN_DTYPE)
    yb = rng.integers(0, 3, size=B // 2)

    def peak_bytes(mode):
        pcfg = perturb.PerturbationConfig(mode=mode, layers="all")
        tracemalloc.start()
        try:
            training._batch_gradients(net, Xb, yb, pcfg, 0, 1, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak_bytes("virtual_at") - peak_bytes("none")
    assert extra < 3 * w * B * q * np.dtype(training.TRAIN_DTYPE).itemsize


@pytest.mark.parametrize("mode,n_unlabeled", [("none", 8), ("supervised_at", 0),
                                              ("virtual_at", 8)])
def test_every_training_pass_runs_in_the_training_dtype(monkeypatch, mode, n_unlabeled):
    """The clean pass, the probes and the perturbed pass of every step run
    their LSTM in float32 on float32 parameters; validation's inference
    pass and the gradients handed to RMSProp are float64."""
    real_lstm = model._lstm_forward
    step_dtypes, inference_dtypes = [], []

    def spy_lstm(p, x, history=True):
        out = real_lstm(p, x, history)
        dtypes = {a.dtype for a in (x, p.W, p.U, p.b, *out)}
        (step_dtypes if history else inference_dtypes).append(dtypes)
        return out

    monkeypatch.setattr(model, "_lstm_forward", spy_lstm)
    updates = _spy_updates(monkeypatch)
    data = toy_dataset(seed=3, per_class=10, n_unlabeled=n_unlabeled)
    pcfg = perturb.PerturbationConfig(mode=mode, layers="all", epsilon=0.5,
                                      xi=0.1, lam=1.0)
    training.train(data, small_cfg(epochs=2,
                                   unlabeled_frac=1.0 if n_unlabeled else 0.0), pcfg)
    per_step = {"none": 1, "supervised_at": 2, "virtual_at": 5}[mode]
    assert len(step_dtypes) == per_step * len(updates)
    assert step_dtypes == [{np.dtype(training.TRAIN_DTYPE)}] * len(step_dtypes)
    assert inference_dtypes == [{np.dtype(np.float64)}] * 2
    assert {g.dtype for u in updates for g in u.values()} == {np.dtype(np.float64)}


@pytest.mark.parametrize("n_valid", [6, 0], ids=["kept-epoch", "final-epoch"])
def test_training_returns_a_float64_network(tmp_path, n_valid):
    """The returned network, its checkpoint and its predictions are float64,
    whether validation chose the epoch or the last one is kept."""
    data = toy_dataset(seed=5, per_class=6, n_valid=n_valid, n_unlabeled=4)
    pcfg = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                      epsilon=0.5, xi=0.1)
    net, _ = training.train(data, small_cfg(epochs=2), pcfg)
    assert {a.dtype for a in net.params().values()} == {np.dtype(np.float64)}
    path = tmp_path / "net.ckpt"
    checkpoint.checkpoint_save(net, path)
    loaded, _ = checkpoint.checkpoint_load(path)
    for name, arr in loaded.params().items():
        assert arr.dtype == np.float64 and np.array_equal(arr, net.params()[name])
    X = np.stack([s.features for s in data.train_labeled])
    assert model.predict_proba(net, X).dtype == np.float64
    assert training.predict(net, X[0])[1].dtype == np.float64


# ------------------------------------------------------------------- predict

def biased_net(logit_bias):
    net = model.init_network(2, 3, 3, 4, 3, seed=0)
    net.dense3.W[...] = 0.0
    net.dense3.b[...] = np.asarray(logit_bias, dtype=float)
    return net


def test_predict_returns_argmax_class_and_distribution():
    net = biased_net(np.log([0.7, 0.2, 0.1]))
    label, probs = training.predict(net, np.full((3, 2), 0.4))
    assert label == 0
    np.testing.assert_allclose(probs, [0.7, 0.2, 0.1], atol=1e-12)


def test_predict_breaks_exact_ties_toward_the_lowest_class():
    net = biased_net([1.0, 1.0, 0.0])
    label, probs = training.predict(net, np.zeros((3, 2)))
    assert probs[0] == probs[1]
    assert label == 0


def test_predict_equals_plain_forward():
    net = model.init_network(2, 4, 4, 5, 3, seed=9)
    x = np.random.default_rng(9).uniform(size=(3, 2))
    label, probs = training.predict(net, x)
    assert np.array_equal(probs, model.forward_batch(net, x[None]).probs[0])
    assert label == int(np.argmax(probs))


def test_predict_rejects_wrong_shapes():
    net = biased_net([0.0, 0.0, 0.0])
    with pytest.raises(model.ShapeError):
        training.predict(net, np.zeros((3, 5)))


# -------------------------------------------------------------------- report

def test_train_report_round_trip():
    report = training.TrainReport(epochs=[
        training.EpochStats(1, 0.9, 0.85, 0.41),
        training.EpochStats(2, 0.7, float("nan"), float("nan")),
    ], best_epoch=1)
    text = training.format_report(report)
    back = training.parse_report(text)
    assert back.best_epoch == 1
    assert back.epochs[0] == report.epochs[0]
    assert np.isnan(back.epochs[1].valid_loss)
    assert back.epochs[1].train_loss == 0.7


def test_parse_report_rejects_garbage():
    with pytest.raises(ValueError):
        training.parse_report("nope\n")


def test_config_validation():
    with pytest.raises(ValueError):
        training.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        training.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        training.TrainConfig(unlabeled_frac=1.5)
    with pytest.raises(ValueError):
        training.TrainConfig(seed=-1)


NON_FINITE_FIELDS = {
    "learning_rate": lambda v: training.TrainConfig(learning_rate=v),
    "epsilon": lambda v: perturb.PerturbationConfig(epsilon=v),
    "xi": lambda v: perturb.PerturbationConfig(xi=v),
    "lam": lambda v: perturb.PerturbationConfig(lam=v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_config_rejects_a_non_finite_hyperparameter_naming_it(field, value):
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must be finite"):
        NON_FINITE_FIELDS[field](value)
