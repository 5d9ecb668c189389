import re
import tracemalloc
import warnings
import zlib
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from lpat import cache, data, model, perturb
from lpat import checkpoint as ckpt

from headers import edit_header, payload_start
from oracles import central_diff_grad, fd_grad_wrt, lstm_step, rel_error

FIXTURES = Path(__file__).parent / "fixtures"

TINY = dict(n_attrs=2, hidden1=4, hidden2=4, lstm_units=5, classes=3)


def tiny_net(seed=0):
    return model.init_network(**TINY, seed=seed)


def nll(net, x, label, perts=None):
    batched = {m: r[None] for m, r in (perts or {}).items()}
    cache = model.forward_batch(net, x[None], batched)
    return -float(np.log(cache.probs[0][label]))


# ------------------------------------------------------------------ lstm cell

def zero_lstm(d, q):
    return model.LstmParams(W=np.zeros((4 * q, d)), U=np.zeros((4 * q, q)),
                            b=np.zeros(4 * q))


def test_lstm_step_all_zero_gives_zero_state():
    p = zero_lstm(2, 3)
    h, c = lstm_step(np.ones(2), np.zeros(3), np.zeros(3), p)
    assert np.array_equal(h, np.zeros(3))
    assert np.array_equal(c, np.zeros(3))


def test_lstm_step_zero_params_nonzero_cell():
    # gates sit at 0.5, candidate at 0: c = 0.5*2 = 1, h = 0.5*tanh(1)
    p = zero_lstm(1, 1)
    h, c = lstm_step(np.array([7.0]), np.zeros(1), np.array([2.0]), p)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert h[0] == pytest.approx(0.5 * np.tanh(1.0), abs=1e-12)
    assert h[0] == pytest.approx(0.380797, abs=1e-6)


def test_lstm_step_shape_mismatch_raises():
    p = zero_lstm(2, 3)
    with pytest.raises(model.ShapeError):
        lstm_step(np.zeros(4), np.zeros(3), np.zeros(3), p)
    with pytest.raises(model.ShapeError):
        lstm_step(np.zeros(2), np.zeros(2), np.zeros(3), p)


def test_lstm_step_agrees_with_batched_forward():
    rng = np.random.default_rng(11)
    d, q, w = 3, 4, 6
    p = model.LstmParams(W=rng.normal(size=(4 * q, d)),
                         U=rng.normal(size=(4 * q, q)),
                         b=rng.normal(size=4 * q))
    x = rng.normal(size=(1, w, d))
    _, c_seq, _, h_seq = model._lstm_forward(p, x)
    h, c = np.zeros(q), np.zeros(q)
    for t in range(w):
        h, c = lstm_step(x[0, t], h, c, p)
        np.testing.assert_allclose(h, h_seq[0, t], atol=1e-12)
        np.testing.assert_allclose(c, c_seq[0, t], atol=1e-12)


def test_lstm_step_param_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    d, q = 2, 3
    p = model.LstmParams(W=rng.normal(size=(4 * q, d)) * 0.5,
                         U=rng.normal(size=(4 * q, q)) * 0.5,
                         b=rng.normal(size=4 * q) * 0.5)
    x = rng.normal(size=(1, 1, d))
    v = rng.normal(size=q)

    def scalar():
        _, _, _, h = model._lstm_forward(p, x)
        return float(v @ h[0, -1])

    gates, c, tc, h = model._lstm_forward(p, x)
    cache = model.ForwardCache(xhat={2: x}, gates=gates, c=c, tanh_c=tc, h=h,
                               probs=np.zeros((1, 3)))
    _, (dW, dU, db) = model._lstm_backward(p, cache, v[None, :], True)
    for arr, ana in ((p.W, dW), (p.U, dU), (p.b, db)):
        fd = fd_grad_wrt(arr, scalar)
        assert rel_error(ana, fd) < 1e-4


def test_lstm_zero_params_zero_state_gives_zero_hidden_for_any_input():
    rng = np.random.default_rng(5)
    p = zero_lstm(3, 4)
    x = rng.normal(size=(2, 7, 3)) * 10.0
    _, _, _, h = model._lstm_forward(p, x)
    assert np.array_equal(h, np.zeros_like(h))


# ------------------------------------------------------------------ gate math

def test_cached_gates_are_the_logistic_and_tanh_of_their_pre_activations():
    net = model.init_network(8, 16, 16, 12, 3, seed=6)
    q = net.lstm.units
    X = np.random.default_rng(6).normal(size=(7, 6, 8)) * 4.0
    cache = model.forward_batch(net, X)
    x, p = cache.xhat[2], net.lstm
    for t in range(X.shape[1]):
        pre = x[:, t] @ p.W.T + p.b
        if t > 0:
            pre += cache.h[:, t - 1] @ p.U.T
        gates = cache.gates[:, t]
        assert rel_error(gates[:, :3 * q], expit(pre[:, :3 * q])) < 1e-15, t
        assert rel_error(gates[:, 3 * q:], np.tanh(pre[:, 3 * q:])) < 1e-15, t


def test_saturated_gates_are_exact_and_raise_no_warning():
    net = tiny_net(7)
    q = net.lstm.units
    net.lstm.W *= 1e-3
    net.lstm.U *= 1e-3
    sign = np.where(np.arange(4 * q) % 2 == 0, 1.0, -1.0)
    net.lstm.b[:] = 1000.0 * sign
    X = np.random.default_rng(7).uniform(size=(4, 5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = model.forward_batch(net, X)
        probs = model.predict_proba(net, X)
    assert np.array_equal(cache.gates[..., :3 * q],
                          np.broadcast_to(sign[:3 * q] > 0, (4, 5, 3 * q)).astype(float))
    assert np.array_equal(cache.gates[..., 3 * q:],
                          np.broadcast_to(sign[3 * q:], (4, 5, q)))
    assert np.array_equal(probs, cache.probs)


# ------------------------------------------------------------- forward passes

def test_forward_empty_and_zero_perturbations_match_plain():
    net = tiny_net(1)
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(3, 2))
    plain = model.forward_batch(net, x[None])
    empty = model.forward_batch(net, x[None], {})
    zeros = model.forward_batch(net, x[None], {
        0: np.zeros((1, 3, 2)), 1: np.zeros((1, 3, 4)), 2: np.zeros((1, 3, 4)),
        3: np.zeros((1, 5)), 4: np.zeros((1, 3)),
    })
    for other in (empty, zeros):
        assert np.array_equal(plain.probs, other.probs)
        for m in perturb.LAYER_SELECTIONS["all"]:
            assert np.array_equal(plain.xhat[m], other.xhat[m])


def test_forward_rejects_bad_input_and_perturbation_shapes():
    net = tiny_net(1)
    with pytest.raises(model.ShapeError):
        model.forward_batch(net, np.zeros((1, 3, 5)))
    with pytest.raises(model.ShapeError):
        model.forward_batch(net, np.zeros((1, 6)))
    with pytest.raises(model.ShapeError):
        model.forward_batch(net, np.zeros((1, 3, 2)), {3: np.zeros((1, 7))})
    with pytest.raises(model.ShapeError):
        model.forward_batch(net, np.zeros((1, 3, 2)), {9: np.zeros((1, 5))})


WIDTHS = {"tiny": tuple(TINY.values()), "default": (8, 128, 128, 200, 3)}


def folded_network(net):
    """``net`` with identity dense-1 and dense-2 (zero bias, so ``x @ I + 0``
    is ``x`` exactly) and the LSTM that ``predict_proba`` folds them into."""
    eye = np.eye(net.dense1.in_dim, dtype=net.dense1.W.dtype)
    zero = np.zeros(net.dense1.in_dim, dtype=net.dense1.W.dtype)
    return model.Network(model.DenseParams(eye, zero), model.DenseParams(eye, zero),
                         model._folded_lstm(net), net.dense3)


def with_biases(net, seed):
    """``net`` with every bias drawn from N(0, 0.5^2): at init the dense
    biases are zero, and the fold must carry them (``W (W2 b1 + b2)``)."""
    rng = np.random.default_rng(seed)
    for b in (net.dense1.b, net.dense2.b, net.lstm.b, net.dense3.b):
        b += 0.5 * rng.normal(size=b.shape)
    return net


def assert_near_forward_batch(net, X, probs):
    """``probs`` agree with ``forward_batch`` on ``net`` within 1e-12, with
    the same argmax."""
    unfolded = model.forward_batch(net, X).probs
    np.testing.assert_allclose(probs, unfolded, rtol=0, atol=1e-12)
    assert np.array_equal(probs.argmax(axis=1), unfolded.argmax(axis=1))


def assert_folded_inference(net, X, probs):
    """(a) ``probs`` are bit for bit ``forward_batch`` on the folded network;
    (b) ``assert_near_forward_batch``."""
    assert np.array_equal(probs, model.forward_batch(folded_network(net), X).probs)
    assert_near_forward_batch(net, X, probs)


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS.keys())
def test_predict_proba_is_the_forward_batch_output_bit_for_bit(widths):
    """... of the network with dense-1 and dense-2 folded into the LSTM."""
    net = with_biases(model.init_network(*widths, seed=4), 4)
    n = widths[0]
    rng = np.random.default_rng(4)
    for B in (1, 2, 7, 310, 512):
        for w in (1, 3, 20):
            X = rng.uniform(size=(B, w, n))
            try:
                assert_folded_inference(net, X, model.predict_proba(net, X))
            except AssertionError as exc:
                raise AssertionError(f"B={B}, w={w}") from exc
    empty = model.predict_proba(net, np.zeros((0, 3, n)))
    assert empty.shape == (0, 3)
    with pytest.raises(model.ShapeError):
        model.predict_proba(net, np.zeros((1, 3, n + 1)))
    with pytest.raises(model.ShapeError):
        model.predict_proba(net, np.zeros((1, 3 * n)))


@pytest.mark.parametrize("n", (64, 128))
@pytest.mark.parametrize("q", (4, 32))
def test_predict_proba_agrees_with_forward_batch_at_wide_inputs(n, q):
    """At these widths the per-step input rows of the inference pass need
    not round like the training pass's one GEMM, so only the agreement with
    ``forward_batch`` on ``net`` is pinned: within 1e-12, same class."""
    net = with_biases(model.init_network(n, 16, 16, q, seed=9), 9)
    rng = np.random.default_rng(9)
    for B in (1, 2, 3, 7, 64, 310):
        for w in (2, 5, 20):
            X = rng.uniform(size=(B, w, n))
            try:
                assert_near_forward_batch(net, X, model.predict_proba(net, X))
            except AssertionError as exc:
                raise AssertionError(f"B={B}, w={w}") from exc


def test_predict_proba_runs_each_chunk_as_forward_batch_would():
    net = with_biases(tiny_net(5), 5)
    X = np.random.default_rng(5).normal(size=(1100, 4, 2))
    probs = model.predict_proba(net, X)
    assert probs.shape == (1100, 3)
    for lo in range(0, 1100, model.PREDICT_CHUNK):
        chunk = slice(lo, lo + model.PREDICT_CHUNK)
        assert_folded_inference(net, X[chunk], probs[chunk])


def test_inference_folds_once_and_builds_no_per_step_dense_activations(monkeypatch):
    """Over three chunks the fold runs once, and ``_dense`` only ever sees
    the (B, q) final hidden states (dense-3); a float32 fold stays float32."""
    net = model.init_network(*WIDTHS["default"], seed=6)
    X = np.random.default_rng(6).uniform(size=(1100, 3, 8))
    dense_inputs, folds = [], []
    real_dense, real_fold = model._dense, model._folded_lstm

    def dense(p, x):
        dense_inputs.append(x.shape)
        return real_dense(p, x)

    def fold(n):
        folds.append(n)
        return real_fold(n)

    monkeypatch.setattr(model, "_dense", dense)
    monkeypatch.setattr(model, "_folded_lstm", fold)
    model.predict_proba(net, X)
    assert len(folds) == 1 and folds[0] is net
    assert dense_inputs == [(512, 200), (512, 200), (76, 200)]
    monkeypatch.undo()
    folded = model._folded_lstm(net.astype(np.float32))
    assert {a.dtype for a in (folded.W, folded.U, folded.b)} == {np.dtype(np.float32)}


def test_predict_proba_keeps_no_per_step_lstm_state(monkeypatch):
    """The inference pass never builds the training pass's per-step c,
    tanh_c and h (3 * w * B * q float64 values); it peaks at least that much
    below forward_batch."""
    B, w, widths = 310, 20, WIDTHS["default"]
    net = model.init_network(*widths, seed=0)
    X = np.random.default_rng(0).uniform(size=(B, w, widths[0]))

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forward_peak = peak_bytes(lambda: model.forward_batch(net, X).probs)

    real_lstm = model._lstm_forward

    def no_training_pass(p, x, history=True):
        if history:
            raise AssertionError("predict_proba ran the training LSTM pass")
        return real_lstm(p, x, history)

    monkeypatch.setattr(model, "_lstm_forward", no_training_pass)
    predict_peak = peak_bytes(lambda: model.predict_proba(net, X))
    assert forward_peak - predict_peak >= 3 * w * B * widths[3] * 8
    assert predict_peak < w * B * 4 * widths[3] * 8


def test_forward_probabilities_form_a_distribution():
    net = tiny_net(4)
    rng = np.random.default_rng(4)
    cache = model.forward_batch(net, rng.uniform(size=(8, 3, 2)))
    assert np.all(cache.probs > 0)
    np.testing.assert_allclose(cache.probs.sum(axis=1), 1.0, atol=1e-9)


def test_resume_forward_matches_full_forward_at_every_point():
    net = tiny_net(7)
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(4, 3, 2))
    base = model.forward_batch(net, X)
    shapes = {0: (4, 3, 2), 1: (4, 3, 4), 2: (4, 3, 4), 3: (4, 5), 4: (4, 3)}
    for m, shape in shapes.items():
        r = rng.normal(size=shape)
        resumed = model.resume_forward(net, base, m, r)
        full = model.forward_batch(net, X, {m: r})
        np.testing.assert_allclose(resumed.probs, full.probs, atol=1e-12)
        np.testing.assert_allclose(resumed.xhat[4], full.xhat[4], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
       st.floats(-30, 30))
def test_softmax_shift_invariance_and_simplex(logits, shift):
    z = np.array(logits)
    p = model.softmax(z)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-9
    q = model.softmax(z + shift)
    assert np.max(np.abs(p - q)) < 1e-9


# ----------------------------------------------------------- exact gradients

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parameter_gradients_match_finite_differences(seed):
    net = tiny_net(seed)
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(size=(3, 2))
    label = int(rng.integers(0, 3))

    cache = model.forward_batch(net, x[None])
    dl = cache.probs[0].copy()
    dl[label] -= 1.0
    grads, _ = model.backward_batch(net, cache, dl[None])
    for name, arr in net.params().items():
        fd = fd_grad_wrt(arr, lambda: nll(net, x, label))
        assert rel_error(grads[name], fd) < 1e-4, name


@pytest.mark.parametrize("seed", [0, 1])
def test_injection_point_gradients_match_finite_differences(seed):
    net = tiny_net(seed)
    rng = np.random.default_rng(200 + seed)
    x = rng.uniform(size=(3, 2))
    label = int(rng.integers(0, 3))

    cache = model.forward_batch(net, x[None])
    dl = cache.probs[0].copy()
    dl[label] -= 1.0
    _, act = model.backward_batch(net, cache, dl[None])
    shapes = {0: (3, 2), 1: (3, 4), 2: (3, 4), 3: (5,), 4: (3,)}
    for m, shape in shapes.items():
        fd = central_diff_grad(lambda r, m=m: nll(net, x, label, {m: r}),
                               np.zeros(shape))
        assert rel_error(act[m][0], fd) < 1e-4, f"point {m}"


def test_gradients_exact_through_a_perturbed_forward():
    # backward must differentiate the graph that was actually run, including
    # nonzero injected perturbations
    net = tiny_net(9)
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(3, 2))
    base = {1: rng.normal(size=(3, 4)) * 0.3, 3: rng.normal(size=5) * 0.3}
    label = 1

    cache = model.forward_batch(net, x[None], {m: r[None] for m, r in base.items()})
    dl = cache.probs[0].copy()
    dl[label] -= 1.0
    grads, _ = model.backward_batch(net, cache, dl[None])
    for name, arr in net.params().items():
        fd = fd_grad_wrt(arr, lambda: nll(net, x, label, base))
        assert rel_error(grads[name], fd) < 1e-4, name


def test_nll_gradient_zero_when_prediction_equals_onehot_target():
    dl = model.nll_dlogits(np.array([[0.0, 1.0, 0.0]]), [1])
    assert np.array_equal(dl, np.zeros((1, 3)))


def test_backward_down_to_skips_lower_layers():
    net = tiny_net(3)
    rng = np.random.default_rng(33)
    X = rng.uniform(size=(2, 3, 2))
    cache = model.forward_batch(net, X)
    dl = model.kl_dlogits(cache.probs, model.softmax(rng.normal(size=(2, 3))))
    full_grads, full_act = model.backward_batch(net, cache, dl)
    _, part = model.backward_batch(net, cache, dl, want_param_grads=False, down_to=3)
    assert set(part) == {3, 4}
    np.testing.assert_allclose(part[3], full_act[3], atol=1e-15)
    with pytest.raises(ValueError):
        model.backward_batch(net, cache, dl, want_param_grads=True, down_to=2)
    assert full_grads is not None


@pytest.mark.parametrize("B, w, contiguous", [
    (7, 5, True), (7, 5, False), (1, 5, False), (6, 1, False), (1, 1, True)])
def test_dense_weight_gradients_equal_the_einsum_sum(B, w, contiguous):
    net = model.init_network(8, 16, 16, 12, 3, seed=8)
    rng = np.random.default_rng(8)
    if contiguous:
        X = rng.normal(size=(B, w, 8))
    else:
        X = rng.normal(size=(w, B, 16))[:, :, ::2].transpose(1, 0, 2)
    cache = model.forward_batch(net, X)
    assert cache.xhat[0].flags.c_contiguous == contiguous
    dl = model.nll_dlogits(cache.probs, rng.integers(0, 3, size=B))
    grads, act = model.backward_batch(net, cache, dl)
    for name, dy, x in (("dense2.W", act[2], cache.xhat[1]),
                        ("dense1.W", act[1], cache.xhat[0])):
        assert rel_error(grads[name], np.einsum("bto,bti->oi", dy, x)) < 1e-12, name


# ------------------------------------------------------------------ precision

class AllocationSpy:
    """Stands in for ``np`` inside ``model`` and records the dtype of every
    array it allocates there; everything else is numpy's own."""

    ALLOCATORS = ("empty", "zeros", "empty_like", "zeros_like")

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.ALLOCATORS:
            return attr

        def allocate(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.dtypes.append(out.dtype)
            return out
        return allocate


def pass_operands(seed, B=4, w=3):
    """An input batch, a perturbation at every point and a logit gradient,
    all float64, shaped for ``TINY``."""
    rng = np.random.default_rng(seed)
    shapes = {0: (B, w, 2), 1: (B, w, 4), 2: (B, w, 4), 3: (B, 5), 4: (B, 3)}
    return (rng.uniform(size=(B, w, 2)),
            {m: 0.1 * rng.normal(size=s) for m, s in shapes.items()},
            rng.normal(size=(B, 3)))


def pass_arrays(cache, grads, act):
    out = [*cache.xhat.values(), cache.probs, *act.values(), *(grads or {}).values()]
    if isinstance(cache, model.ForwardCache):
        out += [cache.gates, cache.c, cache.tanh_c, cache.h]
    return out


def test_a_float32_network_runs_every_pass_in_float32(monkeypatch):
    """A float32 network fed a float64 batch, float64 perturbations and a
    float64 logit gradient: every activation, LSTM internal and gradient of
    its passes is float32, and so is every array the passes allocate."""
    net = tiny_net(3).astype(np.float32)
    X, perts, dlogits = pass_operands(3)
    spy = AllocationSpy()
    monkeypatch.setattr(model, "np", spy)
    cache = model.forward_batch(net, X, perts)
    arrays = pass_arrays(cache, *model.backward_batch(net, cache, dlogits))
    for m in perturb.LAYER_SELECTIONS["all"]:
        resumed = model.resume_forward(net, cache, m, perts[m])
        arrays += pass_arrays(resumed, *model.backward_batch(
            net, resumed, dlogits, want_param_grads=False, down_to=m))
    arrays.append(model.predict_proba(net, X))
    monkeypatch.undo()
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert spy.dtypes and set(spy.dtypes) == {np.dtype(np.float32)}


def test_a_float64_network_runs_float32_operands_in_float64():
    """Operands cast up exactly, so the pass is the one on float64 copies of
    them, bit for bit."""
    net = tiny_net(4)
    X, perts, dlogits = pass_operands(4)
    X32, dl32 = X.astype(np.float32), dlogits.astype(np.float32)
    perts32 = {m: r.astype(np.float32) for m, r in perts.items()}
    cache = model.forward_batch(net, X32, perts32)
    grads, act = model.backward_batch(net, cache, dl32)
    ref = model.forward_batch(net, X32.astype(float),
                              {m: r.astype(float) for m, r in perts32.items()})
    ref_grads, ref_act = model.backward_batch(net, ref, dl32.astype(float))
    for got, want in zip(pass_arrays(cache, grads, act), pass_arrays(ref, ref_grads, ref_act)):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    probs = model.predict_proba(net, X32)
    assert probs.dtype == np.float64
    assert_folded_inference(net, X32.astype(float), probs)


# ----------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = tiny_net(12)
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path, meta={"window": "3", "attrs": "a,b"})
    loaded, meta = ckpt.checkpoint_load(path)
    assert meta == {"window": "3", "attrs": "a,b"}
    for name, arr in net.params().items():
        other = loaded.params()[name]
        assert arr.tobytes() == other.tobytes(), name


@pytest.mark.parametrize("key,value", [
    ("k", "a\nb"), ("k", "a\rb"), ("k", "a\r\nb"), ("k", "a\x0bb"), ("k", "a\x0cb"),
    ("k", "a\x1cb"), ("k", "a\u2028b"), ("k", "ab\r"),
    ("", "v"), ("a b", "v"), ("a\tb", "v"), ("a\x1cb", "v"),
])
def test_checkpoint_save_refuses_meta_it_could_not_load(tmp_path, key, value):
    path = tmp_path / "net.ckpt"
    with pytest.raises(ValueError, match="meta entry"):
        ckpt.checkpoint_save(tiny_net(12), path, meta={key: value})
    assert not path.exists()


def test_checkpoint_meta_values_round_trip_verbatim(tmp_path):
    meta = {"empty": "", "spaced": " a  b ", "tab": "a\tb"}
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path, meta=meta)
    assert ckpt.checkpoint_load(path)[1] == meta


def test_a_failed_checkpoint_save_leaves_the_old_file(tmp_path):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path, meta={"attrs": "smart_5_raw"})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        ckpt.checkpoint_save(tiny_net(13), path, meta={"attrs": "smart_5_r\u00e4w"})
    assert path.read_bytes() == before


def test_checkpoint_wrong_magic_raises_format_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CKPT v9\n")
    with pytest.raises(ckpt.CheckpointFormatError):
        ckpt.checkpoint_load(path)


def test_checkpoint_cut_short_in_its_header_names_its_last_line(tmp_path):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path, meta={"window": "3"})
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\nmeta ") + 4])  # lines 1-2 and "met"
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}: cut short after line 2")):
        ckpt.checkpoint_load(path)


def test_checkpoint_round_trips_special_bit_patterns(tmp_path):
    net = tiny_net(12)
    special = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).max, 2.0 ** -1070]
    net.dense1.W.flat[:len(special)] = special
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path)
    lines = edit_header(path, lambda lines: lines)
    assert lines[0] == "LPAT-CKPT v3" and lines[-1].startswith("payload ")
    # the payload opens with dense1.W, little-endian
    assert path.read_bytes()[-8 * sum(a.size for a in net.params().values()):][:16] == \
        bytes.fromhex("0000000000000080 0100000000000000")
    loaded, _ = ckpt.checkpoint_load(path)
    for name, arr in net.params().items():
        assert arr.tobytes() == loaded.params()[name].tobytes(), name
        assert loaded.params()[name].flags.writeable, name


# the first lines of checkpoints of earlier versions: their tensors are text
@pytest.mark.parametrize("old", [
    "LPAT-CKPT v1\narch n_attrs 1 hidden1 1 hidden2 1 lstm_units 1 classes 1\n"
    "tensor dense1.W 1 1\n0x1.0000000000000p+0\n",
    "LPAT-CKPT v2\narch n_attrs 1 hidden1 1 hidden2 1 lstm_units 1 classes 1\n"
    "tensor dense1.W 1 1\n3ff0000000000000\n",
], ids=["v1", "v2"])
def test_an_older_checkpoint_is_refused_pointing_to_train(tmp_path, old):
    path = tmp_path / "old.ckpt"
    path.write_text(old)
    with pytest.raises(ckpt.CheckpointFormatError, match=re.escape(
            f"{path}: missing magic line 'LPAT-CKPT v3' (checkpoints of other versions "
            f"are no longer read: retrain with `lpat train`)")):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_is_rejected_by_name(tmp_path, value):
    net = tiny_net(12)
    net.lstm.U[2, 1] = value
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path)
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}: tensor lstm.U row 2 holds a non-finite value")):
        ckpt.checkpoint_load(path)
    net.lstm.U[2, 1] = 0.0
    net.dense3.b[1] = value
    ckpt.checkpoint_save(net, path)
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}: tensor dense3.b holds a non-finite value")):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("line, bad, message", [
    ("arch ", "arch n_attrs 2 n_attrs 2 hidden2 4 lstm_units 5 classes 3", "expected 'arch "),
    ("meta ", "meta window", "malformed meta line"),
], ids=["arch-repeated-key", "meta-without-value"])
def test_checkpoint_malformed_header_names_file_and_line(tmp_path, line, bad, message):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path, meta={"window": "3"})
    lines = edit_header(path, lambda lines: [bad if text.startswith(line) else text
                                             for text in lines])
    at = next(i for i, text in enumerate(lines) if text.startswith(line))
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}:{at + 1}: {message}")):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("width", [0, -3])
def test_checkpoint_arch_width_below_one_is_refused_at_line_2(tmp_path, width):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path)
    edit_header(path, lambda lines: [lines[0], lines[1].replace(" hidden1 4 ",
                                                                f" hidden1 {width} ")]
                + lines[2:])
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}:2: expected 'arch n_attrs <n> ")):
        ckpt.checkpoint_load(path)


def _one_sample_split():
    top = np.finfo(float).max
    return data.DatasetSplit(
        train_labeled=[data.Sample(np.array([[0.5], [top]]), 1, "S1", date(2016, 3, 1))],
        train_unlabeled=[], valid=[], test=[],
        scaling=data.ScalingParams([0.0], [top]), attrs=("smart_5_raw",), window=2)


def test_checkpoint_repeated_meta_key_names_file_and_line(tmp_path):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path, meta={"window": "20"})
    edit_header(path, lambda lines: lines[:3] + ["meta window 5"] + lines[3:])
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}:4: meta key 'window' given twice")):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("meta_line", ["meta  20", "meta win\tdow 20", "meta win\x1fdow 20"],
                         ids=["empty-key", "tab-in-key", "unit-separator-in-key"])
def test_checkpoint_meta_key_that_save_refuses_is_refused_naming_its_line(tmp_path,
                                                                          meta_line):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path)
    edit_header(path, lambda lines: lines[:2] + [meta_line] + lines[2:])
    with pytest.raises(ckpt.CheckpointFormatError,
                       match=re.escape(f"{path}:3: meta key ") + ".* is empty or holds whitespace"):
        ckpt.checkpoint_load(path)


# the tiny checkpoint under tests/fixtures: widths 1/1/1/1, two classes, and
# these twenty parameters in model.param_shapes order
GOLDEN_CKPT = FIXTURES / "tiny_v3.ckpt"
GOLDEN_DIMS = dict(n_attrs=1, hidden1=1, hidden2=1, lstm_units=1, classes=2)
GOLDEN_META = {"window": "3", "attrs": "smart_5_raw", "note": "a\tb"}
GOLDEN_PARAMS = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).max, 2.0 ** -1070,
                 1.0, -1.0, 0.5, 0.25, 1.0 / 3.0, -2.75, 1e-300, 1e300, 3.0, -3.0,
                 0.1, -0.1, 7.0, 2.0 ** 52, -2.0 ** -52]


def _golden_net() -> model.Network:
    shapes = model.param_shapes(GOLDEN_DIMS)
    splits = np.cumsum([int(np.prod(s)) for s in shapes.values()])[:-1]
    return model.Network.from_params({
        name: part.reshape(shape) for (name, shape), part in
        zip(shapes.items(), np.split(np.array(GOLDEN_PARAMS), splits))})


def test_golden_checkpoint_loads_to_known_values_and_saves_to_its_bytes(tmp_path):
    net, meta = ckpt.checkpoint_load(GOLDEN_CKPT)
    assert net.dims == GOLDEN_DIMS and meta == GOLDEN_META
    flat = np.concatenate([a.ravel() for a in net.params().values()])
    assert flat.tobytes() == np.array(GOLDEN_PARAMS).tobytes()
    for source in (net, _golden_net()):
        path = tmp_path / "again.ckpt"
        ckpt.checkpoint_save(source, path, meta=GOLDEN_META)
        assert path.read_bytes() == GOLDEN_CKPT.read_bytes()


# each format: how to write a small file, how to load it, and its error class
FORMATS = {
    "checkpoint": (lambda p: ckpt.checkpoint_save(tiny_net(3), p, meta={"window": "3"}),
                   ckpt.checkpoint_load, ckpt.CheckpointFormatError),
    "cache": (lambda p: cache.save_split(_one_sample_split(), p), cache.load_split,
              cache.CacheFormatError),
}


@pytest.mark.parametrize("end", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e"],
                         ids=["CR", "VT", "FF", "FS", "GS", "RS"])
@pytest.mark.parametrize("place", ["before-newline", "for-newline"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_line_end_other_than_newline_is_refused_naming_its_line(tmp_path, fmt, place,
                                                                   end):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)

    def edit(lines):  # line 2, or lines 2 and 3 joined by the foreign end
        lines[1] += end + (lines.pop(2) if place == "for-newline" else "")
        return lines

    edit_header(path, edit)
    with pytest.raises(error, match=re.escape(
            f"{path}: line 2 holds {end!r}, a line end other than '\\n'")):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_crlf_line_ends_are_refused_at_line_1(tmp_path, fmt):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(error, match=re.escape(f"{path}: line 1 holds '\\r'")):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_header_line_that_is_not_ascii_is_refused_naming_it(tmp_path, fmt):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)
    edit_header(path, lambda lines: [lines[0], lines[1] + "\u00e4"] + lines[2:])
    with pytest.raises(error, match=re.escape(f"{path}: line 2 is not ASCII (")):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cut, message", [
    (lambda data: data[:-1], lambda n, data: f"cut short: the payload holds {n - 1} of its {n} bytes"),
    (lambda data: data[:payload_start(data)],
     lambda n, data: f"cut short: the payload holds 0 of its {n} bytes"),
    (lambda data: data + b"\0", lambda n, data: "1 bytes follow the payload"),
    (lambda data: data + data, lambda n, data: f"{len(data)} bytes follow the payload"),  # cat a a
], ids=["one-byte-short", "no-payload", "one-byte-extra", "file-twice"])
def test_a_payload_of_the_wrong_length_is_refused(tmp_path, fmt, cut, message):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)
    data = path.read_bytes()
    n = len(data) - payload_start(data)
    path.write_bytes(cut(data))
    with pytest.raises(error, match=re.escape(f"{path}: {message(n, data)}")):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("edit", [
    lambda n, crc: f"payload {n + 8} {crc}",
    lambda n, crc: f"payload {n - 8} {crc}",
    lambda n, crc: f"payload 0{n} {crc}",
    lambda n, crc: f"payload {n} {crc[:-1]}F",
    lambda n, crc: f"payload {n} {crc[:-1]}",
    lambda n, crc: f"payload {n} {crc} ",
    lambda n, crc: f"payload  {n} {crc}",
    lambda n, crc: "end",
], ids=["larger", "smaller", "leading-zero", "upper-case-crc", "short-crc", "trailing-space",
        "doubled-space", "end-line"])
def test_a_payload_line_that_does_not_read_as_written_is_refused(tmp_path, fmt, edit):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)
    data = path.read_bytes()
    n = len(data) - payload_start(data)

    def bad(lines):
        crc = lines[-1].split()[2]
        assert crc == "{:08x}".format(zlib.crc32(data[-n:]))
        return lines[:-1] + [edit(n, crc)]

    lines = edit_header(path, bad)
    with pytest.raises(error, match=re.escape(
            f"{path}: line {len(lines)} should read 'payload {n} <crc32>', "
            f"the CRC32 in 8 lowercase hex digits")):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_crc32_mismatch_is_refused(tmp_path, fmt):
    save, load, error = FORMATS[fmt]
    path = tmp_path / "file"
    save(path)
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x10
    path.write_bytes(bytes(data))
    lines = edit_header(path, lambda lines: lines)
    crc = "{:08x}".format(zlib.crc32(data[payload_start(data):]))
    with pytest.raises(error, match=re.escape(
            f"{path}: the payload's CRC32 is {crc}, line {len(lines)} gives "
            f"{lines[-1].split()[2]}")):
        load(path)


def _items(fmt, loaded) -> dict:
    """What a loaded file holds, one entry per float (as its bit pattern) and
    per meta value, serial, date or label."""
    if fmt == "checkpoint":
        net, meta = loaded
        items = {("meta", i): kv for i, kv in enumerate(meta.items())}
        arrays = net.params()
    else:
        items = {"attrs": loaded.attrs, "window": loaded.window}
        arrays = {"vmin": loaded.scaling.v_min, "vmax": loaded.scaling.v_max}
        for name in cache.SECTIONS:
            for j, s in enumerate(getattr(loaded, name)):
                items[name, j] = (s.serial, s.window_end, s.label)
                arrays[name, j] = s.features
    for name, arr in arrays.items():
        items.update({(name, idx): v for idx, v in
                      np.ndenumerate(np.ascontiguousarray(arr).view(np.int64))})
    return items


@pytest.mark.parametrize("fmt", FORMATS)
@given(where=st.floats(0, 1, exclude_max=True), value=st.integers(0, 255))
# in the cache: the window digit (byte 38 of 206), 2 turned 1, which every
# first row allows
@example(where=38.5 / 206, value=ord("1"))
# the last payload byte, the top byte of the last float
@example(where=0.999, value=0)
@settings(max_examples=300, deadline=None)
def test_one_changed_byte_is_refused_or_changes_at_most_one_value(tmp_path_factory, fmt,
                                                                  where, value):
    """A file with one byte changed raises the format's error naming the
    file. Only a changed header byte may instead load, with at most one meta
    value, attribute list or window, or one sample's serial, date or label
    changed."""
    save, load, error = FORMATS[fmt]
    path = tmp_path_factory.getbasetemp() / f"one-byte-{fmt}"
    save(path)
    want = _items(fmt, load(path))
    data = bytearray(path.read_bytes())
    at = int(where * len(data))
    in_payload = at >= payload_start(data) and data[at] != value
    data[at] = value
    path.write_bytes(bytes(data))
    try:
        got = _items(fmt, load(path))
    except error as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert not in_payload, "a changed payload byte loaded"
    changed = want.keys() ^ got.keys()
    if changed:  # a changed window changes the rows of every window
        assert want.get("window") != got.get("window")
        assert all(isinstance(k[0], tuple) for k in changed)
    assert sum(want[k] != got[k] for k in want.keys() & got.keys()) <= 1
