import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from lpat import checkpoint as ckpt
from lpat import model

from oracles import central_diff_grad, fd_grad_wrt, lstm_step, rel_error

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
        for m in model.ALL_POINTS:
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


@pytest.mark.parametrize("widths", WIDTHS.values(), ids=WIDTHS.keys())
def test_predict_proba_is_the_forward_batch_output_bit_for_bit(widths):
    net = model.init_network(*widths, seed=4)
    n = widths[0]
    rng = np.random.default_rng(4)
    for B in (1, 2, 7, 310, 512):
        for w in (1, 3, 20):
            X = rng.uniform(size=(B, w, n))
            assert np.array_equal(model.predict_proba(net, X),
                                  model.forward_batch(net, X).probs), (B, w)
    empty = model.predict_proba(net, np.zeros((0, 3, n)))
    assert empty.shape == (0, 3)
    with pytest.raises(model.ShapeError):
        model.predict_proba(net, np.zeros((1, 3, n + 1)))
    with pytest.raises(model.ShapeError):
        model.predict_proba(net, np.zeros((1, 3 * n)))


def test_predict_proba_runs_each_chunk_as_forward_batch_would():
    net = tiny_net(5)
    X = np.random.default_rng(5).normal(size=(1100, 4, 2))
    probs = model.predict_proba(net, X)
    assert probs.shape == (1100, 3)
    for lo in range(0, 1100, model.PREDICT_CHUNK):
        chunk = slice(lo, lo + model.PREDICT_CHUNK)
        assert np.array_equal(probs[chunk], model.forward_batch(net, X[chunk]).probs)


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


def test_checkpoint_truncated_file_raises(tmp_path):
    net = tiny_net(12)
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:10]) + "\n")
    with pytest.raises(ckpt.CheckpointTruncatedError):
        ckpt.checkpoint_load(path)


def test_checkpoint_architecture_expectation_enforced(tmp_path):
    net = tiny_net(12)
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path)
    loaded, _ = ckpt.checkpoint_load(path, expect={"lstm_units": 5})
    assert loaded.dims["lstm_units"] == 5
    with pytest.raises(ckpt.CheckpointArchitectureError):
        ckpt.checkpoint_load(path, expect={"lstm_units": 200})


def _replace_row(path, tensor, row, text):
    """Overwrite row ``row`` of ``tensor`` in a saved checkpoint."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith(f"tensor {tensor} "))
    lines[head + 1 + row] = text
    path.write_text("\n".join(lines) + "\n")


def test_checkpoint_v2_round_trips_special_bit_patterns(tmp_path):
    net = tiny_net(12)
    special = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).max, 2.0 ** -1070]
    net.dense1.W.flat[:len(special)] = special
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(net, path)
    assert path.read_text().splitlines()[0] == "LPAT-CKPT v2"
    first = path.read_text().splitlines()[3]  # the first dense1.W row
    assert first.split()[:2] == ["8000000000000000", "0000000000000001"]
    loaded, _ = ckpt.checkpoint_load(path)
    for name, arr in net.params().items():
        assert arr.tobytes() == loaded.params()[name].tobytes(), name


def _write_v1(net, path):
    """A v1 checkpoint of ``net``: ``float.hex`` literals, built independently
    of the writer in ``checkpoint``."""
    lines = ["LPAT-CKPT v1",
             "arch " + " ".join(f"{k} {v}" for k, v in net.dims.items()),
             "meta window 3"]
    for name, arr in net.params().items():
        lines.append(f"tensor {name} " + " ".join(map(str, arr.shape)))
        lines += [" ".join(float(x).hex() for x in row) for row in np.atleast_2d(arr)]
    lines.append("end")
    path.write_text("\n".join(lines) + "\n")


def test_checkpoint_v1_hex_float_text_loads_bit_exactly(tmp_path):
    net = tiny_net(4)
    net.dense2.b[:3] = [-0.0, 5e-324, -np.finfo(float).max]
    path = tmp_path / "v1.ckpt"
    _write_v1(net, path)
    loaded, meta = ckpt.checkpoint_load(path)
    assert meta == {"window": "3"}
    for name, arr in net.params().items():
        assert arr.tobytes() == loaded.params()[name].tobytes(), name


@pytest.mark.parametrize("bad, error", [
    # one value two digits short, the next two digits long: same row length
    # and an even digit count, which bytes.fromhex alone would accept
    (lambda vals: " ".join([vals[0][:14], vals[1] + "00"] + vals[2:]),
     ckpt.CheckpointFormatError),
    (lambda vals: " ".join(vals)[:-1], ckpt.CheckpointFormatError),
    (lambda vals: " ".join(["3ff000000000000g"] + vals[1:]), ckpt.CheckpointFormatError),
    (lambda vals: " ".join(["3ff00000\t0000000"] + vals[1:]), ckpt.CheckpointFormatError),
    (lambda vals: " ".join(vals[:-1]), ckpt.CheckpointTruncatedError),
])
def test_checkpoint_v2_malformed_row_raises(tmp_path, bad, error):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path)
    vals = path.read_text().splitlines()[3].split()
    _replace_row(path, "dense1.W", 0, bad(vals))
    with pytest.raises(error, match="dense1.W row 0"):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("version", ["v1", "v2"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_is_rejected_by_name(tmp_path, version, value):
    net = tiny_net(12)
    net.lstm.U[2, 1] = value
    path = tmp_path / "net.ckpt"
    if version == "v1":
        _write_v1(net, path)
    else:
        ckpt.checkpoint_save(net, path)
    with pytest.raises(ckpt.CheckpointFormatError, match="lstm.U holds a non-finite"):
        ckpt.checkpoint_load(path)


@pytest.mark.parametrize("line, bad", [
    ("tensor dense1.W ", "tensor dense1.W x 2"),
    ("arch ", "arch n_attrs 2 n_attrs 2 hidden2 4 lstm_units 5 classes 3"),
], ids=["tensor-header", "arch-repeated-key"])
def test_checkpoint_malformed_header_names_file_and_line(tmp_path, line, bad):
    path = tmp_path / "net.ckpt"
    ckpt.checkpoint_save(tiny_net(12), path)
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.startswith(line))
    lines[at] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ckpt.CheckpointFormatError, match=re.escape(f"{path}:{at + 1}: ")):
        ckpt.checkpoint_load(path)
