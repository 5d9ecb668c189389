import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpat import model, perturb

from oracles import (
    abs_cosine,
    central_diff_hessian,
    dominant_eigenvector,
    kl_divergence,
    supervised_perturbation,
)

TINY = dict(n_attrs=2, hidden1=4, hidden2=4, lstm_units=5, classes=3)


def tiny_net(seed=0, sharpen=1.0):
    net = model.init_network(**TINY, seed=seed)
    if sharpen != 1.0:
        for name, arr in net.params().items():
            if name.endswith(".W") or name.endswith(".U"):
                arr *= sharpen
    return net


def vat_cfg(**kw):
    base = dict(mode="virtual_at", layers="all", epsilon=1.0, xi=1.0)
    base.update(kw)
    return perturb.PerturbationConfig(**base)


# ------------------------------------------------------- supervised direction

def test_supervised_three_four_five_normalization():
    r = supervised_perturbation(np.array([3.0, 4.0]), 10.0)
    np.testing.assert_allclose(r, [-6.0, -8.0], atol=1e-12)


def test_supervised_zero_gradient_gives_exact_zero():
    r = supervised_perturbation(np.zeros((4, 2)), 5.0)
    assert np.array_equal(r, np.zeros((4, 2)))


def test_supervised_zero_epsilon_gives_exact_zero():
    r = supervised_perturbation(np.array([1.0, 2.0]), 0.0)
    assert np.array_equal(r, np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3).map(lambda x: 0.0 if abs(x) < 1e-9 else x),
                min_size=2, max_size=8),
       st.floats(1e-3, 50.0))
def test_supervised_norm_contract_and_exact_halving(g_list, eps):
    g = np.array(g_list)
    r = supervised_perturbation(g, eps)
    if np.linalg.norm(g) < perturb.NORM_FLOOR:
        assert np.array_equal(r, np.zeros_like(g))
    else:
        assert abs(np.linalg.norm(r) - eps) < 1e-9
        # descend the log-likelihood: r points against g
        assert float(np.dot(r, g)) <= 0.0
        half = supervised_perturbation(g, eps / 2.0)
        assert np.array_equal(half * 2.0, r)


# ------------------------------------------------------------- kl divergence

def simplex3(values):
    v = np.array(values, dtype=float)
    s = v.sum()
    return v / s if s > 0 else np.array([1.0, 0.0, 0.0])


def test_kl_of_identical_distributions_is_zero():
    for p in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [1 / 3] * 3):
        assert kl_divergence(p, p) == 0.0


def test_kl_closed_form_ln2():
    val = kl_divergence([1.0, 0.0, 0.0], [0.5, 0.5, 0.0])
    assert val == pytest.approx(np.log(2.0), abs=1e-12)
    assert val == pytest.approx(0.693147, abs=1e-6)


def test_kl_floor_keeps_degenerate_pairs_finite():
    val = kl_divergence([0.5, 0.5, 0.0], [1.0, 0.0, 0.0])
    expected = 0.5 * np.log(0.5) + 0.5 * np.log(0.5 / 1e-12)
    assert np.isfinite(val)
    assert val == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_kl_nonnegative_on_simplex_pairs(pv, qv):
    p, q = simplex3(pv), simplex3(qv)
    val = kl_divergence(p, q)
    assert val >= 0.0
    if np.max(np.abs(p - q)) > 1e-6:
        assert val > 0.0


def test_kl_rows_matches_scalar_version():
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(3), size=16)
    Q = rng.dirichlet(np.ones(3), size=16)
    rows = perturb.kl_rows(P, Q)
    for i in range(16):
        assert rows[i] == pytest.approx(kl_divergence(P[i], Q[i]), rel=1e-12)


# --------------------------------------------------------------- scale_rows

# rows whose squared entries sum, exactly in any order, to a perfect square
EXACT_ROWS = {5.0: [[3, 4, 0], [0, 0, 0]], 7.0: [[2, 3, 0], [-6, 0, 0]],
              0.75: [[-0.25, 0.5, 0], [0, -0.5, 0]], 6.0: [[-2, -4, -4], [0, 0, 0]]}


@pytest.mark.parametrize("eps", [2.5, -2.5, 0.0])
def test_scale_rows_is_eps_over_the_norm_times_g_and_positive_zero_below_the_floor(eps):
    norms = list(EXACT_ROWS)
    G = np.array([*EXACT_ROWS.values(),
                  [[-1e-13, 0, 0], [0, 0, -0.0]],   # norm below NORM_FLOOR
                  [[-0.0, 0, 0], [0, -0.0, 0]]],    # norm 0
                 dtype=np.float32)
    out = perturb.scale_rows(G, eps)
    assert out.dtype == np.float64 and out.shape == G.shape
    for i, norm in enumerate(norms):
        want = (eps / norm) * G[i].astype(np.float64) if eps else np.zeros(G[i].shape)
        assert out[i].tobytes() == want.tobytes()
    assert not np.signbit(out[len(norms):]).any()
    assert G[0].tolist() == EXACT_ROWS[5.0]  # the input is left as it was


def test_scale_rows_works_in_one_float64_copy():
    """scale_rows holds one float64 copy of its input, plus the one
    temporary of ``np.linalg.norm``, never four."""
    G = np.random.default_rng(0).normal(size=(128, 20, 128)).astype(np.float32)
    copy_bytes = G.size * 8
    tracemalloc.start()
    try:
        out = perturb.scale_rows(G, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == copy_bytes
    assert peak < 2.5 * copy_bytes


# ------------------------------------------------------------------- virtual

def test_virtual_zero_epsilon_gives_exact_zero_everywhere():
    net = tiny_net(1)
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(6, 3, 2))
    tensors = perturb.compute_perturbation_tensors(net, model.forward_batch(net, X), None,
                                                   vat_cfg(epsilon=0.0), seed=5)
    for i in range(len(X)):
        for m, t in tensors.items():
            assert np.array_equal(t[i], np.zeros_like(t[i]))


def test_virtual_norm_contract():
    net = tiny_net(2)
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(32, 3, 2))
    eps = 3.5
    tensors = perturb.compute_perturbation_tensors(net, model.forward_batch(net, X), None,
                                                   vat_cfg(epsilon=eps), seed=7)
    assert set(tensors) == set(perturb.LAYER_SELECTIONS["all"])
    for i in range(len(X)):
        for t in tensors.values():
            norm = np.linalg.norm(t[i].ravel())
            if norm > 0:
                assert abs(norm - eps) < 1e-9


def test_virtual_zero_gradient_guard_yields_exact_zero():
    # zeroed top layer makes the logits independent of everything below, so
    # the KL gradient vanishes at points 0..3 and the zero guard must kick
    # in; point 4 still moves the logits directly and keeps its full norm
    net = tiny_net(3)
    net.dense3.W[...] = 0.0
    net.dense3.b[...] = 0.0
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(4, 3, 2))
    tensors = perturb.compute_perturbation_tensors(net, model.forward_batch(net, X), None,
                                                   vat_cfg(), seed=1)
    for i in range(len(X)):
        for m in (0, 1, 2, 3):
            assert np.array_equal(tensors[m][i], np.zeros_like(tensors[m][i]))
        assert np.linalg.norm(tensors[4][i]) == pytest.approx(1.0, abs=1e-9)


def test_virtual_direction_independent_of_epsilon():
    net = tiny_net(4)
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(5, 3, 2))
    base = model.forward_batch(net, X)
    a = perturb.compute_perturbation_tensors(net, base, None, vat_cfg(epsilon=1.0), seed=9)
    b = perturb.compute_perturbation_tensors(net, base, None, vat_cfg(epsilon=4.0), seed=9)
    for i in range(len(X)):
        for m in a:
            np.testing.assert_allclose(b[m][i], 4.0 * a[m][i], rtol=1e-12, atol=1e-15)


def test_virtual_deterministic_per_seed_context():
    net = tiny_net(5)
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(4, 3, 2))
    base = model.forward_batch(net, X)
    a, b, c = (perturb.compute_perturbation_tensors(net, base, None, vat_cfg(), seed=3,
                                                    epoch=2, batch_index=k)
               for k in (7, 7, 8))
    changed = False
    for i in range(len(X)):
        for m in a:
            assert np.array_equal(a[m][i], b[m][i])
            changed = changed or not np.array_equal(a[m][i], c[m][i])
    assert changed


def test_virtual_direction_tracks_dominant_kl_hessian_eigenvector():
    # dense finite-difference Hessian of the KL at r=0 plus a full
    # eigendecomposition as the oracle for the one-step power iteration
    w, n = 1, 2
    cosines = []
    for seed in range(10):
        net = tiny_net(seed, sharpen=2.0)
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(size=(w, n))
        base = model.forward_batch(net, x[None])
        p_ref = base.probs[0]

        def kl_at(r_flat):
            c = model.forward_batch(net, x[None], {0: r_flat.reshape(1, w, n)})
            return kl_divergence(p_ref, c.probs[0])

        H = central_diff_hessian(kl_at, np.zeros(w * n), step=1e-4)
        u = dominant_eigenvector(H)
        cfg = vat_cfg(layers="input", xi=1e-2)
        r = perturb.compute_perturbation_tensors(net, base, None, cfg, seed=seed)[0][0]
        cosines.append(abs_cosine(r, u))
    assert np.mean(cosines) >= 0.95
    assert min(cosines) >= 0.95


@pytest.mark.parametrize("xi", [10.0, 2.0], ids=["cli-default", "epsilon-over-10"])
def test_float32_virtual_probes_keep_the_float64_direction(xi):
    """On a float32 copy of a network, each window's virtual direction at
    every point is the float64 one: per-window cosine at least 0.998 at the
    CLI's default xi and at epsilon / 10. Much smaller xi (next to the
    activation norms, 1 to 10 here) falls below what float32 resolves; see
    the ``perturb`` docstring."""
    net = model.init_network(n_attrs=8, hidden1=24, hidden2=24, lstm_units=32, seed=2)
    X = np.random.default_rng(2).uniform(size=(64, 20, 8)).astype(np.float32)
    cfg = vat_cfg(epsilon=20.0, xi=xi)
    net32 = net.astype(np.float32)
    t64 = perturb.compute_perturbation_tensors(
        net, model.forward_batch(net, X.astype(np.float64)), None, cfg, seed=7)
    t32 = perturb.compute_perturbation_tensors(
        net32, model.forward_batch(net32, X), None, cfg, seed=7)
    for m in perturb.LAYER_SELECTIONS["all"]:
        assert t32[m].dtype == np.float32
        a, b = (t[m].reshape(len(X), -1).astype(np.float64) for t in (t64, t32))
        cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        assert cos.min() >= 0.998, f"point {m}: min cosine {cos.min():.4f}"


# ---------------------------------------------------------------- dispatcher

def test_mode_none_yields_empty_sets():
    net = tiny_net(6)
    X = np.zeros((3, 3, 2))
    tensors = perturb.compute_perturbation_tensors(net, model.forward_batch(net, X), None,
                                                   perturb.PerturbationConfig())
    assert tensors == {}


def test_supervised_mode_requires_labels_for_every_sample():
    net = tiny_net(6)
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(3, 3, 2))
    base = model.forward_batch(net, X)
    cfg = perturb.PerturbationConfig(mode="supervised_at", layers="input", epsilon=1.0)
    for labels in (None, [0, None, 2], [0, 1], [0, 1, 2, 1], [0, 1, 5], [0, -1, 2]):
        with pytest.raises(ValueError, match="^supervised adversarial mode requires"):
            perturb.compute_perturbation_tensors(net, base, labels, cfg)


def test_supervised_input_selection_matches_classic_input_at():
    net = tiny_net(7)
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(3, 2))
    label = 1
    cfg = perturb.PerturbationConfig(mode="supervised_at", layers="input", epsilon=2.0)
    cache = model.forward_batch(net, x[None])
    tensors = perturb.compute_perturbation_tensors(net, cache, [label], cfg)
    assert list(tensors) == [0]
    _, act = model.backward_batch(net, cache, -model.nll_dlogits(cache.probs, [label]))
    expected = supervised_perturbation(act[0][0], 2.0)
    np.testing.assert_allclose(tensors[0][0], expected, atol=1e-12)


def test_virtual_mode_ignores_labels_entirely():
    net = tiny_net(8)
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(4, 3, 2))
    cfg = vat_cfg()
    base = model.forward_batch(net, X)
    mixed = perturb.compute_perturbation_tensors(net, base, [0, None, 2, None], cfg, seed=4)
    nolab = perturb.compute_perturbation_tensors(net, base, None, cfg, seed=4)
    for i in range(len(X)):
        for m in mixed:
            assert np.array_equal(mixed[m][i], nolab[m][i])


def test_forward_cache_and_activations_bases_give_identical_bytes():
    net = tiny_net(9)
    X = np.random.default_rng(9).uniform(size=(5, 3, 2))
    cfg = vat_cfg(epsilon=1.5, xi=0.5)
    cache = model.forward_batch(net, X)
    full, light = (perturb.compute_perturbation_tensors(net, base, None, cfg, seed=3,
                                                        epoch=1, batch_index=2)
                   for base in (cache, cache.activations()))
    assert list(full) == list(light) == [0, 1, 2, 3, 4]
    for m in full:
        assert full[m].tobytes() == light[m].tobytes(), m


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        perturb.PerturbationConfig(mode="bogus")
    with pytest.raises(ValueError):
        perturb.PerturbationConfig(mode="virtual_at", layers="everything")
    with pytest.raises(ValueError):
        perturb.PerturbationConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        perturb.PerturbationConfig(xi=0.0)
    with pytest.raises(ValueError):
        perturb.PerturbationConfig(lam=-0.5)


def test_layer_selection_point_sets():
    assert perturb.PerturbationConfig(mode="virtual_at", layers="input").points == (0,)
    assert perturb.PerturbationConfig(mode="virtual_at", layers="bottom").points == (1, 2)
    assert perturb.PerturbationConfig(mode="virtual_at", layers="top").points == (3, 4)
    assert perturb.PerturbationConfig(mode="virtual_at", layers="all").points == (0, 1, 2, 3, 4)
    assert perturb.PerturbationConfig(mode="none").points == ()



# -------------------------------------------------- adversarial loss increase

def test_adversarial_direction_beats_random_on_average():
    # sign-convention check: r* must raise the loss more than an equal-norm
    # random direction at the same point, for both constructions
    net = tiny_net(9)
    rng = np.random.default_rng(9)
    eps = 0.3

    sup = perturb.PerturbationConfig(mode="supervised_at", layers="all", epsilon=eps)
    vat = vat_cfg(epsilon=eps, xi=0.1)
    gains: dict[tuple, list] = {}
    for trial in range(40):
        x = rng.uniform(size=(3, 2))
        label = int(rng.integers(0, 3))
        base = model.forward_batch(net, x[None])
        base_nll = -np.log(base.probs[0][label])
        p_ref = base.probs[0]
        for kind, cfg in (("sup", sup), ("vat", vat)):
            tensors = perturb.compute_perturbation_tensors(net, base, [label], cfg,
                                                           seed=trial)
            for m, t in tensors.items():
                r = t[0]
                rand = rng.normal(size=r.shape)
                nr = np.linalg.norm(rand.ravel())
                rand = rand * (np.linalg.norm(r.ravel()) / nr)
                adv = model.forward_batch(net, x[None], {m: r[None]})
                rnd = model.forward_batch(net, x[None], {m: rand[None]})
                if kind == "sup":
                    gain_adv = -np.log(adv.probs[0][label]) - base_nll
                    gain_rnd = -np.log(rnd.probs[0][label]) - base_nll
                else:
                    gain_adv = kl_divergence(p_ref, adv.probs[0])
                    gain_rnd = kl_divergence(p_ref, rnd.probs[0])
                gains.setdefault((kind, m), []).append((gain_adv, gain_rnd))
    for key, pairs in gains.items():
        mean_adv = np.mean([a for a, _ in pairs])
        mean_rnd = np.mean([b for _, b in pairs])
        assert mean_adv > mean_rnd, key
