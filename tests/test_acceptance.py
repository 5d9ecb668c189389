"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The two trend criteria
train real models on the synthetic task and take a minute or two; everything
else finishes in seconds.
"""

import functools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lpat import cache, cli, data, evaluate, model, perturb, synthetic, training

from oracles import (
    abs_cosine,
    central_diff_grad,
    central_diff_hessian,
    dominant_eigenvector,
    fd_grad_wrt,
    kl_divergence,
    rel_error,
    supervised_perturbation,
)

FIXTURE = Path(__file__).parent / "fixtures" / "fixture_50.csv"

TINY = dict(n_attrs=2, hidden1=4, hidden2=4, lstm_units=5, classes=3)

# Desk-scale trend experiment. Each constant follows a rule that the
# trend_scores fixture (or, for the validation-loss guard, criterion 5)
# measures and asserts, so a failure names the premise it broke:
# * TREND and TREND_PREP: day-to-day noise (24) dominates the per-drive
#   level scatter (10) in a fleet with 100 failing drives. Training uses
#   0.35 * 0.5 of the drives (about 580 windows) and validation as many; the
#   other 65% (over 2000 windows) are the test split, so a test score moves
#   little with the split. This setting was chosen on TREND_SEEDS among
#   settings that meet every rule below, then confirmed on seeds 5-9.
# * TREND_EPOCHS and learning_rate: long and slow enough that basic training
#   passes its minimum validation loss before the last epoch on most seeds
#   (it overfits, so a regulariser has something to correct), while every
#   run still ends below its epoch-1 validation loss.
# * TREND_EPS: at most half the smallest distance between the class
#   centroids of each seed's training windows at the input (0.347 to 0.405
#   on seeds 0-9), so an eps-ball around a window stays inside its class
#   margin.
# * TREND_XI: at most TREND_EPS / 10, and far below the median activation
#   norm at every injection point (about 1 to 10), so the virtual probe is
#   the finite-difference power-iteration step that perturb.py describes.
TREND = dict(
    healthy=250, failed=100, n_attrs=8, days=40, drift=40.0, noise=24.0,
    drive_scatter=10.0,
)
TREND_PREP = dict(clusters=10, keep_frac=0.3, window=20, train_frac=0.35,
                  valid_frac=0.5)
TREND_TRAIN = dict(batch_size=64, learning_rate=0.0007,
                   hidden1=24, hidden2=24, lstm_units=32)
TREND_EPOCHS = 50
TREND_EPS = 0.3
TREND_XI = 0.001
TREND_SEEDS = (0, 1, 2, 3, 4)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} FAIL ({title})")
                raise
            print(f"\nACCEPTANCE {num} PASS ({title}) [{time.time() - start:.1f}s]")
        return wrapper
    return deco


def tiny_net(seed, sharpen=1.0):
    net = model.init_network(**TINY, seed=seed)
    if sharpen != 1.0:
        for name, arr in net.params().items():
            if name.endswith(".W") or name.endswith(".U"):
                arr *= sharpen
    return net


# --------------------------------------------------------------- criterion 1

@criterion(1, "gradient oracle: analytic vs central finite differences")
def test_criterion_1_gradient_oracle():
    total_checks = 0
    for seed in range(20):
        net = tiny_net(seed)
        rng = np.random.default_rng(10_000 + seed)
        x = rng.uniform(size=(3, 2))
        label = int(rng.integers(0, 3))

        def nll(perts=None):
            batched = {m: r[None] for m, r in (perts or {}).items()}
            c = model.forward_batch(net, x[None], batched)
            return -float(np.log(c.probs[0][label]))

        cache_ = model.forward_batch(net, x[None])
        dl = cache_.probs[0].copy()
        dl[label] -= 1.0
        grads, act = model.backward_batch(net, cache_, dl[None])

        for name, arr in net.params().items():
            fd = fd_grad_wrt(arr, nll, step=1e-5)
            err = rel_error(grads[name], fd)
            assert err < 1e-4, f"seed {seed} param {name}: rel err {err:.2e}"
            total_checks += 1
        shapes = {0: (3, 2), 1: (3, 4), 2: (3, 4), 3: (5,), 4: (3,)}
        for m, shape in shapes.items():
            fd = central_diff_grad(lambda r, m=m: nll({m: r}),
                                   np.zeros(shape), step=1e-5)
            err = rel_error(act[m][0], fd)
            assert err < 1e-4, f"seed {seed} point {m}: rel err {err:.2e}"
            total_checks += 1
    assert total_checks == 20 * (9 + 5)


# --------------------------------------------------------------- criterion 2

@criterion(2, "perturbation-norm contract across 1000 cases per mode")
def test_criterion_2_norm_contract():
    rng = np.random.default_rng(42)

    # supervised path: arbitrary gradient tensors
    for i in range(1000):
        eps = float(rng.uniform(0.01, 50.0))
        g = rng.normal(size=(int(rng.integers(2, 6)),
                             int(rng.integers(1, 5)))) * 10.0 ** rng.integers(-3, 3)
        r = supervised_perturbation(g, eps)
        norm = np.linalg.norm(r.ravel())
        if np.linalg.norm(g.ravel()) < perturb.NORM_FLOOR:
            assert norm == 0.0
        else:
            assert abs(norm - eps) < 1e-9
    assert np.array_equal(supervised_perturbation(np.zeros((4, 3)), 5.0),
                          np.zeros((4, 3)))

    # virtual path: 1000 samples batched through a tiny network
    net = tiny_net(7)
    X = rng.uniform(size=(1000, 3, 2))
    eps = 2.25
    cfg = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                     epsilon=eps, xi=1.0)
    tensors = perturb.compute_perturbation_tensors(net, model.forward_batch(net, X), None,
                                                   cfg, seed=3)
    checked = 0
    for m, block in tensors.items():
        norms = np.linalg.norm(block.reshape(1000, -1), axis=1)
        nonzero = norms > 0
        assert np.all(np.abs(norms[nonzero] - eps) < 1e-9), f"point {m}"
        checked += int(nonzero.sum())
    assert checked >= 4000

    # zero-gradient guard: a constant-output head kills points 0..3 exactly
    dead = tiny_net(8)
    dead.dense3.W[...] = 0.0
    dead.dense3.b[...] = 0.0
    tensors = perturb.compute_perturbation_tensors(dead, model.forward_batch(dead, X[:100]),
                                                   None, cfg, seed=4)
    for m in (0, 1, 2, 3):
        assert np.array_equal(tensors[m], np.zeros_like(tensors[m]))


# --------------------------------------------------------------- criterion 3

@criterion(3, "power-iteration direction vs dense KL-Hessian eigenvector")
def test_criterion_3_power_iteration_oracle():
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
        cfg = perturb.PerturbationConfig(mode="virtual_at", layers="input",
                                         epsilon=1.0, xi=1e-2)
        r = perturb.compute_perturbation_tensors(net, base, None, cfg, seed=seed)[0][0]
        cosines.append(abs_cosine(r, u))
    mean_cos = float(np.mean(cosines))
    assert mean_cos >= 0.95, f"mean |cos| {mean_cos:.4f}, per-seed {cosines}"
    assert min(cosines) >= 0.95, f"weakest seed |cos| {min(cosines):.4f}"


# --------------------------------------------------------------- criterion 4

def _trained_small_net(seed=0):
    """Quickly trained classifier on an easy synthetic split."""
    fleet = synthetic.generate_synthetic(synthetic.SynthConfig(
        healthy=30, failed=15, n_attrs=2, days=40, drift=40.0, noise=6.0,
        seed=seed))
    split, _ = data.prepare_dataset(fleet, attrs=data.DEFAULT_ATTRS[:2],
                                    clusters=3, keep_frac=1.0, window=10,
                                    seed=seed)
    cfg = training.TrainConfig(learning_rate=0.005, batch_size=32, epochs=10,
                               seed=seed, hidden1=8, hidden2=8, lstm_units=10,
                               unlabeled_frac=0.0)
    net, _ = training.train(split, cfg, perturb.PerturbationConfig(mode="none"))
    return net, split


@criterion(4, "adversarial direction beats equal-norm random perturbations")
def test_criterion_4_adversarial_dominance():
    net, split = _trained_small_net()
    pool = split.train_labeled + split.test
    rng = np.random.default_rng(99)
    eps = 0.5
    sup = perturb.PerturbationConfig(mode="supervised_at", layers="all", epsilon=eps)
    vat = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                     epsilon=eps, xi=1.0)
    gains = {(kind, m): [] for kind in ("sup", "vat") for m in perturb.LAYER_SELECTIONS["all"]}

    for batch_idx in range(100):
        idx = rng.integers(0, len(pool), size=16)
        batch = [pool[i] for i in idx]
        X = np.stack([s.features for s in batch])
        y = [s.label for s in batch]
        base = model.forward_batch(net, X)
        base_nll = training.nll_loss(base.probs, y)

        for kind, cfg in (("sup", sup), ("vat", vat)):
            tensors = perturb.compute_perturbation_tensors(net, base, y, cfg,
                                                           seed=batch_idx)
            for m, block in tensors.items():
                rand = rng.normal(size=block.shape)
                flat_r = rand.reshape(len(batch), -1)
                flat_b = block.reshape(len(batch), -1)
                scale = np.linalg.norm(flat_b, axis=1) / np.maximum(
                    np.linalg.norm(flat_r, axis=1), 1e-300)
                rand = (flat_r * scale[:, None]).reshape(block.shape)
                adv = model.forward_batch(net, X, {m: block})
                rnd = model.forward_batch(net, X, {m: rand})
                if kind == "sup":
                    gain_a = training.nll_loss(adv.probs, y) - base_nll
                    gain_r = training.nll_loss(rnd.probs, y) - base_nll
                else:
                    gain_a = training.lap_loss_from_probs(base.probs, adv.probs)
                    gain_r = training.lap_loss_from_probs(base.probs, rnd.probs)
                gains[(kind, m)].append((gain_a, gain_r))

    for (kind, m), pairs in gains.items():
        mean_adv = float(np.mean([a for a, _ in pairs]))
        mean_rnd = float(np.mean([b for _, b in pairs]))
        assert mean_adv > mean_rnd, (
            f"{kind} point {m}: adversarial {mean_adv:.6f} "
            f"vs random {mean_rnd:.6f} over 100 batches")


# ----------------------------------------------------------- criteria 5 and 6

TREND_RUNS = {
    "basic": dict(mode="none", layers="all", unlabeled_frac=0.0),
    "at": dict(mode="supervised_at", layers="input", unlabeled_frac=0.0),
    "lpat0": dict(mode="virtual_at", layers="all", unlabeled_frac=0.0),
    "lpat60": dict(mode="virtual_at", layers="all", unlabeled_frac=0.6),
}


def _trend_split(seed):
    fleet = synthetic.generate_synthetic(synthetic.SynthConfig(seed=seed, **TREND))
    split, _ = data.prepare_dataset(fleet, attrs=data.DEFAULT_ATTRS[:TREND["n_attrs"]],
                                    seed=seed, **TREND_PREP)
    return split


def _class_margin(samples):
    """Half the smallest distance between the class centroids of labeled
    input windows, each window flattened to one vector."""
    flat = np.stack([s.features.ravel() for s in samples])
    labels = np.array([s.label for s in samples])
    cents = [flat[labels == c].mean(axis=0) for c in np.unique(labels)]
    return min(np.linalg.norm(a - b) for i, a in enumerate(cents)
               for b in cents[i + 1:]) / 2.0


def _trend_table(scores, reports, margins):
    """Per-seed macro-F1 of every variant next to the measured premises: the
    class margin, and each run's validation loss at epoch 1, at its minimum
    (with that epoch) and at the last epoch, then the epoch ``training.train``
    kept (best validation macro-F1), whose network the macro-F1 scores."""
    by_run = {(name, seed): r for name, seed, r in reports}
    lines = [f"eps {TREND_EPS}, xi {TREND_XI}, {TREND_EPOCHS} epochs; per run: "
             "test macro-F1 [valid loss epoch 1 > minimum@epoch > last; kept epoch]"]
    for i, seed in enumerate(TREND_SEEDS):
        cells = []
        for name in TREND_RUNS:
            report = by_run[(name, seed)]
            vl = [e.valid_loss for e in report.epochs]
            k = int(np.argmin(vl))
            cells.append(f"{name} {scores[name][i]:.4f} "
                         f"[{vl[0]:.3f} > {vl[k]:.3f}@{k + 1} > {vl[-1]:.3f}; "
                         f"kept {report.best_epoch}]")
        lines.append(f"seed {seed} margin {margins[i]:.4f}: " + ", ".join(cells))
    lines.append("means " + ", ".join(f"{name} {np.mean(v):.4f}"
                                      for name, v in scores.items()))
    return "\n".join(lines)


def _trend_run(seed, name):
    """Train one trend variant on one seed: its test macro-F1 and report."""
    kw = TREND_RUNS[name]
    split = _trend_split(seed)
    tcfg = training.TrainConfig(epochs=TREND_EPOCHS, seed=seed,
                                unlabeled_frac=kw["unlabeled_frac"],
                                **TREND_TRAIN)
    pcfg = perturb.PerturbationConfig(mode=kw["mode"], layers=kw["layers"],
                                      epsilon=TREND_EPS, xi=TREND_XI,
                                      lam=1.0)
    net, report = training.train(split, tcfg, pcfg)
    return evaluate.evaluate(net, split.test).macro_f1, report


@pytest.fixture(scope="module")
def trend_scores():
    """Test macro-F1 per (variant, seed), trained once and shared by the two
    trend criteria, plus a table of every score and measured premise.

    Asserts the premises the constants were chosen by: eps inside each
    seed's class margin, xi a small finite-difference step next to eps, and
    basic training past its minimum validation loss before the last epoch
    on most seeds.
    """
    assert TREND_XI <= TREND_EPS / 10, (
        f"xi {TREND_XI} is not a finite-difference step next to eps {TREND_EPS}")
    margins = [_class_margin(_trend_split(seed).train_labeled)
               for seed in TREND_SEEDS]
    for seed, margin in zip(TREND_SEEDS, margins):
        assert TREND_EPS <= margin, (
            f"seed {seed}: eps {TREND_EPS} exceeds half the smallest distance "
            f"between class centroids, {margin:.4f}")
    jobs = [(seed, name) for seed in TREND_SEEDS for name in TREND_RUNS]
    # The runs are independent and deterministic, so two worker processes
    # halve the wall time without changing a score. Each worker gets one BLAS
    # thread: two multithreaded workers on two cores run no faster than one.
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_trend_run, *zip(*jobs)))
    scores = {name: [] for name in TREND_RUNS}
    reports = []
    for (seed, name), (f1, report) in zip(jobs, results):
        scores[name].append(f1)
        reports.append((name, seed, report))
    table = _trend_table(scores, reports, margins)
    print("\n" + table)
    overfit = [seed for name, seed, report in reports if name == "basic"
               and np.argmin([e.valid_loss for e in report.epochs]) < TREND_EPOCHS - 1]
    assert 2 * len(overfit) > len(TREND_SEEDS), (
        f"basic training passes its minimum validation loss before the last "
        f"epoch only on seeds {overfit}; nothing to regularise\n{table}")
    return scores, reports, table


@criterion(5, "macro-F1 ordering LPAT+All >= basic+AT >= basic, gap >= 2 points")
def test_criterion_5_supervised_trend(trend_scores):
    scores, reports, table = trend_scores
    basic = float(np.mean(scores["basic"]))
    at = float(np.mean(scores["at"]))
    lpat = float(np.mean(scores["lpat0"]))
    detail = (f"means over {len(TREND_SEEDS)} seeds: basic {basic:.4f}, "
              f"basic+AT {at:.4f}, LPAT+All {lpat:.4f}\n{table}")
    assert lpat >= at >= basic, detail
    assert lpat - basic >= 0.02, detail
    # the training signal itself must be healthy in every run
    for name, seed, report in reports:
        first, last = report.epochs[0], report.epochs[-1]
        assert last.valid_loss < first.valid_loss, (
            f"{name} seed {seed}: validation loss did not improve\n{table}")


@criterion(6, "unlabeled data at 60% lifts LPAT+All over its 0% score")
def test_criterion_6_semi_supervised_trend(trend_scores):
    scores, _, table = trend_scores
    lpat0 = float(np.mean(scores["lpat0"]))
    lpat60 = float(np.mean(scores["lpat60"]))
    assert lpat60 > lpat0, (
        f"means over {len(TREND_SEEDS)} seeds: 0% unlabeled {lpat0:.4f}, "
        f"60% unlabeled {lpat60:.4f}\n{table}")


# --------------------------------------------------------------- criterion 7

@criterion(7, "lambda=0 LPAT equals basic training bit for bit")
def test_criterion_7_lambda_zero_reduction():
    fleet = synthetic.generate_synthetic(synthetic.SynthConfig(
        healthy=20, failed=10, n_attrs=3, days=40, drift=40.0, noise=6.0, seed=5))
    split, _ = data.prepare_dataset(fleet, attrs=data.DEFAULT_ATTRS[:3],
                                    clusters=2, keep_frac=1.0, window=10, seed=5)
    assert split.train_unlabeled, "needs a live unlabeled pool to be meaningful"
    cfg = training.TrainConfig(learning_rate=0.002, batch_size=32, epochs=2,
                               seed=3, hidden1=8, hidden2=8, lstm_units=10)
    lpat0 = perturb.PerturbationConfig(mode="virtual_at", layers="all",
                                       epsilon=2.0, xi=10.0, lam=0.0)
    net_a, rep_a = training.train(split, cfg, lpat0)
    net_b, rep_b = training.train(split, cfg, perturb.PerturbationConfig(mode="none"))
    for name, arr in net_a.params().items():
        other = net_b.params()[name]
        assert arr.tobytes() == other.tobytes(), f"{name} differs"
    assert rep_a.epochs == rep_b.epochs


# --------------------------------------------------------------- criterion 8

@criterion(8, "50-row fixture: prep, train, eval, predict end to end")
def test_criterion_8_pipeline_fixture(tmp_path, capsys):
    cache_path = tmp_path / "fx.cache"
    ckpt = tmp_path / "fx.ckpt"
    report = tmp_path / "fx.report"
    metrics = tmp_path / "fx.metrics"

    assert cli.main(["prep", "--input", str(FIXTURE), "--out", str(cache_path),
                     "--attrs", "smart_5_raw,smart_187_raw", "--clusters", "1",
                     "--keep-frac", "1.0", "--window", "1", "--seed", "0"]) == 0
    split = cache.load_split(cache_path)
    # hand-computed: two 17-day healthy drives, one 16-day failed drive, w=1
    # -> one healthy drive trains (17 class-2 windows); the other healthy
    # drive (17) plus the failed drive (5 red-alert + 11 going-to-fail) test
    assert len(split.train_labeled) == 17
    assert len(split.train_unlabeled) == 0
    assert len(split.valid) == 0
    assert len(split.test) == 33
    assert sorted(s.label for s in split.test) == [0] * 5 + [1] * 11 + [2] * 17

    assert cli.main(["train", "--data", str(cache_path), "--mode", "lpat",
                     "--epsilon", "1", "--xi", "1", "--epochs", "2",
                     "--batch", "8", "--seed", "0", "--out", str(ckpt),
                     "--report", str(report)]) == 0
    assert cli.main(["eval", "--data", str(cache_path), "--checkpoint",
                     str(ckpt), "--split", "test",
                     "--report", str(metrics)]) == 0
    parsed = evaluate.parse_metrics(metrics.read_text())
    assert parsed.total == 33

    window_csv = tmp_path / "window.csv"
    window_csv.write_text("smart_5_raw,smart_187_raw\n5,105\n")
    assert cli.main(["predict", "--checkpoint", str(ckpt),
                     "--window", str(window_csv)]) == 0
    out = capsys.readouterr().out
    assert "class=" in out and "probs=" in out
