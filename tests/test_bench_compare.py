"""``tools/bench_compare.py`` on synthetic ``run.py`` reports."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def write_run(directory, name, workload, seed, metrics, failed=0, trace=0):
    directory.mkdir(exist_ok=True)
    lines = [f"# lpat benchmark: workload={workload} seed={seed} seconds=36 trace={trace}",
             '# stamp {"blas_threads": 1}']
    lines += [f"{k:44s} {v:.6g} {UNITS.get(k, 'count')}" for k, v in metrics.items()]
    lines.append(json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                             "metrics": {k: {"value": v, "unit": UNITS.get(k, "count")}
                                         for k, v in metrics.items()}}))
    (directory / name).write_text("\n".join(lines) + "\n")


def metrics(rate, setup=1.0, loss=1.1, rss=100.0):
    return {"setup_s": setup, "windows_per_s": rate, "loss": loss, "peak_rss_mb": rss}


def row(lines, workload, metric):
    start = lines.index(next(ln for ln in lines if ln.startswith(f"## {workload}:")))
    return next(ln for ln in lines[start:] if ln.startswith(metric + " "))


def traced(load_ms, predict_ms=9.0):
    return {"checkpoint.checkpoint_load.ms_p50": load_ms,
            "cli.predict.self_ms_p50": predict_ms, "cache.bytes": 469000.0,
            "model.forward_batch.clean.calls": 0.0}


def test_a_change_better_in_every_pair_by_more_than_the_spread_is_a_gain(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(905, 915)):
        write_run(parent, f"p{seed}", "pipeline", seed, metrics(4000 + 10 * i))
        write_run(change, f"c{seed}", "pipeline", seed,
                  metrics(5000 + 10 * i, setup=1.0 + 0.01 * (i % 3), rss=80.0))
    write_run(change, "traced", "pipeline", 905, {"cache.bytes": 1.0}, trace=1)
    lines = bench_compare.report(bench_compare.read_side(parent),
                                 bench_compare.read_side(change), SPEC)
    assert lines[0].startswith("## pipeline: 10 parent runs, 10 change runs, 10 pairs")
    assert "parent failed checks: 0 of 100" in lines
    rate = row(lines, "pipeline", "windows_per_s")
    assert "parent 4045 [4022.5, 4067.5] n=10" in rate
    assert "better in 10 of 10 pairs (0 equal; higher is better)" in rate
    assert rate.endswith("gain")
    loss = row(lines, "pipeline", "loss")
    assert "better in 0 of 10 pairs (10 equal" in loss and loss.endswith("within bound")
    assert row(lines, "pipeline", "peak_rss_mb").endswith("gain")
    assert row(lines, "pipeline", "setup_s").endswith("within bound")


@pytest.mark.parametrize("parent_rates, change_rates, verdict", [
    # nine of ten pairs, but a gap inside the parent's quartile distance
    ([100, 110] * 5, [101, 111] * 4 + [101, 109], "within bound"),
    # eight of ten pairs by a wide gap: short of nine tenths
    ([100] * 10, [200] * 8 + [90] * 2, "within bound"),
    # the median 30% below the parent's, past the 0.25 bound
    ([100] * 10, [70] * 10, "worse"),
    # a parent spread wider than the bound and overlapping runs
    ([50, 150] * 5, [60, 140] * 5, "unresolved"),
    # the same spread, but every change run beats every parent run
    ([50, 60] * 5, [80, 200] * 5, "gain"),
])
def test_verdicts(tmp_path, parent_rates, change_rates, verdict):
    for side, rates in (("parent", parent_rates), ("change", change_rates)):
        for seed, rate in enumerate(rates):
            write_run(tmp_path / side, f"{seed:02d}", "train-basic", seed, metrics(rate))
    lines = bench_compare.report(bench_compare.read_side(tmp_path / "parent"),
                                 bench_compare.read_side(tmp_path / "change"), SPEC)
    assert row(lines, "train-basic", "windows_per_s").endswith(verdict)


def test_runs_pair_by_seed_and_failures_are_counted(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "a", "train-lpat", 1, metrics(200))
    write_run(parent, "b", "train-lpat", 2, metrics(210))
    write_run(change, "a", "train-lpat", 2, metrics(250), failed=3)
    assert bench_compare.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("## train-lpat: 2 parent runs, 1 change runs, 1 pairs (seeds 2)")
    assert "change failed checks: 3 of 10" in out
    assert "better in 1 of 1 pairs" in row(out, "train-lpat", "windows_per_s")


@pytest.mark.parametrize("parent_failed, change_failed, flagged", [
    ((0, 0), (0, 1), True),
    ((2, 2), (1, 4), True),   # 5 of 20 against 4 of 20
    ((2, 2), (4, 0), False),  # 4 of 20 on each side
    ((3, 0), (0, 0), False),
])
def test_a_larger_share_of_failed_checks_is_flagged(tmp_path, parent_failed, change_failed,
                                                   flagged):
    for side, fails in (("parent", parent_failed), ("change", change_failed)):
        for seed, failed in enumerate(fails):
            write_run(tmp_path / side, f"{seed}", "pipeline", seed, metrics(100),
                      failed=failed)
    lines = bench_compare.report(bench_compare.read_side(tmp_path / "parent"),
                                 bench_compare.read_side(tmp_path / "change"), SPEC)
    assert ("more failed checks" in lines) == flagged


def test_a_file_that_is_no_report_is_named(tmp_path, capsys):
    write_run(tmp_path / "parent", "ok", "pipeline", 1, metrics(1))
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "notes.txt").write_text("hello\n")
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 2
    assert "notes.txt: no '# lpat benchmark:' header line" in capsys.readouterr().err


def test_traced_runs_compare_per_layer_metrics_without_a_verdict(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(101, 106)):
        write_run(parent, f"p{seed}", "pipeline", seed, metrics(5000))
        write_run(change, f"c{seed}", "pipeline", seed, metrics(5000))
        write_run(parent, f"pt{seed}", "pipeline", seed, traced(8.0 + 0.1 * i), trace=1)
        # better in four pairs, worse in the last
        write_run(change, f"ct{seed}", "pipeline", seed,
                  traced(7.5 + 0.1 * i if i < 4 else 9.0), trace=1)
    lines = bench_compare.report(bench_compare.read_side(parent),
                                 bench_compare.read_side(change), SPEC)
    assert lines[0].startswith("## pipeline: 5 parent runs, 5 change runs, 5 pairs")
    assert row(lines, "pipeline", "windows_per_s").endswith("within bound")
    assert "## pipeline traced: 5 parent runs, 5 change runs, 5 pairs " \
           "(seeds 101, 102, 103, 104, 105)" in lines
    load = row(lines, "pipeline traced", "checkpoint.checkpoint_load.ms_p50")
    assert "parent 8.2 [8.1, 8.3] n=5" in load
    assert "change 7.7 [7.6, 7.8] n=5" in load
    assert load.endswith("better in 4 of 5 pairs (0 equal; lower is better)")
    size = row(lines, "pipeline traced", "cache.bytes")
    assert size.endswith("better in 0 of 5 pairs (5 equal; lower is better)")
    # spans the workload never enters, zero or absent, are only counted
    start = lines.index(next(ln for ln in lines if ln.startswith("## pipeline traced:")))
    assert not any(ln.startswith("model.forward_batch") for ln in lines[start:])
    idle = len(SPEC["per_layer"]) - 3
    assert lines[-1] == f"({idle} per-layer metrics read 0 or are absent in every run)"
    # end-to-end metrics are not read from traced runs, nor per-layer ones from untraced
    assert not any(ln.startswith("checkpoint.") for ln in lines[:start])
    assert not any(ln.startswith("windows_per_s ") for ln in lines[start:])


def test_a_per_layer_metric_on_one_side_only_is_named(tmp_path):
    write_run(tmp_path / "parent", "p", "pipeline", 1, traced(8.0), trace=1)
    write_run(tmp_path / "change", "c", "pipeline", 1,
              {"checkpoint.checkpoint_load.ms_p50": 7.0}, trace=1)
    lines = bench_compare.report(bench_compare.read_side(tmp_path / "parent"),
                                 bench_compare.read_side(tmp_path / "change"), SPEC)
    assert row(lines, "pipeline traced", "cli.predict.self_ms_p50").endswith(
        "missing on one side")
    assert "better in 1 of 1 pairs" in row(lines, "pipeline traced",
                                           "checkpoint.checkpoint_load.ms_p50")
