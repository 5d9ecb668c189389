"""``tools/bench_record.py`` on the benchmark at toy size."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _perfbench_files() -> set:
    return {p for p in (ROOT / "perfbench").rglob("*") if "__pycache__" not in p.parts}


def test_every_workload_is_recorded_traced_and_untraced_with_every_metric(tmp_path):
    out = tmp_path / "BENCH_0.json"
    before = _perfbench_files()
    assert bench_record.main(["--out", str(out), "--seconds", "0.2",
                              "--size", "toy"]) == 0
    assert _perfbench_files() == before
    record = json.loads(out.read_text())
    assert record["command"] == SPEC["command"]
    assert [(r["workload"], r["trace"]) for r in record["runs"]] == \
        [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    for run in record["runs"]:
        spec = SPEC["per_layer" if run["trace"] else "end_to_end"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1
        assert run["stamp"]["seed"] == 1 and run["stamp"]["blas_threads"] == "1"
    pipeline = next(r for r in record["runs"] if r["workload"] == "pipeline"
                    and not r["trace"])
    assert pipeline["reported"]["predict_ms_p50"]["unit"] == "ms"


def test_a_failed_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main(["--out", str(out), "--seconds", "0", "--size", "toy"]) == 2
    assert not out.exists()
    assert "exited 2" in capsys.readouterr().err
