"""Smoke tests for the benchmark at toy size (a few seconds in all).

They check the plumbing, not the timings: every metric BENCHMARK.json names
is emitted with its unit, the output checks pass, every ``lpat`` function is
the same object after a run as before it, and ``run.py`` fails without the
sources.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MODULES = ("lpat", "lpat.model", "lpat.perturb", "lpat.training", "lpat.data",
           "lpat.cache", "lpat.checkpoint", "lpat.evaluate", "lpat.cli", "lpat.synthetic")


def _lpat_functions() -> dict:
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if callable(value):
                found[(name, attr)] = value
    return found


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    before = _lpat_functions()
    result = worker.measure(workload, 3, 0.2, trace, "toy", tmp_path)
    after = _lpat_functions()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["report"]["failures"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_finds_every_target_and_restores_after_an_error():
    before = _lpat_functions()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert tracer.missing == []
            assert _lpat_functions() != before
            raise RuntimeError("traced code failed")
    assert _lpat_functions() == before


def test_run_prints_result_json_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "train-basic", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--size", "toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
