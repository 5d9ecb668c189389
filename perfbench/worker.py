"""Worker process: runs one workload and prints its result as one JSON line.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
count already pinned in the environment, so numpy reads it at import.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

WORKLOADS = ("train-basic", "train-lpat", "pipeline")


def _unit(name: str) -> str:
    if name.startswith("trace.overhead."):
        return workloads.ALL_UNITS[name[len("trace.overhead."):]]
    for suffix, unit in (("_s", "s"), ("ms_p50", "ms"),
                         ("bytes_per_window", "B/window"), ("bytes", "B"),
                         ("step_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = list(tracing.layer_metrics([]))
    names += ["cache.bytes", "cache.bytes_per_window", "checkpoint.bytes"]
    names += [f"trace.overhead.{m}" for m in workloads.ALL_UNITS]
    return names


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int, root: Path) -> dict:
    """Machine, library and thread-count facts every result carries."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _git_commit(root), "seed": seed,
    }


def _run(workload: str, seed: int, seconds: float, size: str, tracer, workdir: Path):
    if workload == "pipeline":
        return workloads.run_pipeline(seed, seconds, size, tracer, workdir)
    mode = "none" if workload == "train-basic" else "virtual_at"
    return workloads.run_train(mode, seed, seconds, size, tracer)


def _claims(workload: str, m: dict, facts: dict, checks: workloads.Checks) -> None:
    """The traced run shows each workload exercises what it claims."""
    perturb_calls = m["perturb.compute_perturbation_tensors.calls"]
    probes = sum(m[f"model.resume_forward.p{p}.calls"] for p in range(5))
    steps = m["training.rmsprop_step.calls"]
    if workload.startswith("train-") and steps:
        # the rows each pass pushes through the steps of one epoch are the
        # windows ``windows_per_s`` counts
        rows = (m["model.lstm_rows_per_step"] / m["model.lstm_passes_per_step"]
                * steps / m["training.train.calls"])
        checks.expect(math.isclose(rows, facts["windows_per_call"], rel_tol=1e-9),
                      f"training steps saw {rows} rows per epoch, "
                      f"windows_per_s counts {facts['windows_per_call']}")
    if workload == "train-basic":
        checks.expect(perturb_calls == 0 and probes == 0 and steps > 0
                      and m["model.lstm_passes_per_step"] == 1,
                      "train-basic ran perturbation code or no steps")
    elif workload == "train-lpat":
        checks.expect(steps > 0 and probes == 5 * steps
                      and m["model.lstm_passes_per_step"] == 5,
                      "train-lpat did not probe all five points once per step")
    else:
        checks.expect(m["training.train.calls"] == 0 and perturb_calls == 0
                      and m["cli.predict.calls"] > 0,
                      "pipeline trained, perturbed or never predicted")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, root: Path) -> dict:
    """Run one workload; returns the benchmark result plus a report section.

    Untraced runs report the end-to-end metrics. Traced runs spend half the
    time untraced and half traced and report the per-layer metrics, with the
    tracing overhead as traced minus untraced end-to-end values.
    """
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            outcome = _run(workload, seed, seconds, size, tracing.NoTrace(), workdir)
            metrics = dict(outcome.metrics, peak_rss_mb=_peak_rss_mb())
            checks, facts = outcome.checks, outcome.facts
            reported = {n: (metrics[n], u) for n, u in workloads.REPORTED_UNITS.items()}
            reported.update({alias: (metrics[n], workloads.E2E_UNITS[n])
                             for alias, n in workloads.ALIASES[workload].items()})
            extra = {"reported": reported}
        else:
            base = _run(workload, seed, seconds / 2, size, tracing.NoTrace(), workdir)
            rss_base = _peak_rss_mb()
            with tracing.Tracer() as tracer:
                traced = _run(workload, seed, seconds / 2, size, tracer, workdir)
            checks, facts = traced.checks, traced.facts
            checks.attempted += base.checks.attempted
            checks.failed += base.checks.failed
            checks.notes += base.checks.notes
            metrics = tracing.layer_metrics(tracer.spans)
            _claims(workload, metrics, facts, checks)
            metrics["cache.bytes"] = float(facts.get("cache_bytes", 0))
            metrics["cache.bytes_per_window"] = (
                facts["cache_bytes"] / facts["cached_windows"] if "cache_bytes" in facts else 0.0)
            metrics["checkpoint.bytes"] = float(facts.get("checkpoint_bytes", 0))
            for name in workloads.ALL_UNITS:
                if name == "peak_rss_mb":
                    metrics["trace.overhead.peak_rss_mb"] = _peak_rss_mb() - rss_base
                else:
                    metrics[f"trace.overhead.{name}"] = traced.metrics[name] - base.metrics[name]
            spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans_path, {"workload": workload, **stamp(seed, root)})
            extra = {"spans": str(spans_path.relative_to(root)),
                     "missing_targets": tracer.missing}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = per_layer_names() if trace else list(workloads.E2E_UNITS)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": workloads.E2E_UNITS.get(n) or _unit(n)}
                    for n in names},
        "report": dict(extra, stamp=stamp(seed, root), inputs=facts,
                       failures=checks.notes[:20]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = p.parse_args(argv)
    # the imported modules' objects never become garbage; frozen, they cost
    # the collections inside timed calls nothing and the collections the
    # workloads run between calls almost nothing
    gc.collect()
    gc.freeze()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size, Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
