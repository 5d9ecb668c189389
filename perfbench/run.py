"""lpat benchmark entry point.

    python3 perfbench/run.py --workload train-basic|train-lpat|pipeline \
        --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs in a fresh worker process
whose BLAS thread count is pinned before numpy loads; this process reports
the worker's result and prints it as JSON on the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics and the tracing
overhead with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-basic", "train-lpat", "pipeline")
SIZES = ("full", "toy")

# One BLAS thread: at two threads one epoch's time spread is several times
# wider, and the README promises a single-threaded system.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _worker_env() -> dict:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _print_report(args, result: dict) -> None:
    report = result["report"]
    print(f"# lpat benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# stamp " + json.dumps(report["stamp"]))
    inputs = dict(report["inputs"])
    samples = inputs.pop("samples", {})
    print("# inputs " + json.dumps(inputs))
    for name, d in samples.items():
        print(f"# samples {name}: n={d['n']} p10={d['p10']:.6g} p50={d['p50']:.6g} "
              f"p90={d['p90']:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report.get("reported", {}).items():
        print(f"{name:44s} {value:.6g} {unit} (not in BENCHMARK.json)")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':44s} {rate:.6g} ({result['failed']} of "
          f"{result['attempted']} checks failed)")
    for note in report["failures"]:
        print(f"# failed check: {note}")
    if "spans" in report:
        print(f"# spans written to {report['spans']}")
        if report["missing_targets"]:
            print("# not traced (absent): " + ", ".join(report["missing_targets"]))


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "lpat" / "__init__.py").is_file():
        print(f"run.py: no lpat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: worker exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    _print_report(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
