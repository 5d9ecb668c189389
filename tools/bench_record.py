"""Record one benchmark trajectory file for the current tree.

    python3 tools/bench_record.py --out BENCH_<n>.json [--seconds S]

It runs the repository's benchmark command (``perfbench/run.py``, from
``BENCHMARK.json``) once per workload at ``--trace 0`` and once at
``--trace 1``, each in its own process at seed 1, and writes one JSON file.
Each run keeps its stamp (machine, BLAS, thread count, commit), its
``correct``, ``attempted`` and ``failed`` checks, every metric
``BENCHMARK.json`` names (end-to-end untraced, per-layer traced) and the
metrics ``run.py`` reports beside them, such as ``predict_ms_p50``. ``--seconds`` defaults to the
benchmark's ``run_seconds``. Nothing is written when a run fails. Standard
library only; ``run.py`` keeps its scratch files where it always does.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a run.py line for a metric outside BENCHMARK.json: name, value, unit
REPORTED = re.compile(r"^(\S+)\s+(\S+) (\S+) \(not in BENCHMARK\.json\)$")
STAMP = "# stamp "
# every trajectory file is recorded at this seed, so files compare run by run
SEED = 1


def record_run(command: list[str], workload: str, trace: int, seconds: float,
               size: str) -> dict:
    """One ``run.py`` run, as it goes into the trajectory file."""
    argv = command + ["--workload", workload, "--seed", str(SEED), "--seconds",
                      f"{seconds:g}", "--trace", str(trace)]
    if size != "full":
        argv += ["--size", size]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    stamps = [ln[len(STAMP):] for ln in lines if ln.startswith(STAMP)]
    if proc.returncode != 0 or not stamps:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {
        "workload": workload, "trace": trace, "seed": SEED, "seconds": seconds,
        "stamp": json.loads(stamps[0]),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
        "reported": {m[1]: {"value": float(m[2]), "unit": m[3]}
                     for m in map(REPORTED.match, lines) if m},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="the file to write")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--size", default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        runs = [record_run(spec["command"], w["name"], trace, args.seconds, args.size)
                for w in spec["workloads"] for trace in (0, 1)]
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps({"command": spec["command"], "runs": runs}, indent=1)
                        + "\n")
    print(f"bench_record: {len(runs)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
