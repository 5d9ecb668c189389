"""Compare two sets of saved ``perfbench/run.py`` reports, parent against change.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds the stdout of ``run.py`` runs, one file per run. A run
is read from its header line (``# lpat benchmark: workload=... seed=...
trace=...``) and its last line, the JSON result. Untraced (``--trace 0``)
and traced (``--trace 1``) runs are compared apart: the first carry the
end-to-end metrics, the second the per-layer ones. A parent run and a change
run form a pair when they share the workload, the trace setting and the
seed; repeated seeds pair in file-name order.

For each workload and each end-to-end metric of the repository's
``BENCHMARK.json`` it prints each side's median and quartiles, in how many
pairs the change reads better (the direction is the metric's ``better``;
equal values count for neither side) and a verdict:

- ``gain``: the change is better in at least nine tenths of the pairs, and
  the medians differ, in the better direction, by more than the parent's
  quartile distance;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's ``bound``, a fraction of the parent median;
- ``unresolved``: neither, and the parent's quartile distance is wider than
  the bound, unless every change run reads better than every parent run;
- ``within bound``: otherwise.

Each per-layer metric of ``BENCHMARK.json`` gets the same statistics and
pair count, but no verdict: per-layer metrics have no bound. Those that read
0 or are absent in every traced run of both sides, the spans a workload
never enters, are only counted. It also prints the failed and attempted checks of each side,
and ``more failed checks`` where the change fails a larger share of its
checks than the parent.
Standard library only; it reads the reports and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^# lpat benchmark: workload=(\S+) seed=(\d+) seconds=\S+ trace=(\d)$")
GAIN_SHARE = 0.9


@dataclass
class Run:
    workload: str
    traced: bool
    seed: int
    metrics: dict[str, float]
    failed: int
    attempted: int


def read_run(path: Path) -> Run:
    """The run saved in ``path``; ValueError when the file is not a
    ``run.py`` report."""
    lines = path.read_text().splitlines()
    head = next((m for m in map(HEADER.match, lines) if m), None)
    if head is None:
        raise ValueError(f"{path}: no '# lpat benchmark:' header line")
    try:
        result = json.loads(lines[-1])
        metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
        failed, attempted = int(result["failed"]), int(result["attempted"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: last line is not a run.py result ({exc})") from None
    return Run(head.group(1), head.group(3) != "0", int(head.group(2)), metrics, failed,
               attempted)


def read_side(directory: Path) -> list[Run]:
    return [read_run(p) for p in sorted(directory.iterdir()) if p.is_file()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def pairs(parent: list[Run], change: list[Run]) -> list[tuple[Run, Run]]:
    """Runs of the two sides with the same seed, in file-name order."""
    out = []
    for seed in sorted({r.seed for r in parent} & {r.seed for r in change}):
        out += zip([r for r in parent if r.seed == seed],
                   [r for r in change if r.seed == seed])
    return out


def compare(parent: list[float], change: list[float], paired: list[tuple[float, float]],
            better: str, bound: float | None) -> dict:
    """The statistics of one metric on one workload, and its verdict when the
    metric has a ``bound``; values are oriented so that ``better`` is
    ``higher`` or ``lower``."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in paired)
    ties = sum(c == p for p, c in paired)
    gap = sign * (c_med - p_med)
    spread = p_q3 - p_q1
    if bound is None:
        verdict = None
    elif paired and wins >= GAIN_SHARE * len(paired) and gap > spread:
        verdict = "gain"
    elif -gap > bound * abs(p_med):
        verdict = "worse"
    elif spread > bound * abs(p_med) and not \
            min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p_med, p_q1, p_q3, len(parent)),
            "change": (c_med, c_q1, c_q3, len(change)),
            "rel": (c_med - p_med) / abs(p_med) if p_med else float("nan"),
            "wins": wins, "ties": ties, "pairs": len(paired), "verdict": verdict}


def report(parent: list[Run], change: list[Run], spec: dict) -> list[str]:
    out = []
    for workload, traced in sorted({(r.workload, r.traced) for r in parent + change}):
        p_runs = [r for r in parent if (r.workload, r.traced) == (workload, traced)]
        c_runs = [r for r in change if (r.workload, r.traced) == (workload, traced)]
        paired = pairs(p_runs, c_runs)
        out.append(f"## {workload}{' traced' if traced else ''}: {len(p_runs)} parent "
                   f"runs, {len(c_runs)} change runs, {len(paired)} pairs (seeds "
                   f"{', '.join(str(s) for s in sorted({p.seed for p, _ in paired}))})")
        shares = []
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed, attempted = sum(r.failed for r in runs), sum(r.attempted for r in runs)
            out.append(f"{side} failed checks: {failed} of {attempted}")
            shares.append(failed / attempted if attempted else 0.0)
        if shares[1] > shares[0]:
            out.append("more failed checks")
        specs = spec["per_layer"] if traced else spec["end_to_end"]
        width = max(14, *(len(m["name"]) for m in specs))
        idle = 0
        for m in specs:
            name = m["name"]
            p_vals = [r.metrics[name] for r in p_runs if name in r.metrics]
            c_vals = [r.metrics[name] for r in c_runs if name in r.metrics]
            if traced and not any(p_vals + c_vals):
                idle += 1  # a span this workload never enters
                continue
            if not p_vals or not c_vals:
                out.append(f"{name:{width}s} missing on one side")
                continue
            both = [(p.metrics[name], c.metrics[name]) for p, c in paired
                    if name in p.metrics and name in c.metrics]
            s = compare(p_vals, c_vals, both, m["better"], m.get("bound"))
            out.append(
                f"{name:{width}s} {m['unit']:4s} parent {_fmt(*s['parent'])}  change "
                f"{_fmt(*s['change'])}  {s['rel']:+.1%}  better in {s['wins']} of "
                f"{s['pairs']} pairs ({s['ties']} equal; {m['better']} is better)"
                + (f"  {s['verdict']}" if s["verdict"] else ""))
        if idle:
            out.append(f"({idle} per-layer metrics read 0 or are absent in every run)")
    return out


def _fmt(med, q1, q3, n):
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="directory of the parent's run.py outputs")
    ap.add_argument("change", type=Path, help="directory of the change's run.py outputs")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = report(read_side(args.parent), read_side(args.change), spec)
    except (OSError, ValueError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
