"""Hash every output of one CLI session, to show that a change moves no bit.

    python3 tools/session_hash.py [--epochs N]

In a fresh temporary directory it runs ``lpat synth``, ``lpat prep``,
``lpat train`` in each mode (``basic``, ``at``, ``vat``, ``lpat``; ``at``
with ``--unlabeled-frac 0``, which that mode requires), ``lpat eval`` of
each checkpoint on the test split and ``lpat predict`` of each on the
first trained-length window of the fleet, all through ``lpat.cli.main`` in
this process, at the CLI's defaults and ``--epochs`` (3). Every command
writes into that directory under a relative name, so no output names the
directory. It prints one ``<sha256>  <name>`` line per file written and per
command's stdout, then one line for the overall digest of those lines. Two
trees that print the same overall digest trained, evaluated and predicted
the same bits. Compare runs made at the same BLAS thread count. Standard
library plus ``lpat``: the ``lpat`` under ``src/`` beside this file is
imported first.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpat import cache, cli  # noqa: E402

MODES = ("basic", "at", "vat", "lpat")
# the synth and prep flags of each size; "toy" is a seconds-long session
SIZES = {
    "full": {"synth": [], "prep": []},
    "toy": {"synth": ["--healthy", "6", "--failed", "3", "--attrs", "2", "--days", "45"],
            "prep": ["--attrs", "smart_5_raw,smart_9_raw", "--clusters", "1",
                     "--keep-frac", "1.0", "--window", "10"]},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _first_window(fleet: str, out: str, rows: int) -> None:
    """The first ``rows`` records of the fleet CSV's first drive, with its
    header, as a window file for ``lpat predict``."""
    with open(fleet, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first = next(reader)
        records = [first] + [r for r in reader if r[1] == first[1]]
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + records[:rows])


def session(epochs: int, size: str) -> list[str]:
    """The ``<sha256>  <name>`` lines of one session, in the order it ran."""
    flags = SIZES[size]
    commands = [("synth", ["synth", "--out", "fleet.csv", *flags["synth"]]),
                ("prep", ["prep", "--input", "fleet.csv", "--out", "fleet.cache",
                          *flags["prep"]])]
    for mode in MODES:
        extra = ["--unlabeled-frac", "0"] if mode == "at" else []
        commands += [
            (f"train {mode}", ["train", "--data", "fleet.cache", "--mode", mode,
                               "--epochs", str(epochs), *extra, "--out", f"{mode}.ckpt",
                               "--report", f"{mode}.report"]),
            (f"eval {mode}", ["eval", "--data", "fleet.cache", "--checkpoint",
                              f"{mode}.ckpt", "--report", f"{mode}.metrics"]),
            (f"predict {mode}", ["predict", "--checkpoint", f"{mode}.ckpt",
                                 "--window", "window.csv"]),
        ]
    lines = []
    for name, argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lpat {' '.join(argv)} exited {code}")
        lines.append(f"{_digest(out.getvalue().encode())}  stdout of {name}")
        if name == "prep":
            _first_window("fleet.csv", "window.csv", cache.load_split("fleet.cache").window)
    for path in sorted(Path(".").iterdir()):
        lines.append(f"{_digest(path.read_bytes())}  {path.name}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=3, help="epochs of each training run")
    ap.add_argument("--size", choices=tuple(SIZES), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="session_hash_") as work:
        os.chdir(work)
        try:
            lines = session(args.epochs, args.size)
        except RuntimeError as exc:
            print(f"session_hash: {exc}", file=sys.stderr)
            return 2
        finally:
            os.chdir(here)
    overall = _digest("".join(ln + "\n" for ln in lines).encode())
    print("\n".join(lines))
    print(f"{overall}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
