"""``tools/session_hash.py`` on a toy session."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import session_hash  # noqa: E402

LINE = re.compile(r"^[0-9a-f]{64}  (.+)$")
FILES = {"fleet.csv", "fleet.cache", "window.csv",
         *(f"{mode}.{ext}" for mode in session_hash.MODES
           for ext in ("ckpt", "report", "metrics"))}


def _names(text: str) -> list:
    matches = [LINE.match(ln) for ln in text.splitlines()]
    assert all(matches), text
    return [m.group(1) for m in matches]


def test_a_session_hashes_every_stdout_and_file_then_one_digest(capsys, tmp_path,
                                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert session_hash.main(["--size", "toy", "--epochs", "1"]) == 0
    first = capsys.readouterr().out
    names = _names(first)
    stdouts = ["synth", "prep"] + [f"{cmd} {mode}" for mode in session_hash.MODES
                                   for cmd in ("train", "eval", "predict")]
    assert names == [f"stdout of {c}" for c in stdouts] + sorted(FILES) + ["overall"]
    assert list(tmp_path.iterdir()) == []  # it worked in its own directory
    # the same tree prints the same digests
    assert session_hash.main(["--size", "toy", "--epochs", "1"]) == 0
    assert capsys.readouterr().out == first


def test_a_failed_command_prints_no_digest(capsys):
    assert session_hash.main(["--size", "toy", "--epochs", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exited 1" in err
