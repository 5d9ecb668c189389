"""The text policy shared by the dataset cache and checkpoints.

Both files are ASCII lines. A float64 is the 16 hex digits of its
big-endian bit pattern and the values of a row are separated by one space,
so a row of ``cols`` values is exactly ``17 * cols - 1`` characters and
every bit pattern round-trips, ``-0.0`` and subnormals included. Loaders
accept finite values only; every block error names ``<path>: line N``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np


def encode_row(values) -> str:
    return np.asarray(values, ">f8").tobytes().hex(" ", 8)


def write_lines(path, lines: Sequence[str]) -> None:
    """Write ``lines`` to ``path``. The whole text is encoded before the file
    is opened, so a line that cannot be written leaves the old file."""
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_lines(path, error: type[Exception], what: str) -> list[str]:
    """The lines of the ASCII file ``path``; ``error`` if it is not ASCII."""
    try:
        return Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text {what} ({exc})") from None


def decode_block(path, rows: Sequence[str], cols: int, first_line: int,
                 error: type[Exception]) -> np.ndarray:
    """``rows``, the lines of ``path`` from line ``first_line`` (1-based) on,
    as a finite (len(rows), cols) array; the first bad row raises ``error``."""
    values = _decode(rows, cols)
    if values is None:
        r, row = next((r, row) for r, row in enumerate(rows) if _decode([row], cols) is None)
        count = row.count(" ") + 1
        problem = (f"{count} values, expected {cols}" if count != cols
                   else "a value that is not 16 hex digits")
        raise error(f"{path}: line {first_line + r} holds {problem}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise error(f"{path}: line {first_line + r} holds a non-finite value")
    return values


def _decode(rows: Sequence[str], cols: int) -> np.ndarray | None:
    """``rows`` decoded in one ``bytes.fromhex``, or None if one is malformed.

    ``bytes.fromhex`` skips whitespace, so misaligned 15- and 17-digit
    tokens would decode silently: the row widths and the positions of the
    separators are checked first. A stray space or tab inside a value then
    leaves an odd digit count, which ``bytes.fromhex`` rejects, or too few
    bytes.
    """
    text = " ".join(rows)
    if set(map(len, rows)) - {17 * cols - 1} \
            or text[16::17] != " " * max(len(rows) * cols - 1, 0):
        return None
    try:
        return np.frombuffer(bytes.fromhex(text), ">f8").astype(float).reshape(len(rows), cols)
    except ValueError:
        return None
