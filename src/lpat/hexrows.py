"""Exact text encoding of float64 rows, shared by the cache and checkpoints.

Each value is the 16 hex digits of its big-endian IEEE-754 bit pattern, and
the values of a row are separated by one space, so a row of ``cols`` values
is exactly ``17 * cols - 1`` characters. Every bit pattern round-trips,
``-0.0``, subnormals and non-finite values included; callers that must not
accept non-finite values check for them after decoding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class HexRowError(ValueError):
    """A row is malformed; ``row`` indexes the rows given to ``decode_rows``
    and ``values`` is how many space-separated tokens that row holds."""

    def __init__(self, row: int, values: int, message: str):
        super().__init__(message)
        self.row = row
        self.values = values


def encode_row(values) -> str:
    return np.asarray(values, ">f8").tobytes().hex(" ", 8)


def decode_rows(rows: Sequence[str], cols: int) -> np.ndarray:
    """Decode rows of ``cols`` values each into a (len(rows), cols) array
    with one ``bytes.fromhex`` over the whole block.

    ``bytes.fromhex`` skips whitespace, so misaligned 15- and 17-digit
    tokens would decode silently: the row widths and the positions of the
    separators are checked first. A stray space or tab inside a value then
    leaves an odd digit count, which ``bytes.fromhex`` rejects, or too few
    bytes. Raises HexRowError for the first bad row.
    """
    n = len(rows) * cols
    width = 17 * cols - 1
    text = " ".join(rows)
    try:
        if set(map(len, rows)) <= {width} and text[16::17] == " " * max(n - 1, 0):
            raw = bytes.fromhex(text)
            if len(raw) == 8 * n:
                return np.frombuffer(raw, ">f8").astype(float).reshape(len(rows), cols)
    except ValueError:
        pass
    for r, row in enumerate(rows):
        values = row.count(" ") + 1
        if values != cols:
            raise HexRowError(r, values, f"{values} values, expected {cols}")
        try:
            ok = (len(row) == width and row[16::17] == " " * (cols - 1)
                  and len(bytes.fromhex(row)) == 8 * cols)
        except ValueError:
            ok = False
        if not ok:
            raise HexRowError(r, values, "a value that is not 16 hex digits")
    # not reached: rows that are each well formed join into a well-formed block
    raise HexRowError(0, cols, "malformed block")
