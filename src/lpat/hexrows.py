"""The text policy shared by the dataset cache and checkpoints.

Both files are ASCII lines, each ended by one ``"\\n"``. A float64 is the
16 hex digits of its big-endian bit pattern and the values of a row are
separated by one space, so a row of ``cols`` values is exactly
``17 * cols - 1`` characters and every bit pattern round-trips, ``-0.0`` and
subnormals included. With its ``"\\n"``, a block of ``rows`` such rows is
``rows * cols * 17`` bytes, so its length follows from the header before it.

A loader reads its file once, as bytes, through a ``TextFile``: header lines
one at a time, and each block as one fixed-width slice, whose separators and
row ends are checked through a strided view and whose digits decode with
``binascii.a2b_hex``, never as text split into lines. Loaders accept only
what the writers emit: a line end other than ``"\\n"`` (``"\\r"``, ``"\\v"``,
``"\\f"`` or ``"\\x1c"``-``"\\x1e"``) and a non-finite value are refused, and
every block error names ``<path>: line N``.
"""

from __future__ import annotations

import binascii
import re
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

# the ASCII line ends of str.splitlines other than "\n"; no writer emits one
_FOREIGN_END = re.compile("[\r\v\f\x1c-\x1e]")
# one value as written: 16 hex digits, then a space or the row's "\n"
_CELL = np.dtype([("digits", "V16"), ("end", "u1")])
# text decoded per step: its temporaries stay below malloc's default 128 KiB
# mmap threshold, so they reuse heap pages instead of faulting in fresh ones
_CHUNK_BYTES = 1 << 17


def encode_row(values) -> str:
    return np.asarray(values, ">f8").tobytes().hex(" ", 8)


def write_lines(path, lines: Sequence[str]) -> None:
    """Write ``lines`` to ``path``. The whole text is encoded before the file
    is opened, so a line that cannot be written leaves the old file."""
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


class TextFile:
    """The lines and blocks of the ASCII file ``path``, read once as bytes.

    Every problem raises ``error`` naming ``path``; a file that is not ASCII
    is "not a text <what>". ``line_no`` counts the lines read so far.
    """

    def __init__(self, path, error: type[Exception], what: str):
        data = Path(path).read_bytes()
        if not data.isascii():
            try:
                data.decode("ascii")
            except UnicodeDecodeError as exc:
                raise error(f"{path}: not a text {what} ({exc})") from None
        self.path, self.error, self.data = path, error, data
        self.pos = 0
        self.line_no = 0

    def line(self) -> str | None:
        """The next line without its ``"\\n"``, or None at the end of the file
        (whose last line may lack its ``"\\n"``)."""
        data, pos = self.data, self.pos
        end = data.find(b"\n", pos)
        if end >= 0:
            self.pos = end + 1
        elif pos < len(data):
            end = self.pos = len(data)
        else:
            return None
        text = data[pos:end].decode("ascii")
        self.line_no += 1
        if not text.isprintable():  # a tab may stand in a checkpoint's meta value
            self._refuse_foreign_end(text, self.line_no)
        return text

    @property
    def n_lines(self) -> int:
        """The number of lines in the file."""
        return self.line_no + self._lines_left()

    def block(self, rows: int, cols: int) -> np.ndarray | None:
        """The next ``rows`` lines as a finite (rows, cols) float64 array, or
        None when fewer lines remain; the first bad row raises ``error``."""
        first_line = self.line_no + 1
        values = _decode_block(self.data, self.pos, rows, cols)
        if values is None:
            if self._lines_left() < rows:
                return None
            self._refuse_block(self.data, self.pos, rows, cols, first_line)
        self.pos += rows * cols * _CELL.itemsize
        self.line_no += rows
        return self._finite(values, first_line)

    def row(self, text: str, cols: int) -> np.ndarray:
        """``text``, the rest of the line last read, as a finite row of
        ``cols`` values."""
        data = (text + "\n").encode("ascii")
        values = _decode_block(data, 0, 1, cols)
        if values is None:
            self._refuse_block(data, 0, 1, cols, self.line_no)
        return self._finite(values, self.line_no)[0]

    def _lines_left(self) -> int:
        data = self.data
        return data.count(b"\n", self.pos) + (self.pos < len(data) and data[-1:] != b"\n")

    def _finite(self, values: np.ndarray, first_line: int) -> np.ndarray:
        if not np.isfinite(values).all():
            r = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise self.error(f"{self.path}: line {first_line + r} holds a non-finite value")
        return values

    def _refuse_block(self, data: bytes, pos: int, rows: int, cols: int,
                      first_line: int) -> NoReturn:
        """Raise ``error`` for the first row of the block at ``data[pos:]``
        that ``_decode_block`` refuses; the rows before it are whole lines, so
        that row is line ``first_line + r`` of the file."""
        width = cols * _CELL.itemsize
        padded = data[pos:pos + rows * width].ljust(rows * width, b"\0")
        r = next(r for r in range(rows) if _decode_block(padded, r * width, 1, cols) is None)
        start = pos + r * width
        end = data.find(b"\n", start)
        line = data[start:end if end >= 0 else len(data)].decode("ascii")
        self._refuse_foreign_end(line, first_line + r)
        count = line.count(" ") + 1
        problem = (f"{count} values, expected {cols}" if count != cols
                   else "a value that is not 16 hex digits")
        raise self.error(f"{self.path}: line {first_line + r} holds {problem}")

    def _refuse_foreign_end(self, text: str, line_no: int) -> None:
        found = _FOREIGN_END.search(text)
        if found:
            raise self.error(f"{self.path}: line {line_no} holds {found.group()!r}, "
                             f"a line end other than '\\n'")


def _decode_block(data: bytes, pos: int, rows: int, cols: int) -> np.ndarray | None:
    """The (rows, cols) block at ``data[pos:]``, or None if the bytes run out
    or a separator, a row end or a digit is wrong.

    It decodes ``_CHUNK_BYTES`` of text at a time into the one array it
    returns: block-sized temporaries would be fresh memory, and on a
    default-width checkpoint faulting their pages in costs about as much as
    decoding them.
    """
    if pos + rows * cols * _CELL.itemsize > len(data):
        return None
    cells = np.frombuffer(data, _CELL, rows * cols, pos).reshape(rows, cols)
    ends = np.full(cols, ord(" "), np.uint8)
    ends[-1] = ord("\n")
    out = np.empty((rows, cols))
    step = max(1, _CHUNK_BYTES // (_CELL.itemsize * cols))
    for r in range(0, rows, step):
        chunk = cells[r:r + step]
        if not (chunk["end"] == ends).all():
            return None
        try:
            raw = binascii.a2b_hex(chunk["digits"].tobytes())
        except binascii.Error:
            return None
        out[r:r + step] = np.frombuffer(raw, ">f8").reshape(-1, cols)
    return out
