"""The file layout shared by the dataset cache and checkpoints.

A file is ASCII header lines, each ended by one ``"\\n"``, the last of which
is ``payload <bytes> <crc32>``, then exactly ``<bytes>`` bytes of
little-endian float64: every float of the file, in an order its format
fixes, so every bit pattern round-trips, ``-0.0`` and subnormals included.
The CRC32 (``zlib.crc32``, 8 lowercase hex digits) covers the payload only,
so any change to a payload byte is refused. The payload's size follows from
the header lines before it.

A loader reads its file once, as bytes, through a ``Reader``: header lines
one at a time, then the payload, decoded with one copy. Loaders accept only
what ``write`` emits: a header line that is not ASCII or holds a line end
other than ``"\\n"`` (``"\\r"``, ``"\\v"``, ``"\\f"`` or
``"\\x1c"``-``"\\x1e"``) is refused naming its line, and so are a payload of
the wrong length, a CRC32 mismatch and a non-finite value, the last naming
the array and row that hold it.
"""

from __future__ import annotations

import math
import re
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

# the ASCII line ends of str.splitlines other than "\n"; no writer emits one
_FOREIGN_END = re.compile("[\r\v\f\x1c-\x1e]")
_FLOAT = np.dtype("<f8")


def write(path, lines: Sequence[str], arrays: Sequence[np.ndarray]) -> None:
    """Write the header ``lines``, then ``arrays`` as one payload in C order.
    The whole file is encoded before it is opened, so a line that cannot be
    written leaves the old file."""
    payload = np.concatenate([np.ravel(a) for a in arrays]).astype(_FLOAT, copy=False)
    lines = [*lines, f"payload {payload.nbytes} {zlib.crc32(payload):08x}"]
    head = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)


class Reader:
    """The header lines and payload of the file ``path``, read once as bytes.

    Every problem raises ``error`` naming ``path``. ``line_no`` counts the
    header lines read so far.
    """

    def __init__(self, path, error: type[Exception]):
        self.path, self.error = path, error
        self.data = Path(path).read_bytes()
        self.pos = 0
        self.line_no = 0

    def line(self) -> str:
        """The next header line without its ``"\\n"``; a file that ends
        before one is cut short."""
        data, pos = self.data, self.pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise self.error(f"{self.path}: cut short after line {self.line_no}")
        self.pos = end + 1
        self.line_no += 1
        try:
            text = data[pos:end].decode("ascii")
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.path}: line {self.line_no} is not ASCII ({exc})") from None
        if not text.isprintable():  # a tab may stand in a checkpoint's meta value
            found = _FOREIGN_END.search(text)
            if found:
                raise self.error(f"{self.path}: line {self.line_no} holds {found.group()!r}, "
                                 f"a line end other than '\\n'")
        return text

    def payload(self, text: str, shapes: dict[str, tuple[int, ...]]) -> list[np.ndarray]:
        """The payload under ``text``, the ``payload`` line last read, as one
        finite, writable array per entry of ``shapes``, in its order. A key of
        ``shapes`` names its array in errors."""
        sizes = [math.prod(shape) for shape in shapes.values()]
        nbytes = _FLOAT.itemsize * sum(sizes)
        prefix = f"payload {nbytes} "
        stated = text[len(prefix):]
        if not (text.startswith(prefix) and len(stated) == 8
                and set(stated) <= set("0123456789abcdef")):
            raise self.error(f"{self.path}: line {self.line_no} should read "
                             f"'{prefix}<crc32>', the CRC32 in 8 lowercase hex digits")
        have = len(self.data) - self.pos
        if have < nbytes:
            raise self.error(f"{self.path}: cut short: the payload holds {have} "
                             f"of its {nbytes} bytes")
        if have > nbytes:
            raise self.error(f"{self.path}: {have - nbytes} bytes follow the payload")
        crc = zlib.crc32(memoryview(self.data)[self.pos:])
        if f"{crc:08x}" != stated:
            raise self.error(f"{self.path}: the payload's CRC32 is {crc:08x}, "
                             f"line {self.line_no} gives {stated}")
        values = np.frombuffer(self.data, _FLOAT, sum(sizes), self.pos).astype(float)
        arrays = np.split(values, np.cumsum(sizes)[:-1])
        arrays = [a.reshape(shape) for a, shape in zip(arrays, shapes.values())]
        if not np.isfinite(values).all():
            name, arr = next((name, a) for name, a in zip(shapes, arrays)
                             if not np.isfinite(a).all())
            row = "" if arr.ndim < 2 else \
                f" row {int(np.argmin(np.isfinite(arr).all(axis=1)))}"
            raise self.error(f"{self.path}: {name}{row} holds a non-finite value")
        return arrays
