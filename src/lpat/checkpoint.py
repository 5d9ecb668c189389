"""Lossless, line-oriented text checkpoints.

Layout: a magic line ``LPAT-CKPT v2``; one ``arch`` line with the five layer
widths in ``ARCH_KEYS`` order, each at least 1; optional ``meta key value``
lines; one block per parameter tensor in ``model.param_shapes`` order
(``tensor <name> <rows> [<cols>]`` followed by one line per row); and an
``end`` line, the last of the file. ``checkpoint_load`` reads exactly the
layout ``checkpoint_save`` writes.

Every float64 is written in the ``hexrows`` encoding, so a checkpoint
round-trips bit-exactly, and the file is read once as bytes through a
``hexrows.TextFile``: a whole tensor is one fixed-width slice whose length
follows from its header, and a malformed row or a non-finite value is
rejected naming its line. A meta key or value that ``checkpoint_save``
would refuse is refused on load too. v1 files, whose rows hold
``float.hex`` literals, are no longer read: retrain to get a v2 file.
Every refusal, a file cut short among them, is a ``CheckpointFormatError``,
a ``ValueError``, naming the file.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .hexrows import TextFile, encode_row, write_lines
from .model import Network, param_shapes

MAGIC = "LPAT-CKPT v2"
ARCH_KEYS = ("n_attrs", "hidden1", "hidden2", "lstm_units", "classes")
ARCH_LINE = re.compile("arch " + " ".join(f"{k} ([1-9][0-9]*)" for k in ARCH_KEYS))


class CheckpointFormatError(ValueError):
    """Checkpoint file is malformed or truncated."""


def _tensor_header(name: str, shape: tuple[int, ...]) -> str:
    return f"tensor {name} " + " ".join(map(str, shape))


def checkpoint_save(net: Network, path, meta: Optional[dict[str, str]] = None) -> None:
    """Write ``net`` to ``path``; ``meta`` holds extra single-line strings
    (e.g. the training window, attribute list and scaling) carried verbatim."""
    dims = net.dims
    lines = [MAGIC, "arch " + " ".join(f"{k} {dims[k]}" for k in ARCH_KEYS)]
    for key, value in (meta or {}).items():
        value = str(value)
        if key.split() != [key] or value.splitlines() not in ([value], []):
            raise ValueError(f"meta entry {key!r} must be single-line with a bare key")
        lines.append(f"meta {key} {value}")
    for name, arr in net.params().items():
        lines.append(_tensor_header(name, arr.shape))
        lines.extend(map(encode_row, np.atleast_2d(arr)))
    lines.append("end")
    write_lines(path, lines)


def checkpoint_load(path) -> tuple[Network, dict[str, str]]:
    """Read a checkpoint; returns (network, meta)."""
    f = TextFile(path, CheckpointFormatError, "checkpoint")
    if f.line() != MAGIC:
        raise CheckpointFormatError(
            f"{path}: missing magic line {MAGIC!r} "
            f"(v1 checkpoints are no longer read: retrain with `lpat train`)")

    def truncated() -> CheckpointFormatError:
        return CheckpointFormatError(f"{path}: cut short after line {f.n_lines}")

    def line() -> str:
        text = f.line()
        if text is None:
            raise truncated()
        return text

    arch = ARCH_LINE.fullmatch(line())
    if not arch:
        raise CheckpointFormatError(
            f"{path}:2: expected 'arch " + " ".join(f"{k} <n>" for k in ARCH_KEYS)
            + "' with every <n> a whole number of at least 1")
    dims = dict(zip(ARCH_KEYS, map(int, arch.groups())))

    meta: dict[str, str] = {}
    text = line()
    while text.startswith("meta "):
        parts = text.split(" ", 2)
        if len(parts) < 3:
            raise CheckpointFormatError(f"{path}:{f.line_no}: malformed meta line")
        if parts[1].split() != [parts[1]]:
            raise CheckpointFormatError(
                f"{path}:{f.line_no}: meta key {parts[1]!r} is empty or holds whitespace")
        if parts[1] in meta:
            raise CheckpointFormatError(f"{path}:{f.line_no}: meta key {parts[1]!r} given twice")
        meta[parts[1]] = parts[2]
        text = line()
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(dims).items():
        header = _tensor_header(name, shape)
        if text != header:
            raise CheckpointFormatError(f"{path}:{f.line_no}: expected {header!r}")
        rows, cols = shape if len(shape) == 2 else (1, shape[0])
        block = f.block(rows, cols)
        if block is None:
            raise truncated()
        tensors[name] = block.reshape(shape)
        text = line()
    if text != "end":
        raise CheckpointFormatError(f"{path}:{f.line_no}: expected 'end'")
    if f.line() is not None:
        raise CheckpointFormatError(f"{path}:{f.line_no}: line follows the end marker")
    return Network.from_params(tensors), meta
