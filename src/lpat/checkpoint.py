"""Lossless checkpoints: text header lines, then the parameters as raw bytes.

Layout, in the ``rawfile`` form: a magic line ``LPAT-CKPT v3``; one ``arch``
line with the five layer widths in ``ARCH_KEYS`` order, each at least 1;
optional ``meta key value`` lines; and the ``payload`` line, under which the
nine parameter tensors follow in ``model.param_shapes`` order, each in C
order, so their shapes and the payload's size follow from ``arch``.
``checkpoint_load`` reads exactly the layout ``checkpoint_save`` writes and
returns writable arrays, bit-identical to those saved. A meta key or value
that ``checkpoint_save`` would refuse is refused on load too, and a
non-finite value is refused naming its tensor. v1 and v2 files, whose
tensors are text, are no longer read: retrain to get a v3 file. Every
refusal, a file cut short among them, is a ``CheckpointFormatError``, a
``ValueError``, naming the file.
"""

from __future__ import annotations

import re
from typing import Optional

from . import rawfile
from .model import Network, param_shapes

MAGIC = "LPAT-CKPT v3"
ARCH_KEYS = ("n_attrs", "hidden1", "hidden2", "lstm_units", "classes")
ARCH_LINE = re.compile("arch " + " ".join(f"{k} ([1-9][0-9]*)" for k in ARCH_KEYS))


class CheckpointFormatError(ValueError):
    """Checkpoint file is malformed or truncated."""


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
    params = net.params()
    rawfile.write(path, lines, [params[name] for name in param_shapes(dims)])


def checkpoint_load(path) -> tuple[Network, dict[str, str]]:
    """Read a checkpoint; returns (network, meta)."""
    f = rawfile.Reader(path, CheckpointFormatError)
    if f.line() != MAGIC:
        raise CheckpointFormatError(
            f"{path}: missing magic line {MAGIC!r} (checkpoints of other versions "
            f"are no longer read: retrain with `lpat train`)")
    arch = ARCH_LINE.fullmatch(f.line())
    if not arch:
        raise CheckpointFormatError(
            f"{path}:2: expected 'arch " + " ".join(f"{k} <n>" for k in ARCH_KEYS)
            + "' with every <n> a whole number of at least 1")
    dims = dict(zip(ARCH_KEYS, map(int, arch.groups())))

    meta: dict[str, str] = {}
    text = f.line()
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
        text = f.line()
    shapes = param_shapes(dims)
    tensors = f.payload(text, {f"tensor {name}": shape for name, shape in shapes.items()})
    return Network.from_params(dict(zip(shapes, tensors))), meta
