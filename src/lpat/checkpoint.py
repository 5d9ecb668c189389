"""Lossless, line-oriented text checkpoints.

Layout: a magic line ``LPAT-CKPT v2``, one ``arch`` line with the five layer
widths, optional ``meta key value`` lines, then one block per parameter
tensor (``tensor <name> <rows> [<cols>]`` followed by one line per row),
closed by an ``end`` line.

v2 writes each float64 as the 16 hex digits of its big-endian bit pattern,
values separated by one space, so a row of ``cols`` values is exactly
``17 * cols - 1`` characters and a whole tensor decodes in one
``bytes.fromhex``. v1 files, whose rows hold ``float.hex`` literals, keep
loading; only the v2 encoding is written. Both round-trip bit-exactly, and
a tensor holding a non-finite value is rejected on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .hexrows import HexRowError, decode_rows, encode_row
from .model import Network, param_shapes

MAGIC = "LPAT-CKPT v2"
MAGIC_V1 = "LPAT-CKPT v1"
ARCH_KEYS = ("n_attrs", "hidden1", "hidden2", "lstm_units", "classes")


class CheckpointError(Exception):
    """Base class for checkpoint file problems."""


class CheckpointFormatError(CheckpointError):
    """Wrong magic tag or a structurally malformed line."""


class CheckpointArchitectureError(CheckpointError):
    """Stored architecture differs from what the caller expects."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before all tensors (or the end marker) were read."""


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
        if arr.ndim == 1:
            lines.append(f"tensor {name} {arr.shape[0]}")
            lines.append(encode_row(arr))
        else:
            lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
            lines.extend(encode_row(row) for row in arr)
    lines.append("end")
    # encode before opening: a value that cannot be written leaves the old file
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _decode_block(rows: list[str], cols: int, v1: bool, where: str) -> np.ndarray:
    """(len(rows), cols) values of one tensor in the v1 or the v2 encoding."""
    if not v1:
        try:
            return decode_rows(rows, cols)
        except HexRowError as exc:
            if exc.values != cols:
                raise CheckpointTruncatedError(
                    f"{where} row {exc.row} has {exc.values} values, expected {cols}") from None
            raise CheckpointFormatError(
                f"{where} row {exc.row} holds a non-hex-float value") from None
    block = np.empty((len(rows), cols))
    for r, line in enumerate(rows):
        vals = line.split()
        if len(vals) != cols:
            raise CheckpointTruncatedError(
                f"{where} row {r} has {len(vals)} values, expected {cols}")
        try:
            block[r] = [float.fromhex(v) for v in vals]
        except ValueError:
            raise CheckpointFormatError(f"{where} row {r} holds a non-hex-float value") from None
    return block


def checkpoint_load(path, expect: Optional[dict[str, int]] = None
                    ) -> tuple[Network, dict[str, str]]:
    """Read a checkpoint; returns (network, meta).

    ``expect`` maps arch keys (e.g. ``lstm_units``) to required values and
    raises CheckpointArchitectureError on any mismatch.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a text checkpoint ({exc})") from None
    lines = text.splitlines()
    if not lines or lines[0] not in (MAGIC, MAGIC_V1):
        raise CheckpointFormatError(f"{path}: missing magic line {MAGIC!r}")
    v1 = lines[0] == MAGIC_V1
    if len(lines) < 2 or not lines[1].startswith("arch "):
        raise CheckpointTruncatedError(f"{path}: no architecture line")
    arch_tokens = lines[1].split()[1:]
    if len(arch_tokens) != 2 * len(ARCH_KEYS):
        raise CheckpointFormatError(f"{path}: malformed arch line")
    dims: dict[str, int] = {}
    for k, v in zip(arch_tokens[0::2], arch_tokens[1::2]):
        if k not in ARCH_KEYS:
            raise CheckpointFormatError(f"{path}: unknown arch key {k!r}")
        if k in dims:
            raise CheckpointFormatError(f"{path}:2: arch key {k!r} given twice")
        try:
            dims[k] = int(v)
        except ValueError:
            raise CheckpointFormatError(f"{path}: bad arch value {v!r} for {k}") from None
    if expect:
        for k, v in expect.items():
            if dims.get(k) != v:
                raise CheckpointArchitectureError(
                    f"{path}: checkpoint has {k}={dims.get(k)}, expected {v}")

    shapes = param_shapes(dims)
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    i = 2
    saw_end = False
    while i < len(lines):
        line = lines[i]
        if line == "end":
            saw_end = True
            break
        if line.startswith("meta "):
            parts = line.split(" ", 2)
            if len(parts) < 3:
                raise CheckpointFormatError(f"{path}:{i + 1}: malformed meta line")
            meta[parts[1]] = parts[2]
            i += 1
            continue
        if not line.startswith("tensor "):
            raise CheckpointFormatError(f"{path}:{i + 1}: unexpected line {line!r}")
        head = line.split()
        try:
            name, shape = head[1], tuple(int(t) for t in head[2:])
        except (IndexError, ValueError):
            raise CheckpointFormatError(
                f"{path}:{i + 1}: malformed tensor header {line!r}") from None
        if name not in shapes:
            raise CheckpointFormatError(f"{path}:{i + 1}: unknown tensor {name!r}")
        if shape != shapes[name]:
            raise CheckpointFormatError(
                f"{path}:{i + 1}: tensor {name} has shape {shape}, arch implies {shapes[name]}")
        rows = 1 if len(shape) == 1 else shape[0]
        cols = shape[0] if len(shape) == 1 else shape[1]
        block_lines = lines[i + 1:i + 1 + rows]
        if len(block_lines) < rows:
            raise CheckpointTruncatedError(f"{path}: tensor {name} cut short")
        block = _decode_block(block_lines, cols, v1, f"{path}: tensor {name}").reshape(shape)
        if not np.isfinite(block).all():
            raise CheckpointFormatError(f"{path}: tensor {name} holds a non-finite value")
        tensors[name] = block
        i += 1 + rows
    if not saw_end:
        raise CheckpointTruncatedError(f"{path}: missing end marker")
    missing = set(shapes) - set(tensors)
    if missing:
        raise CheckpointTruncatedError(f"{path}: missing tensors {sorted(missing)}")
    return Network.from_params(tensors), meta
