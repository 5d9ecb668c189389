"""Line-oriented dataset cache.

Layout: magic ``LPAT-DATA v2``, the attribute list, the window length, the
scaling extrema, then the four sample sections (train_labeled,
train_unlabeled, valid, test). Each sample is a header line
``sample <serial> <end date> <label|u>`` followed by ``window`` rows of
feature values.

Every float (extrema and features) is written in the exact encoding of
``hexrows``: the 16 hex digits of its big-endian bit pattern, one space
between values. All feature rows of a file decode in one ``bytes.fromhex``.
Labels outside {0, 1, 2, u}, ``u`` in train_labeled or valid, a label
other than ``u`` in train_unlabeled, a window below 1 and non-finite values
are rejected with the line they are on. ``LPAT-DATA v1`` caches, which held
decimal values, are not read: rebuild them with ``lpat prep``.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

import numpy as np

from .data import DatasetSplit, Sample, ScalingParams
from .hexrows import HexRowError, decode_rows, encode_row

MAGIC = "LPAT-DATA v2"
MAGIC_V1 = "LPAT-DATA v1"
SECTIONS = ("train_labeled", "train_unlabeled", "valid", "test")
LABELS = {"0": 0, "1": 1, "2": 2, "u": None}
SECTION_LABELS = {  # the labels each section may hold
    "train_labeled": ("0", "1", "2"),
    "train_unlabeled": ("u",),
    "valid": ("0", "1", "2"),
    "test": ("0", "1", "2", "u"),  # evaluation refuses u, naming the serial
}


class CacheFormatError(ValueError):
    """Dataset cache file is malformed or truncated."""


def save_split(split: DatasetSplit, path) -> None:
    lines = [
        MAGIC,
        "attrs " + ",".join(split.attrs),
        f"window {split.window}",
        "vmin " + encode_row(split.scaling.v_min),
        "vmax " + encode_row(split.scaling.v_max),
    ]
    for name in SECTIONS:
        samples = getattr(split, name)
        lines.append(f"section {name} {len(samples)}")
        for s in samples:
            label = "u" if s.label is None else str(int(s.label))
            lines.append(f"sample {s.serial} {s.window_end.isoformat()} {label}")
            lines.extend(encode_row(row) for row in np.asarray(s.features, dtype=float))
    lines.append("end")
    # encode before opening: a value that cannot be written leaves the old file
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def load_split(path) -> DatasetSplit:
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"{path}: not a text cache ({exc})") from None
    if lines and lines[0] == MAGIC_V1:
        raise CacheFormatError(
            f"{path}: {MAGIC_V1} caches are no longer read; rebuild this one "
            f"from its CSV with `lpat prep`")
    if not lines or lines[0] != MAGIC:
        raise CacheFormatError(f"{path}: missing magic line {MAGIC!r}")

    def need(i, prefix):
        if i >= len(lines) or not lines[i].startswith(prefix):
            raise CacheFormatError(f"{path}: expected {prefix!r} at line {i + 1}")
        return lines[i][len(prefix):]

    attrs = tuple(a for a in need(1, "attrs ").split(",") if a)
    try:
        window = int(need(2, "window "))
    except ValueError as exc:
        raise CacheFormatError(f"{path}: bad header value ({exc})") from None
    if window < 1:
        raise CacheFormatError(f"{path}: window {window} at line 3 is below 1")
    v_min = _values(path, [need(3, "vmin ")], len(attrs), lambda r: 3)[0]
    v_max = _values(path, [need(4, "vmax ")], len(attrs), lambda r: 4)[0]
    split = DatasetSplit(train_labeled=[], train_unlabeled=[], valid=[], test=[],
                         scaling=ScalingParams(v_min, v_max),
                         attrs=attrs, window=window)

    # headers are parsed in order; the feature rows of every sample are
    # collected and decoded as one block afterwards
    heads, starts, rows = [], [], []
    i = 5
    for name in SECTIONS:
        head = need(i, f"section {name} ")
        try:
            count = int(head)
        except ValueError:
            raise CacheFormatError(f"{path}: bad section count at line {i + 1}") from None
        i += 1
        bucket = getattr(split, name)
        for _ in range(count):
            parts = need(i, "sample ").split()
            if len(parts) != 3:
                raise CacheFormatError(f"{path}: malformed sample header at line {i + 1}")
            serial, end_str, label_str = parts
            try:
                end = date.fromisoformat(end_str)
            except ValueError:
                raise CacheFormatError(f"{path}: bad date at line {i + 1}") from None
            allowed = SECTION_LABELS[name]
            if label_str not in allowed:
                raise CacheFormatError(
                    f"{path}: bad label {label_str!r} at line {i + 1} in section "
                    f"{name}, expected {', '.join(allowed)}")
            i += 1
            if i + window > len(lines):
                raise CacheFormatError(f"{path}: sample block cut short at line {i + 1}")
            heads.append((bucket, serial, end, LABELS[label_str]))
            starts.append(i)
            rows.extend(lines[i:i + window])
            i += window
    if i >= len(lines) or lines[i] != "end":
        raise CacheFormatError(f"{path}: missing end marker")

    feats = _values(path, rows, len(attrs), lambda r: starts[r // window] + r % window)
    feats = feats.reshape(len(heads), window, len(attrs))
    for (bucket, serial, end, label), x in zip(heads, feats):
        bucket.append(Sample(features=x, label=label, serial=serial, window_end=end))
    return split


def _values(path, rows: list[str], cols: int, at) -> np.ndarray:
    """Decode ``rows`` into a (len(rows), cols) array of finite values;
    ``at`` maps a row index to the row's 0-based line in the file, which
    errors name."""
    try:
        values = decode_rows(rows, cols)
    except HexRowError as exc:
        raise CacheFormatError(f"{path}: line {at(exc.row) + 1} holds {exc}") from None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise CacheFormatError(f"{path}: line {at(r) + 1} holds a non-finite value")
    return values
