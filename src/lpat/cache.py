"""Line-oriented dataset cache.

Layout: magic ``LPAT-DATA v3``, the attribute list, the window length, the
scaling extrema, then the four sections (train_labeled, train_unlabeled,
valid, test). A section is a line ``section <name> <samples> <rows>``, one
line ``sample <serial> <end date> <label|u> <first row>`` per sample, then
its rows; a sample's features are rows ``first .. first + window - 1``. A
sample whose first ``window - 1`` rows equal the previous sample's last
``window - 1``, bit for bit, adds only its last row, so overlapping windows
store each day once.

The file is read in exactly this layout, and ``end`` must be its last line.
Every float is written in the ``hexrows`` encoding. A section's rows decode
in one ``hexrows.decode_block``, and its samples are read-only views of
that block. Bad labels, counts, first rows and windows, malformed rows and
non-finite values are rejected naming their line. v1 and v2 caches are not
read: rebuild them with ``lpat prep``.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .data import DatasetSplit, Sample, ScalingParams
from .hexrows import decode_block, encode_row, read_lines, write_lines

MAGIC = "LPAT-DATA v3"
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
    for a in split.attrs:
        if "," in a or a.splitlines() != [a]:
            raise ValueError(f"cannot cache attribute {a!r}: a name must be non-empty "
                             f"without a comma or line break")
    lines = [
        MAGIC,
        "attrs " + ",".join(split.attrs),
        f"window {split.window}",
        "vmin " + encode_row(split.scaling.v_min),
        "vmax " + encode_row(split.scaling.v_max),
    ]
    shape = (split.window, len(split.attrs))
    for name in SECTIONS:
        samples = getattr(split, name)
        heads, rows, prev = [], [], None
        for s in samples:
            x = np.asarray(s.features, dtype=float)
            label = "u" if s.label is None else str(int(s.label))
            if s.serial.split() != [s.serial] or x.shape != shape \
                    or label not in SECTION_LABELS[name]:
                raise ValueError(
                    f"cannot cache sample {s.serial!r} ({s.window_end}) in {name}: "
                    f"the serial must be non-empty without whitespace, the features "
                    f"{shape[0]} x {shape[1]} and the label one of "
                    f"{', '.join(SECTION_LABELS[name])}")
            if prev is not None and x[:-1].tobytes() == prev[1:].tobytes():
                rows.append(x[-1])
            else:
                rows.extend(x)
            prev = x
            heads.append(f"sample {s.serial} {s.window_end.isoformat()} {label} "
                         f"{len(rows) - len(x)}")
        lines.append(f"section {name} {len(samples)} {len(rows)}")
        lines.extend(heads)
        lines.extend(encode_row(row) for row in rows)
    lines.append("end")
    write_lines(path, lines)


def load_split(path) -> DatasetSplit:
    lines = read_lines(path, CacheFormatError, "cache")
    if not lines or lines[0] != MAGIC:
        raise CacheFormatError(
            f"{path}: missing magic line {MAGIC!r}; caches of other versions "
            f"are not read: rebuild this one from its CSV with `lpat prep`")

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
    v_min = decode_block(path, [need(3, "vmin ")], len(attrs), 4, CacheFormatError)[0]
    v_max = decode_block(path, [need(4, "vmax ")], len(attrs), 5, CacheFormatError)[0]
    split = DatasetSplit(train_labeled=[], train_unlabeled=[], valid=[], test=[],
                         scaling=ScalingParams(v_min, v_max),
                         attrs=attrs, window=window)

    i = 5
    for name in SECTIONS:
        head = need(i, f"section {name} ").split(" ")
        if len(head) != 2 or not all(t.isdigit() for t in head):
            raise CacheFormatError(f"{path}: bad section counts at line {i + 1}")
        count, n_rows = map(int, head)
        i += 1
        heads = []
        for _ in range(count):
            parts = need(i, "sample ").split()
            if len(parts) != 4:
                raise CacheFormatError(f"{path}: malformed sample header at line {i + 1}")
            serial, end_str, label_str, first_str = parts
            try:
                end = date.fromisoformat(end_str)
            except ValueError:
                raise CacheFormatError(f"{path}: bad date at line {i + 1}") from None
            if label_str not in SECTION_LABELS[name]:
                raise CacheFormatError(
                    f"{path}: bad label {label_str!r} at line {i + 1} in section "
                    f"{name}, expected {', '.join(SECTION_LABELS[name])}")
            if not first_str.isdigit() or int(first_str) + window > n_rows:
                raise CacheFormatError(f"{path}: first row {first_str!r} at line {i + 1} "
                                       f"leaves fewer than {window} rows")
            heads.append((serial, end, LABELS[label_str], int(first_str)))
            i += 1
        if i + n_rows > len(lines):
            raise CacheFormatError(f"{path}: section {name} cut short at line {i + 1}")
        # neighbouring windows share rows, so no sample may write to them
        block = decode_block(path, lines[i:i + n_rows], len(attrs), i + 1, CacheFormatError)
        block.flags.writeable = False
        i += n_rows
        getattr(split, name).extend(
            Sample(features=block[first:first + window], label=label, serial=serial,
                   window_end=end) for serial, end, label, first in heads)
    if i >= len(lines) or lines[i] != "end":
        raise CacheFormatError(f"{path}: missing end marker")
    if i + 1 < len(lines):
        raise CacheFormatError(f"{path}: line {i + 2} follows the end marker")
    return split
