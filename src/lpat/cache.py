"""Line-oriented dataset cache.

Layout: magic ``LPAT-DATA v3``, the attribute list, the window length, the
scaling extrema, then the four sections (train_labeled, train_unlabeled,
valid, test). A section is a line ``section <name> <samples> <rows>``, one
line ``sample <serial> <end date> <label|u> <first row>`` per sample, then
its rows; a sample's features are rows ``first .. first + window - 1``. A
sample whose first ``window - 1`` rows equal the previous sample's last
``window - 1``, bit for bit, adds only its last row, so overlapping windows
store each day once.

The file is read once as bytes through a ``hexrows.TextFile``, in exactly
this layout, and ``end`` must be its last line. Every float is written in
the ``hexrows`` encoding. A section's rows are one fixed-width slice,
decoded into one block, and its samples are read-only views of that block.
The header is read as strictly as ``save_split`` writes it: an empty
attribute name, a window that is not plain digits and a ``vmin`` above its
``vmax`` are refused, and a ``window``, ``section`` or ``sample`` line must
read exactly as ``save_split`` writes the values read from it. Bad
labels, counts, first rows and windows, malformed rows and non-finite
values are rejected naming their line. v1 and v2 caches are not read:
rebuild them with ``lpat prep``.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .data import DatasetSplit, Sample, ScalingParams
from .hexrows import TextFile, encode_row, write_lines

MAGIC = "LPAT-DATA v3"
SECTIONS = ("train_labeled", "train_unlabeled", "valid", "test")
LABELS = {"0": 0, "1": 1, "2": 2, "u": None}
SECTION_LABELS = {  # the labels each section may hold
    "train_labeled": ("0", "1", "2"),
    "train_unlabeled": ("u",),
    "valid": ("0", "1", "2"),
    "test": ("0", "1", "2", "u"),  # evaluation refuses u, naming the serial
}


# each header line as save_split writes it; load_split refuses any other spelling
WINDOW_LINE = "window {}"
SECTION_LINE = "section {} {} {}"
SAMPLE_LINE = "sample {} {} {} {}"  # serial, ISO end date, label, first row


class CacheFormatError(ValueError):
    """Dataset cache file is malformed or truncated."""


def save_split(split: DatasetSplit, path) -> None:
    if not split.attrs:
        raise ValueError("cannot cache a split with no attributes")
    for a in split.attrs:
        if "," in a or a.splitlines() != [a]:
            raise ValueError(f"cannot cache attribute {a!r}: a name must be non-empty "
                             f"without a comma or line break")
    lines = [
        MAGIC,
        "attrs " + ",".join(split.attrs),
        WINDOW_LINE.format(split.window),
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
            heads.append(SAMPLE_LINE.format(s.serial, s.window_end.isoformat(), label,
                                            len(rows) - len(x)))
        lines.append(SECTION_LINE.format(name, len(samples), len(rows)))
        lines.extend(heads)
        lines.extend(encode_row(row) for row in rows)
    lines.append("end")
    write_lines(path, lines)


def load_split(path) -> DatasetSplit:
    f = TextFile(path, CacheFormatError, "cache")
    if f.line() != MAGIC:
        raise CacheFormatError(
            f"{path}: missing magic line {MAGIC!r}; caches of other versions "
            f"are not read: rebuild this one from its CSV with `lpat prep`")

    def need(prefix):
        text = f.line()
        if text is None or not text.startswith(prefix):
            raise CacheFormatError(f"{path}: expected {prefix!r} at line "
                                   f"{f.line_no + (text is None)}")
        return text[len(prefix):]

    def as_written(read: str, written: str) -> None:
        if read != written:
            raise CacheFormatError(f"{path}: line {f.line_no} should read {written!r}")

    attrs = tuple(need("attrs ").split(","))
    if "" in attrs:
        raise CacheFormatError(f"{path}: empty attribute name at line 2")
    text = need("window ")
    if not text.isdigit():
        raise CacheFormatError(f"{path}: window {text!r} at line 3 is not a whole number")
    window = int(text)
    if window < 1:
        raise CacheFormatError(f"{path}: window {window} at line 3 is below 1")
    as_written("window " + text, WINDOW_LINE.format(window))
    v_min = f.row(need("vmin "), len(attrs))
    v_max = f.row(need("vmax "), len(attrs))
    try:
        scaling = ScalingParams(v_min, v_max)
    except ValueError as exc:  # both rows are finite: a v_min above its v_max
        raise CacheFormatError(f"{path}: lines 4-5: {exc}") from None
    split = DatasetSplit(train_labeled=[], train_unlabeled=[], valid=[], test=[],
                         scaling=scaling, attrs=attrs, window=window)
    dates: dict[str, date] = {}  # each distinct end date, parsed once

    for name in SECTIONS:
        head = need(f"section {name} ").split(" ")
        if len(head) != 2 or not all(t.isdigit() for t in head):
            raise CacheFormatError(f"{path}: bad section counts at line {f.line_no}")
        count, n_rows = map(int, head)
        as_written(f"section {name} " + " ".join(head),
                   SECTION_LINE.format(name, count, n_rows))
        heads = []
        for _ in range(count):
            text = need("sample ")
            parts = text.split()
            if len(parts) != 4:
                raise CacheFormatError(f"{path}: malformed sample header at line {f.line_no}")
            serial, end_str, label_str, first_str = parts
            end = dates.get(end_str)
            if end is None:
                try:
                    end = date.fromisoformat(end_str)
                except ValueError:
                    end = None
                if end is None or end.isoformat() != end_str:  # Python 3.11 reads 20160301 too
                    raise CacheFormatError(f"{path}: bad date at line {f.line_no}")
                dates[end_str] = end
            if label_str not in SECTION_LABELS[name]:
                raise CacheFormatError(
                    f"{path}: bad label {label_str!r} at line {f.line_no} in section "
                    f"{name}, expected {', '.join(SECTION_LABELS[name])}")
            first = int(first_str) if first_str.isdigit() else n_rows
            if first + window > n_rows:
                raise CacheFormatError(f"{path}: first row {first_str!r} at line {f.line_no} "
                                       f"leaves fewer than {window} rows")
            as_written("sample " + text, SAMPLE_LINE.format(serial, end_str, label_str, first))
            heads.append((serial, end, LABELS[label_str], first))
        block = f.block(n_rows, len(attrs))
        if block is None:
            raise CacheFormatError(f"{path}: section {name} cut short at line {f.line_no + 1}")
        # neighbouring windows share rows, so no sample may write to them
        block.flags.writeable = False
        getattr(split, name).extend(
            Sample(features=block[first:first + window], label=label, serial=serial,
                   window_end=end) for serial, end, label, first in heads)
    if f.line() != "end":
        raise CacheFormatError(f"{path}: missing end marker")
    if f.line() is not None:
        raise CacheFormatError(f"{path}: line {f.line_no} follows the end marker")
    return split
