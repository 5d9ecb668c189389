"""Dataset cache: text header lines, then every float as raw bytes.

Layout, in the ``rawfile`` form: magic ``LPAT-DATA v4``, the attribute
list, the window length, then the four sections (train_labeled,
train_unlabeled, valid, test), each a line ``section <name> <samples>
<rows>`` and one line ``sample <serial> <end date> <label|u> <first row>``
per sample, and last the ``payload`` line. The payload holds the scaling
extrema (the ``vmin`` row, then the ``vmax`` row), then each section's rows
in ``SECTIONS`` order, one value per attribute, so its size follows from
the header: 8 x attributes x (2 + the sections' rows). A sample's features
are rows ``first .. first + window - 1`` of its section. A sample whose
first ``window - 1`` rows equal the previous sample's last ``window - 1``,
bit for bit, adds only its last row, so overlapping windows store each day
once.

The file is read once as bytes, in exactly this layout. A section's rows
are one block, and its samples are read-only views of that block. The
header is read as strictly as ``save_split`` writes it: an empty attribute
name and a window that is not plain digits are refused, and a ``window``,
``section`` or ``sample`` line must read exactly as ``save_split`` writes
the values read from it. Bad labels, counts, first rows and windows are
rejected naming their line, a non-finite value naming its section and row,
and a ``vmin`` above its ``vmax`` or a range beyond float64 naming the
payload line. Caches of versions 1 to 3 are not read: rebuild them with
``lpat prep``.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from . import rawfile
from .data import DatasetSplit, Sample, ScalingParams

MAGIC = "LPAT-DATA v4"
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
    if not split.scaling.v_min.shape == split.scaling.v_max.shape == (len(split.attrs),):
        raise ValueError(f"cannot cache scaling extrema of shapes {split.scaling.v_min.shape} "
                         f"and {split.scaling.v_max.shape} for {len(split.attrs)} attributes")
    lines = [MAGIC, "attrs " + ",".join(split.attrs), WINDOW_LINE.format(split.window)]
    arrays = [split.scaling.v_min, split.scaling.v_max]
    shape = (split.window, len(split.attrs))
    for name in SECTIONS:
        samples = getattr(split, name)
        heads, n_rows, prev = [], 0, None
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
            shared = prev is not None and x[:-1].tobytes() == prev[1:].tobytes()
            arrays.append(x[-1:] if shared else x)
            n_rows += len(arrays[-1])
            prev = x
            heads.append(SAMPLE_LINE.format(s.serial, s.window_end.isoformat(), label,
                                            n_rows - len(x)))
        lines.append(SECTION_LINE.format(name, len(samples), n_rows))
        lines.extend(heads)
    rawfile.write(path, lines, arrays)


def load_split(path) -> DatasetSplit:
    f = rawfile.Reader(path, CacheFormatError)
    if f.line() != MAGIC:
        raise CacheFormatError(
            f"{path}: missing magic line {MAGIC!r}; caches of other versions "
            f"are not read: rebuild this one from its CSV with `lpat prep`")

    def need(prefix):
        text = f.line()
        if not text.startswith(prefix):
            raise CacheFormatError(f"{path}: expected {prefix!r} at line {f.line_no}")
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
    dates: dict[str, date] = {}  # each distinct end date, parsed once

    sections = {}  # name: (rows, the (serial, end, label, first) of each sample)
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
        sections[name] = n_rows, heads

    n = len(attrs)
    v_min, v_max, *blocks = f.payload(f.line(), {
        "vmin": (n,), "vmax": (n,),
        **{f"section {name}": (n_rows, n) for name, (n_rows, _) in sections.items()}})
    try:
        scaling = ScalingParams(v_min, v_max)
    except ValueError as exc:  # both rows are finite: v_min above v_max, or a wide range
        raise CacheFormatError(f"{path}: vmin and vmax: {exc} (the payload under "
                               f"line {f.line_no})") from None
    split = DatasetSplit(train_labeled=[], train_unlabeled=[], valid=[], test=[],
                         scaling=scaling, attrs=attrs, window=window)
    for (name, (_, heads)), block in zip(sections.items(), blocks):
        # neighbouring windows share rows, so no sample may write to them
        block.flags.writeable = False
        getattr(split, name).extend(
            Sample(features=block[first:first + window], label=label, serial=serial,
                   window_end=end) for serial, end, label, first in heads)
    return split
