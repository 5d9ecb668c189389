"""SMART data pipeline.

Ingests Backblaze-schema daily CSV records, cleans them into per-drive
timelines, selects a representative healthy subset with k-means, min-max
scales attributes, slides labeled/unlabeled windows, and splits by drive
serial. Health degrees: windows of a failed drive get 0 below 5 days of
residual life, 1 from 5 to 15 days, and no label past 15 days; healthy
drives always get 2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Optional, Sequence

import numpy as np

DEFAULT_ATTRS = (
    "smart_5_raw", "smart_9_raw", "smart_187_raw", "smart_188_raw",
    "smart_193_raw", "smart_194_raw", "smart_197_raw", "smart_198_raw",
)

RED_ALERT_MAX_DAYS = 5    # residual life strictly below this: class 0
GOING_TO_FAIL_MAX = 15    # residual life up to this (inclusive): class 1
MIN_EXTRA_DAYS = 15       # drives need window + this many days to survive cleaning

BASE_COLUMNS = ("date", "serial_number", "model", "failure")

CAPACITY_BYTES = 4_000_000_000_000  # the capacity column write_backblaze_csv fills in
KMEANS_MAX_ITER = 100


class SchemaError(ValueError):
    """CSV header lacks a required column, or no attribute column is requested."""


class RowError(ValueError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class SmartRecord:
    serial: str
    date: date
    model: str
    failure: bool
    attrs: tuple  # one float or None (missing) per requested attribute


@dataclass
class DriveTimeline:
    serial: str
    records: list
    fail_date: Optional[date] = None

    @property
    def healthy(self) -> bool:
        return self.fail_date is None


@dataclass
class ScalingParams:
    v_min: np.ndarray
    v_max: np.ndarray

    def __post_init__(self):
        self.v_min = np.asarray(self.v_min, dtype=float)
        self.v_max = np.asarray(self.v_max, dtype=float)
        if not (np.isfinite(self.v_min).all() and np.isfinite(self.v_max).all()):
            raise ValueError("v_min and v_max must be finite")
        if np.any(self.v_min > self.v_max):
            raise ValueError("v_min must not exceed v_max")


@dataclass
class Sample:
    features: np.ndarray      # (window, n_attrs), entries in [0, 1]
    label: Optional[int]      # 0, 1, 2, or None for unlabeled
    serial: str
    window_end: date


@dataclass
class DatasetSplit:
    train_labeled: list
    train_unlabeled: list
    valid: list
    test: list
    scaling: ScalingParams
    attrs: tuple
    window: int


# --------------------------------------------------------------------- ingest

def ingest_csv(path, attr_list: Sequence[str]) -> list[DriveTimeline]:
    """One date-sorted DriveTimeline per serial in a Backblaze-schema CSV.

    Missing cells stay None until cleaning. Rows dated after a drive's
    failure row are dropped so the failure date always closes the timeline.
    Unparseable rows, and rows with a ``nan`` or ``inf`` cell, raise RowError
    with their line number.
    """
    attr_list = tuple(attr_list)
    if not attr_list:
        raise SchemaError(f"{path}: no attribute column requested")
    rows_by_serial: dict[str, list[SmartRecord]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header") from None
        col = {name: i for i, name in enumerate(header)}
        for name in BASE_COLUMNS + attr_list:
            if name not in col:
                raise SchemaError(f"{path}: missing column {name!r}")
        idx = [col[a] for a in attr_list]
        for line_no, row in enumerate(reader, start=2):
            rec = _parse_row(row, col, idx, attr_list, line_no)
            rows_by_serial.setdefault(rec.serial, []).append(rec)

    timelines = []
    for serial in sorted(rows_by_serial):
        records = sorted(rows_by_serial[serial], key=lambda r: r.date)
        fail_dates = [r.date for r in records if r.failure]
        fail_date = max(fail_dates) if fail_dates else None
        if fail_date is not None:
            records = [r for r in records if r.date <= fail_date]
        timelines.append(DriveTimeline(serial=serial, records=records,
                                       fail_date=fail_date))
    return timelines


def _parse_row(row, col, attr_idx, attr_list, line_no) -> SmartRecord:
    def cell(name):
        i = col[name]
        if i >= len(row):
            raise RowError(line_no, f"row too short for column {name!r}")
        return row[i]

    try:
        day = date.fromisoformat(cell("date"))
    except ValueError:
        raise RowError(line_no, f"bad date {cell('date')!r}") from None
    serial = cell("serial_number")
    if not serial:
        raise RowError(line_no, "empty serial_number")
    if serial.split() != [serial]:
        raise RowError(line_no, f"serial_number {serial!r} contains whitespace")
    if not serial.isascii():
        raise RowError(line_no, f"serial_number {serial!r} is not ASCII")
    failure_raw = cell("failure")
    if failure_raw not in ("0", "1"):
        raise RowError(line_no, f"failure flag must be 0 or 1, got {failure_raw!r}")
    attrs = []
    for name, i in zip(attr_list, attr_idx):
        raw = row[i] if i < len(row) else ""
        if raw == "":
            attrs.append(None)
        else:
            try:
                value = float(raw)
            except ValueError:
                raise RowError(line_no, f"bad value {raw!r} in column {name!r}") from None
            if not math.isfinite(value):
                raise RowError(line_no, f"non-finite value {raw!r} in column {name!r}")
            attrs.append(value)
    return SmartRecord(serial=serial, date=day, model=cell("model"),
                       failure=failure_raw == "1", attrs=tuple(attrs))


def write_backblaze_csv(timelines, attrs: Sequence[str], path) -> None:
    """Emit timelines in the Backblaze daily-snapshot schema.

    One row per (drive, day), date-ordered within a drive; the normalized
    companion columns are filled with the constant 100 (ingestion only reads
    the requested raw columns). Full-precision decimal values.
    """
    attrs = tuple(attrs)
    norm_names = [a.replace("_raw", "_normalized") for a in attrs]
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for norm, raw in zip(norm_names, attrs):
        header.extend([norm, raw])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tl in timelines:
            for rec in tl.records:
                row = [rec.date.isoformat(), tl.serial, rec.model,
                       str(CAPACITY_BYTES), "1" if rec.failure else "0"]
                for v in rec.attrs:
                    row.extend(["100", "" if v is None else repr(float(v))])
                writer.writerow(row)


# ------------------------------------------------------------------- cleaning

@dataclass
class CleanStats:
    rows_deduplicated: int = 0
    drives_removed_missing: int = 0
    drives_removed_short: int = 0

    @property
    def drives_removed(self) -> int:
        return self.drives_removed_missing + self.drives_removed_short


def clean_and_aggregate(timelines, window: int) -> tuple[list[DriveTimeline], CleanStats]:
    """Collapse duplicate (serial, date) rows to the last occurrence, then
    drop drives with any missing requested attribute or fewer than
    window + 15 days of records."""
    stats = CleanStats()
    kept = []
    min_days = window + MIN_EXTRA_DAYS
    for tl in timelines:
        dedup: dict[date, SmartRecord] = {}
        for rec in tl.records:
            if rec.date in dedup:
                stats.rows_deduplicated += 1
            dedup[rec.date] = rec
        records = [dedup[d] for d in sorted(dedup)]
        if any(v is None for rec in records for v in rec.attrs):
            stats.drives_removed_missing += 1
            continue
        if len(records) < min_days:
            stats.drives_removed_short += 1
            continue
        kept.append(DriveTimeline(serial=tl.serial, records=records,
                                  fail_date=tl.fail_date))
    return kept, stats


# -------------------------------------------------------------------- scaling

def minmax_fit(timelines) -> ScalingParams:
    """Per-attribute extrema over every record of the given timelines.

    Raises ValueError when an attribute's range ``v_max - v_min`` overflows
    float64: scaling by it would turn finite values into NaN.
    """
    rows = [rec.attrs for tl in timelines for rec in tl.records]
    if not rows:
        raise ValueError("cannot fit scaling on zero records")
    arr = np.array(rows, dtype=float)
    v_min, v_max = arr.min(axis=0), arr.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(v_max - v_min))
    if wide.size:
        j = int(wide[0])
        raise ValueError(f"attribute {j + 1} of {len(v_min)} spans {float(v_min[j])!r} "
                         f"to {float(v_max[j])!r}, beyond the float64 range")
    return ScalingParams(v_min=v_min, v_max=v_max)


def minmax_apply(values, params: ScalingParams) -> np.ndarray:
    """(v - v_min)/(v_max - v_min) per attribute, clipped to [0, 1];
    constant attributes map to 0."""
    v = np.asarray(values, dtype=float)
    span = params.v_max - params.v_min
    safe = np.where(span > 0, span, 1.0)
    with np.errstate(over="ignore"):  # past a subnormal span: +-inf, clipped below
        scaled = (v - params.v_min) / safe
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, 0.0, 1.0)


def scale_timeline(tl: DriveTimeline, params: ScalingParams) -> np.ndarray:
    raw = np.array([rec.attrs for rec in tl.records], dtype=float)
    return minmax_apply(raw, params)


# -------------------------------------------------------------------- k-means

def lloyd_kmeans(points: np.ndarray, k: int, seed: int):
    """Deterministic Lloyd iterations with farthest-point seeding.

    Returns (labels, centroids, objective history); the objective (sum of
    squared distances to the assigned centroid) is recorded once per
    assignment step, for at most ``KMEANS_MAX_ITER`` steps. Empty clusters
    retain their previous centroid.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    centroids = [points[int(rng.integers(n))]]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    while len(centroids) < k:
        nxt = points[int(np.argmax(d2))]
        centroids.append(nxt)
        d2 = np.minimum(d2, ((points - nxt) ** 2).sum(axis=1))
    C = np.array(centroids)

    labels = None
    history = []
    for _ in range(KMEANS_MAX_ITER):
        dist2 = ((points[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist2.argmin(axis=1)
        history.append(float(dist2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                C[j] = members.mean(axis=0)
    return labels, C, history


def drive_summaries(timelines, params: ScalingParams) -> np.ndarray:
    """One summary vector per drive: per-attribute mean of its scaled records."""
    return np.array([scale_timeline(tl, params).mean(axis=0) for tl in timelines])


def kmeans_representative_subset(healthy, k: int, keep_frac: float,
                                 seed: int) -> list[DriveTimeline]:
    """Cluster healthy drives (on per-drive summary vectors, scaled by a
    min-max fit over this pool) and keep, per cluster, the ceil(keep_frac *
    size) drives nearest the centroid. Distance ties resolve by serial."""
    healthy = list(healthy)
    if not 0.0 < keep_frac <= 1.0:
        raise ValueError("keep_frac must lie in (0, 1]")
    if k > len(healthy):
        raise ValueError(f"cannot form {k} clusters from {len(healthy)} drives")
    params = minmax_fit(healthy)
    points = drive_summaries(healthy, params)
    labels, C, _ = lloyd_kmeans(points, k, seed=seed)
    keep: set[str] = set()
    for j in range(k):
        members = [i for i in range(len(healthy)) if labels[i] == j]
        if not members:
            continue
        n_keep = math.ceil(keep_frac * len(members))
        ranked = sorted(members, key=lambda i: (
            float(((points[i] - C[j]) ** 2).sum()), healthy[i].serial))
        keep.update(healthy[i].serial for i in ranked[:n_keep])
    return [tl for tl in healthy if tl.serial in keep]


# ------------------------------------------------------------------ windowing

def residual_label(residual_days: int) -> Optional[int]:
    """Health degree from residual life: 0 below 5 days, 1 through 15 days,
    unlabeled beyond."""
    if residual_days < RED_ALERT_MAX_DAYS:
        return 0
    if residual_days <= GOING_TO_FAIL_MAX:
        return 1
    return None


def _window_starts(tl: DriveTimeline, window: int) -> list[int]:
    """First-record indices of ``tl``'s windows of ``window`` calendar-consecutive
    days."""
    span = timedelta(days=window - 1)
    return [i for i in range(len(tl.records) - window + 1)
            if tl.records[i + window - 1].date - tl.records[i].date == span]


def window_and_label(timelines, window: int, scaling: ScalingParams
                     ) -> tuple[list[Sample], list[Sample]]:
    """Stride-1 sliding windows over calendar-consecutive days.

    Labels anchor at the window's last day: healthy drives are class 2;
    failed drives follow the residual-life rule, with windows more than 15
    days out kept as unlabeled samples.
    """
    labeled: list[Sample] = []
    unlabeled: list[Sample] = []
    for tl in timelines:
        scaled = scale_timeline(tl, scaling)
        scaled.flags.writeable = False  # windows overlap: a write would reach neighbours
        for i in _window_starts(tl, window):
            end_rec = tl.records[i + window - 1]
            feats = scaled[i:i + window]
            if tl.fail_date is None:
                label: Optional[int] = 2
            else:
                label = residual_label((tl.fail_date - end_rec.date).days)
            sample = Sample(features=feats, label=label, serial=tl.serial,
                            window_end=end_rec.date)
            (labeled if label is not None else unlabeled).append(sample)
    return labeled, unlabeled


# ------------------------------------------------------------------ splitting

def split_serials(healthy_serials, failing_serials, train_frac: float,
                  valid_frac: float, seed: int
                  ) -> tuple[set[str], set[str], set[str]]:
    """Drive-level stratified split. Per stratum: floor(n * train_frac)
    drives form the training pool (the rest are test), and floor(pool *
    valid_frac) of the pool become validation."""
    if not 0.0 < train_frac < 1.0 or not 0.0 <= valid_frac < 1.0:
        raise ValueError("train_frac must lie in (0,1) and valid_frac in [0,1)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    train: set[str] = set()
    valid: set[str] = set()
    test: set[str] = set()
    for serials in (sorted(healthy_serials), sorted(failing_serials)):
        if not serials:
            continue
        order = [serials[i] for i in rng.permutation(len(serials))]
        n_pool = int(math.floor(len(order) * train_frac))
        pool, test_part = order[:n_pool], order[n_pool:]
        n_valid = int(math.floor(n_pool * valid_frac))
        valid.update(pool[:n_valid])
        train.update(pool[n_valid:])
        test.update(test_part)
    return train, valid, test


def split_dataset(samples, serials: tuple[set[str], set[str], set[str]],
                  scaling: ScalingParams, attrs, window: int) -> DatasetSplit:
    """Route windowed samples to the (train, valid, test) drive serial sets
    that ``split_serials`` chose.

    The unit of splitting is the drive serial, never the window; unlabeled
    samples attach to the training side only (those from validation or test
    drives are discarded to keep the serial sets disjoint).
    """
    train_s, valid_s, test_s = serials
    split = DatasetSplit(train_labeled=[], train_unlabeled=[], valid=[], test=[],
                         scaling=scaling, attrs=tuple(attrs), window=window)
    for s in samples:
        if s.label is None:
            if s.serial in train_s:
                split.train_unlabeled.append(s)
        elif s.serial in train_s:
            split.train_labeled.append(s)
        elif s.serial in valid_s:
            split.valid.append(s)
        elif s.serial in test_s:
            split.test.append(s)
    if not split.train_labeled or not split.test:
        raise ValueError("too few drives to populate the train and test splits")
    return split


# ------------------------------------------------------------------- pipeline

@dataclass
class PrepStats:
    healthy_before: int = 0
    failed_before: int = 0
    failed_after_clean: int = 0
    healthy_kept: int = 0
    clean: CleanStats = field(default_factory=CleanStats)

    def table(self) -> str:
        lines = [
            "         original  post-processing",
            f"healthy  {self.healthy_before:8d}  {self.healthy_kept:15d}",
            f"failed   {self.failed_before:8d}  {self.failed_after_clean:15d}",
            f"rows deduplicated: {self.clean.rows_deduplicated}",
            f"drives dropped for missing values: {self.clean.drives_removed_missing}",
            f"drives dropped for short history: {self.clean.drives_removed_short}",
        ]
        return "\n".join(lines) + "\n"


def prepare_dataset(timelines, attrs=DEFAULT_ATTRS, clusters: int = 10,
                    keep_frac: float = 0.3, window: int = 20, seed: int = 0,
                    train_frac: float = 0.8, valid_frac: float = 0.2
                    ) -> tuple[DatasetSplit, PrepStats]:
    """clean -> k-means healthy subset -> scale (fit on training drives only)
    -> window/label -> drive-level split."""
    if clusters < 1:
        raise ValueError("clusters must be at least 1")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    stats = PrepStats(
        healthy_before=sum(1 for t in timelines if t.healthy),
        failed_before=sum(1 for t in timelines if not t.healthy),
    )
    cleaned, stats.clean = clean_and_aggregate(timelines, window)
    healthy = [t for t in cleaned if t.healthy]
    failed = [t for t in cleaned if not t.healthy]
    stats.failed_after_clean = len(failed)

    if healthy:
        healthy = kmeans_representative_subset(healthy, clusters, keep_frac, seed)
    stats.healthy_kept = len(healthy)
    selected = healthy + failed

    windowed = [t for t in selected if _window_starts(t, window)]
    serials = split_serials({t.serial for t in windowed if t.healthy},
                            {t.serial for t in windowed if not t.healthy},
                            train_frac, valid_frac, seed)
    train_tls = [t for t in selected if t.serial in serials[0]]
    if not train_tls:
        raise ValueError("too few drives to populate the train and test splits")
    scaling = minmax_fit(train_tls)

    labeled, unlabeled = window_and_label(selected, window, scaling)
    if not labeled:
        raise ValueError("no samples produced; window exceeds every drive's history")
    split = split_dataset(labeled + unlabeled, serials, scaling,
                          attrs=attrs, window=window)
    return split, stats
