import re
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpat import cache, data, synthetic

from headers import edit_header
from oracles import nearest_centroid_labels

FIXTURE = Path(__file__).parent / "fixtures" / "fixture_50.csv"
FIXTURE_ATTRS = ("smart_5_raw", "smart_187_raw")


def make_timeline(serial, n_days, attrs_fn, fail_last=False,
                  start=date(2016, 1, 1)):
    records = []
    for i in range(n_days):
        records.append(data.SmartRecord(
            serial=serial, date=start + timedelta(days=i), model="M",
            failure=fail_last and i == n_days - 1, attrs=tuple(attrs_fn(i))))
    return data.DriveTimeline(serial=serial, records=records,
                              fail_date=start + timedelta(days=n_days - 1)
                              if fail_last else None)


# --------------------------------------------------------------------- ingest

def test_ingest_fixture_yields_three_timelines_one_failed():
    tls = data.ingest_csv(FIXTURE, FIXTURE_ATTRS)
    assert [t.serial for t in tls] == ["ZA001", "ZB002", "ZC003"]
    assert [len(t.records) for t in tls] == [17, 16, 17]
    assert tls[0].fail_date is None and tls[2].fail_date is None
    assert tls[1].fail_date == date(2016, 3, 16)
    assert all(t.records[i].date < t.records[i + 1].date
               for t in tls for i in range(len(t.records) - 1))
    assert tls[1].records[0].attrs == (10.0, 150.0)


def test_ingest_empty_file_with_header_gives_empty_collection(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("date,serial_number,model,capacity_bytes,failure,smart_5_raw\n")
    assert data.ingest_csv(p, ["smart_5_raw"]) == []


def test_ingest_missing_requested_column_names_it(tmp_path):
    p = tmp_path / "nocol.csv"
    p.write_text("date,serial_number,model,capacity_bytes,failure,smart_9_raw\n")
    with pytest.raises(data.SchemaError, match="smart_5_raw"):
        data.ingest_csv(p, ["smart_5_raw"])


def test_ingest_bad_row_reports_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "date,serial_number,model,capacity_bytes,failure,smart_5_raw\n"
        "2016-01-01,A,M,1,0,5\n"
        "not-a-date,A,M,1,0,6\n"
        "2016-01-03,A,M,1,0,7\n")
    with pytest.raises(data.RowError, match="line 3"):
        data.ingest_csv(p, ["smart_5_raw"])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_ingest_non_finite_cell_is_a_row_error(tmp_path, cell):
    p = tmp_path / "nan.csv"
    p.write_text(
        "date,serial_number,model,capacity_bytes,failure,smart_5_raw\n"
        "2016-01-01,A,M,1,0,5\n"
        f"2016-01-02,A,M,1,0,{cell}\n"
        "2016-01-03,A,M,1,0,7\n")
    with pytest.raises(data.RowError, match="line 3: non-finite value"):
        data.ingest_csv(p, ["smart_5_raw"])


def test_ingest_missing_cell_becomes_none(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text(
        "date,serial_number,model,capacity_bytes,failure,smart_5_raw\n"
        "2016-01-01,A,M,1,0,\n")
    tls = data.ingest_csv(p, ["smart_5_raw"])
    assert tls[0].records[0].attrs == (None,)


def test_ingest_drops_records_after_the_failure_date(tmp_path):
    p = tmp_path / "late.csv"
    p.write_text(
        "date,serial_number,model,capacity_bytes,failure,smart_5_raw\n"
        "2016-01-01,A,M,1,0,5\n"
        "2016-01-02,A,M,1,1,6\n"
        "2016-01-03,A,M,1,0,7\n")
    tls = data.ingest_csv(p, ["smart_5_raw"])
    assert tls[0].fail_date == date(2016, 1, 2)
    assert len(tls[0].records) == 2


# ------------------------------------------------------------------- cleaning

def test_clean_collapses_duplicate_dates_keeping_the_last():
    tl = make_timeline("A", 20, lambda i: [float(i)])
    dup = data.SmartRecord(serial="A", date=tl.records[3].date, model="M",
                           failure=False, attrs=(99.0,))
    tl.records.append(dup)  # same date, later occurrence
    kept, stats = data.clean_and_aggregate([tl], window=5)
    assert stats.rows_deduplicated == 1
    assert kept[0].records[3].attrs == (99.0,)
    assert len(kept[0].records) == 20


def test_clean_removes_short_drives():
    short = make_timeline("S", 10, lambda i: [1.0])
    kept, stats = data.clean_and_aggregate([short], window=20)
    assert kept == []
    assert stats.drives_removed_short == 1


def test_clean_removes_drives_with_missing_values_and_counts_them():
    good1 = make_timeline("G1", 25, lambda i: [1.0, 2.0])
    good2 = make_timeline("G2", 25, lambda i: [2.0, 3.0])
    bad = make_timeline("B", 25, lambda i: [1.0, None] if i == 7 else [1.0, 2.0])
    kept, stats = data.clean_and_aggregate([good1, bad, good2], window=5)
    assert [t.serial for t in kept] == ["G1", "G2"]
    assert stats.drives_removed_missing == 1
    assert stats.drives_removed == 1


# -------------------------------------------------------------------- scaling

def test_minmax_fit_extrema_and_independence():
    tl = make_timeline("A", 3, lambda i: [[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]][i])
    params = data.minmax_fit([tl])
    assert np.array_equal(params.v_min, [0.0, 7.0])
    assert np.array_equal(params.v_max, [10.0, 7.0])


def test_minmax_apply_examples():
    params = data.ScalingParams(v_min=[0.0], v_max=[10.0])
    assert data.minmax_apply([5.0], params)[0] == 0.5
    assert data.minmax_apply([0.0], params)[0] == 0.0
    assert data.minmax_apply([15.0], params)[0] == 1.0  # clipped
    assert data.minmax_apply([-3.0], params)[0] == 0.0  # clipped
    const = data.ScalingParams(v_min=[7.0], v_max=[7.0])
    assert data.minmax_apply([7.0], const)[0] == 0.0


def test_scaling_params_reject_inverted_bounds():
    with pytest.raises(ValueError):
        data.ScalingParams(v_min=[1.0], v_max=[0.0])


@pytest.mark.parametrize("v_min,v_max", [
    ([0.0, np.nan], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, np.inf]),
    ([-np.inf, 0.0], [1.0, 1.0]),
])
def test_scaling_params_reject_non_finite_extrema(v_min, v_max):
    with pytest.raises(ValueError, match="must be finite"):
        data.ScalingParams(v_min=v_min, v_max=v_max)


def test_minmax_fit_rejects_a_range_beyond_float64():
    tl = make_timeline("A", 2, lambda i: [1.0, 1.7e308 if i else -1.7e308])
    with pytest.raises(ValueError, match="attribute 2 of 2 spans .* beyond the float64"):
        data.minmax_fit([tl])


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@example(a=0.0, b=2.225073858507203e-309, v=1.0)  # a subnormal span
def test_minmax_apply_always_lands_in_unit_interval(a, b, v):
    lo, hi = min(a, b), max(a, b)
    params = data.ScalingParams(v_min=[lo], v_max=[hi])
    out = data.minmax_apply([v], params)[0]
    assert 0.0 <= out <= 1.0


# -------------------------------------------------------------------- k-means

def test_kmeans_identical_drives_single_cluster_keeps_both():
    a = make_timeline("A", 20, lambda i: [4.0, 8.0])
    b = make_timeline("B", 20, lambda i: [4.0, 8.0])
    kept = data.kmeans_representative_subset([a, b], k=1, keep_frac=1.0, seed=0)
    assert {t.serial for t in kept} == {"A", "B"}
    pts = np.array([[4.0, 8.0], [4.0, 8.0]])
    _, C, _ = data.lloyd_kmeans(pts, 1, seed=0)
    assert np.array_equal(C[0], [4.0, 8.0])


def test_kmeans_two_blob_assignment_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.05, size=(5, 3))
    blob_b = rng.normal(5.0, 0.05, size=(5, 3))
    points = np.vstack([blob_a, blob_b])
    labels, C, _ = data.lloyd_kmeans(points, 2, seed=1)
    assert np.array_equal(labels, nearest_centroid_labels(points, C))
    assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
    assert labels[0] != labels[5]


def test_kmeans_keep_frac_ceiling_arithmetic():
    drives = [make_timeline(f"D{i}", 20, lambda j, i=i: [float(i)])
              for i in range(10)]
    kept = data.kmeans_representative_subset(drives, k=1, keep_frac=0.3, seed=0)
    assert len(kept) == 3  # ceil(0.3 * 10)


def test_kmeans_rejects_more_clusters_than_drives():
    drives = [make_timeline("A", 20, lambda i: [1.0])]
    with pytest.raises(ValueError):
        data.kmeans_representative_subset(drives, k=2, keep_frac=0.5, seed=0)
    with pytest.raises(ValueError):
        data.kmeans_representative_subset(drives, k=1, keep_frac=0.0, seed=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(5, 24))
def test_kmeans_objective_never_increases(seed, k, n_points):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 2))
    _, _, history = data.lloyd_kmeans(points, min(k, n_points), seed=seed)
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 4))
    l1, c1, _ = data.lloyd_kmeans(points, 3, seed=9)
    l2, c2, _ = data.lloyd_kmeans(points, 3, seed=9)
    assert np.array_equal(l1, l2) and np.array_equal(c1, c2)


# ------------------------------------------------------------------ windowing

def windowed_drive(residual_gap):
    """Failed drive whose records stop residual_gap days before failure."""
    n_days = 40
    start = date(2016, 1, 1)
    records = [data.SmartRecord("F", start + timedelta(days=i), "M", False,
                                (float(i),)) for i in range(n_days)]
    fail = start + timedelta(days=n_days - 1 + residual_gap)
    return data.DriveTimeline("F", records, fail_date=fail)


def test_window_labels_follow_the_residual_life_rule():
    scaling = data.ScalingParams(v_min=[0.0], v_max=[39.0])
    tl = windowed_drive(0)
    labeled, unlabeled = data.window_and_label([tl], window=5, scaling=scaling)
    by_end = {s.window_end: s.label for s in labeled}
    last = tl.records[-1].date
    assert by_end[last - timedelta(days=3)] == 0       # 3 days before failure
    assert by_end[last - timedelta(days=10)] == 1      # 10 days before failure
    assert all(s.label is None for s in unlabeled)
    ends_unlabeled = {s.window_end for s in unlabeled}
    assert last - timedelta(days=20) in ends_unlabeled  # 20 days out
    # boundaries: exactly 5 and exactly 15 are both class 1, 16 is unlabeled
    assert by_end[last - timedelta(days=5)] == 1
    assert by_end[last - timedelta(days=15)] == 1
    assert last - timedelta(days=16) in ends_unlabeled


def test_window_healthy_drive_is_class_two_everywhere():
    tl = make_timeline("H", 30, lambda i: [float(i)])
    scaling = data.ScalingParams(v_min=[0.0], v_max=[29.0])
    labeled, unlabeled = data.window_and_label([tl], window=7, scaling=scaling)
    assert len(labeled) == 24 and not unlabeled
    assert all(s.label == 2 for s in labeled)
    assert all(s.features.shape == (7, 1) for s in labeled)
    assert all(0.0 <= s.features.min() and s.features.max() <= 1.0 for s in labeled)


def test_window_skips_calendar_gaps():
    tl = make_timeline("G", 30, lambda i: [1.0])
    del tl.records[10]  # one-day hole
    scaling = data.ScalingParams(v_min=[0.0], v_max=[2.0])
    labeled, _ = data.window_and_label([tl], window=5, scaling=scaling)
    ends = {s.window_end for s in labeled}
    hole = date(2016, 1, 11)
    for k in range(5):
        assert hole + timedelta(days=k) not in ends
    assert len(labeled) == (30 - 5 + 1) - 5


def test_label_partition_is_exhaustive_and_exclusive():
    for residual in range(0, 40):
        lbl = data.residual_label(residual)
        if residual < 5:
            assert lbl == 0
        elif residual <= 15:
            assert lbl == 1
        else:
            assert lbl is None


# ------------------------------------------------------------------ splitting

def one_sample(serial, label):
    return data.Sample(features=np.zeros((2, 1)), label=label, serial=serial,
                       window_end=date(2016, 1, 2))


def split_by_drive(samples, seed):
    """80/20 drive split, stratified on whether a drive has failed."""
    failing = {s.serial for s in samples if s.label != 2}
    healthy = {s.serial for s in samples} - failing
    serials = data.split_serials(healthy, failing, 0.8, 0.2, seed)
    scaling = data.ScalingParams(v_min=[0.0], v_max=[1.0])
    return data.split_dataset(samples, serials, scaling, attrs=("smart_5_raw",), window=2)


def test_split_counts_match_the_80_20_protocol():
    samples = [one_sample(f"D{i:03d}", 2) for i in range(100)]
    split = split_by_drive(samples, seed=0)
    serials = lambda part: {s.serial for s in part}
    assert len(serials(split.train_labeled)) == 64
    assert len(serials(split.valid)) == 16
    assert len(serials(split.test)) == 20


def test_split_counts_stratified_case():
    samples = [one_sample(f"H{i:03d}", 2) for i in range(75)]
    samples += [one_sample(f"F{i:03d}", 1) for i in range(25)]
    split = split_by_drive(samples, seed=3)
    count = lambda part, pre: len({s.serial for s in part if s.serial.startswith(pre)})
    assert count(split.train_labeled, "H") == 48 and count(split.train_labeled, "F") == 16
    assert count(split.valid, "H") == 12 and count(split.valid, "F") == 4
    assert count(split.test, "H") == 15 and count(split.test, "F") == 5


def test_split_is_deterministic_and_disjoint():
    rng = np.random.default_rng(7)
    samples = []
    for i in range(40):
        label = int(rng.integers(0, 3))
        samples.append(one_sample(f"D{i:03d}", label))
        if label != 2 and i % 3 == 0:
            samples.append(one_sample(f"D{i:03d}", None))
    a = split_by_drive(samples, seed=5)
    b = split_by_drive(samples, seed=5)
    parts = ("train_labeled", "valid", "test")
    for part in parts:
        assert [s.serial for s in getattr(a, part)] == \
            [s.serial for s in getattr(b, part)]
    sets = [{s.serial for s in getattr(a, p)} for p in parts]
    sets[0] |= {s.serial for s in a.train_unlabeled}
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])


def test_split_unlabeled_attach_to_training_only():
    samples = [one_sample(f"F{i:02d}", 0) for i in range(10)]
    samples += [one_sample(f"F{i:02d}", None) for i in range(10)]
    samples += [one_sample(f"H{i:02d}", 2) for i in range(10)]
    split = split_by_drive(samples, seed=1)
    train_serials = {s.serial for s in split.train_labeled}
    assert split.train_unlabeled
    assert all(s.serial in train_serials for s in split.train_unlabeled)
    assert all(s.label is None for s in split.train_unlabeled)


def test_split_errors_when_a_required_split_would_be_empty():
    samples = [one_sample("A", 2)]
    with pytest.raises(ValueError):
        split_by_drive(samples, seed=0)


# ------------------------------------------------------------------ synthetic

def test_synthetic_counts_and_failure_marking():
    cfg = synthetic.SynthConfig(healthy=0, failed=1, n_attrs=3, days=40, seed=1)
    tls = synthetic.generate_synthetic(cfg)
    assert len(tls) == 1
    assert tls[0].fail_date == tls[0].records[-1].date
    assert tls[0].records[-1].failure
    assert not any(r.failure for r in tls[0].records[:-1])


def test_synthetic_same_seed_reproduces_identical_fleet():
    cfg = synthetic.SynthConfig(healthy=3, failed=2, n_attrs=4, days=30, seed=9)
    a = synthetic.generate_synthetic(cfg)
    b = synthetic.generate_synthetic(cfg)
    for ta, tb in zip(a, b):
        assert ta.serial == tb.serial
        for ra, rb in zip(ta.records, tb.records):
            assert ra.attrs == rb.attrs and ra.date == rb.date


def test_synthetic_drift_lifts_every_failing_drive():
    cfg = synthetic.SynthConfig(healthy=2, failed=5, n_attrs=3, days=50,
                                drift=40.0, noise=2.0, seed=4)
    tls = synthetic.generate_synthetic(cfg)
    base = synthetic.attr_baselines(cfg.n_attrs)
    for tl in tls:
        values = np.array([r.attrs for r in tl.records])
        last5 = values[-5:].mean(axis=0)
        if tl.healthy:
            assert np.all(np.abs(last5 - base) < 0.5 * cfg.drift)
        else:
            assert np.all(last5 - base >= 0.5 * cfg.drift)


def test_synthetic_round_trips_through_ingest_and_clean(tmp_path):
    cfg = synthetic.SynthConfig(healthy=3, failed=1, n_attrs=2, days=40, seed=2)
    tls = synthetic.generate_synthetic(cfg)
    attrs = data.DEFAULT_ATTRS[:2]
    path = tmp_path / "fleet.csv"
    data.write_backblaze_csv(tls, attrs, path)
    back = data.ingest_csv(path, attrs)
    assert len(back) == 4
    cleaned, stats = data.clean_and_aggregate(back, window=20)
    assert len(cleaned) == 4 and stats.drives_removed == 0
    orig = {t.serial: t for t in tls}
    for tl in back:
        src = orig[tl.serial]
        assert tl.fail_date == src.fail_date
        for ra, rb in zip(tl.records, src.records):
            assert ra.attrs == rb.attrs  # full-precision decimal round trip


# -------------------------------------------------------------------- caching

def test_cache_round_trip_preserves_everything(tmp_path):
    cfg = synthetic.SynthConfig(healthy=6, failed=3, n_attrs=2, days=40, seed=3)
    tls = synthetic.generate_synthetic(cfg)
    split, _ = data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:2], clusters=2,
                                    keep_frac=1.0, window=10, seed=0)
    path = tmp_path / "data.cache"
    cache.save_split(split, path)
    back = cache.load_split(path)
    assert back.attrs == split.attrs and back.window == split.window
    assert np.array_equal(back.scaling.v_min, split.scaling.v_min)
    assert np.array_equal(back.scaling.v_max, split.scaling.v_max)
    for part in cache.SECTIONS:
        xs, ys = getattr(split, part), getattr(back, part)
        assert len(xs) == len(ys)
        for sa, sb in zip(xs, ys):
            assert sa.serial == sb.serial and sa.label == sb.label
            assert sa.window_end == sb.window_end
            assert np.array_equal(sa.features, sb.features)


def test_cache_rejects_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "x.cache"
    p.write_text("WRONG v0\n")
    with pytest.raises(cache.CacheFormatError):
        cache.load_split(p)
    cfg = synthetic.SynthConfig(healthy=4, failed=2, n_attrs=2, days=40, seed=3)
    split, _ = data.prepare_dataset(synthetic.generate_synthetic(cfg),
                                    attrs=data.DEFAULT_ATTRS[:2], clusters=1,
                                    keep_frac=1.0, window=10, seed=0)
    cache.save_split(split, p)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(cache.CacheFormatError, match="cut short"):
        cache.load_split(p)


def _special_split():
    """A two-sample split whose values include -0.0, a subnormal and the
    largest finite floats of both signs."""
    top = np.finfo(float).max
    a = np.array([[-0.0, 5e-324], [top, -top], [0.25, 1.0 / 3.0]])
    b = np.array([[1.0, 0.0], [2.0 ** -1070, 0.5], [0.75, 1e-300]])
    return data.DatasetSplit(
        train_labeled=[data.Sample(a, 2, "S1", date(2016, 3, 1))],
        train_unlabeled=[], valid=[],
        test=[data.Sample(b, None, "S2", date(2016, 3, 2))],
        scaling=data.ScalingParams([-top, -0.0], [top, 5e-324]),
        attrs=("smart_5_raw", "smart_9_raw"), window=3)


def _edit_line(path, lineno, text):
    edit_header(path, lambda lines: lines[:lineno - 1] + [text] + lines[lineno:])


def test_a_failed_cache_save_leaves_the_old_file(tmp_path):
    path = tmp_path / "data.cache"
    cache.save_split(_special_split(), path)
    before = path.read_bytes()
    split = _special_split()
    split.test[0].serial = "S\u00c41"
    with pytest.raises(ValueError):
        cache.save_split(split, path)
    assert path.read_bytes() == before


def test_cache_round_trip_is_bit_exact_for_special_values(tmp_path):
    split = _special_split()
    path = tmp_path / "s.cache"
    cache.save_split(split, path)
    assert edit_header(path, lambda lines: lines)[0] == "LPAT-DATA v4"
    # the payload: vmin, vmax, then the first row of train_labeled, little-endian
    payload = path.read_bytes()[-8 * 2 * (2 + 3 + 3):]
    assert payload[32:48] == bytes.fromhex("0000000000000080 0100000000000000")
    back = cache.load_split(path)
    assert back.scaling.v_min.tobytes() == split.scaling.v_min.tobytes()
    assert back.scaling.v_max.tobytes() == split.scaling.v_max.tobytes()
    for part in cache.SECTIONS:
        for sa, sb in zip(getattr(split, part), getattr(back, part), strict=True):
            assert (sa.serial, sa.window_end, sa.label) == (sb.serial, sb.window_end, sb.label)
            assert sa.features.tobytes() == sb.features.tobytes()


@pytest.mark.parametrize("old", [
    "LPAT-DATA v1\nattrs a\nwindow 1\nvmin 0.0\nvmax 1.0\n",
    # every window stored in full under a three-field sample line
    "LPAT-DATA v2\nattrs a\nwindow 1\nvmin 0000000000000000\n"
    "vmax 3ff0000000000000\nsection train_labeled 1\n"
    "sample S1 2016-03-01 2\n3fe0000000000000\nsection train_unlabeled 0\n"
    "section valid 0\nsection test 0\nend\n",
    # every float as hex text, each day of a drive once
    "LPAT-DATA v3\nattrs a\nwindow 1\nvmin 0000000000000000\n"
    "vmax 3ff0000000000000\nsection train_labeled 1 1\n"
    "sample S1 2016-03-01 2 0\n3fe0000000000000\nsection train_unlabeled 0 0\n"
    "section valid 0 0\nsection test 0 0\nend\n",
], ids=["v1", "v2", "v3"])
def test_an_older_cache_is_refused_with_a_pointer_to_prep(tmp_path, old):
    p = tmp_path / "old.cache"
    p.write_text(old)
    with pytest.raises(cache.CacheFormatError, match=re.escape(
            f"{p}: missing magic line 'LPAT-DATA v4'; caches of other versions are not "
            f"read: rebuild this one from its CSV with `lpat prep`")):
        cache.load_split(p)


def _prepped_split():
    """An 18-drive synthetic fleet with all four sections populated."""
    cfg = synthetic.SynthConfig(healthy=12, failed=6, n_attrs=2, days=45, seed=0)
    split, _ = data.prepare_dataset(synthetic.generate_synthetic(cfg),
                                    attrs=data.DEFAULT_ATTRS[:2], clusters=1,
                                    keep_frac=1.0, window=10, seed=0)
    assert all(getattr(split, part) for part in cache.SECTIONS)
    return split


def test_cache_stores_each_day_of_a_section_once(tmp_path):
    split = _prepped_split()
    path = tmp_path / "data.cache"
    cache.save_split(split, path)
    heads = [ln.split() for ln in edit_header(path, lambda lines: lines)
             if ln.startswith("section ")]
    assert [h[1] for h in heads] == list(cache.SECTIONS)
    for _, name, samples, rows in heads:
        windows = getattr(split, name)
        days = {(s.serial, s.window_end - timedelta(days=k))
                for s in windows for k in range(split.window)}
        assert int(samples) == len(windows)
        assert int(rows) == len(days) < len(windows) * split.window


def test_prepared_and_loaded_windows_are_read_only(tmp_path):
    split = _prepped_split()
    path = tmp_path / "data.cache"
    cache.save_split(split, path)
    for windows in (split.train_labeled, cache.load_split(path).train_labeled):
        assert np.shares_memory(windows[0].features, windows[1].features)
        before = [s.features.copy() for s in windows[:3]]
        with pytest.raises(ValueError, match="read-only"):
            windows[1].features[-1, 0] = 0.5
        assert all(np.array_equal(b, s.features) for b, s in zip(before, windows))


@pytest.mark.parametrize("part, field, value", [
    ("test", "serial", ""),
    ("test", "serial", "S 2"),
    ("test", "serial", "S2\n"),
    ("train_labeled", "label", None),
    ("test", "features", np.zeros((2, 2))),
], ids=["empty-serial", "serial-with-space", "serial-with-newline", "u-in-train_labeled",
        "two-of-three-rows"])
def test_cache_save_refuses_a_sample_it_could_not_load(tmp_path, part, field, value):
    path = tmp_path / "data.cache"
    cache.save_split(_special_split(), path)
    before = path.read_bytes()
    split = _special_split()
    sample = getattr(split, part)[0]
    setattr(sample, field, value)
    with pytest.raises(ValueError, match=re.escape(f"cannot cache sample {sample.serial!r}")):
        cache.save_split(split, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("name", ["", "a,b", "a\nb", "a\r"],
                         ids=["empty", "comma", "newline", "carriage-return"])
def test_cache_save_refuses_an_attribute_name_it_could_not_load(tmp_path, name):
    path = tmp_path / "data.cache"
    cache.save_split(_special_split(), path)
    before = path.read_bytes()
    split = _special_split()
    split.attrs = (name, split.attrs[1])
    with pytest.raises(ValueError, match=re.escape(f"cannot cache attribute {name!r}")):
        cache.save_split(split, path)
    assert path.read_bytes() == before


def test_cache_save_refuses_scaling_extrema_it_could_not_load(tmp_path):
    path = tmp_path / "data.cache"
    split = _special_split()
    split.scaling = data.ScalingParams([0.0], [1.0])
    with pytest.raises(ValueError, match=re.escape(
            "cannot cache scaling extrema of shapes (1,) and (1,) for 2 attributes")):
        cache.save_split(split, path)
    assert not path.exists()


def test_cache_save_refuses_a_split_with_no_attributes(tmp_path):
    path = tmp_path / "data.cache"
    split = _special_split()
    split.attrs = ()
    for s in split.train_labeled + split.test:
        s.features = s.features[:, :0]
    split.scaling = data.ScalingParams([], [])
    with pytest.raises(ValueError, match="cannot cache a split with no attributes"):
        cache.save_split(split, path)
    assert not path.exists()


def test_cache_payload_size_follows_from_the_section_rows(tmp_path):
    path = tmp_path / "s.cache"
    cache.save_split(_special_split(), path)
    # 2 attributes x (vmin, vmax and 3 + 3 section rows), then one row more
    lines = edit_header(path, lambda lines: [
        "section test 1 4" if ln == "section test 1 3" else ln for ln in lines])
    assert lines[-4:-1] == ["section valid 0 0", "section test 1 3", "sample S2 2016-03-02 u 0"]
    assert lines[-1].startswith("payload 128 ")
    with pytest.raises(cache.CacheFormatError, match=re.escape(
            f"{path}: line 10 should read 'payload 144 <crc32>'")):
        cache.load_split(path)


# line 4 opens section train_labeled (1 sample, 3 rows), line 5 is the
# header of its sample S1 (first row 0)
@pytest.mark.parametrize("lineno, text, match", [
    (4, "section train_labeled -1 3", "bad section counts at line 4"),
    (4, "section train_labeled 1 x", "bad section counts at line 4"),
    (4, "section train_labeled 1 2.5", "bad section counts at line 4"),
    (4, "section train_labeled 1", "bad section counts at line 4"),
    (5, "sample S1 2016-03-01 2 -1", "first row '-1' at line 5"),
    (5, "sample S1 2016-03-01 2 x", "first row 'x' at line 5"),
    (5, "sample S1 2016-03-01 2 1", "first row '1' at line 5 leaves fewer than 3 rows"),
    (5, "sample S1 2016-03-01 2", "malformed sample header at line 5"),
    (5, "sample S1 2016-03-01 2 00", "line 5 should read 'sample S1 2016-03-01 2 0'"),
    (4, "section train_labeled 01 3", "line 4 should read 'section train_labeled 1 3'"),
], ids=["negative-count", "non-integer-rows", "fractional-rows", "no-row-count",
        "negative-first-row", "non-integer-first-row", "first-row-too-late",
        "no-first-row", "first-row-leading-zero", "count-leading-zero"])
def test_cache_rejects_bad_counts_and_first_rows_naming_the_line(
        tmp_path, lineno, text, match):
    path = tmp_path / "s.cache"
    cache.save_split(_special_split(), path)
    _edit_line(path, lineno, text)
    with pytest.raises(cache.CacheFormatError, match=match):
        cache.load_split(path)


# rows count from 0 within a section, as a sample line's first row does
@pytest.mark.parametrize("part, row, col, where", [
    ("vmin", None, 0, "vmin"), ("vmax", None, 1, "vmax"),
    ("train_labeled", 1, 0, "section train_labeled row 1"),
    ("test", 2, 1, "section test row 2"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cache_rejects_a_non_finite_value_naming_its_section_and_row(tmp_path, part, row,
                                                                      col, where, value):
    split = _special_split()
    if row is None:  # set after ScalingParams has checked the extrema
        getattr(split.scaling, "v_min" if part == "vmin" else "v_max")[col] = value
    else:
        getattr(split, part)[0].features[row, col] = value
    path = tmp_path / "s.cache"
    cache.save_split(split, path)
    with pytest.raises(cache.CacheFormatError,
                       match=re.escape(f"{path}: {where} holds a non-finite value")):
        cache.load_split(path)


def test_cache_rejects_a_vmin_above_its_vmax(tmp_path):
    split = _special_split()
    # each extremum finite, but the second vmin (-0.0) above its vmax
    split.scaling.v_max[1] = -5e-324
    path = tmp_path / "s.cache"
    cache.save_split(split, path)
    with pytest.raises(cache.CacheFormatError, match=re.escape(
            f"{path}: vmin and vmax: v_min must not exceed v_max")):
        cache.load_split(path)


# line 2 lists the attributes, line 3 holds the window (3), line 5 the
# header of sample S1: each edit is text save_split never writes
@pytest.mark.parametrize("lineno, text, match", [
    (3, "window 0_3", "window '0_3' at line 3 is not a whole number"),
    (3, "window +3", "window '\\+3' at line 3 is not a whole number"),
    (3, "window  3", "window ' 3' at line 3 is not a whole number"),
    (3, "window 3 ", "window '3 ' at line 3 is not a whole number"),
    (3, "window 03", "line 3 should read 'window 3'"),
    (2, "attrs smart_5_raw,,smart_9_raw", "empty attribute name at line 2"),
    (2, "attrs smart_5_raw,smart_9_raw,", "empty attribute name at line 2"),
    (2, "attrs ,smart_5_raw,smart_9_raw", "empty attribute name at line 2"),
    (5, "sample S1 20160301 2 0", "bad date at line 5"),
    (5, "sample S1 2016-W09-2 2 0", "bad date at line 5"),
    (5, "sample S1  2016-03-01 2 0", "line 5 should read 'sample S1 2016-03-01 2 0'"),
    (5, "sample S1 2016-03-01 2 0 ", "line 5 should read 'sample S1 2016-03-01 2 0'"),
    (5, "sample S1 2016-03-01 7 0", "bad label '7' at line 5"),
    (5, "sample S1 2016-03-01 -1 0", "bad label '-1' at line 5"),
], ids=["underscore", "plus-sign", "leading-space", "trailing-space", "window-leading-zero",
        "inner-empty-name", "trailing-comma", "leading-comma", "basic-date", "week-date",
        "doubled-space", "sample-trailing-space", "label-7", "label-minus-1"])
def test_cache_header_is_read_as_strictly_as_it_is_written(tmp_path, lineno, text, match):
    path = tmp_path / "s.cache"
    cache.save_split(_special_split(), path)
    cache.load_split(path)
    _edit_line(path, lineno, text)
    with pytest.raises(cache.CacheFormatError, match=re.escape(f"{path}: ") + match):
        cache.load_split(path)


# the tiny cache under tests/fixtures holds _special_split
GOLDEN_CACHE = FIXTURE.parent / "tiny_v4.cache"


def test_golden_cache_loads_to_known_values_and_saves_to_its_bytes(tmp_path):
    split, back = _special_split(), cache.load_split(GOLDEN_CACHE)
    assert (back.attrs, back.window) == (split.attrs, split.window)
    assert back.scaling.v_min.tobytes() == split.scaling.v_min.tobytes()
    assert back.scaling.v_max.tobytes() == split.scaling.v_max.tobytes()
    for part in cache.SECTIONS:
        for sa, sb in zip(getattr(split, part), getattr(back, part), strict=True):
            assert (sa.serial, sa.window_end, sa.label) == (sb.serial, sb.window_end, sb.label)
            assert sa.features.tobytes() == sb.features.tobytes()
    for source in (split, back):
        path = tmp_path / "again.cache"
        cache.save_split(source, path)
        assert path.read_bytes() == GOLDEN_CACHE.read_bytes()


# ------------------------------------------------------------------- pipeline

def test_prepare_dataset_fixture_counts_are_hand_computable():
    tls = data.ingest_csv(FIXTURE, FIXTURE_ATTRS)
    split, stats = data.prepare_dataset(tls, attrs=FIXTURE_ATTRS, clusters=1,
                                        keep_frac=1.0, window=1, seed=0)
    # two 17-day healthy drives and one 16-day failed drive, window 1:
    # one healthy drive trains (17 windows), the other plus the failed drive
    # test (17 + 16); the failed drive contributes 5 red-alert and 11
    # going-to-fail windows, none unlabeled
    assert stats.healthy_before == 2 and stats.failed_before == 1
    assert stats.healthy_kept == 2 and stats.failed_after_clean == 1
    assert len(split.train_labeled) == 17
    assert not split.train_unlabeled and not split.valid
    assert len(split.test) == 33
    test_labels = sorted(s.label for s in split.test)
    assert test_labels == [0] * 5 + [1] * 11 + [2] * 17
    assert all(s.label == 2 for s in split.train_labeled)


def test_prepare_dataset_scaling_fitted_on_training_drives_only():
    cfg = synthetic.SynthConfig(healthy=8, failed=4, n_attrs=2, days=45, seed=6)
    tls = synthetic.generate_synthetic(cfg)
    split, _ = data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:2], clusters=2,
                                    keep_frac=1.0, window=10, seed=2)
    train_serials = {s.serial for s in split.train_labeled} | \
        {s.serial for s in split.train_unlabeled}
    train_tls = [t for t in tls if t.serial in train_serials]
    refit = data.minmax_fit(train_tls)
    assert np.array_equal(refit.v_min, split.scaling.v_min)
    assert np.array_equal(refit.v_max, split.scaling.v_max)


def test_prepare_dataset_is_deterministic():
    cfg = synthetic.SynthConfig(healthy=10, failed=4, n_attrs=3, days=45, seed=8)
    tls = synthetic.generate_synthetic(cfg)
    a, _ = data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:3], clusters=3,
                                keep_frac=0.5, window=12, seed=4)
    b, _ = data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:3], clusters=3,
                                keep_frac=0.5, window=12, seed=4)
    for part in cache.SECTIONS:
        xs, ys = getattr(a, part), getattr(b, part)
        assert [s.serial for s in xs] == [s.serial for s in ys]
        assert all(np.array_equal(sa.features, sb.features)
                   for sa, sb in zip(xs, ys))


@pytest.mark.parametrize("window", [0, -1])
def test_prepare_dataset_rejects_a_window_below_one(window):
    cfg = synthetic.SynthConfig(healthy=4, failed=2, n_attrs=2, days=30, seed=1)
    tls = synthetic.generate_synthetic(cfg)
    with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
        data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:2], clusters=1,
                             keep_frac=1.0, window=window, seed=0)


def test_prepare_dataset_window_longer_than_history_errors():
    cfg = synthetic.SynthConfig(healthy=4, failed=2, n_attrs=2, days=30, seed=1)
    tls = synthetic.generate_synthetic(cfg)
    with pytest.raises(ValueError):
        data.prepare_dataset(tls, attrs=data.DEFAULT_ATTRS[:2], clusters=1,
                             keep_frac=1.0, window=60, seed=0)


# ------------------------------------------- property: no non-finite output

PROP_ATTRS = ("smart_5_raw", "smart_9_raw")
NON_FINITE_CELLS = ("nan", "NaN", "inf", "-inf", "Infinity")
PREP_ERRORS = ("too few drives", "no samples produced", "cannot form",
               "cannot fit scaling", "beyond the float64 range")


@st.composite
def backblaze_csv(draw):
    """Backblaze-schema CSV text for a small fleet (17-19 days per drive,
    enough for window 2), every cell a finite float, plus a few cells
    overwritten with a non-finite or empty value."""
    n_healthy = draw(st.integers(2, 4))
    n_failed = draw(st.integers(1, 2))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    rows = []
    for d in range(n_healthy + n_failed):
        days = draw(st.integers(17, 19))
        for i in range(days):
            failure = "1" if d >= n_healthy and i == days - 1 else "0"
            values = [repr(draw(cell)) for _ in PROP_ATTRS]
            rows.append([(date(2016, 1, 1) + timedelta(days=i)).isoformat(),
                         f"S{d:02d}", "M", "4000", failure, "100", values[0],
                         "100", values[1]])
    specials = draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.sampled_from((6, 8)),
                  st.sampled_from(NON_FINITE_CELLS + ("",))), max_size=3))
    for r, c, text in specials:
        rows[r][c] = text
    header = ("date,serial_number,model,capacity_bytes,failure,"
              "smart_5_normalized,smart_5_raw,smart_9_normalized,smart_9_raw")
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    # a later special may overwrite an earlier one in the same cell, so
    # judge the cells as written
    return text, any(rows[r][c] in NON_FINITE_CELLS for r, c, _ in specials)


@settings(max_examples=80, deadline=None)
@given(backblaze_csv())
def test_no_csv_yields_non_finite_scaling_or_features(tmp_path_factory, case):
    """ingest_csv then prepare_dataset either raises its documented error or
    gives finite scaling extrema and finite features."""
    text, has_non_finite = case
    path = tmp_path_factory.mktemp("prop") / "fleet.csv"
    path.write_text(text)
    if has_non_finite:
        with pytest.raises(data.RowError, match="non-finite value"):
            data.ingest_csv(path, PROP_ATTRS)
        return
    timelines = data.ingest_csv(path, PROP_ATTRS)
    try:
        # a value far outside the fitted range overflows to +-inf and is
        # clipped into [0, 1]: no warning needed
        with np.errstate(over="ignore"):
            split, _ = data.prepare_dataset(timelines, attrs=PROP_ATTRS, clusters=1,
                                            keep_frac=1.0, window=2, seed=0)
    except ValueError as exc:
        assert any(msg in str(exc) for msg in PREP_ERRORS), str(exc)
        return
    assert np.all(np.isfinite(split.scaling.v_min))
    assert np.all(np.isfinite(split.scaling.v_max))
    for part in (split.train_labeled, split.train_unlabeled, split.valid, split.test):
        for s in part:
            assert np.all(np.isfinite(s.features)), s.serial
