import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from lpat import cache, cli, data, evaluate, model, synthetic, training
from lpat.checkpoint import checkpoint_load, checkpoint_save

from headers import edit_header

FIXTURE = Path(__file__).parent / "fixtures" / "fixture_50.csv"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_deterministic_backblaze_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code, _, err = run(capsys, "synth", "--healthy", "10", "--failed", "2",
                           "--attrs", "3", "--days", "40", "--seed", "5",
                           "--out", str(out))
        assert code == 0, err
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("date,serial_number,model,capacity_bytes,failure")
    assert len(lines) == 1 + 12 * 40
    serials = {ln.split(",")[1] for ln in lines[1:]}
    assert len(serials) == 12
    failures = [ln for ln in lines[1:] if ln.split(",")[4] == "1"]
    assert len(failures) == 2


def test_synth_output_preps_with_zero_cleaning_removals(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "8", "--failed", "3", "--attrs", "2",
        "--days", "45", "--seed", "1", "--out", str(csv_path))
    code, out, err = run(capsys, "prep", "--input", str(csv_path),
                         "--out", str(cache_path), "--attrs",
                         "smart_5_raw,smart_9_raw", "--clusters", "2",
                         "--keep-frac", "1.0", "--window", "10", "--seed", "0")
    assert code == 0, err
    assert "healthy         8                8" in out
    split = cache.load_split(cache_path)
    assert split.window == 10
    assert len(split.attrs) == 2


def test_prep_prints_what_cleaning_dropped(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    run(capsys, "synth", "--healthy", "8", "--failed", "3", "--attrs", "2",
        "--days", "45", "--seed", "1", "--out", str(csv_path))
    lines = csv_path.read_text().splitlines()
    header, first = lines[0], lines[1]
    cols = header.split(",")
    short = [f"2016-0{m}-01,SHORT1,M,4000,0,100,1.0,100,2.0" for m in (1, 2, 3)]
    missing = first.split(",")
    missing[cols.index("serial_number")] = "MISSING1"
    missing[cols.index("smart_9_raw")] = ""
    lines += [first] + short + [",".join(missing)]
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "prep", "--input", str(csv_path),
                         "--out", str(tmp_path / "fleet.cache"), "--attrs",
                         "smart_5_raw,smart_9_raw", "--clusters", "2",
                         "--keep-frac", "1.0", "--window", "10", "--seed", "0")
    assert code == 0, err
    assert "rows deduplicated: 1\n" in out
    assert "drives dropped for missing values: 1\n" in out
    assert "drives dropped for short history: 1\n" in out
    assert "healthy        10                8" in out


def test_train_stops_on_a_non_finite_loss_and_writes_no_checkpoint(
        fixture_pipeline, capsys, tmp_path):
    _, cache_path, _, _ = fixture_pipeline
    ckpt_path = tmp_path / "diverged.ckpt"
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "train", "--data", str(cache_path),
                           "--mode", "basic", "--epochs", "3", "--batch", "8",
                           "--lr", "1e300", "--seed", "0", "--out", str(ckpt_path))
    assert code == 1
    assert "lpat train: epoch 1, batch 2: the nll term" in err
    assert not ckpt_path.exists()


@pytest.mark.parametrize("source,key,value,field", [
    ("flag", "lr", "nan", "learning_rate"),
    ("config", "xi", "inf", "xi"),
])
def test_train_rejects_a_non_finite_hyperparameter_and_writes_no_checkpoint(
        fixture_pipeline, capsys, tmp_path, source, key, value, field):
    _, cache_path, _, _ = fixture_pipeline
    ckpt_path = tmp_path / "never.ckpt"
    args = ["train", "--data", str(cache_path), "--mode", "lpat", "--epochs", "2",
            "--batch", "8", "--out", str(ckpt_path)]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"{key}={value}\n")
        args += ["--config", str(cfg_path)]
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, *args)
    assert code == 1
    assert f"lpat train: {field} must be finite" in err
    assert not ckpt_path.exists()


def test_prep_keep_frac_one_drops_no_healthy_drive(tmp_path, capsys):
    cache_path = tmp_path / "fx.cache"
    code, out, _ = run(capsys, "prep", "--input", str(FIXTURE),
                       "--out", str(cache_path),
                       "--attrs", "smart_5_raw,smart_187_raw",
                       "--clusters", "1", "--keep-frac", "1.0",
                       "--window", "1", "--seed", "0")
    assert code == 0
    assert "train=17" in out and "test=33" in out and "valid=0" in out


def test_prep_window_larger_than_history_fails_cleanly(tmp_path, capsys):
    cache_path = tmp_path / "fx.cache"
    code, out, err = run(capsys, "prep", "--input", str(FIXTURE),
                         "--out", str(cache_path),
                         "--attrs", "smart_5_raw,smart_187_raw",
                         "--clusters", "1", "--keep-frac", "1.0",
                         "--window", "99", "--seed", "0")
    assert code == 1
    assert err and not cache_path.exists()


@pytest.mark.parametrize("window", ["0", "-2"])
def test_prep_window_below_one_fails_cleanly(tmp_path, capsys, window):
    cache_path = tmp_path / "fx.cache"
    code, out, err = run(capsys, "prep", "--input", str(FIXTURE),
                         "--out", str(cache_path),
                         "--attrs", "smart_5_raw,smart_187_raw",
                         "--clusters", "1", "--window", window)
    assert code == 1 and not out
    assert f"lpat prep: window must be at least 1, got {window}" in err
    assert not cache_path.exists()


@pytest.mark.parametrize("serial", ["SH 00001", "SH\t00001", "SH00001\x0b", " SH00001"])
def test_prep_refuses_a_serial_with_whitespace(tmp_path, capsys, serial):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "4", "--failed", "2", "--attrs", "2",
        "--days", "40", "--seed", "1", "--out", str(csv_path))
    text = csv_path.read_text()
    first = next(n for n, line in enumerate(text.splitlines(), start=1)
                 if ",SH00001," in line)
    csv_path.write_text(text.replace(",SH00001,", f",{serial},"))
    code, _, err = run(capsys, "prep", "--input", str(csv_path),
                       "--out", str(cache_path), "--attrs", "smart_5_raw,smart_9_raw",
                       "--clusters", "1", "--window", "10")
    assert code == 1
    assert f"line {first}: serial_number {serial!r} contains whitespace" in err
    assert not cache_path.exists()


def test_prep_refuses_a_serial_that_is_not_ascii(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "4", "--failed", "2", "--attrs", "2",
        "--days", "40", "--seed", "1", "--out", str(csv_path))
    text = csv_path.read_text()
    first = next(n for n, line in enumerate(text.splitlines(), start=1)
                 if ",SH00001," in line)
    csv_path.write_text(text.replace(",SH00001,", ",SH\u00c40001,"), encoding="utf-8")
    code, _, err = run(capsys, "prep", "--input", str(csv_path),
                       "--out", str(cache_path), "--attrs", "smart_5_raw,smart_9_raw",
                       "--clusters", "1", "--window", "10")
    assert code == 1
    assert f"line {first}: serial_number 'SH\u00c40001' is not ASCII" in err
    assert not cache_path.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_cache_that_is_not_ascii_is_named(tmp_path, capsys, command):
    cache_path = tmp_path / "fleet.cache"
    cache_path.write_bytes("LPAT-DATA v4\nattrs smart_5_r\u00e4w\n".encode("utf-8"))
    ckpt_path = tmp_path / "model.ckpt"
    code, out, err = run(capsys, command, "--data", str(cache_path),
                         "--out" if command == "train" else "--checkpoint", str(ckpt_path))
    assert code == 1 and not out
    assert f"lpat {command}: {cache_path}: line 2 is not ASCII" in err
    assert not ckpt_path.exists()


@pytest.fixture(scope="module")
def fleet_cache(tmp_path_factory):
    """An 18-drive synthetic cache with all four sections populated."""
    root = tmp_path_factory.mktemp("fleet")
    csv_path, cache_path = root / "fleet.csv", root / "fleet.cache"
    assert cli.main(["synth", "--healthy", "12", "--failed", "6", "--attrs", "2",
                     "--days", "45", "--seed", "0", "--out", str(csv_path)]) == 0
    assert cli.main(["prep", "--input", str(csv_path), "--out", str(cache_path),
                     "--attrs", "smart_5_raw,smart_9_raw", "--clusters", "1",
                     "--keep-frac", "1.0", "--window", "10", "--seed", "0"]) == 0
    return cache_path


@pytest.mark.parametrize("section,label", [
    ("train_labeled", "u"), ("valid", "u"), ("train_unlabeled", "2"),
])
def test_train_refuses_a_label_outside_its_section_naming_the_line(
        fleet_cache, tmp_path, capsys, section, label):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(fleet_cache.read_bytes())

    head = 1 + next(i for i, ln in enumerate(edit_header(bad, lambda lines: lines))
                    if ln.startswith(f"section {section} "))

    def relabel(lines):  # the section's first sample
        serial, end, _, first = lines[head].split()[1:]
        return lines[:head] + [f"sample {serial} {end} {label} {first}"] + lines[head + 1:]

    edit_header(bad, relabel)
    ckpt_path = tmp_path / "never.ckpt"
    code, out, err = run(capsys, "train", "--data", str(bad), "--epochs", "1",
                         "--out", str(ckpt_path))
    assert code == 1 and not out
    assert f"{bad}: bad label {label!r} at line {head + 1} in section {section}" in err
    assert not ckpt_path.exists()


def test_train_refuses_a_cache_window_below_one_naming_the_line(
        fleet_cache, tmp_path, capsys):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(fleet_cache.read_bytes())
    lines = edit_header(bad, lambda lines: lines[:2] + ["window 0"] + lines[3:])
    assert lines[2] == "window 10"
    code, out, err = run(capsys, "train", "--data", str(bad), "--epochs", "1",
                         "--out", str(tmp_path / "never.ckpt"))
    assert code == 1 and not out
    assert f"{bad}: window 0 at line 3 is below 1" in err


def test_prep_with_no_attribute_fails_and_writes_no_cache(tmp_path, capsys):
    cache_path = tmp_path / "x.cache"
    code, out, err = run(capsys, "prep", "--input", str(FIXTURE), "--out", str(cache_path),
                         "--attrs", ",", "--clusters", "1", "--window", "1")
    assert code == 1 and not out
    assert "no attribute column requested" in err
    assert not cache_path.exists()


@pytest.mark.parametrize("argv,missing", [
    (["prep", "--out", "x.cache"], "input"),
    (["prep", "--input", "x.csv"], "out"),
    (["synth"], "out"),
    (["train", "--out", "x.ckpt"], "data"),
    (["train", "--data", "x.cache"], "out"),
    (["eval", "--checkpoint", "x.ckpt"], "data"),
    (["eval", "--data", "x.cache"], "checkpoint"),
    (["predict", "--window", "w.csv"], "checkpoint"),
    (["predict", "--checkpoint", "x.ckpt"], "window"),
])
def test_a_missing_required_flag_is_named(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert f"lpat {argv[0]}: {argv[0]}: --{missing} is required" in err


def test_prep_missing_column_exits_nonzero(tmp_path, capsys):
    code, _, err = run(capsys, "prep", "--input", str(FIXTURE),
                       "--out", str(tmp_path / "x.cache"),
                       "--attrs", "smart_5_raw,smart_42_raw",
                       "--clusters", "1", "--window", "1")
    assert code == 1
    assert "smart_42_raw" in err


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    """prep + train on the 50-row fixture, shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    cache_path = root / "fx.cache"
    ckpt_path = root / "fx.ckpt"
    report_path = root / "fx.report"
    assert cli.main(["prep", "--input", str(FIXTURE), "--out", str(cache_path),
                     "--attrs", "smart_5_raw,smart_187_raw", "--clusters", "1",
                     "--keep-frac", "1.0", "--window", "1", "--seed", "0"]) == 0
    assert cli.main(["train", "--data", str(cache_path), "--mode", "basic",
                     "--epochs", "2", "--batch", "8", "--seed", "0",
                     "--out", str(ckpt_path), "--report", str(report_path)]) == 0
    return root, cache_path, ckpt_path, report_path


def test_train_writes_checkpoint_and_report(fixture_pipeline):
    _, _, ckpt_path, report_path = fixture_pipeline
    net, meta = checkpoint_load(ckpt_path)
    assert meta["window"] == "1"
    assert meta["attrs"] == "smart_5_raw,smart_187_raw"
    report = training.parse_report(report_path.read_text())
    assert len(report.epochs) == 2
    assert report.best_epoch == 2  # empty validation split keeps the last epoch


def test_eval_writes_round_trippable_metrics(fixture_pipeline, capsys, tmp_path):
    _, cache_path, ckpt_path, _ = fixture_pipeline
    metrics_path = tmp_path / "metrics.txt"
    code, out, err = run(capsys, "eval", "--data", str(cache_path),
                         "--checkpoint", str(ckpt_path), "--split", "test",
                         "--report", str(metrics_path))
    assert code == 0, err
    assert "Accuracy" in out and "Macro-F1" in out and "<=15" in out
    report = evaluate.parse_metrics(metrics_path.read_text())
    assert report.total == 33


def test_train_records_provenance_in_the_checkpoint(fixture_pipeline):
    _, cache_path, ckpt_path, _ = fixture_pipeline
    _, meta = checkpoint_load(ckpt_path)
    expected = {
        "mode": "basic", "layers": "all", "epsilon": "20.0", "xi": "10.0",
        "lambda": "1.0", "lr": "0.001", "epochs": "2", "batch": "8", "seed": "0",
        "unlabeled_frac": "1.0", "best_epoch": "2",
        "data_sha256": hashlib.sha256(cache_path.read_bytes()).hexdigest(),
    }
    assert {k: meta.get(k) for k in expected} == expected


def test_train_hashes_the_cache_it_trained_on_not_one_rewritten_during_the_run(
        fixture_pipeline, capsys, tmp_path, monkeypatch):
    _, cache_path, _, _ = fixture_pipeline
    data_path = tmp_path / "fx.cache"
    data_path.write_bytes(cache_path.read_bytes())
    trained_on = hashlib.sha256(data_path.read_bytes()).hexdigest()
    real_train = training.train

    def train_then_rewrite(*args):
        out = real_train(*args)
        data_path.write_bytes(data_path.read_bytes() + b"\n")
        return out

    monkeypatch.setattr(training, "train", train_then_rewrite)
    ckpt_path = tmp_path / "fx.ckpt"
    code, _, err = run(capsys, "train", "--data", str(data_path), "--mode", "basic",
                       "--epochs", "1", "--batch", "8", "--out", str(ckpt_path))
    assert code == 0, err
    _, meta = checkpoint_load(ckpt_path)
    assert hashlib.sha256(data_path.read_bytes()).hexdigest() != trained_on
    assert meta["data_sha256"] == trained_on


def test_eval_rejects_a_cache_with_other_attributes(fixture_pipeline, capsys, tmp_path):
    _, _, ckpt_path, _ = fixture_pipeline
    swapped = tmp_path / "swapped.cache"
    assert cli.main(["prep", "--input", str(FIXTURE), "--out", str(swapped),
                     "--attrs", "smart_187_raw,smart_5_raw", "--clusters", "1",
                     "--keep-frac", "1.0", "--window", "1", "--seed", "0"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--data", str(swapped),
                         "--checkpoint", str(ckpt_path))
    assert code == 1 and not out
    assert ("checkpoint was trained on attributes smart_5_raw,smart_187_raw, "
            "cache holds smart_187_raw,smart_5_raw") in err

    # a checkpoint without the attrs entry is scored as before; the swapped
    # cache also holds the extrema in the other order, so drop those too
    net, meta = checkpoint_load(ckpt_path)
    for key in ("attrs", "vmin", "vmax"):
        del meta[key]
    bare = tmp_path / "bare.ckpt"
    checkpoint_save(net, bare, meta=meta)
    code, out, err = run(capsys, "eval", "--data", str(swapped),
                         "--checkpoint", str(bare))
    assert code == 0, err
    assert "Macro-F1" in out


def test_eval_rejects_a_checkpoint_with_another_attribute_count(fixture_pipeline, capsys,
                                                               tmp_path):
    _, cache_path, _, _ = fixture_pipeline
    # its attrs entry differs too: the width is checked first
    wide = tmp_path / "wide.ckpt"
    checkpoint_save(model.init_network(3, 4, 4, 5, seed=0), wide,
                    meta={"attrs": "smart_5_raw,smart_187_raw,smart_9_raw"})
    code, out, err = run(capsys, "eval", "--data", str(cache_path),
                         "--checkpoint", str(wide))
    assert code == 1 and not out
    assert err == f"lpat eval: {wide}: checkpoint has n_attrs=3, expected 2\n"


def test_eval_rejects_a_cache_scaled_with_other_extrema(tmp_path, capsys):
    caches = []
    for seed in ("1", "2"):
        csv_path = tmp_path / f"fleet{seed}.csv"
        caches.append(tmp_path / f"fleet{seed}.cache")
        run(capsys, "synth", "--healthy", "12", "--failed", "4", "--attrs", "2",
            "--days", "40", "--seed", seed, "--out", str(csv_path))
        code, _, err = run(capsys, "prep", "--input", str(csv_path),
                           "--out", str(caches[-1]), "--attrs", "smart_5_raw,smart_9_raw",
                           "--clusters", "1", "--keep-frac", "1.0", "--window", "8",
                           "--seed", "0")
        assert code == 0, err
    ckpt_path = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", "--data", str(caches[0]), "--mode", "basic",
                       "--epochs", "1", "--batch", "16", "--out", str(ckpt_path))
    assert code == 0, err
    code, out, err = run(capsys, "eval", "--data", str(caches[0]),
                         "--checkpoint", str(ckpt_path))
    assert code == 0, err
    code, out, err = run(capsys, "eval", "--data", str(caches[1]),
                         "--checkpoint", str(ckpt_path))
    assert code == 1 and not out
    assert "checkpoint was trained on vmin " in err


def test_eval_empty_valid_split_is_an_error(fixture_pipeline, capsys):
    _, cache_path, ckpt_path, _ = fixture_pipeline
    code, _, err = run(capsys, "eval", "--data", str(cache_path),
                       "--checkpoint", str(ckpt_path), "--split", "valid")
    assert code == 1 and "empty" in err


def test_eval_rejects_bogus_split_name(fixture_pipeline, capsys):
    _, cache_path, ckpt_path, _ = fixture_pipeline
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--data", str(cache_path), "--checkpoint",
                  str(ckpt_path), "--split", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "valid" in err and "test" in err


def test_predict_prints_class_and_unit_sum_probabilities(fixture_pipeline,
                                                         capsys, tmp_path):
    _, _, ckpt_path, _ = fixture_pipeline
    window_csv = tmp_path / "w.csv"
    window_csv.write_text("smart_5_raw,smart_187_raw\n5,105\n")
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt_path),
                         "--window", str(window_csv))
    assert code == 0, err
    assert out.startswith("class=")
    probs = [float(tok) for tok in
             out.split("probs=[")[1].rstrip("]\n").split(",")]
    assert abs(sum(probs) - 1.0) < 1e-9
    assert f"{sum(probs):.3f}" == "1.000"


def test_predict_wrong_row_count_errors_without_stdout(fixture_pipeline,
                                                       capsys, tmp_path):
    _, _, ckpt_path, _ = fixture_pipeline
    window_csv = tmp_path / "w.csv"
    window_csv.write_text("smart_5_raw,smart_187_raw\n5,105\n6,106\n")
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt_path),
                         "--window", str(window_csv))
    assert code == 1
    assert out == ""
    assert "expected exactly 1 rows" in err


def test_predict_malformed_row_errors_without_stdout(fixture_pipeline,
                                                     capsys, tmp_path):
    _, _, ckpt_path, _ = fixture_pipeline
    window_csv = tmp_path / "w.csv"
    window_csv.write_text("smart_5_raw,smart_187_raw\nfive,105\n")
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt_path),
                         "--window", str(window_csv))
    assert code == 1 and out == "" and "malformed" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_predict_non_finite_cell_errors_naming_the_line(fixture_pipeline, capsys,
                                                        tmp_path, cell):
    _, _, ckpt_path, _ = fixture_pipeline
    window_csv = tmp_path / "w.csv"
    window_csv.write_text(f"smart_5_raw,smart_187_raw\n5,{cell}\n")
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt_path),
                         "--window", str(window_csv))
    assert code == 1 and out == ""
    assert f"{window_csv}:2: non-finite value" in err


@pytest.mark.parametrize("edit,message", [
    ({"vmin": "nan,0.0"}, "must be finite"),
    ({"vmax": "inf,1e9"}, "must be finite"),
    ({"vmin": "-inf,0.0"}, "must be finite"),
    ({"vmin": "0.0", "vmax": "1e9"}, "one value for each of the 2 attributes"),
    ({"vmin": "-1e308,0.0", "vmax": "1e308,1e9"},
     "attribute 1 of 2 spans -1e+308 to 1e+308, beyond the float64 range"),
    ({"window": "0"}, "window 0 is below 1"),
    ({"attrs": "x,y,z", "vmin": "0,0,0", "vmax": "1,1,1"},
     "attrs lists 3 attributes, the network takes 2"),
])
def test_predict_refuses_bad_scaling_meta_naming_the_checkpoint(
        fixture_pipeline, capsys, tmp_path, edit, message):
    _, _, ckpt_path, _ = fixture_pipeline
    net, meta = checkpoint_load(ckpt_path)
    bad = tmp_path / "bad.ckpt"
    checkpoint_save(net, bad, meta={**meta, **edit})
    rows = int(edit.get("window", meta["window"]))
    window_csv = tmp_path / "w.csv"
    window_csv.write_text("smart_5_raw,smart_187_raw\n" + "5,105\n" * rows)
    code, out, err = run(capsys, "predict", "--checkpoint", str(bad),
                         "--window", str(window_csv))
    assert code == 1 and out == ""
    assert f"lpat predict: {bad}: " in err and message in err


def test_train_mode_at_with_unlabeled_pool_is_a_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "6", "--failed", "3", "--attrs", "2",
        "--days", "45", "--seed", "3", "--out", str(csv_path))
    run(capsys, "prep", "--input", str(csv_path), "--out", str(cache_path),
        "--attrs", "smart_5_raw,smart_9_raw", "--clusters", "1",
        "--keep-frac", "1.0", "--window", "10", "--seed", "1")
    split = cache.load_split(cache_path)
    assert split.train_unlabeled  # 45-day failing drives have >15-day windows
    code, _, err = run(capsys, "train", "--data", str(cache_path),
                       "--mode", "at", "--epochs", "1",
                       "--out", str(tmp_path / "x.ckpt"))
    assert code == 1 and "unlabeled" in err
    code, _, err = run(capsys, "train", "--data", str(cache_path),
                       "--mode", "at", "--epochs", "1", "--unlabeled-frac", "0",
                       "--batch", "8", "--out", str(tmp_path / "x.ckpt"))
    assert code == 0, err


# The CLI passes on only the flags a user set: with another library
# default in place, an unset flag follows it.

def test_train_follows_the_library_defaults(fixture_pipeline, capsys, tmp_path,
                                           monkeypatch):
    _, cache_path, _, _ = fixture_pipeline
    monkeypatch.setattr(cli, "PerturbationConfig",
                        functools.partial(cli.PerturbationConfig, xi=0.5))
    monkeypatch.setattr(cli, "TrainConfig",
                        functools.partial(cli.TrainConfig, learning_rate=0.002))
    ckpt_path = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", "--data", str(cache_path), "--epochs", "1",
                       "--out", str(ckpt_path))
    assert code == 0, err
    _, meta = checkpoint_load(ckpt_path)
    assert (meta["xi"], meta["lr"]) == ("0.5", "0.002")


def test_synth_follows_the_library_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synthetic, "SynthConfig",
                        functools.partial(synthetic.SynthConfig, healthy=3))
    code, out, err = run(capsys, "synth", "--failed", "1", "--days", "5",
                         "--out", str(tmp_path / "f.csv"))
    assert code == 0, err
    assert out.startswith("wrote 4 drives (3 healthy, 1 failing)")


def test_prep_follows_the_library_defaults(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "fleet.csv"
    run(capsys, "synth", "--healthy", "8", "--failed", "3", "--days", "45",
        "--out", str(csv_path))
    monkeypatch.setattr(data, "prepare_dataset",
                        functools.partial(data.prepare_dataset, clusters=1))
    code, _, err = run(capsys, "prep", "--input", str(csv_path),
                       "--out", str(tmp_path / "fleet.cache"))
    assert code == 0, err  # 10 clusters cannot form from 8 healthy drives


def test_config_file_equals_flags_and_flags_override(tmp_path, capsys):
    out_flags = tmp_path / "flags.csv"
    out_file = tmp_path / "file.csv"
    cfg_path = tmp_path / "synth.cfg"
    cfg_path.write_text(
        "# synthetic fleet\n"
        "healthy=7\n"
        "failed=2\n"
        "attrs=2\n"
        "days=40\n"
        "seed=11\n"
        f"out={out_file}\n")
    assert cli.main(["synth", "--healthy", "7", "--failed", "2", "--attrs", "2",
                     "--days", "40", "--seed", "11", "--out", str(out_flags)]) == 0
    assert cli.main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert out_flags.read_bytes() == out_file.read_bytes()

    out_override = tmp_path / "override.csv"
    assert cli.main(["synth", "--config", str(cfg_path), "--seed", "12",
                     "--out", str(out_override)]) == 0
    capsys.readouterr()
    assert out_override.read_bytes() != out_file.read_bytes()


def test_prep_is_byte_deterministic(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    run(capsys, "synth", "--healthy", "6", "--failed", "2", "--attrs", "2",
        "--days", "40", "--seed", "4", "--out", str(csv_path))
    caches = []
    for name in ("a.cache", "b.cache"):
        out = tmp_path / name
        code, _, err = run(capsys, "prep", "--input", str(csv_path),
                           "--out", str(out), "--attrs", "smart_5_raw,smart_9_raw",
                           "--clusters", "2", "--keep-frac", "1.0",
                           "--window", "10", "--seed", "3")
        assert code == 0, err
        caches.append(out.read_bytes())
    assert caches[0] == caches[1]


def test_cache_resave_is_byte_stable(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "5", "--failed", "2", "--attrs", "2",
        "--days", "40", "--seed", "8", "--out", str(csv_path))
    run(capsys, "prep", "--input", str(csv_path), "--out", str(cache_path),
        "--attrs", "smart_5_raw,smart_9_raw", "--clusters", "1",
        "--keep-frac", "1.0", "--window", "10", "--seed", "0")
    split = cache.load_split(cache_path)
    resaved = tmp_path / "resaved.cache"
    cache.save_split(split, resaved)
    assert resaved.read_bytes() == cache_path.read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("healthy=3\nbogus-key=1\n")
    code, _, err = run(capsys, "synth", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "bogus-key" in err


def test_load_config_file_parses_flag_spelled_keys(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# lpat train config\ndata=d.cache\nout=m.ckpt\n"
                    "lambda=2.5\nepochs=3  # trailing comment\n")
    loaded = cli.load_config_file("train", path)
    assert loaded["lam"] == 2.5
    assert loaded["epochs"] == 3
    assert loaded["data"] == "d.cache"


def test_basic_equals_lpat_with_lambda_zero(tmp_path, capsys):
    csv_path = tmp_path / "fleet.csv"
    cache_path = tmp_path / "fleet.cache"
    run(capsys, "synth", "--healthy", "6", "--failed", "2", "--attrs", "2",
        "--days", "40", "--seed", "2", "--out", str(csv_path))
    run(capsys, "prep", "--input", str(csv_path), "--out", str(cache_path),
        "--attrs", "smart_5_raw,smart_9_raw", "--clusters", "1",
        "--keep-frac", "1.0", "--window", "8", "--seed", "0")
    ck_basic = tmp_path / "basic.ckpt"
    ck_lpat = tmp_path / "lpat.ckpt"
    common = ["--data", str(cache_path), "--epochs", "2", "--batch", "16",
              "--seed", "7"]
    assert cli.main(["train", *common, "--mode", "basic",
                     "--out", str(ck_basic)]) == 0
    assert cli.main(["train", *common, "--mode", "lpat", "--lambda", "0",
                     "--epsilon", "1", "--xi", "1", "--out", str(ck_lpat)]) == 0
    capsys.readouterr()
    net_a, _ = checkpoint_load(ck_basic)
    net_b, _ = checkpoint_load(ck_lpat)
    for name, arr in net_a.params().items():
        assert np.array_equal(arr, net_b.params()[name]), name
