"""Command-line surface: dataset preparation, synthetic fleets, training,
evaluation, and single-window prediction.

Every flag can also come from a flat key=value config file (--config); flags
override file values, unknown file keys are rejected. Commands exit 0 only on
success; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cache, data, evaluate, perturb, synthetic, training
from .checkpoint import checkpoint_load, checkpoint_save
from .perturb import PerturbationConfig
from .training import TrainConfig

MODES = {  # CLI mode: the library mode it runs and its default injection points
    "basic": ("none", "all"),
    "at": ("supervised_at", "input"),
    "vat": ("virtual_at", "input"),
    "lpat": ("virtual_at", "all"),
}
PROB_DECIMALS = 3  # places of the probabilities predict prints


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit code 1."""


@dataclass
class Flag:
    name: str          # long flag, e.g. "keep-frac"
    type: type
    help: str
    choices: tuple = ()
    required: bool = False
    default: object = None  # only for choices the CLI owns; unset flags stay None
    key: str = ""      # the library keyword it sets, where that is not its name

    @property
    def dest(self) -> str:
        return self.key or self.name.replace("-", "_")


SCHEMAS: dict[str, list[Flag]] = {
    "prep": [
        Flag("input", str, "input CSV in the Backblaze daily schema", required=True),
        Flag("out", str, "dataset cache file to write", required=True),
        Flag("attrs", str, "comma-separated attribute columns"),
        Flag("clusters", int, "k for the healthy-drive k-means subset"),
        Flag("keep-frac", float, "fraction of each cluster kept (nearest the centroid)"),
        Flag("window", int, "window length in days"),
        Flag("seed", int, "pipeline seed"),
    ],
    "synth": [
        Flag("healthy", int, "number of healthy drives"),
        Flag("failed", int, "number of failing drives"),
        Flag("attrs", int, "number of SMART attributes", key="n_attrs"),
        Flag("days", int, "history length per drive"),
        Flag("seed", int, "generator seed"),
        Flag("out", str, "CSV file to write", required=True),
    ],
    "train": [
        Flag("data", str, "dataset cache from prep", required=True),
        Flag("mode", str, "training mode", tuple(MODES), default="lpat"),
        Flag("layers", str, "injection points", tuple(perturb.LAYER_SELECTIONS)),
        Flag("epsilon", float,
             "perturbation norm: absolute L2 per window, in the scaled units "
             "of each injection point"),
        Flag("lambda", float, "adversarial loss weight", key="lam"),
        Flag("xi", float,
             "finite-difference step for the virtual direction: absolute L2 "
             "per window; keep it small next to the activation and to epsilon"),
        Flag("unlabeled-frac", float, "fraction of the unlabeled pool to use"),
        Flag("epochs", int, "training epochs"),
        Flag("batch", int, "mini-batch size", key="batch_size"),
        Flag("lr", float, "RMSProp learning rate", key="learning_rate"),
        Flag("seed", int, "run seed"),
        Flag("out", str, "checkpoint file to write", required=True),
        Flag("report", str, "per-epoch report file to write"),
    ],
    "eval": [
        Flag("data", str, "dataset cache from prep", required=True),
        Flag("checkpoint", str, "checkpoint to evaluate", required=True),
        Flag("split", str, "which split to score", ("valid", "test"), default="test"),
        Flag("report", str, "metrics file to write"),
    ],
    "predict": [
        Flag("checkpoint", str, "trained checkpoint", required=True),
        Flag("window", str, "CSV with exactly the trained window's rows", required=True),
    ],
}


def load_config_file(command: str, path) -> dict:
    """Read key=value lines; '#' starts a comment; keys use flag spelling."""
    known = {f.name: f for f in SCHEMAS[command]}
    out = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise CliError(f"{path}:{line_no}: unknown key {key!r} for {command}")
        flag = known[key]
        try:
            parsed = flag.type(value)
        except ValueError:
            raise CliError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
        if flag.choices and parsed not in flag.choices:
            raise CliError(
                f"{path}:{line_no}: {key} must be one of {flag.choices}")
        out[flag.dest] = parsed
    return out


def _settings(command: str, args: argparse.Namespace) -> argparse.Namespace:
    """Per-command settings: the CLI's own defaults, then the config file,
    then explicit flags (flags win); every required flag must end up set,
    and every other unset one stays None."""
    flags = SCHEMAS[command]
    values = {f.dest: f.default for f in flags}
    if args.config:
        values.update(load_config_file(command, args.config))
    for f in flags:
        explicit = getattr(args, f.name.replace("-", "_"))  # argparse's name for it
        if explicit is not None:
            values[f.dest] = explicit
        if f.required and values[f.dest] is None:
            raise CliError(f"{command}: --{f.name} is required")
    return argparse.Namespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpat",
        description="Adversarially trained LSTM hard-drive health classifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="key=value config file; explicit flags override it")
        for f in flags:
            kwargs = dict(type=f.type, default=None, help=f.help)
            if f.choices:
                kwargs["choices"] = f.choices
            p.add_argument(f"--{f.name}", **kwargs)
    return parser


# ----------------------------------------------------------------- commands

def _given(cfg: argparse.Namespace, *keys: str) -> dict:
    """The settings among ``keys`` that were set; the library applies its
    own default to the rest."""
    return {k: getattr(cfg, k) for k in keys if getattr(cfg, k) is not None}


def _attr_names(n: int) -> tuple[str, ...]:
    names = list(data.DEFAULT_ATTRS[:n])
    names += [f"smart_{200 + i}_raw" for i in range(len(names), n)]
    return tuple(names)


def cmd_synth(cfg: argparse.Namespace) -> None:
    sc = synthetic.SynthConfig(**_given(cfg, "healthy", "failed", "n_attrs", "days", "seed"))
    timelines = synthetic.generate_synthetic(sc)
    data.write_backblaze_csv(timelines, _attr_names(sc.n_attrs), cfg.out)
    print(f"wrote {len(timelines)} drives ({sc.healthy} healthy, "
          f"{sc.failed} failing) to {cfg.out}")


def cmd_prep(cfg: argparse.Namespace) -> None:
    attrs = data.DEFAULT_ATTRS if cfg.attrs is None else tuple(
        a for a in cfg.attrs.split(",") if a)
    timelines = data.ingest_csv(cfg.input, attrs)
    split, stats = data.prepare_dataset(
        timelines, attrs=attrs, **_given(cfg, "clusters", "keep_frac", "window", "seed"))
    cache.save_split(split, cfg.out)
    print(stats.table(), end="")
    print("samples: "
          f"train={len(split.train_labeled)} "
          f"unlabeled={len(split.train_unlabeled)} "
          f"valid={len(split.valid)} test={len(split.test)}")
    print(f"cache written to {cfg.out}")


def _train_configs(cfg: argparse.Namespace) -> tuple[TrainConfig, PerturbationConfig]:
    mode, layers = MODES[cfg.mode]
    pcfg = PerturbationConfig(mode=mode, layers=cfg.layers or layers,
                              **_given(cfg, "epsilon", "xi", "lam"))
    tcfg = TrainConfig(**_given(cfg, "learning_rate", "batch_size", "epochs",
                                "unlabeled_frac", "seed"))
    return tcfg, pcfg


def _pipeline_meta(split) -> dict[str, str]:
    """Checkpoint meta tying a model to its data: ``train`` writes it,
    ``eval`` checks it against the cache, ``predict`` scales rows with it."""
    return {
        "window": str(split.window),
        "attrs": ",".join(split.attrs),
        "vmin": ",".join(repr(float(v)) for v in split.scaling.v_min),
        "vmax": ",".join(repr(float(v)) for v in split.scaling.v_max),
    }


def cmd_train(cfg: argparse.Namespace) -> None:
    split = cache.load_split(cfg.data)
    # hashed before training, so a cache rewritten during a long run is not
    # recorded as the data that trained this checkpoint
    data_sha256 = hashlib.sha256(Path(cfg.data).read_bytes()).hexdigest()
    tcfg, pcfg = _train_configs(cfg)
    net, report = training.train(split, tcfg, pcfg)
    meta = {
        **_pipeline_meta(split),
        # provenance of this checkpoint; eval and predict do not read it
        "mode": cfg.mode,
        "layers": pcfg.layers,
        "epsilon": repr(pcfg.epsilon),
        "xi": repr(pcfg.xi),
        "lambda": repr(pcfg.lam),
        "lr": repr(tcfg.learning_rate),
        "epochs": str(tcfg.epochs),
        "batch": str(tcfg.batch_size),
        "seed": str(tcfg.seed),
        "unlabeled_frac": repr(tcfg.unlabeled_frac),
        "best_epoch": str(report.best_epoch),
        "data_sha256": data_sha256,
    }
    checkpoint_save(net, cfg.out, meta=meta)
    if cfg.report:
        Path(cfg.report).write_text(training.format_report(report))
    last = report.epochs[-1]
    print(f"trained {tcfg.epochs} epochs; best epoch {report.best_epoch}; "
          f"final train loss {last.train_loss:.6f}")
    print(f"checkpoint written to {cfg.out}")


def cmd_eval(cfg: argparse.Namespace) -> None:
    split = cache.load_split(cfg.data)
    net, meta = checkpoint_load(cfg.checkpoint)
    if net.dims["n_attrs"] != len(split.attrs):
        raise CliError(f"{cfg.checkpoint}: checkpoint has n_attrs={net.dims['n_attrs']}, "
                       f"expected {len(split.attrs)}")
    # a checkpoint that lacks an entry is not checked on it
    for key, cached in _pipeline_meta(split).items():
        if meta.get(key) not in (None, cached):
            what = "attributes" if key == "attrs" else key
            raise CliError(f"checkpoint was trained on {what} {meta[key]}, "
                           f"cache holds {cached}")
    samples = split.valid if cfg.split == "valid" else split.test
    if not samples:
        raise CliError(f"the {cfg.split} split is empty")
    report = evaluate.evaluate(net, samples)
    print(evaluate.format_table(report), end="")
    if cfg.report:
        Path(cfg.report).write_text(evaluate.format_metrics(report))
        print(f"metrics written to {cfg.report}")


def _format_probs(probs) -> str:
    """Rounded probabilities adjusted to sum to exactly 1 at print precision."""
    r = [round(float(p), PROB_DECIMALS) for p in probs]
    r[int(np.argmax(r))] += 1.0 - sum(r)
    return "[" + ", ".join(f"{v:.{PROB_DECIMALS}f}" for v in r) + "]"


def cmd_predict(cfg: argparse.Namespace) -> None:
    net, meta = checkpoint_load(cfg.checkpoint)
    for key in ("window", "attrs", "vmin", "vmax"):
        if key not in meta:
            raise CliError(f"checkpoint lacks pipeline metadata {key!r}; "
                           "was it written by lpat train?")
    attrs = tuple(meta["attrs"].split(","))
    try:
        w = int(meta["window"])
        v_min, v_max = ([float(v) for v in meta[k].split(",")] for k in ("vmin", "vmax"))
        if w < 1:
            raise CliError(f"{cfg.checkpoint}: window {w} is below 1")
        if not len(v_min) == len(v_max) == len(attrs):
            raise CliError(f"{cfg.checkpoint}: vmin and vmax need one value for each "
                           f"of the {len(attrs)} attributes")
        scaling = data.ScalingParams(v_min=v_min, v_max=v_max)
    except ValueError as exc:
        raise CliError(f"{cfg.checkpoint}: bad pipeline metadata ({exc})") from None
    rows = _read_window_csv(cfg.window, attrs, w)
    feats = data.minmax_apply(rows, scaling)
    label, probs = training.predict(net, feats)
    print(f"class={label} meaning={evaluate.CLASS_NAMES[label]} "
          f"probs={_format_probs(probs)}")


def _read_window_csv(path, attrs, w: int) -> np.ndarray:
    import csv as _csv
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty window file") from None
        col = {name: i for i, name in enumerate(header)}
        missing = [a for a in attrs if a not in col]
        if missing:
            raise CliError(f"{path}: missing attribute columns {missing}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            try:
                values = [float(row[col[a]]) for a in attrs]
            except (ValueError, IndexError):
                raise CliError(f"{path}:{line_no}: malformed row") from None
            if not all(map(math.isfinite, values)):
                raise CliError(f"{path}:{line_no}: non-finite value")
            rows.append(values)
    if len(rows) != w:
        raise CliError(f"{path}: expected exactly {w} rows "
                       f"(the trained window length), got {len(rows)}")
    return np.array(rows)


HANDLERS = {
    "prep": cmd_prep,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        HANDLERS[command](_settings(command, args))
    except (CliError, ValueError, OSError) as exc:
        print(f"lpat {command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
