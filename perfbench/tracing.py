"""Spans around the public functions of ``lpat``, recorded from outside.

``Tracer`` replaces each traced function with a wrapper on its module (and on
every other module that imported it by name), records one span per call
(name, start, end, parent span, run id, optional work count) in memory,
and restores every original on exit. ``layer_metrics`` turns the spans into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _rows(args, kwargs):
    return len(args[1])


def _resume_rows(args, kwargs):
    return len(args[1].probs)


def _record_count(result):
    return sum(len(tl.records) for tl in result)


def _window_count(result):
    return len(result[0]) + len(result[1])


def _forward_kind(args, kwargs):
    perts = args[2] if len(args) > 2 else kwargs.get("perts")
    return "model.forward_batch." + ("perturbed" if perts else "clean")


def _backward_kind(args, kwargs):
    params = kwargs.get("want_param_grads", True)
    return "model.backward_batch." + ("params" if params else "act")


def _resume_kind(args, kwargs):
    return f"model.resume_forward.p{args[2]}"


def _cli_kind(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}"


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives and how its spans are named.

    ``name`` is a fixed span name or a function of the call's arguments;
    ``rows`` counts work from the arguments, ``count`` from the result.
    ``also`` lists other modules that bound the function by name.
    """

    module: str
    attr: str
    name: object
    rows: Optional[Callable] = None
    count: Optional[Callable] = None
    also: tuple = ()


TARGETS = (
    Target("lpat.model", "forward_batch", _forward_kind, rows=_rows),
    Target("lpat.model", "backward_batch", _backward_kind),
    Target("lpat.model", "resume_forward", _resume_kind, rows=_resume_rows),
    Target("lpat.perturb", "compute_perturbation_tensors",
           "perturb.compute_perturbation_tensors"),
    Target("lpat.training", "train", "training.train"),
    Target("lpat.training", "rmsprop_step", "training.rmsprop_step"),
    Target("lpat.training", "_validate", "training.validate"),
    Target("lpat.training", "predict", "training.predict"),
    Target("lpat.data", "ingest_csv", "data.ingest_csv", count=_record_count),
    Target("lpat.data", "prepare_dataset", "data.prepare_dataset"),
    Target("lpat.data", "clean_and_aggregate", "data.clean_and_aggregate"),
    Target("lpat.data", "kmeans_representative_subset",
           "data.kmeans_representative_subset"),
    Target("lpat.data", "window_and_label", "data.window_and_label",
           count=_window_count),
    Target("lpat.data", "split_dataset", "data.split_dataset"),
    Target("lpat.cache", "save_split", "cache.save_split"),
    Target("lpat.cache", "load_split", "cache.load_split"),
    Target("lpat.checkpoint", "checkpoint_save", "checkpoint.checkpoint_save",
           also=("lpat.cli",)),
    Target("lpat.checkpoint", "checkpoint_load", "checkpoint.checkpoint_load",
           also=("lpat.cli",)),
    Target("lpat.evaluate", "predict_classes", "evaluate.predict_classes",
           rows=_rows),
    Target("lpat.cli", "_read_window_csv", "cli.read_window_csv"),
    Target("lpat.cli", "main", _cli_kind),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int
    work: Optional[int] = None


class NoTrace:
    """Stand-in with the Tracer's workload-facing interface; records nothing."""

    def op(self):
        return contextlib.nullcontext()

    def suspended(self):
        return contextlib.nullcontext()


class Tracer(NoTrace):
    """Context manager that patches every target in ``TARGETS`` on entry and
    restores the originals on exit, even when the traced code raised."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run_id = 0
        self._paused = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for target in TARGETS:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if original is None:
                # a renamed internal leaves its metrics at zero, not the run broken
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            for owner in (target.module,) + target.also:
                mod = importlib.import_module(owner)
                if getattr(mod, target.attr, None) is original:
                    self._saved.append((mod, target.attr, original))
                    setattr(mod, target.attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    @contextlib.contextmanager
    def op(self):
        """Mark one workload operation; its spans share a run id."""
        self._run_id += 1
        yield

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, original, target: Target):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            name = target.name if isinstance(target.name, str) else target.name(args, kwargs)
            span_id = len(self.spans)
            span = Span(span_id, name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self._run_id)
            self.spans.append(span)
            if target.rows:
                span.work = target.rows(args, kwargs)
            self._stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.count:
                span.work = target.count(result)
            return result
        return wrapper

    def write(self, path, header: dict) -> None:
        """JSON lines: ``header`` first, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------- metrics

def _by_name(spans):
    out: dict[str, list[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _self_times(spans) -> dict[int, float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def _inside(span: Span, name: str, spans) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics by span name.

    ``calls`` counts spans in the run; ``self_s`` is the mean self time per
    call (span time minus child spans); ``ms_p50`` the median span time;
    work counts are means per call. Layers never called read 0. The
    one-window forwards inside ``training.predict`` are left out of
    ``model.forward_batch.clean``, so it stays the batch forward that
    training and evaluation run; ``training.predict`` covers them.
    """
    groups = _by_name(s for s in spans
                      if s.parent is None or spans[s.parent].name != "training.predict")
    self_t = _self_times(spans)

    def calls(name):
        return float(len(groups.get(name, ())))

    def self_s(name):
        g = groups.get(name, ())
        return sum(self_t[s.id] for s in g) / len(g) if g else 0.0

    def ms_p50(name, self_only=False):
        g = groups.get(name, ())
        if not g:
            return 0.0
        values = [self_t[s.id] if self_only else s.end - s.start for s in g]
        return 1e3 * statistics.median(values)

    def work(name):
        g = groups.get(name, ())
        return sum(s.work for s in g) / len(g) if g else 0.0

    def total(name):
        return sum(s.end - s.start for s in groups.get(name, ()))

    m: dict[str, float] = {}
    for name in ("model.forward_batch.clean", "model.forward_batch.perturbed",
                 "model.backward_batch.params", "model.backward_batch.act",
                 "perturb.compute_perturbation_tensors"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ms_p50"] = ms_p50(name)
    for p in range(5):
        name = f"model.resume_forward.p{p}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms_p50"] = ms_p50(name)

    # LSTM passes inside training steps: every forward_batch plus the probes
    # that resume below the LSTM (points 0-2), outside validation
    steps = calls("training.rmsprop_step")
    step_passes = [s for s in spans
                   if (s.name.startswith("model.forward_batch.")
                       or s.name in ("model.resume_forward.p0", "model.resume_forward.p1",
                                     "model.resume_forward.p2"))
                   and _inside(s, "training.train", spans)
                   and not _inside(s, "training.validate", spans)]
    m["model.lstm_passes_per_step"] = len(step_passes) / steps if steps else 0.0
    m["model.lstm_rows_per_step"] = (sum(s.work for s in step_passes) / steps
                                     if steps else 0.0)

    trains = calls("training.train")
    probe = total("perturb.compute_perturbation_tensors")
    stepping = total("training.train") - total("training.validate")
    m["perturb.step_share"] = probe / stepping if stepping else 0.0
    m["perturb.step_share.probe_s"] = probe / trains if trains else 0.0
    m["perturb.step_share.steps_s"] = stepping / trains if trains else 0.0

    for name in ("training.rmsprop_step", "training.validate", "training.train"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["training.predict.calls"] = calls("training.predict")
    m["training.predict.ms_p50"] = ms_p50("training.predict")

    m["cli.prep.ms_p50"] = ms_p50("cli.prep")
    m["data.prepare_dataset.ms_p50"] = ms_p50("data.prepare_dataset")
    m["data.ingest_csv.self_s"] = self_s("data.ingest_csv")
    m["data.ingest_csv.rows"] = work("data.ingest_csv")
    for name in ("data.prepare_dataset", "data.clean_and_aggregate",
                 "data.kmeans_representative_subset", "data.window_and_label",
                 "data.split_dataset"):
        m[f"{name}.self_s"] = self_s(name)
    m["data.windows"] = work("data.window_and_label")

    m["cache.save_split.self_s"] = self_s("cache.save_split")
    m["cache.load_split.self_s"] = self_s("cache.load_split")
    m["checkpoint.checkpoint_load.calls"] = calls("checkpoint.checkpoint_load")
    m["checkpoint.checkpoint_load.ms_p50"] = ms_p50("checkpoint.checkpoint_load")
    m["checkpoint.checkpoint_save.self_s"] = self_s("checkpoint.checkpoint_save")

    m["evaluate.predict_classes.self_s"] = self_s("evaluate.predict_classes")
    m["evaluate.predict_classes.windows"] = work("evaluate.predict_classes")

    m["cli.prep.self_s"] = self_s("cli.prep")
    m["cli.eval.self_s"] = self_s("cli.eval")
    m["cli.predict.calls"] = calls("cli.predict")
    m["cli.predict.self_ms_p50"] = ms_p50("cli.predict", self_only=True)
    m["cli.read_window_csv.ms_p50"] = ms_p50("cli.read_window_csv")
    return m
