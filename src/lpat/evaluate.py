"""Confusion-matrix evaluation: accuracy, per-class precision/recall/F1, macro-F1.

Classes are the three health degrees: 0 "red alert" (fails within 5 days),
1 "going to fail" (5 to 15 days), 2 "healthy". Macro-F1 averages F1 over the
classes actually present in the ground truth; degenerate denominators score 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model

N_CLASSES = 3
CLASS_NAMES = ("red alert", "going to fail", "healthy")
HORIZON_NAMES = {0: "<=5", 1: "<=15"}

METRICS_MAGIC = "# lpat-metrics v1"


@dataclass
class MetricsReport:
    confusion: np.ndarray  # (3, 3) counts, rows = true class, cols = predicted
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float

    @property
    def total(self) -> int:
        return int(self.confusion.sum())


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    for t, p in zip(y_true, y_pred):
        cm[int(t), int(p)] += 1
    return cm


def metrics_from_confusion(cm: np.ndarray) -> MetricsReport:
    cm = np.asarray(cm, dtype=int)
    total = cm.sum()
    if total == 0:
        raise ValueError("cannot evaluate an empty sample set")
    tp = np.diag(cm).astype(float)
    predicted = cm.sum(axis=0).astype(float)
    actual = cm.sum(axis=1).astype(float)
    precision = np.divide(tp, predicted, out=np.zeros(N_CLASSES), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(N_CLASSES), where=actual > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(N_CLASSES), where=pr > 0)
    present = actual > 0
    macro_f1 = float(f1[present].mean())
    return MetricsReport(
        confusion=cm,
        accuracy=float(tp.sum() / total),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=macro_f1,
    )


def predict_classes(net: model.Network, features: np.ndarray) -> np.ndarray:
    """Argmax class per (B, w, n) sample; ties resolve to the lowest index."""
    return model.predict_proba(net, features).argmax(axis=1)


def evaluate(net: model.Network, samples) -> MetricsReport:
    """Score a labeled sample collection with a plain forward pass (no
    perturbation machinery is ever attached at evaluation time)."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot evaluate an empty sample set")
    labels = []
    for s in samples:
        if s.label is None:
            raise ValueError(f"unlabeled sample (serial {getattr(s, 'serial', '?')}) in evaluation set")
        labels.append(int(s.label))
    feats = np.stack([np.asarray(s.features, dtype=float) for s in samples])
    preds = predict_classes(net, feats)
    return metrics_from_confusion(confusion_matrix(labels, preds))


def per_horizon_breakdown(report: MetricsReport) -> list[tuple[str, float, float, float]]:
    """Rows (name, precision, recall, f1) for the two failure horizons:
    class 0 under "<=5" and class 1 under "<=15"."""
    return [
        (HORIZON_NAMES[c], float(report.precision[c]), float(report.recall[c]),
         float(report.f1[c]))
        for c in (0, 1)
    ]


def format_metrics(report: MetricsReport) -> str:
    """Machine-readable key=value lines, full precision."""
    lines = [METRICS_MAGIC, f"total={report.total}",
             f"accuracy={report.accuracy!r}"]
    for c in range(N_CLASSES):
        lines.append(f"class{c}_precision={report.precision[c]!r}")
        lines.append(f"class{c}_recall={report.recall[c]!r}")
        lines.append(f"class{c}_f1={report.f1[c]!r}")
    lines.append(f"macro_f1={report.macro_f1!r}")
    flat = ",".join(str(int(v)) for v in report.confusion.ravel())
    lines.append(f"confusion={flat}")
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> MetricsReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != METRICS_MAGIC:
        raise ValueError("not a metrics file")
    fields = dict(ln.split("=", 1) for ln in lines[1:])
    for key in ("confusion", "macro_f1"):
        if key not in fields:
            raise ValueError(f"metrics file has no {key!r} entry")
    flat = [int(v) for v in fields["confusion"].split(",")]
    if len(flat) != N_CLASSES * N_CLASSES:
        raise ValueError(f"metrics entry 'confusion' holds {len(flat)} counts, "
                         f"expected {N_CLASSES * N_CLASSES}")
    cm = np.array(flat, dtype=int).reshape(N_CLASSES, N_CLASSES)
    report = metrics_from_confusion(cm)
    stored = float(fields["macro_f1"])
    if abs(stored - report.macro_f1) > 1e-12:
        raise ValueError("metrics file is internally inconsistent")
    return report


def format_table(report: MetricsReport) -> str:
    """Percentages at one decimal place, matching the reporting style of the
    overall and per-horizon result tables."""
    pct = lambda v: f"{100.0 * v:.1f}"
    present = report.confusion.sum(axis=1) > 0
    lines = [
        "overall:",
        "  Accuracy  Precision  Recall  Macro-F1",
        f"  {pct(report.accuracy):>8}  {pct(report.precision[present].mean()):>9}"
        f"  {pct(report.recall[present].mean()):>6}  {pct(report.macro_f1):>8}",
        "per horizon:",
        "  horizon  Precision  Recall  Macro-F1",
    ]
    for name, prec, rec, f1 in per_horizon_breakdown(report):
        lines.append(f"  {name:<7}  {pct(prec):>9}  {pct(rec):>6}  {pct(f1):>8}")
    return "\n".join(lines) + "\n"
