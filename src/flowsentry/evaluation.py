"""Confusion counts, scalar detection metrics, sort-based ROC/AUC, and reports.

The anomaly class (label 1) is the positive class. AUC is the normalized
Mann-Whitney U statistic - the probability that a random positive outscores
a random negative, ties counted half - which equals the area under the ROC
curve over all thresholds. Both come from one O(n log n) sort of the scores.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .ingest import json_text

REPORT_FILE_VERSION = 1


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    fpr: float
    f1: float
    auc: float | None = None
    degenerate: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": REPORT_FILE_VERSION, **asdict(self), "degenerate": list(self.degenerate)}


def _binary_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D vector")
    if arr.dtype.kind != "i":  # a signed integer vector is used as it is, int8 labels too
        arr = arr.astype(int)
    bad = set(np.unique(arr).tolist()) - {0, 1}
    if bad:
        raise DataError(f"{name} contains non-binary value(s): {sorted(bad)}")
    return arr


def confusion(verdicts, labels, weights=None) -> ConfusionCounts:
    """Count TP/TN/FP/FN with anomaly (1) as the positive class; the i-th
    (verdict, label) pair counts weights[i] times, once without weights."""
    v = _binary_vector(verdicts, "verdicts")
    y = _binary_vector(labels, "labels")
    if v.shape != y.shape:
        raise ShapeError(f"length mismatch: {v.shape[0]} verdicts vs {y.shape[0]} labels")
    if v.size == 0:
        raise DataError("cannot build a confusion matrix from empty inputs")
    tn, fn, fp, tp = map(int, np.bincount(2 * v + y, weights, minlength=4))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(c: ConfusionCounts) -> MetricsReport:
    """Accuracy, precision, recall (TPR), FPR and F1 from the counts.

    Zero-denominator metrics come back as 0.0 with the metric named in the
    report's `degenerate` field instead of propagating NaN.
    """
    if c.total == 0:
        raise DataError("cannot compute metrics over zero samples")
    degenerate: list[str] = []

    def ratio(num: float, den: float, name: str) -> float:
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    recall = ratio(c.tp, c.tp + c.fn, "recall")
    fpr = ratio(c.fp, c.fp + c.tn, "fpr")
    precision = ratio(c.tp, c.tp + c.fp, "precision")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    accuracy = (c.tp + c.tn) / c.total
    return MetricsReport(c, accuracy, precision, recall, fpr, f1, degenerate=tuple(degenerate))


def _roc_counts(scores, labels, curve: str):
    """One stable descending sort: the distinct scores, highest first, then
    -inf, and the negatives (fp) and positives (tp) scoring strictly above
    each of them."""
    s = np.asarray(scores, dtype=float)
    y = _binary_vector(labels, "labels")
    if s.shape != y.shape:
        raise ShapeError(f"length mismatch: {s.shape[0]} scores vs {y.shape[0]} labels")
    n_pos = int(np.sum(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"{curve} is undefined when only one class is present")
    order = np.argsort(-s, kind="stable")
    s, y, order = s[order], y[order], None  # each array is let go once it is used
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last index of each tie group
    thresholds, s = np.append(s[ends], -np.inf), None
    tp = np.concatenate(([0], np.cumsum(y)[ends]))
    fp = np.concatenate(([0], ends + 1))
    fp -= tp
    return thresholds, fp, tp, n_neg, n_pos


def auc_roc(scores, labels, roc: tuple = ()) -> float:
    """P(random positive outscores random negative), ties half: the ROC
    trapezoid in exact integer counts, from `roc` if their `_roc_counts` are given."""
    _, fp, tp, n_neg, n_pos = roc or _roc_counts(scores, labels, "AUC")
    u2 = int(np.dot(np.diff(fp), tp[1:] + tp[:-1]))  # twice the Mann-Whitney U
    return u2 / 2 / (n_pos * n_neg)


def roc_points(scores, labels, roc: tuple = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The threshold, fpr and tpr arrays of the plot points using the strict
    score>threshold rule, one per distinct score, highest first, then (-inf, 1,
    1); `roc` is as in `auc_roc`."""
    thresholds, fp, tp, n_neg, n_pos = roc or _roc_counts(scores, labels, "ROC")
    return thresholds, fp / n_neg, tp / n_pos


def _markdown_table(report: MetricsReport) -> str:
    cells = [
        str(report.metadata.get("config", {}).get("window", "")),
        f"{100 * report.accuracy:.2f}",
        f"{100 * report.precision:.2f}",
        f"{100 * report.recall:.2f}",
        f"{100 * report.f1:.2f}",
    ]
    header = "| Window | Acc | Pre | Re | F1 |"
    rule = "|---|---|---|---|---|"
    return "\n".join([header, rule, "| " + " | ".join(cells) + " |"]) + "\n"


def _csv_row(report: MetricsReport) -> dict[str, str]:
    """One CSV report row; its keys are the fixed header, in order."""
    meta = report.metadata
    config = meta.get("config", {})
    return {
        "accuracy": repr(report.accuracy),
        "precision": repr(report.precision),
        "recall": repr(report.recall),
        "fpr": repr(report.fpr),
        "f1": repr(report.f1),
        "auc": "" if report.auc is None else repr(report.auc),
        "tp": str(report.counts.tp),
        "tn": str(report.counts.tn),
        "fp": str(report.counts.fp),
        "fn": str(report.counts.fn),
        "degenerate": ";".join(report.degenerate),
        "window": str(config.get("window", "")),
        "batch_size": str(config.get("batch", "")),
        "learning_rate": str(config.get("lr", "")),
        "seed": str(config.get("seed", "")),
        "epoch_time_mean": str(meta.get("epoch_time_mean", "")),
        "epoch_time_std": str(meta.get("epoch_time_std", "")),
    }


def _csv_text(reports: list[MetricsReport]) -> str:
    """The header, then one row per report (at least one)."""
    rows = [_csv_row(report) for report in reports]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=rows[0], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_report(report: MetricsReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json_text(report.to_dict())
    if fmt == "csv":
        return _csv_text([report])
    if fmt == "markdown":
        return _markdown_table(report)
    raise ParameterError(f"unknown report format {fmt!r}")


def emit_report(report: MetricsReport, fmt: str = "json", path: str | Path | None = None) -> None:
    """Render in the requested format; write to `path` when given."""
    text = render_report(report, fmt)
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write report to {path}: {exc}") from exc


def write_sweep_csv(reports: list[MetricsReport], path: str | Path) -> None:
    """One CSV row per sweep cell, fixed header."""
    Path(path).write_text(_csv_text(reports), encoding="utf-8", newline="")
