"""Confusion counts, scalar detection metrics, sort-based ROC/AUC, and reports.

The anomaly class (label 1) is the positive class. AUC is the normalized
Mann-Whitney U statistic - the probability that a random positive outscores
a random negative, ties counted half - which equals the area under the ROC
curve over all thresholds. Both come from one O(n log n) sort of the scores.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ShapeError

REPORT_FILE_VERSION = 1

# fixed column order for CSV reports; kept stable across runs and versions
CSV_COLUMNS = (
    "accuracy",
    "precision",
    "recall",
    "fpr",
    "f1",
    "auc",
    "tp",
    "tn",
    "fp",
    "fn",
    "degenerate",
    "window",
    "batch_size",
    "learning_rate",
    "seed",
    "epoch_time_mean",
    "epoch_time_std",
)


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
        return {
            "version": REPORT_FILE_VERSION,
            "counts": asdict(self.counts),
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "fpr": self.fpr,
            "f1": self.f1,
            "auc": self.auc,
            "degenerate": list(self.degenerate),
            "metadata": self.metadata,
        }


def _binary_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D vector")
    arr = arr.astype(int)
    bad = set(np.unique(arr).tolist()) - {0, 1}
    if bad:
        raise DataError(f"{name} contains non-binary value(s): {sorted(bad)}")
    return arr


def confusion(verdicts, labels) -> ConfusionCounts:
    """Count TP/TN/FP/FN with anomaly (1) as the positive class."""
    v = _binary_vector(verdicts, "verdicts")
    y = _binary_vector(labels, "labels")
    if v.shape != y.shape:
        raise ShapeError(f"length mismatch: {v.shape[0]} verdicts vs {y.shape[0]} labels")
    if v.size == 0:
        raise DataError("cannot build a confusion matrix from empty inputs")
    return ConfusionCounts(
        tp=int(np.sum((v == 1) & (y == 1))),
        tn=int(np.sum((v == 0) & (y == 0))),
        fp=int(np.sum((v == 1) & (y == 0))),
        fn=int(np.sum((v == 0) & (y == 1))),
    )


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
    return MetricsReport(
        counts=c,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        fpr=fpr,
        f1=f1,
        degenerate=tuple(degenerate),
    )


def _roc_counts(scores, labels, curve: str):
    """One stable descending sort: the distinct scores, highest first, and the
    negatives (fp) and positives (tp) scoring strictly above each of them,
    with one more entry that counts every sample."""
    s = np.asarray(scores, dtype=float)
    y = _binary_vector(labels, "labels")
    if s.shape != y.shape:
        raise ShapeError(f"length mismatch: {s.shape[0]} scores vs {y.shape[0]} labels")
    n_pos = int(np.sum(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"{curve} is undefined when only one class is present")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)  # last index of each tie group
    tp = np.concatenate(([0], np.cumsum(y)[ends]))
    fp = np.concatenate(([0], ends + 1)) - tp
    return s[ends], fp, tp, n_neg, n_pos


def auc_roc(scores, labels) -> float:
    """P(random positive outscores random negative), ties half: the ROC
    trapezoid, summed in exact integer counts."""
    _, fp, tp, n_neg, n_pos = _roc_counts(scores, labels, "AUC")
    u2 = int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])))  # twice the Mann-Whitney U
    return u2 / 2 / (n_pos * n_neg)


def roc_points(scores, labels) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) plot points using the strict score>threshold rule,
    one per distinct score, highest first, then (-inf, 1, 1)."""
    thresholds, fp, tp, n_neg, n_pos = _roc_counts(scores, labels, "ROC")
    points = list(zip(thresholds.tolist(), (fp[:-1] / n_neg).tolist(), (tp[:-1] / n_pos).tolist()))
    points.append((float("-inf"), 1.0, 1.0))
    return points


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
    meta = report.metadata
    config = meta.get("config", {})
    row = {
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
    return row


def render_report(report: MetricsReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerow(_csv_row(report))
        return buf.getvalue()
    if fmt == "markdown":
        return _markdown_table(report)
    raise ParameterError(f"unknown report format {fmt!r}")


def emit_report(report: MetricsReport, fmt: str = "json", path: str | Path | None = None) -> str:
    """Render in the requested format; write to `path` when given."""
    text = render_report(report, fmt)
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write report to {path}: {exc}") from exc
    return text


def write_sweep_csv(reports: list[MetricsReport], path: str | Path) -> None:
    """One CSV row per sweep cell, fixed header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for report in reports:
            writer.writerow(_csv_row(report))
