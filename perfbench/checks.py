"""Output checks for one pipeline pass, against oracles independent of flowsentry.

Each check reads the files a stage wrote and recomputes what they must
contain from first principles: row counts from the CSV text, verdicts from
the threshold in th.json, confusion counts by recounting, and the AUC by
comparing every positive score with every negative one. A non-empty list
of messages means the stage that wrote the file failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

VERDICTS_HEADER = ["row_index", "score", "verdict", "label"]
ROC_HEADER = ["threshold", "fpr", "tpr"]


def data_rows(path: Path) -> int:
    """Rows after the header of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return sum(1 for row in reader if row)


def read_verdicts(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = np.array(rows[1:], dtype=object).reshape(-1, 4)
    return rows[0], body[:, 1].astype(float), body[:, 2].astype(int), body[:, 3].astype(int)


def label_column(path: Path) -> np.ndarray:
    """Labels of test.csv: BENIGN is 0, anything else 1."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        col = header.index("Label")
        return np.array([0 if row[col].strip().upper() == "BENIGN" else 1 for row in reader if row])


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(positive score > negative score), ties counted half, over all pairs."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = ties = 0
    for lo in range(0, pos.size, 1024):
        block = pos[lo : lo + 1024, None]
        wins += int(np.count_nonzero(block > neg))
        ties += int(np.count_nonzero(block == neg))
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def check_detect(out: Path, test_csv: Path) -> list[str]:
    """verdicts.csv: one row per test row, labels from test.csv, verdict == score > threshold."""
    header, scores, verdicts, labels = read_verdicts(out / "verdicts.csv")
    errors = []
    if header != VERDICTS_HEADER:
        errors.append(f"verdicts.csv header {header}")
    expected = label_column(test_csv)
    if scores.size != expected.size:
        return errors + [f"verdicts.csv has {scores.size} rows, test.csv {expected.size}"]
    if not np.array_equal(labels, expected):
        errors.append("verdicts.csv labels differ from test.csv")
    threshold = float(json.loads((out / "th.json").read_text(encoding="utf-8"))["threshold"])
    wrong = np.count_nonzero(verdicts != (scores > threshold))
    if wrong:
        errors.append(f"{wrong} verdict(s) differ from score > threshold {threshold!r}")
    return errors


def check_evaluate(out: Path) -> list[str]:
    """report.json counts, recall and AUC recomputed from verdicts.csv; roc.csv shape."""
    _, scores, verdicts, labels = read_verdicts(out / "verdicts.csv")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    errors = []
    counts = {
        "tp": int(np.count_nonzero((verdicts == 1) & (labels == 1))),
        "tn": int(np.count_nonzero((verdicts == 0) & (labels == 0))),
        "fp": int(np.count_nonzero((verdicts == 1) & (labels == 0))),
        "fn": int(np.count_nonzero((verdicts == 0) & (labels == 1))),
    }
    if report.get("counts") != counts:
        errors.append(f"report counts {report.get('counts')} != recount {counts}")
    recall = counts["tp"] / (counts["tp"] + counts["fn"])
    if report.get("recall") != recall:
        errors.append(f"report recall {report.get('recall')!r} != {recall!r}")
    auc = pairwise_auc(scores, labels)
    if report.get("auc") is None or abs(report["auc"] - auc) > 1e-12:
        errors.append(f"report auc {report.get('auc')!r} != pairwise {auc!r}")
    with open(out / "roc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ROC_HEADER:
        errors.append(f"roc.csv header {rows[0]}")
    points = np.array(rows[1:], dtype=float).reshape(-1, 3)
    theta, fpr, tpr = points.T
    if not (np.all(np.diff(theta) < 0) and np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)):
        errors.append("roc.csv is not monotone")
    if points.size == 0 or not (math.isinf(theta[-1]) and theta[-1] < 0 and fpr[-1] == 1.0 and tpr[-1] == 1.0):
        errors.append("roc.csv does not end at (-inf, 1, 1)")
    return errors
