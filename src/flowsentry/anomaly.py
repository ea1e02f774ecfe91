"""Per-sample anomaly scores, threshold calibration and the threshold file.

A sample's score is the mean absolute reconstruction error over every
window that contains it and over all features; the detection threshold is
the maximum per-sample score seen on benign training data, and a sample is
flagged only when its score is strictly above that threshold.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autoencoder
from .autoencoder import ModelWeights
from .errors import (
    DataError,
    ModelFormatError,
    ParameterError,
    ShapeError,
)
from .ingest import (
    Scaler,
    scaler_from_doc,
    scaler_to_doc,
)
from .windowing import WindowConfig, make_windows

THRESHOLD_FILE_VERSION = 2

SCORE_CHUNK = 256  # windows per forward pass in score_matrix: peak ~ t*4u*SCORE_CHUNK*8 bytes


@dataclass
class ThresholdModel:
    """Everything needed to score new data: threshold, scaler, window, and
    the path and sha256 of the model file it was calibrated with."""

    threshold: float
    scaler: Scaler
    window: WindowConfig
    model_path: str
    model_sha256: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.threshold < 0:
            raise ParameterError(f"threshold must be >= 0, got {self.threshold}")


def per_sample_errors(
    x: np.ndarray, recon: np.ndarray, start: int = 0, sums: np.ndarray | None = None
) -> np.ndarray | None:
    """Aggregate window reconstructions into per-sample scores.

    For sample i and feature j, the error is the mean of
    |recon[k][i-k][j] - x[i][j]| over every window k containing i; the
    sample score is the mean of those per-feature errors. Edge samples
    average over however many windows actually contain them.

    With a running (n, m) `sums`, `recon` may be the chunk of windows
    start..start+c-1, added into `sums`; scores come with the last chunk, else None.
    """
    x = np.asarray(x, dtype=float)
    recon = np.asarray(recon, dtype=float)
    if x.ndim != 2 or recon.ndim != 3:
        raise ShapeError(f"need a 2-D source and 3-D windows, got {x.ndim}-D and {recon.ndim}-D")
    (n, m), (c, t, mb) = x.shape, recon.shape
    w = n - t + 1
    if mb != m or start < 0 or start + c > w or (sums is None and (start, c) != (0, w)):
        raise ShapeError(f"windows {start}.. of shape {recon.shape} do not fit a {n}x{m} matrix")
    if sums is None:
        sums = np.zeros((n, m))

    # window start+k holds sample start+k+o at offset o; taking the offsets in
    # reverse adds each sample's windows in ascending order
    for o in range(t - 1, -1, -1):
        lo = start + o
        sums[lo : lo + c] += np.abs(recon[:, o] - x[lo : lo + c])
    if start + c < w:
        return None
    i = np.arange(n)
    counts = np.minimum(np.minimum(i + 1, n - i), min(t, w))
    return (sums / counts[:, None]).mean(axis=1)


def calibrate(training_scores: np.ndarray) -> float:
    """Threshold = maximum per-sample score on the (benign) training data."""
    scores = np.asarray(training_scores, dtype=float)
    if scores.size == 0:
        raise DataError("cannot calibrate a threshold from an empty score series")
    return float(scores.max())


def classify(scores: np.ndarray, threshold: float) -> np.ndarray:
    """1 where score is strictly above the threshold, else 0. Ties are normal."""
    if threshold < 0:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    return (np.asarray(scores, dtype=float) > threshold).astype(int)


def score_matrix(scaled: np.ndarray, weights: ModelWeights, window: WindowConfig) -> np.ndarray:
    """Score an already-scaled matrix, SCORE_CHUNK windows per forward pass."""
    windows = make_windows(scaled, window)
    sums = np.zeros((len(scaled), windows.shape[2]))
    for start in range(0, len(windows), SCORE_CHUNK):
        recon = autoencoder.forward(weights, windows[start : start + SCORE_CHUNK], mode="infer")
        scores = per_sample_errors(scaled, recon, start, sums)
    return scores


def training_fingerprint(matrix: np.ndarray) -> str:
    """sha256 over the raw float64 bytes of the (scaled) training matrix."""
    x = np.ascontiguousarray(np.asarray(matrix, dtype=float))
    return hashlib.sha256(x.tobytes()).hexdigest()


def _created_stamp() -> str:
    # honors SOURCE_DATE_EPOCH so repeated runs can be byte-identical
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


def save_threshold(tm: ThresholdModel, path: str | Path) -> None:
    doc = {
        "version": THRESHOLD_FILE_VERSION,
        "threshold": tm.threshold,
        "window": {"timesteps": tm.window.timesteps},
        "scaler": scaler_to_doc(tm.scaler),
        "model": tm.model_path,
        "model_sha256": tm.model_sha256,
        "provenance": dict(tm.provenance),
    }
    if "created" not in doc["provenance"]:
        doc["provenance"]["created"] = _created_stamp()
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_threshold(path: str | Path) -> ThresholdModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read threshold file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if doc.get("version") != THRESHOLD_FILE_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported threshold file version {doc.get('version')!r}"
        )
    try:
        return ThresholdModel(
            threshold=float(doc["threshold"]),
            scaler=scaler_from_doc(doc["scaler"], path),
            window=WindowConfig(timesteps=int(doc["window"]["timesteps"])),
            model_path=str(doc["model"]),
            model_sha256=str(doc["model_sha256"]),
            provenance=dict(doc.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed threshold file ({exc})") from exc
