"""Per-sample anomaly scores, threshold calibration and the threshold file.

A sample's score is the mean absolute reconstruction error over every
window that contains it and over all features; the detection threshold is
the maximum per-sample score seen on benign training data, and a sample is
flagged only when its score is strictly above that threshold. Errors are
added per decoder step, so a sample takes a chunk's windows latest first.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autoencoder
from .autoencoder import ModelWeights
from .errors import DataError, ModelFormatError, NumericError, ParameterError, ShapeError
from .ingest import Scaler, json_text, read_json, scaler_from_doc, scaler_to_doc
from .windowing import WindowConfig, make_windows

THRESHOLD_FILE_VERSION = 3

SCORE_CHUNK = 256  # windows per forward pass in score_matrix: peak ~ (15*SCORE_CHUNK + 4*t)*u*8 bytes


@dataclass
class ThresholdModel:
    """Everything needed to score new data besides the model: threshold,
    scaler, and the path and sha256 of the model file it was calibrated with."""

    threshold: float
    scaler: Scaler
    model_path: str
    model_sha256: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.threshold < np.inf:  # a NaN fails too
            raise ParameterError(f"threshold must be a finite number >= 0, got {self.threshold}")


def per_sample_errors(x: np.ndarray, recon: np.ndarray, start: int, sums: np.ndarray) -> None:
    """Add the errors of windows start..start+c-1 into the running (n, m) `sums`:
    sums[i][j] gathers |recon[k][i-k][j] - x[i][j]| over every window k that
    holds sample i, in ascending k; score_matrix divides by their count and averages
    the features, and passes each decoder step j as windows of length 1 from start + j.
    """
    x = np.asarray(x, dtype=float)
    recon = np.asarray(recon, dtype=float)
    if x.ndim != 2 or recon.ndim != 3:
        raise ShapeError(f"need a 2-D source and 3-D windows, got {x.ndim}-D and {recon.ndim}-D")
    (n, m), (c, t, mb) = x.shape, recon.shape
    if mb != m or start < 0 or start + c > n - t + 1 or sums.shape != x.shape:
        raise ShapeError(f"windows {start}.. of shape {recon.shape} do not fit a {n}x{m} matrix")
    # taking the offsets in reverse adds each sample's windows in ascending order
    for o in range(t - 1, -1, -1):
        lo = start + o
        sums[lo : lo + c] += np.abs(recon[:, o] - x[lo : lo + c])


def calibrate(training_scores: np.ndarray) -> float:
    """Threshold = maximum per-sample score on the (benign) training data."""
    scores = np.asarray(training_scores, dtype=float)
    if scores.size == 0:
        raise DataError("cannot calibrate a threshold from an empty score series")
    if not np.isfinite(threshold := float(scores.max())):
        raise NumericError(f"the maximum training score is {threshold}, not a finite number")
    return threshold


def classify(scores: np.ndarray, threshold: float) -> np.ndarray:
    """1 where score is strictly above the threshold, else 0. Ties are normal."""
    if not threshold >= 0:  # a NaN fails too
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    return (np.asarray(scores, dtype=float) > threshold).astype(int)


@dataclass
class Carry:
    """What `score_matrix` keeps between the blocks of a stream: the rows from
    the first window not yet scored on, the error sums that the scored
    windows added to them, and the count of rows before them. Carry() starts
    a stream."""

    rows: np.ndarray | None = None  # (k, m) scaled
    sums: np.ndarray | None = None  # (k, m)
    done: int = 0


def score_matrix(
    scaled: np.ndarray, weights: ModelWeights, window: WindowConfig,
    carry: Carry | None = None, last: bool = True,
) -> np.ndarray:
    """Score an already-scaled matrix, SCORE_CHUNK windows per forward pass.

    Without a carry, `scaled` is the whole matrix, streamed in SCORE_CHUNK-row
    blocks. To stream, pass the blocks in order with one Carry, and last=True
    with the final block only; each call returns the scores of the rows that no
    later window holds, in order, and leaves the rest in the carry. Chunks start
    at the same windows whatever the blocks, so the scores are bit-identical.
    """
    x = np.asarray(scaled, dtype=float)
    if carry is not None:
        return _score_block(x, weights, window, carry, last)
    carry, scores = Carry(), np.empty(len(x))
    for lo in range(0, max(len(x), 1), SCORE_CHUNK):  # an empty matrix raises in its one block
        block = _score_block(x[lo : lo + SCORE_CHUNK], weights, window, carry, lo + SCORE_CHUNK >= len(x))
        scores[carry.done - len(block) : carry.done] = block
    return scores


def _score_block(
    x: np.ndarray, weights: ModelWeights, window: WindowConfig, carry: Carry, last: bool
) -> np.ndarray:
    held = 0 if carry.rows is None else len(carry.rows)
    sums = np.zeros((held + len(x), *x.shape[1:]))
    if held:
        x, sums[:held] = np.concatenate([carry.rows, x]), carry.sums
    carry.rows = carry.sums = None  # not held through the forward pass
    t = window.timesteps
    w = len(x) - t + 1
    end = w if last else max(w, 0) // SCORE_CHUNK * SCORE_CHUNK  # the windows scored now
    if end > 0 or last and not carry.done:  # a stream of fewer than t rows raises here
        windows = make_windows(x, window)
        for start in range(0, end, SCORE_CHUNK):
            # no chunk's (t, c, m) reconstruction is held, only one step's (c, m)
            def add_errors(j, y, start=start):
                per_sample_errors(x, y[:, None], start + j, sums)

            autoencoder.forward(weights, windows[start : start + SCORE_CHUNK], on_step=add_errors)
    k = len(x) if last else end  # the rows no later window holds
    # windows holding stream row i: at least t rows follow every row finished before the end
    i, n = np.arange(carry.done, carry.done + k), carry.done + len(x)
    counts = np.minimum(np.minimum(i + 1, n - i), min(t, n - t + 1))
    # copies: a view of the tail would keep this block's whole arrays alive
    carry.rows, carry.sums, carry.done = x[k:].copy(), sums[k:].copy(), carry.done + k
    return (sums[:k] / counts[:, None]).mean(axis=1)


def _created_stamp() -> str:
    # honors SOURCE_DATE_EPOCH so repeated runs can be byte-identical
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


def save_threshold(tm: ThresholdModel, path: str | Path) -> None:
    doc = {
        "version": THRESHOLD_FILE_VERSION,
        "threshold": tm.threshold,
        "scaler": scaler_to_doc(tm.scaler),
        "model": tm.model_path,
        "model_sha256": tm.model_sha256,
        "provenance": dict(tm.provenance),
    }
    if "created" not in doc["provenance"]:
        doc["provenance"]["created"] = _created_stamp()
    Path(path).write_text(json_text(doc), encoding="utf-8")


def load_threshold(path: str | Path) -> ThresholdModel:
    doc = read_json(path, "threshold file")
    if doc.get("version") != THRESHOLD_FILE_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported threshold file version {doc.get('version')!r}"
        )
    try:
        return ThresholdModel(
            threshold=float(doc["threshold"]),
            scaler=scaler_from_doc(doc["scaler"], path),
            model_path=str(doc["model"]),
            model_sha256=str(doc["model_sha256"]),
            provenance=dict(doc.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise ModelFormatError(f"{path}: malformed threshold file ({exc})") from exc
