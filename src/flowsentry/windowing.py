"""Overlapping fixed-length windows over a feature matrix.

Stride is fixed at 1: the per-sample error aggregation averages each sample
over every window that contains it, which presumes maximal overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ParameterError, ShapeError


@dataclass(frozen=True)
class WindowConfig:
    timesteps: int = 10

    def __post_init__(self):
        if self.timesteps < 1:
            raise ParameterError(f"timesteps must be >= 1, got {self.timesteps}")


def make_windows(matrix: np.ndarray, cfg: WindowConfig) -> np.ndarray:
    """All n-t+1 length-t windows of the matrix as a read-only (w, t, m)
    view of it, not a copy; window k covers rows k..k+t-1."""
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={x.ndim}")
    n = x.shape[0]
    t = cfg.timesteps
    if n < t:
        raise InsufficientDataError(
            f"need at least {t} samples to build one window, got {n}"
        )
    return sliding_window_view(x, t, axis=0).transpose(0, 2, 1)
