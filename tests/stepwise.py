"""Whole-batch views of the per-step scoring path, for tests.

`autoencoder.forward` hands each decoder step's (w, m) outputs to a callback,
and `anomaly.per_sample_errors` adds one such step's errors. These helpers
collect the steps into a whole (w, t, m) reconstruction, and feed a whole
reconstruction's steps to per_sample_errors as scoring does.
"""

import numpy as np

from flowsentry import anomaly, autoencoder


def reconstruct(weights, windows):
    """The (w, t, m) reconstruction of `windows`, collected step by step."""
    recon = np.empty(np.shape(windows))

    def keep(j, y):
        recon[:, j] = y

    autoencoder.forward(weights, windows, keep)
    return recon


def add_errors(x, recon, sums, start=0):
    """Add the errors of the (c, t, m) reconstruction of windows start.. of `x`
    into `sums`, one step at a time: step j of window k holds sample start + k + j."""
    for j in range(recon.shape[1]):
        anomaly.per_sample_errors(x, recon[:, j].copy(), start + j, sums)
