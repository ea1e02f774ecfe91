"""Reconstruction-based anomaly detection for DDoS flow traffic.

Train a sequence autoencoder on benign traffic only, set the detection
threshold to the maximum per-sample reconstruction error seen in training,
and flag test-time samples whose aggregated error exceeds it.
"""

__version__ = "0.1.0"
