"""Reconstruction-based anomaly detection for DDoS flow traffic.

Train a sequence autoencoder on benign traffic only, set the detection
threshold to the maximum per-sample reconstruction error seen in training,
and flag test-time samples whose aggregated error exceeds it.
"""

from .anomaly import (
    DetectionResult,
    ThresholdModel,
    calibrate,
    classify,
    detect,
    per_sample_errors,
    score_matrix,
)
from .autoencoder import (
    ModelConfig,
    ModelWeights,
    TrainReport,
    build,
    forward,
    train,
)
from .errors import (
    DataError,
    DivergenceError,
    FlowSentryError,
    InsufficientDataError,
    ModelFormatError,
    NumericError,
    ParameterError,
    SchemaError,
    ShapeError,
)
from .evaluation import ConfusionCounts, MetricsReport, auc_roc, confusion, emit_report, metrics
from .ingest import (
    DEFAULT_FEATURES,
    Dataset,
    FeatureSpec,
    FlowRecord,
    Scaler,
    apply_scaler,
    assemble_test_set,
    fit_scaler,
    parse_csv,
    split_benign,
)
from .synth import SynthConfig, gen
from .windowing import WindowConfig, make_windows

__version__ = "0.1.0"
