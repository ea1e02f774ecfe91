"""Sequence autoencoder assembled from the recurrent kernel.

Six stages per window: input -> recurrent encoder (final hidden state only)
-> bottleneck repeat (t copies) -> recurrent decoder (full sequence) ->
shared per-timestep linear projection -> output, trained on benign-only
windows with mean-absolute-error loss and Adam.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DivergenceError, ModelFormatError, ParameterError, ShapeError
from .ingest import json_text, read_json
from .lstm import (
    AdamState,
    DenseParams,
    LstmParams,
    adam_step,
    cache_size,
    dense_backward,
    dense_forward,
    dropout,
    dropout_mask,
    lstm_layer_backward,
    lstm_layer_forward,
)

logger = logging.getLogger(__name__)

MODEL_FILE_VERSION = 1


@dataclass
class ModelConfig:
    timesteps: int = 10
    features: int = 5
    units: int = 16
    dropout: float = 0.2
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name in ("timesteps", "features", "units", "epochs", "batch_size", "seed"):
            if type(value := getattr(self, name)) is bool or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        for name in ("timesteps", "features", "units", "batch_size"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if type(self.dropout) is bool or not 0 <= self.dropout < 1:
            raise ParameterError(f"dropout must be in [0,1), got {self.dropout}")
        if type(self.learning_rate) is bool or not 0 < self.learning_rate < math.inf:  # a NaN fails too
            raise ParameterError(f"learning_rate (--lr) must be finite and > 0, got {self.learning_rate}")


# Gate blocks of the stacked weights, named as model.json names them per gate.
FILE_GATES = ("f", "i", "o", "c")


def _shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Order and shape of every array in the flat parameter vector."""
    u, m = cfg.units, cfg.features
    return {"encoder.w": (u + m, 4 * u), "encoder.b": (4 * u,), "decoder.w": (2 * u, 4 * u),
            "decoder.b": (4 * u,), "projection.weight": (m, u), "projection.bias": (m,)}


def _split(flat: np.ndarray, cfg: ModelConfig) -> tuple[LstmParams, LstmParams, DenseParams]:
    """Encoder, decoder and projection as views into one flat vector."""
    shapes = list(_shapes(cfg).values())
    bounds = np.cumsum([0] + [math.prod(s) for s in shapes])
    if flat.shape != (bounds[-1],):
        raise ShapeError(f"parameter vector has shape {flat.shape}, config needs ({bounds[-1]},)")
    v = [flat[lo:hi].reshape(s) for lo, hi, s in zip(bounds, bounds[1:], shapes)]
    return LstmParams(v[0], v[1]), LstmParams(v[2], v[3]), DenseParams(v[4], v[5])


@dataclass
class ModelWeights:
    """Every trainable array is a view into the one contiguous, finite vector `theta`."""

    theta: np.ndarray
    config: ModelConfig
    encoder: LstmParams = field(init=False, repr=False)
    decoder: LstmParams = field(init=False, repr=False)
    projection: DenseParams = field(init=False, repr=False)

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=float)
        self.encoder, self.decoder, self.projection = _split(self.theta, self.config)
        if not (finite := np.isfinite(self.theta)).all():
            raise ParameterError(f"non-finite model parameter {self.locate(int(np.argmin(finite)))}")

    @classmethod
    def from_parts(
        cls, encoder: LstmParams, decoder: LstmParams, projection: DenseParams, config: ModelConfig
    ) -> "ModelWeights":
        """Copy separately built layers into one parameter vector."""
        arrays = (encoder.w, encoder.b, decoder.w, decoder.b, projection.weight, projection.bias)
        if [a.shape for a in arrays] != list(_shapes(config).values()):
            raise ShapeError("layer dimensions disagree with the config")
        return cls(np.concatenate([a.ravel() for a in arrays]), config)

    def locate(self, index: int) -> str:
        """Name of entry `index` of theta, e.g. 'encoder.w[3, 17]'."""
        for name, shape in _shapes(self.config).items():
            if index < math.prod(shape):
                return f"{name}{[int(i) for i in np.unravel_index(index, shape)]}"
            index -= math.prod(shape)
        raise IndexError(f"theta has no entry {index}")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def build(config: ModelConfig) -> ModelWeights:
    """Deterministic Glorot initialization under the config's seed."""
    rng = np.random.default_rng([config.seed, 0])
    encoder = LstmParams.glorot(config.units, config.features, rng)
    decoder = LstmParams.glorot(config.units, config.units, rng)
    projection = DenseParams.glorot(config.features, config.units, rng)
    return ModelWeights.from_parts(encoder, decoder, projection, config)


def _forward(weights: ModelWeights, x: np.ndarray, mode: str, rng, keep_cache: bool, on_step=None):
    cfg = weights.config
    if x.ndim != 3 or x.shape[1:] != (cfg.timesteps, cfg.features):
        raise ShapeError(
            f"window batch has shape {x.shape}, model expects "
            f"(windows, {cfg.timesteps}, {cfg.features})"
        )
    if mode not in ("train", "infer"):
        raise ParameterError(f"mode must be 'train' or 'infer', got {mode!r}")
    training = mode == "train" and cfg.dropout > 0
    if training and rng is None:
        raise ParameterError("train-mode forward with dropout requires an rng")
    if training and on_step is not None:
        raise ParameterError("a per-step forward applies no dropout; use mode='infer'")

    # both layers' caches in one allocation: a block that large stays in the
    # allocator's heap from one training step to the next, where blocks of a
    # few MB each are handed back to the system and faulted in again per step
    size = cache_size(x.shape[0], cfg.timesteps, cfg.units) if keep_cache else 0
    store = np.empty(2 * size)
    encoded, enc_cache = lstm_layer_forward(
        weights.encoder, x, False, keep_cache=keep_cache, store=store[:size]
    )
    enc_mask = dropout_mask(encoded.shape, cfg.dropout, rng) if training else None
    bottleneck = dropout(encoded, enc_mask, cfg.dropout)
    # a stride-0 view: the decoder projects the bottleneck once, not t times
    repeated = np.broadcast_to(bottleneck[:, None, :], (x.shape[0], cfg.timesteps, cfg.units))
    step, recon = None, None
    if on_step is not None or (not training and x.shape[0] > 1):
        # without dropout each decoder state (u, b) is projected as it is made, into one (b, m)
        # buffer for on_step or into the reconstruction, so scoring and training share its bits
        recon = np.empty((x.shape[0], 1 if on_step else cfg.timesteps, cfg.features))

        def step(j, h):
            y, project = recon[:, j % recon.shape[1]], weights.projection
            np.add(np.matmul(h.T, project.weight.T, out=y), project.bias, out=y)
            if on_step is not None:
                on_step(j, y)

    decoded, dec_cache = lstm_layer_forward(
        weights.decoder, repeated, True, keep_cache=keep_cache, store=store[size:], on_step=step
    )
    if on_step is not None:
        return None, None
    dec_mask = dropout_mask(decoded.shape, cfg.dropout, rng) if training else None
    if step is None:  # dropout, or one window: the (b, t, u) states are projected in one product
        dropout(decoded, dec_mask, cfg.dropout, out=decoded)  # over the decoder's own states
        recon = dense_forward(weights.projection, decoded)
    return recon, (enc_cache, enc_mask, dec_cache, dec_mask, decoded)


def forward(
    weights: ModelWeights,
    windows: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray | None:
    """Reconstruct every window; output shape equals input shape (w, t, m). With `on_step`,
    return None and hand step j's outputs (w, m) to on_step(j, y) in a buffer reused per step."""
    recon, _ = _forward(weights, np.asarray(windows, dtype=float), mode, rng, False, on_step)
    return recon


def loss_and_gradients(
    weights: ModelWeights,
    x: np.ndarray,
    mode: str = "train",
    rng: np.random.Generator | None = None,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """One forward/backward pass; the gradient is laid out like weights.theta
    and overwrites `out` when it is given."""
    x = np.asarray(x, dtype=float)
    recon, (enc_cache, enc_mask, dec_cache, dec_mask, dec_out) = _forward(
        weights, x, mode, rng, keep_cache=True
    )
    # each array is written over once used, to keep the step's peak memory low
    d_recon = np.subtract(recon, x, out=recon)
    negative = d_recon < 0  # the residual's sign, one byte a value, while its magnitude takes the array
    loss = float(np.mean(np.abs(d_recon, out=d_recon)))

    grad = np.empty_like(weights.theta) if out is None else out
    d_enc, d_dec, d_proj = _split(grad, weights.config)
    np.sign(d_recon, out=d_recon)  # 1, 0 or NaN
    np.negative(d_recon, out=d_recon, where=negative)
    d_recon /= d_recon.size
    # the state gradient is written over the dropout product, the decoder's states
    _, d_decoded = dense_backward(weights.projection, dec_out, d_recon, out=d_proj, overwrite_x=True)
    del d_recon, negative, dec_out
    dropout(d_decoded, dec_mask, weights.config.dropout, out=d_decoded)
    del dec_mask
    _, d_repeated = lstm_layer_backward(weights.decoder, dec_cache, d_decoded, out=d_dec)
    del dec_cache, d_decoded
    d_encoded = dropout(d_repeated[:, 0], enc_mask, weights.config.dropout)
    lstm_layer_backward(weights.encoder, enc_cache, d_encoded, out=d_enc)
    return loss, grad


def train(weights: ModelWeights, benign_windows: np.ndarray) -> tuple[ModelWeights, TrainReport]:
    """Epochs of shuffled mini-batches (last partial batch kept) with Adam.

    The caller is responsible for passing windows built from benign-only,
    scaled data. Raises DivergenceError if the loss ever goes non-finite.
    """
    cfg = weights.config
    data = np.asarray(benign_windows, dtype=float)
    rng = np.random.default_rng([cfg.seed, 1])
    grad = np.empty_like(weights.theta)
    adam = AdamState(lr=cfg.learning_rate)
    report = TrainReport()

    n = data.shape[0]
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            xb = data[order[start : start + cfg.batch_size]]
            loss, grads = loss_and_gradients(weights, xb, mode="train", rng=rng, out=grad)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch + 1}, step {step + 1}"
                )
            adam_step(weights.theta, grads, adam)
            total += loss * xb.shape[0]
        report.train_loss.append(total / n)
        report.epoch_seconds.append(time.perf_counter() - tic)
        logger.debug("epoch %d/%d loss %.6f", epoch + 1, cfg.epochs, report.train_loss[-1])
    return weights, report


def _layer_to_doc(params: LstmParams) -> dict:
    """Per-gate arrays as model.json v1 stores them: w_<gate> (units, units + input_dim)."""
    u, doc = params.units, {}
    for k, name in enumerate(FILE_GATES):
        doc[f"w_{name}"] = params.w[:, k * u : (k + 1) * u].T.tolist()
        doc[f"b_{name}"] = params.b[k * u : (k + 1) * u].tolist()
    return doc


def _layer_from_doc(doc: dict) -> LstmParams:
    w = [np.array(doc[f"w_{name}"], dtype=float).T for name in FILE_GATES]
    b = [np.array(doc[f"b_{name}"], dtype=float) for name in FILE_GATES]
    return LstmParams(np.concatenate(w, axis=1), np.concatenate(b))


def save(weights: ModelWeights, path: str | Path) -> None:
    """Versioned JSON with the config and row-major parameter arrays."""
    doc = {
        "version": MODEL_FILE_VERSION,
        "config": asdict(weights.config),
        "encoder": _layer_to_doc(weights.encoder),
        "decoder": _layer_to_doc(weights.decoder),
        "projection": {
            "weight": weights.projection.weight.tolist(),
            "bias": weights.projection.bias.tolist(),
        },
    }
    Path(path).write_text(json_text(doc), encoding="utf-8")


def load(path: str | Path) -> ModelWeights:
    doc = read_json(path, "model file")
    if doc.get("version") != MODEL_FILE_VERSION:
        raise ModelFormatError(f"{path}: unsupported model file version {doc.get('version')!r}")
    try:
        config = ModelConfig(**doc["config"])
        return ModelWeights.from_parts(
            encoder=_layer_from_doc(doc["encoder"]),
            decoder=_layer_from_doc(doc["decoder"]),
            projection=DenseParams(
                np.array(doc["projection"]["weight"], dtype=float),
                np.array(doc["projection"]["bias"], dtype=float),
            ),
            config=config,
        )
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc
