"""Deterministic synthetic flow traffic for desk-scale pipeline tests.

Benign rows follow a per-feature sinusoid-plus-Gaussian-noise process (so
the recurrent model has real temporal structure to learn); attack rows
follow the same process with every feature shifted by a configurable
multiple of the noise sigma. The `synth` stage writes them with
`ingest.write_csv`, in the CICDDoS2019 column layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import Dataset


@dataclass
class SynthConfig:
    n_benign: int = 2000
    n_attack: int = 500
    features: int = 5
    amplitude: float = 1.0
    period: float = 50.0
    sigma: float = 0.05
    shift_sigmas: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.n_benign < 1:
            raise ParameterError(f"n_benign must be >= 1, got {self.n_benign}")
        if self.n_attack < 0:
            raise ParameterError(f"n_attack must be >= 0, got {self.n_attack}")
        if self.features < 1:
            raise ParameterError(f"features must be >= 1, got {self.features}")
        for name, ok, rule in (("amplitude", self.amplitude >= 0, " and >= 0"),
                               ("sigma", self.sigma >= 0, " and >= 0"),
                               ("period", self.period > 0, " and > 0"), ("shift_sigmas", True, "")):
            if not (ok and np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} must be finite{rule}, got {getattr(self, name)}")


def _process(cfg: SynthConfig, start: int, count: int, rng: np.random.Generator) -> np.ndarray:
    m = cfg.features
    # per-feature baselines/phases spread the channels apart like real flow stats
    means = 100.0 * (np.arange(m) + 1)
    phases = 2.0 * np.pi * np.arange(m) / m
    i = np.arange(start, start + count)[:, None]
    signal = means + cfg.amplitude * np.sin(2.0 * np.pi * i / cfg.period + phases)
    noise = rng.normal(0.0, 1.0, size=(count, m)) * cfg.sigma
    return signal + noise


def gen(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Benign and attack datasets with ground-truth labels, seeded."""
    rng = np.random.default_rng(config.seed)
    benign = _process(config, 0, config.n_benign, rng)
    # attacks continue the same process in time, offset by shift*sigma per feature
    attack = _process(config, config.n_benign, config.n_attack, rng)
    attack = attack + config.shift_sigmas * config.sigma
    return (
        Dataset(benign, np.zeros(config.n_benign, dtype=int)),
        Dataset(attack, np.ones(config.n_attack, dtype=int)),
    )
