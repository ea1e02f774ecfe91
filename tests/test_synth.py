import numpy as np
import pytest

from flowsentry.errors import ParameterError
from flowsentry.ingest import FeatureSpec, parse_csv
from flowsentry.synth import SynthConfig, gen, gen_csv


class TestConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert cfg.n_benign == 2000 and cfg.n_attack == 500 and cfg.features == 5
        assert cfg.shift_sigmas == 5.0

    def test_scalar_params_broadcast_per_feature(self):
        cfg = SynthConfig(features=3, sigma=0.1)
        assert cfg.sigma.tolist() == [0.1, 0.1, 0.1]

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_benign=0)
        with pytest.raises(ParameterError):
            SynthConfig(period=0)
        with pytest.raises(ParameterError):
            SynthConfig(sigma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("sigma", np.nan), ("sigma", np.inf), ("amplitude", np.nan), ("amplitude", np.inf),
        ("period", np.nan), ("shift_sigmas", np.nan), ("shift_sigmas", np.inf),
    ])
    def test_rejects_nan_and_infinite_values(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SynthConfig(**{field: value})

    def test_zero_sigma_allowed_for_noise_free_fixtures(self):
        benign, attack = gen(SynthConfig(n_benign=50, n_attack=10, sigma=0.0, seed=1))
        assert np.all(np.isfinite(benign.matrix))
        # with sigma 0 the shift (in sigma units) vanishes too
        assert attack.matrix[:, 0].std() <= SynthConfig().amplitude[0]


class TestGen:
    def test_labels_and_shapes(self):
        benign, attack = gen(SynthConfig(n_benign=120, n_attack=30, seed=2))
        assert benign.matrix.shape == (120, 5) and attack.matrix.shape == (30, 5)
        assert np.all(benign.labels == 0) and np.all(attack.labels == 1)

    def test_same_seed_reproduces_exactly(self):
        a_benign, a_attack = gen(SynthConfig(seed=3))
        b_benign, b_attack = gen(SynthConfig(seed=3))
        assert np.array_equal(a_benign.matrix, b_benign.matrix)
        assert np.array_equal(a_attack.matrix, b_attack.matrix)

    def test_shift_moves_class_means_by_five_sigma(self):
        cfg = SynthConfig(
            n_benign=20000, n_attack=20000, sigma=2.0, amplitude=0.0, seed=4
        )
        benign, attack = gen(cfg)
        gap = attack.matrix.mean(axis=0) - benign.matrix.mean(axis=0)
        assert np.allclose(gap, 5.0 * 2.0, atol=0.2)

    def test_zero_shift_classes_indistinguishable_in_mean(self):
        cfg = SynthConfig(
            n_benign=20000, n_attack=20000, sigma=2.0, amplitude=0.0,
            shift_sigmas=0.0, seed=5,
        )
        benign, attack = gen(cfg)
        gap = attack.matrix.mean(axis=0) - benign.matrix.mean(axis=0)
        assert np.allclose(gap, 0.0, atol=0.2)

    def test_benign_values_bounded_by_amplitude_plus_six_sigma(self):
        cfg = SynthConfig(n_benign=10_000, n_attack=0, sigma=0.5, amplitude=1.0, seed=6)
        benign, _ = gen(cfg)
        means = 100.0 * (np.arange(5) + 1)
        excess = np.abs(benign.matrix - means) - (1.0 + 6.0 * 0.5)
        assert np.max(excess) <= 0.0


class TestGenCsv:
    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = SynthConfig(n_benign=100, n_attack=20, seed=7)
        a = tmp_path / "a"
        b = tmp_path / "b"
        gen_csv(cfg, a)
        gen_csv(cfg, b)
        assert (a / "benign.csv").read_bytes() == (b / "benign.csv").read_bytes()
        assert (a / "attack.csv").read_bytes() == (b / "attack.csv").read_bytes()

    def test_output_parses_with_zero_skipped_rows(self, tmp_path, caplog):
        cfg = SynthConfig(n_benign=200, n_attack=50, seed=8)
        benign_path, attack_path = gen_csv(cfg, tmp_path)
        with caplog.at_level("WARNING"):
            benign = parse_csv(benign_path)
            attack = parse_csv(attack_path)
        assert len(benign) == 200 and len(attack) == 50
        assert "skipped" not in caplog.text
        assert benign.labels.tolist() == [0] * 200
        assert attack.labels.tolist() == [1] * 50

    def test_feature_count_must_match_spec(self, tmp_path):
        with pytest.raises(ParameterError):
            gen_csv(SynthConfig(features=3), tmp_path, FeatureSpec())
