import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry.autoencoder import (
    ModelConfig,
    ModelWeights,
    _forward,
    build,
    forward,
    load,
    loss_and_gradients,
    save,
    train,
)
from flowsentry.errors import (
    DivergenceError,
    ModelFormatError,
    ParameterError,
    ShapeError,
)
from flowsentry.lstm import (
    DenseParams,
    LstmParams,
    dense_forward,
    grad_check,
    lstm_cell_forward,
)
from flowsentry.windowing import WindowConfig, make_windows

DATA = Path(__file__).parent / "data"


def tiny_config(**overrides):
    base = dict(timesteps=4, features=3, units=5, dropout=0.0, epochs=3,
                batch_size=8, learning_rate=0.001, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def zero_model(cfg):
    """A model whose every weight is zero: it reconstructs every window as 0."""
    return ModelWeights(np.zeros_like(build(cfg).theta), cfg)


class TestBuild:
    def test_default_shapes(self):
        w = build(ModelConfig())
        assert w.encoder.w.shape == (21, 64) and w.encoder.b.shape == (64,)
        assert w.decoder.w.shape == (32, 64) and w.decoder.b.shape == (64,)
        assert w.projection.weight.shape == (5, 16)
        assert w.projection.bias.shape == (5,)
        assert w.theta.shape == (21 * 64 + 64 + 32 * 64 + 64 + 5 * 16 + 5,)

    def test_minimal_config(self):
        w = build(ModelConfig(timesteps=1, features=1, units=1))
        assert w.encoder.w.shape == (2, 4)
        assert w.decoder.w.shape == (2, 4)
        assert w.projection.weight.shape == (1, 1)

    def test_same_seed_identical_weights(self):
        a = build(ModelConfig(seed=9))
        b = build(ModelConfig(seed=9))
        assert np.array_equal(a.theta, b.theta)

    def test_different_seed_differs(self):
        a = build(ModelConfig(seed=1))
        b = build(ModelConfig(seed=2))
        assert not np.array_equal(a.encoder.w, b.encoder.w)

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            ModelConfig(units=0)
        with pytest.raises(ParameterError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ParameterError):
            ModelConfig(learning_rate=0.0)

    def test_every_array_is_a_view_into_theta(self):
        w = build(tiny_config())
        arrays = (w.encoder.w, w.encoder.b, w.decoder.w, w.decoder.b,
                  w.projection.weight, w.projection.bias)
        assert sum(a.size for a in arrays) == w.theta.size
        for a in arrays:
            assert a.base is w.theta or a.base is w.theta.base
            assert np.shares_memory(a, w.theta)
        w.theta[:] = 0.0
        assert all(not a.any() for a in arrays)

    def test_gates_drawn_in_per_gate_order(self):
        # independent oracle: the same rng stream drawn gate by gate as
        # (units, units + input_dim) blocks in the order f, i, candidate, o
        cfg = tiny_config(seed=4)
        w = build(cfg)
        rng = np.random.default_rng([4, 0])
        u = cfg.units
        for layer, width in ((w.encoder, u + cfg.features), (w.decoder, 2 * u)):
            limit = np.sqrt(6.0 / (width + u))
            for block in (0, 1, 3, 2):  # stacked column order is [f, i, o, g]
                expected = rng.uniform(-limit, limit, size=(u, width))
                assert np.array_equal(layer.w[:, block * u:(block + 1) * u].T, expected)
            assert not layer.b.any()
        limit = np.sqrt(6.0 / (u + cfg.features))
        assert np.array_equal(w.projection.weight,
                              rng.uniform(-limit, limit, size=(cfg.features, u)))

    def test_locate_names_an_entry(self):
        w = build(tiny_config())  # encoder.w is (8, 20), encoder.b (20,)
        assert w.locate(0) == "encoder.w[0, 0]"
        assert w.locate(21) == "encoder.w[1, 1]"
        assert w.locate(160) == "encoder.b[0]"
        assert w.locate(w.theta.size - 1) == "projection.bias[2]"
        with pytest.raises(IndexError):
            w.locate(w.theta.size)


class TestForward:
    def test_zero_weights_reconstruct_zero(self):
        cfg = tiny_config()
        w = ModelWeights.from_parts(
            encoder=LstmParams.zeros(cfg.units, cfg.features),
            decoder=LstmParams.zeros(cfg.units, cfg.units),
            projection=DenseParams(np.zeros((cfg.features, cfg.units)), np.zeros(cfg.features)),
            config=cfg,
        )
        x = np.random.default_rng(0).uniform(size=(6, cfg.timesteps, cfg.features))
        assert np.allclose(forward(w, x), 0.0)

    def test_output_shape_equals_input_shape(self):
        w = build(ModelConfig())
        x = np.random.default_rng(1).uniform(size=(1, 10, 5))
        assert forward(w, x).shape == (1, 10, 5)

    def test_matches_stepwise_composition_of_primitives(self):
        # independent re-composition: run encoder cell-by-cell, tile the final
        # hidden state, run decoder cell-by-cell, project each timestep
        cfg = tiny_config(seed=7)
        w = build(cfg)
        x = np.random.default_rng(7).uniform(size=(1, cfg.timesteps, cfg.features))
        u = cfg.units

        def step(params, h, c, x_j):
            z = x_j @ params.w[u:] + params.b
            h_new, c_new, tc = np.empty(u), np.empty(u), np.empty(u)
            lstm_cell_forward(params, z, h, c, h_new, c_new, tc)
            return h_new, c_new

        h, c = np.zeros(u), np.zeros(u)
        for j in range(cfg.timesteps):
            h, c = step(w.encoder, h, c, x[0, j])
        bottleneck = h
        h, c = np.zeros(u), np.zeros(u)
        expected = np.empty((cfg.timesteps, cfg.features))
        for j in range(cfg.timesteps):
            h, c = step(w.decoder, h, c, bottleneck)
            expected[j] = dense_forward(w.projection, h)

        out = forward(w, x, mode="infer")
        assert np.allclose(out[0], expected, atol=1e-12)

    @pytest.mark.parametrize("t,m,u", [(10, 5, 16), (2, 1, 32), (7, 3, 5)])
    def test_scoring_path_equals_the_training_reconstruction_bit_for_bit(self, t, m, u):
        # scoring projects a window view's distinct rows once and sends the
        # decoder's states straight through the projection; training projects
        # every step of its gathered batch copy, keeps every state and
        # projects them afterwards
        w = build(ModelConfig(timesteps=t, features=m, units=u, dropout=0.0, seed=4))
        rng = np.random.default_rng(5)
        windows = make_windows(rng.uniform(size=(80, m)), WindowConfig(t))
        for x in (windows[3:40], windows[rng.permutation(len(windows))[:37]], windows[6:7]):
            trained, _ = _forward(w, np.array(x), "train", None, keep_cache=True)
            assert forward(w, x, mode="infer").tobytes() == np.ascontiguousarray(trained).tobytes()

    def test_infer_mode_is_rng_independent(self):
        w = build(ModelConfig(seed=3))
        x = np.random.default_rng(2).uniform(size=(4, 10, 5))
        a = forward(w, x, mode="infer")
        b = forward(w, x, mode="infer", rng=np.random.default_rng(999))
        assert np.array_equal(a, b)

    def test_train_mode_requires_rng_when_dropout_on(self):
        w = build(ModelConfig(seed=3))
        x = np.zeros((2, 10, 5))
        with pytest.raises(ParameterError):
            forward(w, x, mode="train")

    def test_shape_mismatch(self):
        w = build(ModelConfig())
        with pytest.raises(ShapeError):
            forward(w, np.zeros((2, 9, 5)))
        with pytest.raises(ShapeError):
            forward(w, np.zeros((2, 10, 4)))


class TestMaeLoss:
    """The training loss is the mean absolute reconstruction error."""

    def loss(self, w, x):
        return loss_and_gradients(w, x, mode="infer")[0]

    def test_identity_is_zero(self):
        cfg = tiny_config()
        assert self.loss(zero_model(cfg), np.zeros((3, cfg.timesteps, cfg.features))) == 0.0

    def test_hand_computed_value(self):
        cfg = tiny_config()
        x = np.empty((2, cfg.timesteps, cfg.features))
        x[0], x[1] = 1.0, -3.0
        assert self.loss(zero_model(cfg), x) == 2.0
        w = build(cfg)
        assert self.loss(w, x) == np.mean(np.abs(forward(w, x) - x))

    def test_constant_offset_bound(self):
        cfg = tiny_config()
        x = np.random.default_rng(1).normal(size=(5, cfg.timesteps, cfg.features))
        base = self.loss(zero_model(cfg), x)
        for c in (0.01, 0.5, 2.0):
            assert abs(self.loss(zero_model(cfg), x + c) - base) <= c + 1e-12

    def test_shape_mismatch(self):
        cfg = tiny_config()
        with pytest.raises(ShapeError):
            self.loss(build(cfg), np.zeros((2, cfg.timesteps + 1, cfg.features)))
        with pytest.raises(ShapeError):
            self.loss(build(cfg), np.zeros((cfg.timesteps, cfg.features)))


def training_windows(cfg, n=40, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=(n + cfg.timesteps - 1, cfg.features))
    return make_windows(base, WindowConfig(cfg.timesteps))


class TestTrain:
    def test_zero_epochs_leaves_weights(self):
        cfg = tiny_config(epochs=0)
        w = build(cfg)
        before = w.theta.copy()
        w, report = train(w, training_windows(cfg))
        assert report.train_loss == []
        assert np.array_equal(w.theta, before)

    def test_same_seed_identical_loss_curves(self):
        cfg = tiny_config(epochs=4, dropout=0.2)
        batch = training_windows(cfg)
        _, rep_a = train(build(cfg), batch)
        _, rep_b = train(build(cfg), batch)
        assert rep_a.train_loss == rep_b.train_loss
        assert len(rep_a.epoch_seconds) == len(rep_b.epoch_seconds) == 4

    def test_batches_gathered_from_the_window_view_equal_a_copy(self):
        # make_windows returns a read-only strided view; train gathers its
        # mini-batches from it without a t-fold copy of the windows
        cfg = tiny_config(epochs=2, dropout=0.2, batch_size=7)
        view = training_windows(cfg)
        assert not view.flags.writeable and not view.flags.c_contiguous
        a, rep_a = train(build(cfg), view)
        b, rep_b = train(build(cfg), np.ascontiguousarray(view))
        assert np.array_equal(a.theta, b.theta)
        assert rep_a.train_loss == rep_b.train_loss

    def test_loss_decreases_on_learnable_data(self):
        cfg = tiny_config(epochs=30)
        w, report = train(build(cfg), training_windows(cfg))
        assert report.train_loss[-1] < report.train_loss[0]

    def test_constant_signal_reaches_1e3_within_100_epochs(self):
        # stock defaults (dropout 0.2 included); the model's
        # reconstruction MAE must converge even though the train-mode
        # objective carries dropout noise
        cfg = ModelConfig(epochs=100, seed=0)
        data = np.full((600, cfg.timesteps, cfg.features), 0.5)
        w, _ = train(build(cfg), data)
        assert np.mean(np.abs(forward(w, data) - data)) <= 1e-3

    def test_scaled_constant_rows_are_an_exact_fixed_point(self):
        # constant raw rows min-max scale to zeros, which the zero-state
        # network reproduces exactly; training has nothing to do
        cfg = ModelConfig(epochs=3, seed=0)
        data = np.zeros((70, cfg.timesteps, cfg.features))
        _, report = train(build(cfg), data)
        assert report.train_loss == [0.0, 0.0, 0.0]

    def test_divergence_raises_with_location(self):
        # a poisoned weight propagates NaN through the forward pass; the
        # trainer must stop with the epoch/step named rather than grind on
        cfg = tiny_config(epochs=2)
        w = build(cfg)
        w.projection.bias[0] = np.nan
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(w, training_windows(cfg))


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        w = build(ModelConfig(seed=5))
        path = tmp_path / "model.json"
        save(w, path)
        loaded = load(path)
        assert np.array_equal(w.theta, loaded.theta)
        assert loaded.config == w.config

    def test_save_is_deterministic(self, tmp_path):
        w = build(ModelConfig(seed=5))
        save(w, tmp_path / "a.json")
        save(w, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save(build(tiny_config()), path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save(build(tiny_config()), path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError):
            load(path)

    def test_file_from_per_gate_kernel_loads_and_scores(self, tmp_path):
        # model_v1.json was written by the per-gate kernel that preceded the
        # stacked layout, with the reconstruction it computed for `x`
        ref = json.loads((DATA / "model_v1_recon.json").read_text())
        w = load(DATA / "model_v1.json")
        recon = forward(w, np.array(ref["x"]))
        assert np.allclose(recon, np.array(ref["recon"]), rtol=0, atol=1e-12)
        save(w, tmp_path / "again.json")  # v1 on disk is unchanged
        assert (tmp_path / "again.json").read_bytes() == (DATA / "model_v1.json").read_bytes()

    @pytest.mark.parametrize("part, edit", [
        ("projection", lambda d: d["bias"].__setitem__(0, float("nan"))),
        ("encoder", lambda d: d["w_f"][0].__setitem__(1, float("inf"))),
        ("config", lambda d: d.update(units=0)),
        ("config", lambda d: d.update(learning_rate=float("nan"))),
    ], ids=["nan-bias", "inf-weight", "zero-units", "nan-learning-rate"])
    def test_a_non_finite_or_out_of_range_value_is_a_format_error(self, tmp_path, part, edit):
        path = tmp_path / "model.json"
        save(build(tiny_config()), path)
        doc = json.loads(path.read_text())
        edit(doc[part])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load(path)

    def test_inconsistent_gate_shapes_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save(build(tiny_config()), path)
        doc = json.loads(path.read_text())
        doc["encoder"]["w_o"] = doc["encoder"]["w_o"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            load(path)


class TestEndToEndGradients:
    def test_composed_model_passes_grad_check(self):
        cfg = tiny_config(seed=21)
        w = build(cfg)
        x = np.random.default_rng(22).uniform(size=(3, cfg.timesteps, cfg.features))

        def closure():
            return loss_and_gradients(w, x, mode="infer")

        report = grad_check(
            closure, w.theta, samples=120, rng=np.random.default_rng(23)
        )
        assert report.passed, f"max rel error {report.max_rel_error:.2e}"

    @given(
        b=st.integers(1, 4), t=st.integers(1, 4), u=st.integers(1, 4), d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(b=1, t=1, u=1, d=1, seed=0)
    @example(b=4, t=4, u=4, d=4, seed=1)
    @example(b=1, t=4, u=1, d=4, seed=2)
    @example(b=4, t=1, u=4, d=1, seed=3)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_grad_check_sweep_over_small_shapes(self, b, t, u, d, seed):
        cfg = ModelConfig(timesteps=t, features=d, units=u, dropout=0.0, seed=seed)
        w = build(cfg)
        x = np.random.default_rng(seed).uniform(size=(b, t, d))

        def closure():
            return loss_and_gradients(w, x, mode="infer")

        # every parameter is checked: at most 308 of them at u = d = 4
        report = grad_check(closure, w.theta, samples=w.theta.size,
                            rng=np.random.default_rng(seed))
        assert report.checked == w.theta.size
        assert report.max_rel_error <= 1e-5, (
            f"{report.max_rel_error:.2e} at {w.locate(report.worst_index)}"
        )

    def test_reused_gradient_buffer_matches_fresh_computation(self):
        cfg = tiny_config(seed=24, dropout=0.2)
        w = build(cfg)
        rng = np.random.default_rng(25)
        x1 = rng.uniform(size=(3, cfg.timesteps, cfg.features))
        x2 = rng.uniform(size=(5, cfg.timesteps, cfg.features))
        buf = np.full_like(w.theta, np.nan)
        loss_and_gradients(w, x1, "train", np.random.default_rng(26), out=buf)
        loss, grad = loss_and_gradients(w, x2, "train", np.random.default_rng(27), out=buf)
        fresh_loss, fresh = loss_and_gradients(w, x2, "train", np.random.default_rng(27))
        assert grad is buf
        assert loss == fresh_loss
        assert np.array_equal(buf, fresh)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_step_peak_grows_with_the_window_length_by_the_caches_and_three_state_arrays(
        self, dropout
    ):
        # the backward pass writes its gradients over the activations it has read and
        # rebuilds the hidden states over the cell states, so only the two layers'
        # caches, two (b, t, u) state arrays and two (b, t, m) arrays grow with t
        b, u, m, peaks = 64, 16, 5, []
        for t in (25, 100):
            cfg = ModelConfig(timesteps=t, features=m, units=u, dropout=dropout, seed=1)
            w = build(cfg)
            x = np.random.default_rng(2).uniform(size=(b, t, m))
            grad = np.empty_like(w.theta)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                loss_and_gradients(w, x, "train", np.random.default_rng(3), out=grad)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        steps = 100 - 25
        caches = 2 * 5 * steps * u * b * 8  # each cache holds 5 (u, b) arrays a step: gates, cell state
        states, recons = steps * b * u * 8, steps * b * m * 8  # a (b, t, u) and a (b, t, m) array
        assert peaks[1] - peaks[0] <= caches + 2 * states + 2 * recons, peaks
