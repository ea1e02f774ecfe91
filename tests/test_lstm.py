import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import autoencoder
from flowsentry.errors import NumericError, ParameterError, ShapeError
from flowsentry.lstm import (
    AdamState,
    DenseParams,
    GradCheckReport,
    LstmParams,
    adam_step,
    dense_backward,
    dense_forward,
    dropout,
    dropout_mask,
    grad_check,
    lstm_cell_forward,
    lstm_layer_backward,
    lstm_layer_forward,
    sigmoid,
)
from stepwise import reconstruct

# ---------------------------------------------------------------------------
# Independent naive oracle: pure-python, loop-based gated cell over per-gate
# (units, units + input_dim) matrices acting on [h, x]. Kept separate from
# the numpy implementation on purpose.
# ---------------------------------------------------------------------------


GATES = ("f", "i", "o", "g")  # column-block order of LstmParams.w


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def gate(params, name):
    """Per-gate weight (units, units + input_dim) and bias (units,) of a stacked layer."""
    u = params.units
    k = GATES.index(name)
    return params.w[:, k * u : (k + 1) * u].T, params.b[k * u : (k + 1) * u]


def naive_cell(params, h_prev, c_prev, x):
    cat = list(h_prev) + list(x)

    def act(name, fn):
        w, b = gate(params, name)
        return [fn(sum(wi * ci for wi, ci in zip(w[u], cat)) + b[u]) for u in range(len(b))]

    f = act("f", _sig)
    i = act("i", _sig)
    g = act("g", math.tanh)
    c = [fu * cu + iu * gu for fu, cu, iu, gu in zip(f, c_prev, i, g)]
    o = act("o", _sig)
    h = [ou * math.tanh(cu) for ou, cu in zip(o, c)]
    return h, c


def naive_layer(params, seq):
    units = params.units
    h, c = [0.0] * units, [0.0] * units
    outputs = []
    for x in seq:
        h, c = naive_cell(params, h, c, list(x))
        outputs.append(h)
    return outputs


def cell_step(params, h_prev, c_prev, x):
    """One unbatched step through lstm_cell_forward; returns h, c, tanh(c), gates by name."""
    u = params.units
    z = np.asarray(x, dtype=float) @ params.w[u:] + params.b
    h, c, tc = np.empty(u), np.empty(u), np.empty(u)
    lstm_cell_forward(params, z, np.asarray(h_prev, float), np.asarray(c_prev, float), h, c, tc)
    return h, c, tc, dict(zip(GATES, z.reshape(4, u)))


def random_cell(units, input_dim, seed):
    rng = np.random.default_rng(seed)
    return LstmParams.glorot(units, input_dim, rng)


class TestCellForward:
    def test_zero_weights_zero_cell(self):
        p = LstmParams.zeros(3, 2)
        h, c, _, gates = cell_step(p, np.zeros(3), np.zeros(3), np.zeros(2))
        assert np.allclose(gates["f"], 0.5) and np.allclose(gates["i"], 0.5)
        assert np.allclose(gates["o"], 0.5)
        assert np.allclose(gates["g"], 0.0)
        assert np.allclose(c, 0.0) and np.allclose(h, 0.0)

    def test_zero_weights_unit_cell(self):
        p = LstmParams.zeros(1, 1)
        h, c, _, _ = cell_step(p, np.zeros(1), np.ones(1), np.zeros(1))
        assert c[0] == pytest.approx(0.5, abs=1e-12)
        assert h[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)

    def test_scalar_all_ones_case_matches_oracle(self):
        p = LstmParams(np.ones((2, 4)), np.zeros(4))
        h, c, _, _ = cell_step(p, np.zeros(1), np.zeros(1), np.ones(1))
        s1, t1 = _sig(1.0), math.tanh(1.0)
        expect_c = s1 * 0.0 + s1 * t1
        assert c[0] == pytest.approx(expect_c, abs=1e-12)
        assert h[0] == pytest.approx(s1 * math.tanh(expect_c), abs=1e-12)

    def test_dimension_mismatch(self):
        # shapes are checked once per layer, and when the stacked weights are built
        p = LstmParams.zeros(3, 2)
        with pytest.raises(ShapeError):
            lstm_layer_forward(p, np.zeros((1, 1, 4)))
        with pytest.raises(ShapeError):
            lstm_layer_forward(p, np.zeros(2))
        with pytest.raises(ShapeError):  # a single sequence must come as a batch of one
            lstm_layer_forward(p, np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            LstmParams(np.zeros((5, 12)), np.zeros(8))
        with pytest.raises(ShapeError):
            LstmParams(np.zeros((3, 12)), np.zeros(12))

    def test_non_finite_input(self):
        p = LstmParams.zeros(2, 2)
        with pytest.raises(NumericError):
            lstm_layer_forward(p, np.array([[[1.0, np.nan]]]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_gate_ranges(self, seed):
        rng = np.random.default_rng(seed)
        p = LstmParams.glorot(4, 3, rng)
        _, _, tc, gates = cell_step(p, rng.normal(size=4), rng.normal(size=4), rng.normal(size=3))
        for name in ("f", "i", "o"):
            assert np.all(gates[name] > 0) and np.all(gates[name] < 1)
        assert np.all(np.abs(gates["g"]) < 1)
        assert np.all(np.abs(tc) < 1)

    @pytest.mark.parametrize("shared_projection", [False, True])
    def test_aliased_buffers_give_the_bits_of_separate_ones(self, shared_projection):
        # h may be h_prev, c may be c_prev and tc the step's g rows, as scoring
        # passes them: each is written only after its last read
        u, b = 3, 5
        rng = np.random.default_rng(23)
        p = random_cell(u, 2, seed=22)
        pre = rng.normal(size=(4 * u, b))
        h_prev, c_prev = rng.normal(size=(u, b)), rng.normal(size=(u, b))
        z, h, c, tc = pre.copy(), np.empty((u, b)), np.empty((u, b)), np.empty((u, b))
        lstm_cell_forward(p, z, h_prev, c_prev, h, c, tc, pre if shared_projection else None)
        z_a, h_a, c_a = pre.copy(), h_prev.copy(), c_prev.copy()
        lstm_cell_forward(p, z_a, h_a, c_a, h_a, c_a, z_a[3 * u :], pre if shared_projection else None)
        assert h_a.tobytes() == h.tobytes() and c_a.tobytes() == c.tobytes()
        assert z_a[3 * u :].tobytes() == tc.tobytes() and z_a[: 3 * u].tobytes() == z[: 3 * u].tobytes()

    def test_gate_ranges_survive_extreme_inputs(self):
        # float64 saturates sigmoid/tanh at the interval endpoints; values
        # must stay inside the closed interval and finite
        rng = np.random.default_rng(0)
        p = LstmParams.glorot(4, 3, rng)
        _, c, _, gates = cell_step(
            p, rng.normal(size=4), rng.normal(size=4), np.array([1e6, -1e6, 1e3])
        )
        for name in ("f", "i", "o"):
            assert np.all(gates[name] >= 0) and np.all(gates[name] <= 1)
        assert np.all(np.abs(gates["g"]) <= 1)
        assert np.all(np.isfinite(c))


class TestLayerForward:
    def test_zero_weights_any_sequence(self):
        p = LstmParams.zeros(4, 3)
        out, _ = lstm_layer_forward(p, np.random.default_rng(0).normal(size=(1, 6, 3)), True)
        assert np.allclose(out, 0.0)

    def test_single_step_equals_cell(self):
        p = random_cell(3, 2, seed=10)
        x = np.array([[[0.3, -0.7]]])
        out, _ = lstm_layer_forward(p, x, return_sequences=False)
        h, _, _, _ = cell_step(p, np.zeros(3), np.zeros(3), x[0, 0])
        assert np.allclose(out[0], h)

    def test_three_steps_match_naive_oracle(self):
        p = random_cell(2, 3, seed=42)
        seq = np.random.default_rng(42).normal(size=(3, 3))
        all_h, _ = lstm_layer_forward(p, seq[None], return_sequences=True)
        last_h, _ = lstm_layer_forward(p, seq[None], return_sequences=False)
        expected = naive_layer(p, seq)
        assert np.allclose(all_h[0], np.array(expected), atol=1e-12)
        assert np.allclose(last_h[0], np.array(expected[-1]), atol=1e-12)

    def test_batched_matches_per_sequence(self):
        p = random_cell(3, 2, seed=3)
        batch = np.random.default_rng(4).normal(size=(5, 4, 2))
        out, _ = lstm_layer_forward(p, batch, return_sequences=True)
        for b in range(5):
            single, _ = lstm_layer_forward(p, batch[b : b + 1], return_sequences=True)
            assert np.allclose(out[b], single[0])

    def test_determinism(self):
        p = random_cell(4, 3, seed=8)
        seq = np.random.default_rng(9).normal(size=(1, 7, 3))
        a, _ = lstm_layer_forward(p, seq, True)
        b, _ = lstm_layer_forward(p, seq, True)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_without_cache_gives_identical_output(self, return_sequences):
        # without a cache only the final state is returned
        p = random_cell(3, 2, seed=14)
        batch = np.random.default_rng(15).normal(size=(4, 6, 2))
        cached, cache = lstm_layer_forward(p, batch, return_sequences)
        bare, none = lstm_layer_forward(p, batch, return_sequences, keep_cache=False)
        assert cache is not None and none is None
        assert np.array_equal(cached[:, -1] if return_sequences else cached, bare)

    @pytest.mark.parametrize("t", [1, 2, 6])
    def test_step_callback_sees_every_hidden_state_and_the_final_one_is_returned(self, t):
        p = random_cell(3, 2, seed=18)
        batch = np.random.default_rng(19).normal(size=(4, t, 2))
        states, _ = lstm_layer_forward(p, batch, True)
        seen = []
        out, cache = lstm_layer_forward(
            p, batch, True, keep_cache=False, on_step=lambda j, h: seen.append((j, h.T.copy()))
        )
        assert cache is None and [j for j, _ in seen] == list(range(t))
        assert all(np.array_equal(h, states[:, j]) for j, h in seen)
        assert out.tobytes() == np.ascontiguousarray(states[:, -1]).tobytes()

    def test_repeated_input_projected_once_matches_materialized(self):
        # a stride-0 repeat (the decoder's input) takes the projected-once
        # path; it must agree with the same values stored t times
        p = random_cell(3, 2, seed=16)
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(4, 2))
        view = np.broadcast_to(x0[:, None, :], (4, 5, 2))
        upstream = rng.normal(size=(4, 5, 3))
        out_v, cache_v = lstm_layer_forward(p, view, True)
        out_m, cache_m = lstm_layer_forward(p, np.array(view), True)
        assert np.allclose(out_v, out_m, rtol=0, atol=1e-15)
        g_v, dx_v = lstm_layer_backward(p, cache_v, upstream)
        g_m, dx_m = lstm_layer_backward(p, cache_m, upstream)
        assert np.allclose(g_v.w, g_m.w, rtol=1e-13, atol=1e-15)
        assert np.allclose(g_v.b, g_m.b, rtol=1e-13, atol=1e-15)
        # the repeat's gradient is that of its one distinct row: the steps' gradients summed
        assert dx_v.shape == (4, 1, 2)
        assert dx_v.tobytes() == dx_m.sum(axis=1, keepdims=True).tobytes()


def fd_layer_gradients(p, seq, upstream, return_sequences, h=1e-6):
    """Finite-difference parameter gradients of loss = sum(upstream * out)."""

    def loss():
        out, _ = lstm_layer_forward(p, seq, return_sequences)
        return float(np.sum(upstream * out))

    grads = {}
    for name, arr in (("w", p.w), ("b", p.b)):
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + h
            lp = loss()
            arr.flat[idx] = orig - h
            lm = loss()
            arr.flat[idx] = orig
            g.flat[idx] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


class TestLayerBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        p = random_cell(3, 2, seed=1)
        seq = np.random.default_rng(2).normal(size=(1, 4, 2))
        out, cache = lstm_layer_forward(p, seq, True)
        grads, d_x = lstm_layer_backward(p, cache, np.zeros_like(out))
        assert np.allclose(grads.w, 0.0) and np.allclose(grads.b, 0.0)
        assert np.allclose(d_x, 0.0)

    def test_one_unit_one_step_matches_finite_differences(self):
        p = random_cell(1, 1, seed=5)
        seq = np.array([[[0.37]]])
        upstream = np.array([[1.0]])
        _, cache = lstm_layer_forward(p, seq, return_sequences=False)
        grads, _ = lstm_layer_backward(p, cache, upstream)
        fd = fd_layer_gradients(p, seq, upstream, return_sequences=False)
        for name, arr in (("w", grads.w), ("b", grads.b)):
            assert np.allclose(arr, fd[name], rtol=1e-5, atol=1e-9), name

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_five_steps_match_finite_differences(self, return_sequences):
        p = random_cell(3, 2, seed=6)
        rng = np.random.default_rng(7)
        seq = rng.normal(size=(1, 5, 2))
        shape = (1, 5, 3) if return_sequences else (1, 3)
        upstream = rng.normal(size=shape)
        _, cache = lstm_layer_forward(p, seq, return_sequences)
        grads, _ = lstm_layer_backward(p, cache, upstream)
        fd = fd_layer_gradients(p, seq, upstream, return_sequences)
        for name, arr in (("w", grads.w), ("b", grads.b)):
            denom = np.maximum(np.abs(arr) + np.abs(fd[name]), 1e-4)
            assert np.max(np.abs(arr - fd[name]) / denom) < 1e-5, name

    def test_input_gradients_match_finite_differences(self):
        p = random_cell(2, 3, seed=11)
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(1, 4, 3))
        upstream = rng.normal(size=(1, 4, 2))
        _, cache = lstm_layer_forward(p, seq, True)
        _, d_x = lstm_layer_backward(p, cache, upstream)
        h = 1e-6
        fd = np.zeros_like(seq)
        for idx in range(seq.size):
            orig = seq.flat[idx]
            seq.flat[idx] = orig + h
            lp = float(np.sum(upstream * lstm_layer_forward(p, seq, True)[0]))
            seq.flat[idx] = orig - h
            lm = float(np.sum(upstream * lstm_layer_forward(p, seq, True)[0]))
            seq.flat[idx] = orig
            fd.flat[idx] = (lp - lm) / (2 * h)
        assert np.allclose(d_x, fd, rtol=1e-5, atol=1e-8)

    def test_shape_mismatch_raises(self):
        p = random_cell(2, 2, seed=13)
        _, cache = lstm_layer_forward(p, np.zeros((1, 3, 2)), True)
        with pytest.raises(ShapeError):
            lstm_layer_backward(p, cache, np.zeros((1, 2, 2)))
        _, none = lstm_layer_forward(p, np.zeros((1, 3, 2)), True, keep_cache=False)
        with pytest.raises(ShapeError):
            lstm_layer_backward(p, none, np.zeros((1, 3, 2)))

    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("units", [1, 3])
    def test_upstream_gradient_is_left_unchanged(self, return_sequences, units):
        # one window (b = 1) makes the transposed upstream gradient look
        # contiguous; the backward pass must still copy before writing
        p = random_cell(units, 2, seed=20)
        seq = np.random.default_rng(21).normal(size=(1, 4, 2))
        out, cache = lstm_layer_forward(p, seq, return_sequences)
        upstream = np.random.default_rng(22).normal(size=out.shape)
        before = upstream.copy()
        lstm_layer_backward(p, cache, upstream)
        assert np.array_equal(upstream, before)

    def test_out_buffer_is_overwritten_not_accumulated(self):
        p = random_cell(3, 2, seed=18)
        rng = np.random.default_rng(19)
        batch = rng.normal(size=(4, 5, 2))
        upstream = rng.normal(size=(4, 3))
        # a backward pass consumes its cache, so each pass gets its own identical one
        _, cache = lstm_layer_forward(p, batch, False)
        _, twin = lstm_layer_forward(p, batch, False)
        fresh, _ = lstm_layer_backward(p, cache, upstream)
        out = LstmParams(np.full_like(p.w, 7.0), np.full_like(p.b, 7.0))
        grads, _ = lstm_layer_backward(p, twin, upstream, out=out)
        assert grads is out
        assert np.array_equal(out.w, fresh.w) and np.array_equal(out.b, fresh.b)

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_a_consumed_cache_raises_instead_of_returning_gradients(self, return_sequences):
        p = random_cell(3, 2, seed=23)
        seq = np.random.default_rng(24).normal(size=(4, 5, 2))
        out, cache = lstm_layer_forward(p, seq, return_sequences)
        upstream = np.random.default_rng(25).normal(size=out.shape)
        lstm_layer_backward(p, cache, upstream)
        with pytest.raises(ShapeError, match="consumed"):
            lstm_layer_backward(p, cache, upstream)

    @pytest.mark.parametrize("b", [1, 4])
    def test_backward_rebuilds_the_hidden_states_over_the_cell_states(self, b):
        # decoder-style: the returned states are the oracle for cs[1:] after the pass
        p = random_cell(3, 2, seed=26)
        rng = np.random.default_rng(27)
        seq = rng.normal(size=(b, 6, 2))
        out, cache = lstm_layer_forward(p, seq, True)
        lstm_layer_backward(p, cache, rng.normal(size=out.shape))
        assert cache.cs[1:].transpose(2, 0, 1).tobytes() == np.ascontiguousarray(out).tobytes()
        assert not cache.cs[0].any()
        with pytest.raises(ShapeError, match="consumed"):
            lstm_layer_backward(p, cache, rng.normal(size=out.shape))
        # encoder-style: only the final state is returned, and cs[t] holds it
        final, cache = lstm_layer_forward(p, seq, False)
        lstm_layer_backward(p, cache, rng.normal(size=final.shape))
        assert cache.cs[6].T.tobytes() == np.ascontiguousarray(final).tobytes()
        with pytest.raises(ShapeError, match="consumed"):
            lstm_layer_backward(p, cache, rng.normal(size=final.shape))


class TestDense:
    def test_overwrite_x_writes_the_input_gradient_over_a_contiguous_input(self):
        rng = np.random.default_rng(8)
        p = DenseParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        x = rng.normal(size=(4, 5, 3))
        upstream = rng.normal(size=(4, 5, 2))
        fresh, d_fresh = dense_backward(p, x.copy(), upstream)
        grads, d_x = dense_backward(p, x, upstream, overwrite_x=True)
        assert d_x is x
        assert np.array_equal(d_x, d_fresh)
        assert np.array_equal(grads.weight, fresh.weight) and np.array_equal(grads.bias, fresh.bias)
        # a view that reshaping would copy cannot take the gradient; it is refused, not dropped
        view = rng.normal(size=(5, 4, 3)).transpose(1, 0, 2)
        with pytest.raises(ShapeError, match="C-contiguous"):
            dense_backward(p, view, upstream, overwrite_x=True)

    def test_identity_weight(self):
        p = DenseParams(np.eye(3), np.zeros(3))
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.array_equal(dense_forward(p, x), x)

    def test_zero_weight_gives_bias(self):
        p = DenseParams(np.zeros((2, 3)), np.array([5.0, -1.0]))
        out = dense_forward(p, np.ones((4, 3)))
        assert np.allclose(out, [5.0, -1.0])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = DenseParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        x = rng.normal(size=(5, 4, 3))
        upstream = rng.normal(size=(5, 4, 2))
        grads, d_x = dense_backward(p, x, upstream)

        h = 1e-6
        for arr, g in ((p.weight, grads.weight), (p.bias, grads.bias)):
            for idx in range(arr.size):
                orig = arr.flat[idx]
                arr.flat[idx] = orig + h
                lp = float(np.sum(upstream * dense_forward(p, x)))
                arr.flat[idx] = orig - h
                lm = float(np.sum(upstream * dense_forward(p, x)))
                arr.flat[idx] = orig
                assert g.flat[idx] == pytest.approx((lp - lm) / (2 * h), rel=1e-6, abs=1e-9)
        assert np.allclose(d_x, upstream @ p.weight)

    def test_shape_mismatch(self):
        p = DenseParams(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            dense_forward(p, np.zeros((4, 4)))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 10))
        assert np.array_equal(x * dropout_mask(x.shape, 0.0, np.random.default_rng(1)), x)

    def test_scoring_is_identity(self):
        # scoring draws no mask: a model built with dropout 0.2 reconstructs
        # exactly like the same weights with dropout switched off
        cfg = autoencoder.ModelConfig(timesteps=4, features=3, units=5, dropout=0.2)
        w = autoencoder.build(cfg)
        plain = autoencoder.ModelWeights(w.theta.copy(), autoencoder.ModelConfig(
            timesteps=4, features=3, units=5, dropout=0.0))
        x = np.random.default_rng(0).uniform(size=(6, 4, 3))
        assert np.array_equal(reconstruct(w, x), autoencoder._forward(plain, x, np.random.default_rng(1))[0])

    def test_train_mode_statistics(self):
        rng = np.random.default_rng(123)
        x = np.ones(100_000)
        out = dropout(x, dropout_mask(x.shape, 0.2, rng), 0.2)
        survivors = np.count_nonzero(out)
        assert abs(survivors / x.size - 0.8) < 0.01
        assert abs(out.mean() - 1.0) < 0.02  # inverted scaling preserves the mean
        assert np.allclose(out[out != 0], 1.0 / 0.8)

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.3, 0.5, 0.9])
    def test_boolean_mask_route_equals_the_scaled_float_mask_bit_for_bit(self, rate):
        # more draws than one chunk, and not a multiple of it; negative x makes -0.0
        shape = (3, 1500, 7)
        x = np.random.default_rng(5).normal(size=shape)
        keep = dropout_mask(shape, rate, np.random.default_rng(6))
        whole = np.random.default_rng(6).random(shape) >= rate
        assert keep.dtype == bool and np.array_equal(keep, whole)
        expected = x * (whole / (1.0 - rate))
        assert dropout(x, keep, rate).tobytes() == expected.tobytes()
        in_place = x.copy()
        assert dropout(in_place, keep, rate, out=in_place) is in_place
        assert in_place.tobytes() == expected.tobytes()

    def test_invalid_rate(self):
        with pytest.raises(ParameterError):
            dropout_mask((3,), 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            dropout_mask((3,), -0.1, np.random.default_rng(0))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = np.array([1.0, -2.0])
        state = AdamState()
        adam_step(params, np.zeros(2), state)
        assert params.tolist() == [1.0, -2.0]
        assert state.step == 1

    def test_first_step_magnitude_is_lr_times_sign(self):
        params = np.zeros(3)
        grads = np.array([0.5, -2.0, 1e-4])
        state = AdamState(lr=0.001)
        adam_step(params, grads, state)
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert np.allclose(params, -0.001 * np.sign(grads), rtol=1e-3)

    def test_two_constant_steps_match_hand_recurrence(self):
        g = 0.3
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = np.array([0.0])
        state = AdamState(lr=lr)
        for _ in range(2):
            adam_step(params, np.array([g]), state)

        # independent scalar recurrence
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        assert params[0] == pytest.approx(theta, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros(3), AdamState())
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros((2, 1)), AdamState())


class TestGradCheck:
    @staticmethod
    def quadratic(params, loss=None, grad=None):
        """Closure for loss = sum(params^2), with the loss or gradient replaced when given."""

        def closure():
            value = float(params @ params) if loss is None else loss(params)
            return value, 2.0 * params if grad is None else grad

        return closure

    def test_non_finite_loss_fails(self):
        params = np.array([1.0, -2.0, 0.5])
        report = grad_check(self.quadratic(params, loss=lambda p: math.nan), params, samples=3)
        assert not report.passed
        assert report.max_rel_error == math.inf and report.worst_index >= 0

    def test_non_finite_analytic_gradient_fails(self):
        params = np.array([1.0, -2.0, 0.5])
        report = grad_check(self.quadratic(params, grad=np.full(3, np.nan)), params, samples=3)
        assert not report.passed
        assert report.max_rel_error == math.inf and report.worst_index >= 0

    def test_non_finite_numeric_gradient_fails(self):
        # finite at params, infinite a step above one entry: only that entry's quotient is
        params = np.array([1.0, -2.0, 0.5])

        def loss(p):
            return math.inf if p[1] > -2.0 else float(p @ p)

        report = grad_check(self.quadratic(params, loss=loss), params, samples=3)
        assert not report.passed
        assert report.max_rel_error == math.inf and report.worst_index == 1

    def test_linear_model_is_near_exact(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 4))

        def closure():
            pred = x @ w.T
            loss = float(np.mean((pred - y) ** 2))
            grad = 2.0 * (pred - y).T @ x / pred.size
            return loss, grad

        report = grad_check(closure, w, samples=12, rng=np.random.default_rng(1))
        assert report.max_rel_error < 1e-8
        assert report.passed

    def test_corrupted_gradient_is_detected(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(10, 3))

        def closure():
            pred = x @ w.T
            loss = float(np.mean(pred**2))
            grad = 2.0 * pred.T @ x / pred.size
            return loss, grad * 1.5  # deliberately wrong

        report = grad_check(closure, w, samples=12, rng=np.random.default_rng(1))
        assert report.max_rel_error > report.tolerance
        assert not report.passed

    def test_report_names_worst_parameter(self):
        params = np.array([1.0])

        def closure():
            return float(params[0] ** 2), 2 * params

        report = grad_check(closure, params, samples=1)
        assert isinstance(report, GradCheckReport)
        assert report.worst_index == 0
        assert report.checked == 1

    def test_gradient_buffer_reused_by_the_closure_is_copied(self):
        # a closure that writes every gradient into one buffer must not let
        # the perturbed evaluations overwrite the analytic gradient
        params = np.array([1.0, -2.0])
        buf = np.empty(2)

        def closure():
            np.multiply(params, 2.0, out=buf)
            return float(params @ params), buf

        report = grad_check(closure, params, samples=2, step=1e-3)
        assert report.max_rel_error < 1e-9


class TestSigmoid:
    def test_extreme_values_do_not_overflow(self):
        out = sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]), out=np.empty(5))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[2] == 0.5

    def test_tanh_form_matches_logistic_and_works_in_place(self):
        x = np.linspace(-30.0, 30.0, 241)
        expected = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(sigmoid(x, out=np.empty_like(x)), expected, rtol=1e-14, atol=1e-16)
        buf = x.copy()
        assert sigmoid(buf, out=buf) is buf
        assert np.array_equal(buf, sigmoid(x, out=np.empty_like(x)))
