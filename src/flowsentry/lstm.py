"""Recurrent numeric kernel.

Gated-cell forward pass, backpropagation through time, the shared
per-timestep dense projection, inverted dropout, Adam, and a
finite-difference gradient checker. Everything runs at float64.

Weight layout: the four gates of a layer are stacked in one matrix ``w`` of
shape (units + input_dim, 4 * units) acting on the row vector [h_prev, x],
and one bias ``b`` of shape (4 * units,). Column blocks are ordered
[f, i, o, g], so the three sigmoid gates are contiguous. The input rows
``w[units:]`` project each distinct input row once, before the time loop;
only the recurrent rows ``w[:units]`` are applied per step. Training caches no
hidden states (the backward pass rebuilds them); scoring keeps two state slots
and hands each decoder state to a per-step callback as it is made. Layer functions take a batch
of sequences (b, t, d); gradients mirror the input shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericError, ParameterError, ShapeError

def sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function in tanh form, 0.5 * (1 + tanh(x / 2)), written into
    `out` (which may be `x`); cannot overflow."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class LstmParams:
    """Stacked gate weights ``w`` (units + input_dim, 4*units) and bias ``b`` (4*units,)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        units = self.b.shape[0] // 4
        if self.b.shape != (4 * units,) or units < 1:
            raise ShapeError(f"gate bias must have shape (4 * units,), got {self.b.shape}")
        if self.w.ndim != 2 or self.w.shape[1] != 4 * units or self.w.shape[0] <= units:
            raise ShapeError(
                f"gate weights must have shape (units + input_dim, 4 * units), got {self.w.shape}"
            )

    @property
    def units(self) -> int:
        return self.b.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[0] - self.units

    @classmethod
    def zeros(cls, units: int, input_dim: int) -> "LstmParams":
        return cls(np.zeros((units + input_dim, 4 * units)), np.zeros(4 * units))

    @classmethod
    def glorot(cls, units: int, input_dim: int, rng: np.random.Generator) -> "LstmParams":
        """Uniform Glorot gate weights (fan_in = units+input_dim, fan_out = units), zero biases.

        Each gate is drawn as a (units, units + input_dim) block acting on
        [h, x], in the order f, i, g, o: the order of the per-gate model
        file, so a seed builds the same model whatever the stacking.
        """
        params = cls.zeros(units, input_dim)
        limit = np.sqrt(6.0 / (units + input_dim + units))
        for block in (0, 1, 3, 2):
            cols = slice(block * units, (block + 1) * units)
            params.w[:, cols] = rng.uniform(-limit, limit, size=(units, units + input_dim)).T
        return params


class LayerCache(NamedTuple):
    """One layer's gates and cell states, laid out (time, feature, batch); one backward pass consumes it."""

    x: np.ndarray  # (b, t, d) input, or (b, 1, d) when every step saw the same input
    cs: np.ndarray  # (t+1, u, b) cell states, cs[0] = 0; hidden states, h_j in cs[j+1], once consumed
    gates: np.ndarray  # (t, 4u, b) activations [f, i, o, g]; read-only gradients once consumed
    return_sequences: bool


def lstm_cell_forward(
    params: LstmParams, z: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
    h: np.ndarray, c: np.ndarray, tc: np.ndarray, pre: np.ndarray | None = None,
) -> None:
    """One gated-cell step, written into buffers; batch runs along the last axis.

    z: (4*units, ...) input pre-activation w[units:].T @ x + b of this step,
    or, when `pre` holds it, any buffer, which then takes the recurrent product
    with no temporary; z is overwritten with the gate activations [f, i, o, g].
    h_prev, c_prev: (units, ...) state going in; h, c, tc receive the new
    hidden state, cell state and tanh(cell state).

    [f i o] = sigmoid(z + w[:units].T @ h_prev)    g = tanh(...)
    c = f*c_prev + i*g                             h = o*tanh(c)
    """
    u = h.shape[0]
    product = np.matmul(params.w[:u].T, h_prev, out=None if pre is None else z)
    np.add(product, z if pre is None else pre, out=z)  # a + b has the bits of b + a
    sigmoid(z[: 3 * u], out=z[: 3 * u])
    g = z[3 * u :]
    np.tanh(g, out=g)
    np.multiply(z[:u], c_prev, out=c)
    np.multiply(z[u : 2 * u], g, out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(z[2 * u : 3 * u], tc, out=h)


def cache_size(b: int, t: int, units: int) -> int:
    """Floats in one layer's cache over a (b, t, .) batch: gates (t, 4u, b), cell states (t+1, u, b)."""
    return (5 * t + 1) * units * b


def lstm_layer_forward(
    params: LstmParams, seq: np.ndarray, return_sequences: bool = False, *,
    keep_cache: bool = True, store: np.ndarray | None = None,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, LayerCache | None]:
    """Run the cell over a sequence from a zero state.

    seq: (b, t, input_dim); each distinct input row is projected once: b for
    a stride-0 repeat along time (the decoder's input), b + t - 1 for a window
    view of b > 1 windows (x[k, j] == x[k + j, 0], as make_windows gives),
    else b * t. Returns all hidden states (b, t, units) when return_sequences,
    else the final one (b, units), plus the backward cache, laid out in
    `store` (cache_size floats) when given. keep_cache=False returns no cache.
    `on_step(j, h)` takes each hidden state (units, b) as it is made, in a slot
    that step j + 2 writes over; with no cache kept the output is then the final
    state (b, units). States are made in two slots and copied into the returned
    (b, t, units) array, which the caller may write over.
    """
    x = np.asarray(seq, dtype=float)
    if x.ndim != 3:
        raise ShapeError(f"sequence must be rank 3, got ndim={x.ndim}")
    if x.shape[-1] != params.input_dim:
        raise ShapeError(
            f"sequence has {x.shape[-1]} feature(s), layer expects {params.input_dim}"
        )
    b, t, d = x.shape
    if t < 1:
        raise ShapeError("sequence must contain at least one timestep")
    u = params.units
    s0, s1, s2 = x.strides
    # step j reads distinct rows j*shift.. (shift 0: repeat, 1: window view, None: all b*t)
    shift = 0 if s1 == 0 else 1 if s1 == s0 and b > 1 else None
    rows = x if shift is None else as_strided(x, (b + shift * (t - 1), d), (s0, s2), writeable=False)
    if not np.isfinite(rows).all():
        raise NumericError("non-finite value in layer input")

    if keep_cache:
        store = np.empty(cache_size(b, t, u)) if store is None else store
        gates = store[: 4 * t * u * b].reshape(t, 4 * u, b)
        cs = store[4 * t * u * b : cache_size(b, t, u)].reshape(t + 1, u, b)
    else:
        gates, cs = np.empty((t if shift is None else 1, 4 * u, b)), np.empty((2, u, b))
    hs = np.empty((2, u, b))  # step j writes slot j % 2
    seq = np.empty((b, t, u)) if return_sequences and (keep_cache or on_step is None) else None
    w_x = params.w[u:].T
    pre = np.matmul(w_x, x.transpose(1, 2, 0), out=gates) if shift is None else w_x @ rows.T
    pre += params.b[:, None]
    tc = np.empty((u, b))  # tanh(c) of the current step; the backward pass recomputes it
    cs[0] = 0.0  # also the hidden state going into step 0
    nc = len(cs)
    for j in range(t):
        h = hs[j % 2]
        lstm_cell_forward(
            params, gates[j % len(gates)], hs[(j - 1) % 2] if j else cs[0], cs[j % nc], h,
            cs[(j + 1) % nc], tc, None if shift is None else pre[:, j * shift : j * shift + b],
        )
        if seq is not None:
            seq[:, j] = h.T
        if on_step is not None:
            on_step(j, h)
    out = hs[(t - 1) % 2].T if seq is None else seq
    cache = LayerCache(x[:, :1] if shift == 0 else x, cs, gates, return_sequences) if keep_cache else None
    return out, cache


def lstm_layer_backward(
    params: LstmParams, cache: LayerCache | None, d_out: np.ndarray, out: LstmParams | None = None
) -> tuple[LstmParams, np.ndarray]:
    """Reverse-time accumulation of gradients through the cached forward pass.

    d_out matches the forward output: (b, t, units) when the forward
    returned sequences, else (b, units) applied at the final step.
    Returns (parameter gradients, input-sequence gradients (b, t, input_dim),
    or (b, 1, input_dim) for a repeated input: the gradient of its one distinct
    row); the parameter gradients overwrite `out` when it is given. The cache is
    consumed: step j's gate gradients overwrite its activations, h_j its cell
    state c_j, and a second backward pass on the same cache raises.
    """
    if cache is None:
        raise ShapeError("no cache; run a forward pass with keep_cache=True first")
    if not cache.gates.flags.writeable:
        raise ShapeError("cache already consumed by a backward pass; run the forward pass again")
    t, _, b = cache.gates.shape
    u, d = params.units, params.input_dim
    d_up = np.asarray(d_out, dtype=float)
    expected = (b, t, u) if cache.return_sequences else (b, u)
    if d_up.shape != expected:
        raise ShapeError(
            f"upstream gradient has shape {d_up.shape}, cache expects {expected}"
        )

    dz = cache.gates  # step j's gate gradients [f, i, o, g] overwrite its activations
    w_h = params.w[:u]
    dc, dc_next = np.zeros((u, b)), np.empty((u, b))
    if cache.return_sequences:
        d_seq = d_up.transpose(1, 2, 0)
        dh = np.zeros((u, b))
    else:
        dh = d_up.T.copy()  # written below; never a view of the caller's array
    tmp, tc, ds = np.empty((u, b)), np.empty((u, b)), np.empty((3 * u, b))
    for j in reversed(range(t)):
        if cache.return_sequences:
            dh += d_seq[j]
        a = dz[j]
        f, i, o, g = a[:u], a[u : 2 * u], a[2 * u : 3 * u], a[3 * u :]
        np.tanh(cache.cs[j + 1], out=tc)
        h = np.multiply(o, tc, out=cache.cs[j + 1])  # the forward's own product, over c's last read
        # dc = dc_next + dh * o * (1 - tanh(c)^2), where o * tanh(c) = h
        np.multiply(h, tc, out=tmp)
        np.subtract(o, tmp, out=tmp)
        tmp *= dh
        dc += tmp
        # s' = s(1-s) and (1 - g^2)*i, read before the slots are overwritten
        np.subtract(1.0, a[: 3 * u], out=ds)
        ds *= a[: 3 * u]
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= i
        np.multiply(dc, f, out=dc_next)
        # d_f = dc*c_prev*f', d_i = dc*g*i', d_o = dh*tanh(c)*o', d_g = (1 - g^2)*i*dc
        np.multiply(dc, cache.cs[j], out=f)
        np.multiply(dc, g, out=i)
        np.multiply(dh, tc, out=o)
        a[: 3 * u] *= ds
        np.multiply(tmp, dc, out=g)
        np.matmul(w_h, a, out=dh)
        dc, dc_next = dc_next, dc
    dz.flags.writeable = False  # consumed: it holds gradients now, not activations

    # the weight-gradient GEMMs (cs[j] holds step j's h_prev now), added in time order as np.sum does
    grads = out if out is not None else LstmParams.zeros(u, d)
    dz_b = dz.transpose(0, 2, 1)  # (t, b, 4u)
    repeated = cache.x.shape[1] < t
    dz_x = dz_b.sum(axis=0, keepdims=True) if repeated else dz_b
    # a repeated input's gradient is its one distinct row's: the steps' products added in time order
    d_x = np.empty((b, 1, d)) if repeated else np.matmul(dz_b, params.w[u:].T).transpose(1, 0, 2)
    products = [(cache.cs, dz_b, grads.w[:u]), (cache.x.transpose(1, 2, 0), dz_x, grads.w[u:]),
                (dz_b, np.broadcast_to(params.w[u:].T, (t, 4 * u, d)), d_x[:, 0])]
    for a, dz_a, w_a in products[: 2 + repeated]:
        np.matmul(a[0], dz_a[0], out=w_a)
        part = np.empty_like(w_a)
        for j in range(1, len(dz_a)):
            w_a += np.matmul(a[j], dz_a[j], out=part)
    np.sum(dz, axis=(0, 2), out=grads.b)
    return grads, d_x


@dataclass
class DenseParams:
    """Affine map applied identically at every timestep."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError("dense weight must be (out, in) with bias (out,)")

    @classmethod
    def glorot(cls, out_dim: int, in_dim: int, rng: np.random.Generator) -> "DenseParams":
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        return cls(rng.uniform(-limit, limit, size=(out_dim, in_dim)), np.zeros(out_dim))


def dense_forward(params: DenseParams, x: np.ndarray) -> np.ndarray:
    """y = x @ W.T + b over the trailing axis; any leading shape, one GEMM."""
    x = np.asarray(x, dtype=float)
    out_dim, in_dim = params.weight.shape
    if x.shape[-1] != in_dim:
        raise ShapeError(f"input has {x.shape[-1]} feature(s), dense expects {in_dim}")
    y = x.reshape(-1, in_dim) @ params.weight.T
    y += params.bias
    return y.reshape(x.shape[:-1] + (out_dim,))


def dense_backward(
    params: DenseParams, x: np.ndarray, d_out: np.ndarray, out: DenseParams | None = None,
    *, overwrite_x: bool = False,
) -> tuple[DenseParams, np.ndarray]:
    """Gradients of the affine map; d_out must match the forward output shape.
    The parameter gradients overwrite `out` when it is given; with overwrite_x
    the input gradient is written over `x`, which must be C-contiguous, once it is read."""
    x = np.asarray(x, dtype=float)
    d_out = np.asarray(d_out, dtype=float)
    out_dim, in_dim = params.weight.shape
    if d_out.shape != x.shape[:-1] + (out_dim,):
        raise ShapeError(
            f"upstream gradient shape {d_out.shape} does not match input {x.shape}"
        )
    grads = out if out is not None else DenseParams(np.empty((out_dim, in_dim)), np.empty(out_dim))
    flat_d = d_out.reshape(-1, out_dim)
    np.matmul(flat_d.T, x.reshape(-1, in_dim), out=grads.weight)
    np.sum(flat_d, axis=0, out=grads.bias)
    if overwrite_x and not x.flags.c_contiguous:
        raise ShapeError("overwrite_x needs a C-contiguous input to write the gradient over")
    d_x = x if overwrite_x else np.empty(x.shape)
    np.matmul(flat_d, params.weight, out=d_x.reshape(-1, in_dim))
    return grads, d_x


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask, rng.random(shape) >= rate, drawn 4096 doubles at a time."""
    if not 0 <= rate < 1:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    for lo in range(0, flat.size, 4096):
        np.greater_equal(rng.random(min(4096, flat.size - lo)), rate, out=flat[lo : lo + 4096])
    return keep


def dropout(x: np.ndarray, keep: np.ndarray | None, rate: float, out: np.ndarray | None = None) -> np.ndarray:
    """x * keep / (1 - rate), into `out` if given; bit for bit x * (keep / (1 - rate)). No keep: x."""
    if keep is None:
        return x
    y = np.multiply(x, keep, out=out)  # x * 1.0 is x, x * 0.0 keeps x's sign
    return np.multiply(y, 1.0 / (1.0 - rate), out=y)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the moment decays and the denominator's guard


@dataclass
class AdamState:
    """First/second-moment accumulators congruent to the parameter vector."""

    lr: float = 0.001
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState
) -> tuple[np.ndarray, AdamState]:
    """Standard Adam update with bias correction; parameters updated in place."""
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    m += (1.0 - ADAM_BETA1) * (grads - m)
    v += (1.0 - ADAM_BETA2) * (grads * grads - v)
    params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


GRAD_CHECK_FLOOR = 1e-5  # the least denominator of grad_check's relative error


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_index: int  # flat index into the checked array, -1 if none
    checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def grad_check(
    loss_and_grads: Callable[[], tuple[float, np.ndarray]],
    params: np.ndarray,
    tolerance: float = 1e-5,
    *,
    step: float = 1e-5,
    samples: int = 200,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Central-difference check of analytic gradients on a random subset of `params`.

    The closure must be deterministic (dropout disabled), read the live
    array `params`, which is perturbed in place, and return a gradient of
    the same shape. Relative error uses max(|analytic|, |numeric|,
    GRAD_CHECK_FLOOR) as denominator; the floor keeps float64 round-off in the
    difference quotient from dominating entries whose true gradient is near
    zero. A non-finite analytic or numeric value counts as an infinite error.
    """
    rng = rng or np.random.default_rng(0)
    # copied: the closure may write every call's gradient into one buffer
    grads = np.array(loss_and_grads()[1], dtype=float)
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    k = min(samples, params.size)
    worst, worst_index = 0.0, -1
    for i in rng.choice(params.size, size=k, replace=False):
        orig = params.flat[i]
        params.flat[i] = orig + step
        loss_plus, _ = loss_and_grads()
        params.flat[i] = orig - step
        loss_minus, _ = loss_and_grads()
        params.flat[i] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = grads.flat[i]
        # a non-finite loss or gradient fails: a NaN error would compare False below
        finite = np.isfinite((analytic, numeric)).all()
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRAD_CHECK_FLOOR) if finite else np.inf
        if rel > worst:
            worst, worst_index = rel, int(i)
    return GradCheckReport(worst, worst_index, k, tolerance)
