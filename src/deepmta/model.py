"""Numeric core of the conversion model.

A stack of recurrent cells with peephole connections whose cell and hidden
states are written through a periodic, piecewise-linear time gate, plus layer
normalization on gate pre-activations and inverted dropout between layers.
Gradients are hand-derived reverse-mode for this one architecture. The
single-step `cell_forward` is the readable reference; `cell_step` is the one
batched step kernel behind training, eval and attribution. It runs in two
modes: with cache slots (a training scan writes each step's gates and layer
norm statistics into the arrays `_layer_backward` reads) and without (eval
and the attribution trie keep no backward cache). Its dtype follows its
input: the attribution trie runs it in float32, everything else in
float64. Tests cover the kernel against the reference and its two modes
against each other.

`param_shapes` is the one table of the tensors' names, shapes and order.
`ModelParams` checks every tensor against it once, as it copies it into one
vector, `ModelParams.flat`, of which each tensor is then a view. Its views,
`init_params` and the checkpoint loader build the model's fields through one
assembly from a mapping keyed as the table keys it. `backward_batch` writes
the gradients into a fresh vector of the same layout, so an optimizer step is
a few whole-vector operations. The backward's reverse loop carries only the
recurrence; a test keeps a per-step loop as its oracle. The time gates'
closed-phase leak rate is one hyperparameter of the model, `ModelParams.alpha`.

A checkpoint is JSON. `save_checkpoint` writes format version 2, in which
each tensor's data is one base64 string of its row-major, little-endian
float64 bytes: loading decodes bytes instead of parsing a decimal number per
weight. `load_checkpoint` also reads format version 1, whose tensor data are
flat lists of numbers. The two versions differ only in that decoder; every
other check, and the finiteness check in `ModelParams`, is shared.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    NumericError,
    ParameterError,
    TraceError,
    ValidationError,
)
from .journey import Vocabulary, finite_number, read_json, vocabulary_from_dict

LN_EPS = 1e-5
N_CLASSES = 2
ALPHA_TRAIN_DEFAULT = 1e-3
RON_INIT = 0.05
TAU_MIN = 1e-2
RON_CLAMP = 1e-3


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow for large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# time gate
# ---------------------------------------------------------------------------


def _gate_phase(t, tau, s):
    return np.mod(t - s, tau) / tau


def _gate_forward(t, tau, s, r_on, alpha):
    """Return (k, phi) with k piecewise in phi: rise to 1 over [0, r_on/2),
    fall back to 0 over [r_on/2, r_on), and leak alpha*phi elsewhere."""
    phi = _gate_phase(t, tau, s)
    k = np.where(
        phi < 0.5 * r_on,
        2.0 * phi / r_on,
        np.where(phi < r_on, 2.0 - 2.0 * phi / r_on, alpha * phi),
    )
    return k, phi


def _check_gate_ranges(tau, r_on):
    if np.any(tau <= 0):
        raise ParameterError("tau must be positive")
    if np.any(r_on <= 0) or np.any(r_on >= 1):
        raise ParameterError("r_on must lie in (0, 1)")


def _check_alpha(alpha):
    if not np.isfinite(alpha) or alpha < 0:
        raise ParameterError("alpha must be a finite value >= 0")


def time_gate(t, tau, s, r_on, alpha):
    """Openness of the periodic time gate, elementwise over units.

    `t` is the event time in hours; tau, s, r_on may be scalars or vectors of
    per-unit periods, phase shifts, and open ratios. alpha is the closed-phase
    leak rate.
    """
    tau, s, r_on, t = (np.asarray(v, dtype=np.float64) for v in (tau, s, r_on, t))
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(s)) and np.all(np.isfinite(r_on))):
        raise ParameterError("time gate parameters must be finite")
    _check_gate_ranges(tau, r_on)
    _check_alpha(alpha)
    if not np.all(np.isfinite(t)):
        raise ParameterError("t must be finite")
    k, _ = _gate_forward(t, tau, s, r_on, float(alpha))
    return float(k) if np.ndim(k) == 0 else k


def _gate_backward(dk, phi, t_minus_s, tau, r_on, alpha):
    """Per-element gradients of k w.r.t. tau, s, r_on.

    The branch break points (phi exactly 0, r_on/2, or r_on) take
    subgradient 0. phi is treated as locally linear in tau and s, which holds
    away from the wrap point of the modulo.
    """
    rise = phi < 0.5 * r_on
    fall = (~rise) & (phi < r_on)
    dk_dphi = np.where(rise, 2.0 / r_on, np.where(fall, -2.0 / r_on, alpha))
    dk_dron = np.where(
        rise,
        -2.0 * phi / (r_on * r_on),
        np.where(fall, 2.0 * phi / (r_on * r_on), 0.0),
    )
    breakpoint_mask = (phi == 0.0) | (phi == 0.5 * r_on) | (phi == r_on)
    dk_dphi = np.where(breakpoint_mask, 0.0, dk_dphi)
    dk_dron = np.where(breakpoint_mask, 0.0, dk_dron)
    g = dk * dk_dphi
    d_tau = g * (-t_minus_s / (tau * tau))
    d_s = g * (-1.0 / tau)
    d_ron = dk * dk_dron
    return d_tau, d_s, d_ron


# ---------------------------------------------------------------------------
# layer normalization and dropout
# ---------------------------------------------------------------------------


def layer_norm(a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LN_EPS) -> np.ndarray:
    """gain * (a - mean) / sqrt(var + eps) + bias over the last axis."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] < 1:
        raise DimensionError("layer_norm needs at least one unit")
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    return gain * (a - mu) / np.sqrt(var + eps) + bias


def _ln_backward(dn: np.ndarray, a_hat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray, out: np.ndarray):
    """The layer norm's input gradient for its output gradient dn, written
    into out. The means of d_hat and d_hat * a_hat come from one reduction
    over both, each row summed, then divided, as ndarray.mean does."""
    H = dn.shape[-1]
    terms = np.empty((2, *dn.shape))
    d_hat = np.multiply(dn, gain, out=terms[0])
    np.multiply(d_hat, a_hat, out=terms[1])
    m1, m2 = terms.sum(axis=-1, keepdims=True) / H
    return np.multiply(inv_std, d_hat - m1 - a_hat * m2, out=out)


def dropout(v: np.ndarray, p: float, rng: np.random.Generator, training: bool) -> np.ndarray:
    """Inverted dropout: zero units with probability p and scale survivors by
    1/(1-p) during training; identity at inference."""
    if not 0 <= p < 1:
        raise ParameterError(f"dropout probability must lie in [0, 1), got {p}")
    v = np.asarray(v, dtype=np.float64)
    if not training or p == 0:
        return v.copy()
    mask = rng.random(v.shape) >= p
    return v * mask / (1.0 - p)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _checked(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float64 array: DimensionError unless it has `shape`,
    NumericError unless every entry is finite."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


@dataclass
class PhasedLstmLayerParams:
    """All tensors of one recurrent layer.

    Input/recurrent/peephole weights and biases for the four gate blocks,
    plus per-unit gate timing (tau hours > 0, phase shift s, open ratio
    r_on in (0,1)). The leak rate alpha is the model's, not the layer's.
    """

    W_xi: np.ndarray
    W_xf: np.ndarray
    W_xc: np.ndarray
    W_xo: np.ndarray
    W_hi: np.ndarray
    W_hf: np.ndarray
    W_hc: np.ndarray
    W_ho: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    tau: np.ndarray
    s: np.ndarray
    r_on: np.ndarray

    def __post_init__(self):
        d, H = np.shape(self.W_xi)
        for name, shape in _layer_shapes(d, H).items():
            setattr(self, name, _checked(name, getattr(self, name), shape))
        _check_gate_ranges(self.tau, self.r_on)

    @property
    def input_size(self) -> int:
        return self.W_xi.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_xi.shape[1]


LAYER_TENSOR_FIELDS = tuple(f.name for f in fields(PhasedLstmLayerParams))


def _layer_shapes(d: int, H: int) -> dict[str, tuple[int, ...]]:
    """The shape of each tensor of a layer of H units over d inputs."""
    return {
        name: (d, H) if name.startswith("W_x") else (H, H) if name.startswith("W_h") else (H,)
        for name in LAYER_TENSOR_FIELDS
    }


def _bare_layer(tensors: dict[str, np.ndarray]) -> PhasedLstmLayerParams:
    """A layer that holds `tensors` as they are, without the constructor's
    checks: for tensors that ModelParams checks against its table."""
    layer = object.__new__(PhasedLstmLayerParams)
    vars(layer).update(tensors)
    return layer


def param_shapes(input_dim: int, hidden_size: int, n_layers: int) -> dict[str, tuple[int, ...]]:
    """name -> shape of every tensor of a model, in the order of
    `ModelParams.flat`: each layer's tensors, each layer norm's gain and
    bias, then the output projection. The one source of the tensors'
    names, shapes and order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for idx in range(n_layers):
        d = input_dim if idx == 0 else hidden_size
        shapes.update((f"layers.{idx}.{name}", shape) for name, shape in _layer_shapes(d, hidden_size).items())
    for idx in range(n_layers):
        shapes[f"ln.{idx}.gain"] = (hidden_size,)
        shapes[f"ln.{idx}.bias"] = (hidden_size,)
    shapes["W_out"] = (hidden_size, N_CLASSES)
    shapes["b_out"] = (N_CLASSES,)
    return shapes


def _tensor_fields(tensors: dict[str, np.ndarray], n_layers: int) -> dict:
    """ModelParams' tensor fields from a name -> array mapping keyed as
    `param_shapes` keys it. The arrays are held as they are; ModelParams
    checks them."""
    return dict(
        layers=[_bare_layer({f: tensors[f"layers.{i}.{f}"] for f in LAYER_TENSOR_FIELDS}) for i in range(n_layers)],
        ln_gain=[tensors[f"ln.{i}.gain"] for i in range(n_layers)],
        ln_bias=[tensors[f"ln.{i}.bias"] for i in range(n_layers)],
        W_out=tensors["W_out"],
        b_out=tensors["b_out"],
    )


@dataclass
class ModelParams:
    """Full parameter set: stacked layers, per-layer layer-norm gain/bias,
    the per-step output projection to two classes, and the time gates'
    closed-phase leak rate alpha, one for all layers."""

    layers: list[PhasedLstmLayerParams]
    ln_gain: list[np.ndarray]
    ln_bias: list[np.ndarray]
    W_out: np.ndarray
    b_out: np.ndarray
    dropout_p: float = 0.5
    alpha: float = ALPHA_TRAIN_DEFAULT
    flat: np.ndarray = field(init=False, repr=False)
    layout: dict[str, tuple[slice, tuple[int, ...]]] = field(init=False, repr=False)

    def __post_init__(self):
        n_layers = len(self.layers)
        if n_layers < 1:
            raise DimensionError("at least one layer is required")
        if len(self.ln_gain) != n_layers or len(self.ln_bias) != n_layers:
            raise DimensionError("one layer-norm gain/bias pair per layer is required")
        if not 0 <= self.dropout_p < 1:
            raise ParameterError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        _check_alpha(self.alpha)
        self.layout, end = {}, 0
        for name, shape in param_shapes(self.layers[0].input_size, self.layers[0].hidden_size, n_layers).items():
            self.layout[name] = (slice(end, end + math.prod(shape)), shape)
            end += math.prod(shape)
        # the params own their tensors: each given one is checked once, as it
        # is copied in, and the caller's objects stay as they are
        self.flat = np.empty(end)
        views = self.unflatten(self.flat)
        for name, value in self.named_parameters():
            views[name][...] = _checked(name, value, views[name].shape)
        vars(self).update(_tensor_fields(views, n_layers))
        for layer in self.layers:
            _check_gate_ranges(layer.tau, layer.r_on)

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_size

    @property
    def hidden_size(self) -> int:
        return self.layers[-1].hidden_size

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def named_parameters(self):
        """Yield (name, array) for every trainable tensor, in `flat` order."""
        for idx, layer in enumerate(self.layers):
            for fname in LAYER_TENSOR_FIELDS:
                yield f"layers.{idx}.{fname}", getattr(layer, fname)
        for idx in range(len(self.layers)):
            yield f"ln.{idx}.gain", self.ln_gain[idx]
            yield f"ln.{idx}.bias", self.ln_bias[idx]
        yield "W_out", self.W_out
        yield "b_out", self.b_out

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """name -> view of each tensor's stretch of a vector laid out as `flat`."""
        return {name: flat[part].reshape(shape) for name, (part, shape) in self.layout.items()}

    def copy(self) -> "ModelParams":
        # construction packs the tensors into a new buffer
        return replace(self)


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    input_dim: int,
    hidden_size: int,
    n_layers: int = 2,
    dropout_p: float = 0.5,
    t_span_hours: float = 240.0,
    rng: np.random.Generator | int | None = None,
    r_on_init: float = RON_INIT,
    time_feature_index: int | None = None,
) -> ModelParams:
    """Seeded initialization.

    Weights are Glorot uniform, forget biases start at 1, peepholes at 0.
    Gate periods are log-uniform in [1, t_span_hours] hours, phase shifts
    uniform in [0, tau] per unit, open ratio r_on_init. When
    time_feature_index names the raw hour-offset input column, its first-layer
    weight rows are scaled by 1/t_span so that column starts on the same
    footing as the one-hot columns.
    """
    if input_dim < 1 or hidden_size < 1 or n_layers < 1:
        raise ConfigError("input_dim, hidden_size, and n_layers must be positive")
    if not 0 < r_on_init < 1:
        raise ParameterError("r_on_init must lie in (0, 1)")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if time_feature_index is not None and not 0 <= time_feature_index < input_dim:
        raise ConfigError("time_feature_index out of range")
    t_span = max(2.0, float(t_span_hours))
    fills = {"b_f": 1.0, "r_on": r_on_init, "gain": 1.0}  # every other vector starts at 0
    tensors = {}
    for name, shape in param_shapes(input_dim, hidden_size, n_layers).items():
        scope, _, kind = name.rpartition(".")
        if kind == LAYER_TENSOR_FIELDS[0]:  # a layer draws its periods before its weights
            tau = np.exp(rng.uniform(np.log(1.0), np.log(t_span), size=hidden_size))
        if kind.startswith("W_"):
            tensors[name] = _glorot(rng, shape)
            if kind.startswith("W_x") and scope == "layers.0" and time_feature_index is not None:
                tensors[name][time_feature_index] /= t_span
        elif kind == "tau":
            tensors[name] = tau
        elif kind == "s":
            tensors[name] = tau * rng.random(shape)
        else:
            tensors[name] = np.full(shape, fills.get(kind, 0.0))
    return ModelParams(**_tensor_fields(tensors, n_layers), dropout_p=dropout_p)


def clamp_gate_timing(params: ModelParams) -> None:
    """Clamp trainable gate timing into its legal ranges after an update."""
    for layer in params.layers:
        np.clip(layer.tau, TAU_MIN, None, out=layer.tau)
        np.clip(layer.r_on, RON_CLAMP, 1.0 - RON_CLAMP, out=layer.r_on)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def cell_forward(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    t: float,
    params: PhasedLstmLayerParams,
    ln_gain: np.ndarray | None = None,
    ln_bias: np.ndarray | None = None,
    alpha: float = ALPHA_TRAIN_DEFAULT,
):
    """One recurrence step on a single example (reference implementation).

    Gates read peepholes on the previous cell state; the candidate state
    c~ = f*c_prev + i*tanh(.) and candidate hidden h~ = o*tanh(c~) are
    written through the time gate: c = k*c~ + (1-k)*c_prev and likewise for
    h. With ln_gain/ln_bias given, each gate's x/h pre-activation is layer
    normalized before peephole and bias are added.
    """
    lp = params
    x = np.asarray(x_t, dtype=np.float64)
    h0 = np.asarray(h_prev, dtype=np.float64)
    c0 = np.asarray(c_prev, dtype=np.float64)
    H = lp.hidden_size
    if x.shape != (lp.input_size,):
        raise DimensionError(f"x_t must have shape ({lp.input_size},), got {x.shape}")
    if h0.shape != (H,) or c0.shape != (H,):
        raise DimensionError(f"h_prev and c_prev must have shape ({H},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h0)) and np.all(np.isfinite(c0)) and np.isfinite(t)):
        raise NumericError("cell_forward received non-finite inputs")

    a_i = x @ lp.W_xi + h0 @ lp.W_hi
    a_f = x @ lp.W_xf + h0 @ lp.W_hf
    a_c = x @ lp.W_xc + h0 @ lp.W_hc
    a_o = x @ lp.W_xo + h0 @ lp.W_ho
    if ln_gain is not None:
        a_i = layer_norm(a_i, ln_gain, ln_bias)
        a_f = layer_norm(a_f, ln_gain, ln_bias)
        a_c = layer_norm(a_c, ln_gain, ln_bias)
        a_o = layer_norm(a_o, ln_gain, ln_bias)
    i_g = _sigmoid(a_i + lp.w_ci * c0 + lp.b_i)
    f_g = _sigmoid(a_f + lp.w_cf * c0 + lp.b_f)
    u_g = np.tanh(a_c + lp.b_c)
    c_tilde = f_g * c0 + i_g * u_g
    o_g = _sigmoid(a_o + lp.w_co * c0 + lp.b_o)
    h_tilde = o_g * np.tanh(c_tilde)
    k, phi = _gate_forward(t, lp.tau, lp.s, lp.r_on, alpha)
    c_t = k * c_tilde + (1.0 - k) * c0
    h_t = k * h_tilde + (1.0 - k) * h0
    cache = {
        "i": i_g, "f": f_g, "u": u_g, "o": o_g,
        "c_tilde": c_tilde, "h_tilde": h_tilde, "k": k, "phi": phi,
    }
    return h_t, c_t, cache


def _stacked_weights(lp: PhasedLstmLayerParams) -> tuple[np.ndarray, np.ndarray]:
    """The layer's input and recurrent weights of the four gates side by
    side, (d, 4H) and (H, 4H), in the order i, f, c, o."""
    Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
    Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
    return Wx, Wh


def _sigmoid_gate(a_j, c, w_peep, bias, out):
    """_sigmoid(a_j + w_peep * c + bias), written into out."""
    np.multiply(c, w_peep, out=out)
    out += a_j
    out += bias
    out *= 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# the (N, H) values of a step that `_layer_backward` reads, besides a_hat,
# inv_std and the states
_GATE_SLOTS = ("i", "f", "u", "o", "c_tilde", "tanh_ct", "h_tilde")


def cell_step(a, h, c, k, lp, ln_g, ln_b, slots=None):
    """One batched recurrence step for N states: the kernel of training,
    eval and the attribution trie.

    a: (N, 4H) gate pre-activations x @ Wx + h @ Wh, overwritten in place;
    h, c: (N, H) previous states; k: the time gate's openness, (H,) when all
    N rows share one time or (N, H) per row. Returns (h_new, c_new). The
    temporaries take the dtype of `a`, so float32 inputs give float32 states;
    every operand must then be float32 as well (k, the layer norm, and the
    peephole and bias vectors of `lp`), or a ufunc computes in float64.

    Without `slots` the step keeps no backward cache: its values share three
    temporaries. With `slots`, a dict of the step's views into the cache
    arrays, it writes a_hat, inv_std, the _GATE_SLOTS values (the four
    gates, c~, tanh(c~), h~) and the new states "h" and "c" into them with
    `out=`. Both modes run the same operations in the same order, so their
    states are bit-identical.
    """
    N, H = h.shape
    a4 = a.reshape(N, 4, H)
    g = np.empty((N, H), dtype=a.dtype)
    if slots is None:
        # f, c~, 1 - k and h_new share one temporary; i, o, h~ and the
        # products share g; u and tanh(c~) share a third. Each value is
        # overwritten only after its last read
        f_ct, u = np.empty((N, H), dtype=a.dtype), np.empty((N, H), dtype=a.dtype)
        slots = {
            "a_hat": a4, "inv_std": np.empty((N, 4, 1), dtype=a.dtype), "i": g, "f": f_ct, "u": u, "o": g,
            "c_tilde": f_ct, "tanh_ct": u, "h_tilde": g, "h": f_ct, "c": np.empty((N, H), dtype=a.dtype),
        }
    # layer norm; mean and var as ndarray.mean/var compute them (sum, then
    # divide by H), the squares one gate at a time
    mu = a4.sum(axis=-1, keepdims=True) / H
    np.subtract(a4, mu, out=a4)
    inv_std = slots["inv_std"]
    for j in range(4):
        inv_std[:, j] = np.square(a4[:, j], out=g).sum(axis=-1, keepdims=True)
    inv_std /= H
    inv_std += LN_EPS
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    a_hat = np.multiply(a4, inv_std, out=slots["a_hat"])
    n4 = np.multiply(a_hat, ln_g, out=a4)
    n4 += ln_b

    f_g = _sigmoid_gate(n4[:, 1], c, lp.w_cf, lp.b_f, slots["f"])
    c_tilde = np.multiply(f_g, c, out=slots["c_tilde"])
    i_g = _sigmoid_gate(n4[:, 0], c, lp.w_ci, lp.b_i, slots["i"])
    u_g = np.add(n4[:, 2], lp.b_c, out=slots["u"])
    np.tanh(u_g, out=u_g)
    c_tilde += np.multiply(i_g, u_g, out=g)
    tanh_ct = np.tanh(c_tilde, out=slots["tanh_ct"])
    # c_new = k * c~ + (1 - k) * c
    kc = np.multiply(c_tilde, k, out=g)
    keep = np.subtract(1.0, k, out=slots["h"])
    c_new = np.multiply(keep, c, out=slots["c"])
    c_new += kc
    o_g = _sigmoid_gate(n4[:, 3], c, lp.w_co, lp.b_o, slots["o"])
    h_tilde = np.multiply(o_g, tanh_ct, out=slots["h_tilde"])
    # h_new = k * h~ + (1 - k) * h, written over keep
    kh = np.multiply(h_tilde, k, out=g)
    h_new = np.multiply(keep, h, out=keep)
    h_new += kh
    return h_new, c_new


def _layer_forward(x, times, lp, ln_g, ln_b, alpha, training=True):
    """Batched scan of one layer. x: (B,T,d); times: (B,T) hours.

    Returns (h (B,T,H), cache). The cache for `_layer_backward` holds
    (T, B, ...) stacks of each step's slots and of the states before and
    after it; it is None unless training.
    """
    B, T, d = x.shape
    H = lp.hidden_size
    Wx, Wh = _stacked_weights(lp)
    x_proj = (x.reshape(B * T, d) @ Wx).reshape(B, T, 4 * H)
    # the gate depends only on the times: one evaluation for all steps, (T, B, H)
    k, phi = _gate_forward(times.T[:, :, None], lp.tau, lp.s, lp.r_on, alpha)
    cache = None
    if training:
        hs, cs = np.zeros((T + 1, B, H)), np.zeros((T + 1, B, H))
        cache = {name: np.empty((T, B, H)) for name in _GATE_SLOTS}
        cache.update(
            a_hat=np.empty((T, B, 4, H)), inv_std=np.empty((T, B, 4, 1)),
            h=hs[1:], c=cs[1:], h_prev=hs[:-1], c_prev=cs[:-1],
            k=k, phi=phi, alpha=alpha, Wx=Wx, Wh=Wh,
        )

    h = c = np.zeros((B, H))
    outs = []
    for t in range(T):
        slots = None
        if cache is not None:
            slots = {name: cache[name][t] for name in ("a_hat", "inv_std", "h", "c", *_GATE_SLOTS)}
        h, c = cell_step(x_proj[:, t, :] + h @ Wh, h, c, k[t], lp, ln_g, ln_b, slots)
        outs.append(h)
    return np.stack(outs, axis=1), cache


@dataclass
class ForwardTrace:
    """One forward evaluation; a training forward's trace holds everything
    the backward pass needs, an inference trace no backward cache."""

    params: ModelParams
    times: np.ndarray
    layer_inputs: list[np.ndarray]
    caches: list[dict]
    dropout_masks: list[np.ndarray | None]
    hidden: np.ndarray
    logits: np.ndarray


def forward_batch(
    features: np.ndarray,
    times: np.ndarray,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
):
    """Run the full stack over a batch of equal-length sequences.

    features: (B, T, d); times: (B, T) hours. Returns (logits (B,T,2), trace).
    The closed-phase leak `params.alpha` is active only while training;
    inference uses alpha = 0. Dropout applies between layers while training;
    masks may be supplied explicitly (already scaled) for reproducible
    gradient checks.
    Only a training forward keeps the backward cache that `backward_batch`
    needs.
    """
    x = np.asarray(features, dtype=np.float64)
    tt = np.asarray(times, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"features must be (B, T, d), got {x.shape}")
    B, T, d = x.shape
    if d != params.input_dim:
        raise DimensionError(f"feature dim {d} does not match model input dim {params.input_dim}")
    if tt.shape != (B, T):
        raise DimensionError(f"times must have shape {(B, T)}, got {tt.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(tt))):
        raise NumericError("forward received non-finite inputs")
    p = params.dropout_p
    if training and p > 0 and dropout_masks is None and rng is None:
        raise ConfigError("training with dropout requires an rng or explicit dropout masks")

    layer_inputs = []
    caches = []
    masks_used: list[np.ndarray | None] = []
    layer_in = x
    top = None
    for idx, lp in enumerate(params.layers):
        layer_inputs.append(layer_in)
        alpha = params.alpha if training else 0.0
        h_seq, cache = _layer_forward(layer_in, tt, lp, params.ln_gain[idx], params.ln_bias[idx], alpha, training)
        caches.append(cache)
        if idx < params.n_layers - 1:
            if training and p > 0:
                if dropout_masks is not None:
                    mask = np.asarray(dropout_masks[idx], dtype=np.float64)
                    if mask.shape != h_seq.shape:
                        raise DimensionError("dropout mask shape mismatch")
                else:
                    mask = (rng.random(h_seq.shape) >= p) / (1.0 - p)
                masks_used.append(mask)
                layer_in = h_seq * mask
            else:
                masks_used.append(None)
                layer_in = h_seq
        else:
            top = h_seq
    logits = top @ params.W_out + params.b_out
    trace = ForwardTrace(
        params=params,
        times=tt,
        layer_inputs=layer_inputs,
        caches=caches,
        dropout_masks=masks_used,
        hidden=top,
        logits=logits,
    )
    return logits, trace


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _layer_backward(dH, x, times, cache, lp, ln_g, out, d_gain, d_bias, need_dx=True):
    """Reverse scan of one layer; dH (B,T,H) is the gradient w.r.t. its outputs.

    Writes the gradients of the layer's tensors into `out` (the layer's
    stretch of a flat gradient) and of its layer norm into d_gain and d_bias;
    returns dX (B,T,d), the input gradient, if need_dx. The loop carries only
    the recurrence. The per-step sums are taken after it and added from
    t = T-1 down to 0, starting from 0.0, as a per-step accumulation would.
    """
    B, T, d = x.shape
    H = lp.hidden_size
    k, c_prev = cache["k"], cache["c_prev"]
    i_g, f_g, u_g, o_g, c_tilde, tanh_ct, h_tilde = (cache[name] for name in _GATE_SLOTS)
    # the factors that do not depend on the recurrence, for all steps
    keep, not_o, not_f, not_i = 1.0 - k, 1.0 - o_g, 1.0 - f_g, 1.0 - i_g
    d_tanh_ct, d_tanh_u = 1.0 - tanh_ct * tanh_ct, 1.0 - u_g * u_g

    dn = np.empty((T, B, 4, H))  # pre-activation gradients of gates i, f, c, o
    dA = np.empty((T, B, 4, H))
    dhs = np.empty((T, B, H))
    dcs = np.zeros((T + 1, B, H))  # step t's dc is dcs[t + 1]
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = np.add(dH[:, t], dh_next, out=dhs[t])
        dc = dcs[t + 1]
        dh_tilde = dh * k[t]
        dc_tilde = dc * k[t]
        dc_tilde += dh_tilde * o_g[t] * d_tanh_ct[t]
        np.multiply(dh_tilde * tanh_ct[t] * o_g[t], not_o[t], out=dn[t, :, 3])
        np.multiply(dc_tilde * i_g[t], d_tanh_u[t], out=dn[t, :, 2])
        np.multiply(dc_tilde * c_prev[t] * f_g[t], not_f[t], out=dn[t, :, 1])
        np.multiply(dc_tilde * u_g[t] * i_g[t], not_i[t], out=dn[t, :, 0])
        da = _ln_backward(dn[t], cache["a_hat"][t], cache["inv_std"][t], ln_g, dA[t]).reshape(B, 4 * H)
        if t == 0:  # step 0's dc_prev and dh_prev reach nothing
            break
        dc_prev = np.multiply(dc, keep[t], out=dcs[t])
        dc_prev += dn[t, :, 3] * lp.w_co
        dc_prev += dc_tilde * f_g[t]
        dc_prev += dn[t, :, 1] * lp.w_cf
        dc_prev += dn[t, :, 0] * lp.w_ci
        dh_next = dh * keep[t] + da @ cache["Wh"].T

    dK = dhs * (h_tilde - cache["h_prev"]) + dcs[1:] * (c_tilde - c_prev)
    t_minus_s = times.T[:, :, None] - lp.s
    # each step's row sums: w_ci, w_cf, w_co, b_i .. b_o, tau, s, r_on (the
    # order of the layer's vectors in `out`), then the layer norm's gain, bias
    per_step = np.empty((T, 12, H))
    per_step[:, 0:3] = (dn * c_prev[:, :, None]).sum(axis=1)[:, [0, 1, 3]]
    np.sum(dn, axis=1, out=per_step[:, 3:7])
    for j, g in enumerate(_gate_backward(dK, cache["phi"], t_minus_s, lp.tau, lp.r_on, cache["alpha"])):
        np.sum(g, axis=1, out=per_step[:, 7 + j])
    np.sum(dn * cache["a_hat"], axis=(1, 2), out=per_step[:, 10])
    np.sum(dn, axis=(1, 2), out=per_step[:, 11])
    sums = np.zeros((12, H))
    for t in range(T - 1, -1, -1):
        sums += per_step[t]
    out[4 * (d + H) * H:] = sums[:10].ravel()
    d_gain[...], d_bias[...] = sums[10], sums[11]

    dA_flat = dA.transpose(1, 0, 2, 3).reshape(B * T, 4 * H)
    hp_flat = cache["h_prev"].transpose(1, 0, 2).reshape(B * T, H)
    # W_xi .. W_xo, then W_hi .. W_ho, each (rows, H), one after the other
    out[:4 * d * H].reshape(4, d, H)[...] = (x.reshape(B * T, d).T @ dA_flat).reshape(d, 4, H).transpose(1, 0, 2)
    out[4 * d * H:4 * (d + H) * H].reshape(4, H, H)[...] = (hp_flat.T @ dA_flat).reshape(H, 4, H).transpose(1, 0, 2)
    return (dA_flat @ cache["Wx"].T).reshape(B, T, d) if need_dx else None


class Gradients(dict):
    """name -> gradient, each a view into `flat`, laid out as ModelParams.flat."""

    flat: np.ndarray


def backward_batch(trace: ForwardTrace, grad_logits: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of every trainable tensor.

    grad_logits must match the shape of trace.logits and already include any
    loss normalization. Each call writes into a fresh flat vector, so the
    gradients of two calls never share memory. The mapping lists W_out and
    b_out, then each layer's tensors and layer norm from the top layer down.
    """
    if any(cache is None for cache in trace.caches):
        raise TraceError("an inference trace keeps no backward cache; backprop needs forward_batch(training=True)")
    gl = np.asarray(grad_logits, dtype=np.float64)
    if gl.shape != trace.logits.shape:
        raise TraceError(f"grad_logits shape {gl.shape} does not match traced logits {trace.logits.shape}")
    if not np.all(np.isfinite(gl)):
        raise NumericError("grad_logits contains non-finite values")
    params = trace.params
    B, T, H = trace.hidden.shape

    grads = Gradients()
    grads.flat = np.empty_like(params.flat)
    views = params.unflatten(grads.flat)
    gl_flat = gl.reshape(B * T, N_CLASSES)
    grads["W_out"] = np.matmul(trace.hidden.reshape(B * T, H).T, gl_flat, out=views["W_out"])
    grads["b_out"] = np.sum(gl_flat, axis=0, out=views["b_out"])

    dH = (gl_flat @ params.W_out.T).reshape(B, T, H)
    for idx in range(params.n_layers - 1, -1, -1):
        names = [f"layers.{idx}.{fname}" for fname in LAYER_TENSOR_FIELDS] + [f"ln.{idx}.gain", f"ln.{idx}.bias"]
        # the layer's tensors sit side by side, W_xi first and r_on last
        block = grads.flat[params.layout[names[0]][0].start:params.layout[names[-3]][0].stop]
        dX = _layer_backward(
            dH, trace.layer_inputs[idx], trace.times, trace.caches[idx], params.layers[idx], params.ln_gain[idx],
            block, views[names[-2]], views[names[-1]], need_dx=idx > 0,
        )
        grads.update((name, views[name]) for name in names)
        if idx > 0:
            mask = trace.dropout_masks[idx - 1]
            dH = dX * mask if mask is not None else dX
    return grads


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path: str | Path, params: ModelParams, vocab: Vocabulary, seed: int = 0) -> None:
    """Write a JSON checkpoint of format version 2: each tensor's data is
    the base64 of its row-major, little-endian float64 bytes."""
    obj = {
        "format_version": CHECKPOINT_VERSION,
        "vocab": {"channels": list(vocab.channels), "campaigns": list(vocab.campaigns)},
        "hyperparams": {
            "input_dim": params.input_dim,
            "hidden_size": params.hidden_size,
            "n_layers": params.n_layers,
            "dropout_p": params.dropout_p,
            "alpha": params.alpha,
        },
        "tensors": {
            name: {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
            for name, arr in params.named_parameters()
        },
        "rng_seed": seed,
    }
    # json.dumps runs the C encoder; json.dump to a file would not, for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def _entry(obj: dict, key: str, kind, where: str, default=None):
    """obj[key] as a `kind` (never a bool); ValidationError when it is missing
    or of another type."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"checkpoint {where} {key!r} is missing or has the wrong type")
    return value


def _list_tensor(name: str, entry: dict, size: int) -> np.ndarray:
    """Format 1: the tensor's data is a flat list of JSON numbers."""
    data = _entry(entry, "data", list, f"tensor {name!r} field")
    try:
        arr = np.asarray(data)
    except ValueError:
        arr = None
    # an int too large for int64 makes the list an object array; it is
    # read as a float if every entry is a finite number
    if arr is not None and arr.dtype == object and all(map(finite_number, data)):
        arr = np.asarray(data, dtype=np.float64)
    # numpy reads a JSON true or false among numbers as 1 or 0; only a
    # list of bools alone keeps the bool dtype
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf" or bool in set(map(type, data)):
        raise ValidationError(f"tensor {name!r} data must be a flat list of numbers")
    if arr.size != size:
        raise ValidationError(f"tensor {name!r} data length does not match its shape")
    return arr


def _base64_tensor(name: str, entry: dict, size: int) -> np.ndarray:
    """Format 2: the tensor's data is one base64 string of its row-major,
    little-endian float64 bytes."""
    data = _entry(entry, "data", str, f"tensor {name!r} field")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValidationError(f"tensor {name!r} data is not base64") from None
    if len(raw) != 8 * size:
        raise ValidationError(f"tensor {name!r} data holds {len(raw)} bytes, but its shape needs {8 * size}")
    return np.frombuffer(raw, "<f8")


# format_version -> the decoder of a tensor entry's data; the rest of the file
# is the same in every version
_TENSOR_DECODERS = {1: _list_tensor, 2: _base64_tensor}


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Vocabulary, int]:
    """Read a checkpoint of format version 1 or 2, validating its structure
    and every tensor shape against the `param_shapes` table of its
    hyperparams; a malformed file is a ValidationError."""
    obj = read_json(path, "checkpoint")
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if not isinstance(version, int) or isinstance(version, bool) or version not in _TENSOR_DECODERS:
        raise ValidationError(f"unsupported checkpoint format_version {version!r}")
    decode = _TENSOR_DECODERS[version]
    hp = _entry(obj, "hyperparams", dict, "field")
    input_dim, hidden_size, n_layers = (
        _entry(hp, key, int, "hyperparam") for key in ("input_dim", "hidden_size", "n_layers")
    )
    if min(input_dim, hidden_size, n_layers) < 1:
        raise ValidationError("checkpoint input_dim, hidden_size and n_layers must be >= 1")
    numbers = {key: hp.get(key, default) for key, default in (("dropout_p", 0.5), ("alpha", ALPHA_TRAIN_DEFAULT))}
    for key, value in numbers.items():
        if not finite_number(value):
            raise ValidationError(f"checkpoint hyperparam {key!r} must be a finite number")
    tensors = _entry(obj, "tensors", dict, "field")
    # the table's size, known before it is built: a huge n_layers fails here
    n_tensors = (len(LAYER_TENSOR_FIELDS) + 2) * n_layers + 2
    if len(tensors) != n_tensors:
        raise ValidationError(f"checkpoint has {len(tensors)} tensors, but n_layers {n_layers} needs {n_tensors}")
    expected = param_shapes(input_dim, hidden_size, n_layers)
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise ValidationError(f"checkpoint has unexpected tensors: {extra[:4]}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in expected.items():
        entry = _entry(tensors, name, dict, "tensor")
        if tuple(_entry(entry, "shape", list, f"tensor {name!r} field")) != shape:
            raise ValidationError(f"tensor {name!r} has shape {tuple(entry['shape'])}, expected {shape}")
        arrays[name] = decode(name, entry, math.prod(shape)).reshape(shape)
    # ModelParams checks each tensor's finiteness as it packs it
    params = ModelParams(**_tensor_fields(arrays, n_layers), **{key: float(value) for key, value in numbers.items()})
    vocab = vocabulary_from_dict(obj.get("vocab"), "checkpoint vocab")
    if params.input_dim != vocab.encoding_dim:
        raise ValidationError(
            f"checkpoint input_dim {params.input_dim} does not match vocabulary encoding dim {vocab.encoding_dim}"
        )
    return params, vocab, _entry(obj, "rng_seed", int, "field", 0)
