"""Numeric core of the conversion model.

A stack of recurrent cells with peephole connections whose cell and hidden
states are written through a periodic, piecewise-linear time gate, plus layer
normalization on gate pre-activations and inverted dropout between layers.
Gradients are hand-derived reverse-mode for this one architecture; the
single-step `cell_forward` is the readable reference, `_layer_forward` is
the batched fast path and `infer_step` the cache-free inference step (their
equivalence is covered by tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .journey import EncodedJourney, Vocabulary, vocabulary_from_dict

LN_EPS = 1e-5
N_CLASSES = 2
ALPHA_TRAIN_DEFAULT = 1e-3
RON_INIT = 0.05
TAU_MIN = 1e-2
RON_CLAMP = 1e-3

LAYER_TENSOR_FIELDS = (
    "W_xi", "W_xf", "W_xc", "W_xo",
    "W_hi", "W_hf", "W_hc", "W_ho",
    "w_ci", "w_cf", "w_co",
    "b_i", "b_f", "b_c", "b_o",
    "tau", "s", "r_on",
)


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


def _validate_gate_params(tau, s, r_on, alpha):
    tau = np.asarray(tau, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    r_on = np.asarray(r_on, dtype=np.float64)
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(s)) and np.all(np.isfinite(r_on))):
        raise ParameterError("time gate parameters must be finite")
    if np.any(tau <= 0):
        raise ParameterError("tau must be positive")
    if np.any(r_on <= 0) or np.any(r_on >= 1):
        raise ParameterError("r_on must lie in (0, 1)")
    if not np.isfinite(alpha) or alpha < 0:
        raise ParameterError("alpha must be a finite value >= 0")
    return tau, s, r_on, float(alpha)


def time_gate(t, tau, s, r_on, alpha):
    """Openness of the periodic time gate, elementwise over units.

    `t` is the event time in hours; tau, s, r_on may be scalars or vectors of
    per-unit periods, phase shifts, and open ratios. alpha is the closed-phase
    leak rate.
    """
    tau, s, r_on, alpha = _validate_gate_params(tau, s, r_on, alpha)
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ParameterError("t must be finite")
    k, _ = _gate_forward(t, tau, s, r_on, alpha)
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


def _ln_forward(a4: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = a4.mean(axis=-1, keepdims=True)
    var = a4.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    a_hat = (a4 - mu) * inv_std
    return gain * a_hat + bias, a_hat, inv_std


def _ln_backward(dn: np.ndarray, a_hat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray):
    d_gain = np.sum(dn * a_hat, axis=tuple(range(dn.ndim - 1)))
    d_bias = np.sum(dn, axis=tuple(range(dn.ndim - 1)))
    d_hat = dn * gain
    m1 = d_hat.mean(axis=-1, keepdims=True)
    m2 = (d_hat * a_hat).mean(axis=-1, keepdims=True)
    da = inv_std * (d_hat - m1 - a_hat * m2)
    return da, d_gain, d_bias


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


@dataclass
class PhasedLstmLayerParams:
    """All tensors of one recurrent layer.

    Input/recurrent/peephole weights and biases for the four gate blocks,
    plus per-unit gate timing (tau hours > 0, phase shift s, open ratio
    r_on in (0,1)) and the scalar leak rate alpha.
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
    alpha: float = ALPHA_TRAIN_DEFAULT

    def __post_init__(self):
        for name in LAYER_TENSOR_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.validate()

    @property
    def input_size(self) -> int:
        return self.W_xi.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_xi.shape[1]

    def validate(self) -> None:
        d, H = self.W_xi.shape
        for name in ("W_xf", "W_xc", "W_xo"):
            if getattr(self, name).shape != (d, H):
                raise DimensionError(f"{name} must have shape {(d, H)}")
        for name in ("W_hi", "W_hf", "W_hc", "W_ho"):
            if getattr(self, name).shape != (H, H):
                raise DimensionError(f"{name} must have shape {(H, H)}")
        for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o", "tau", "s", "r_on"):
            if getattr(self, name).shape != (H,):
                raise DimensionError(f"{name} must have shape {(H,)}")
        for name in LAYER_TENSOR_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"{name} contains non-finite values")
        _validate_gate_params(self.tau, self.s, self.r_on, self.alpha)


@dataclass
class ModelParams:
    """Full parameter set: stacked layers, per-layer layer-norm gain/bias,
    and the per-step output projection to two classes."""

    layers: list[PhasedLstmLayerParams]
    ln_gain: list[np.ndarray]
    ln_bias: list[np.ndarray]
    W_out: np.ndarray
    b_out: np.ndarray
    dropout_p: float = 0.5

    def __post_init__(self):
        self.ln_gain = [np.asarray(g, dtype=np.float64) for g in self.ln_gain]
        self.ln_bias = [np.asarray(b, dtype=np.float64) for b in self.ln_bias]
        self.W_out = np.asarray(self.W_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise DimensionError("at least one layer is required")
        if len(self.ln_gain) != len(self.layers) or len(self.ln_bias) != len(self.layers):
            raise DimensionError("one layer-norm gain/bias pair per layer is required")
        for idx, layer in enumerate(self.layers):
            layer.validate()
            if idx > 0 and layer.input_size != self.layers[idx - 1].hidden_size:
                raise DimensionError(f"layer {idx} input size does not chain from layer {idx - 1}")
            if self.ln_gain[idx].shape != (layer.hidden_size,) or self.ln_bias[idx].shape != (layer.hidden_size,):
                raise DimensionError(f"layer {idx} layer-norm vectors must have shape ({layer.hidden_size},)")
        H = self.layers[-1].hidden_size
        if self.W_out.shape != (H, N_CLASSES):
            raise DimensionError(f"W_out must have shape {(H, N_CLASSES)}")
        if self.b_out.shape != (N_CLASSES,):
            raise DimensionError(f"b_out must have shape {(N_CLASSES,)}")
        if not 0 <= self.dropout_p < 1:
            raise ParameterError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        for name, arr in self.named_parameters():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite values")

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
        """Yield (name, array) for every trainable tensor, in a fixed order."""
        for idx, layer in enumerate(self.layers):
            for fname in LAYER_TENSOR_FIELDS:
                yield f"layers.{idx}.{fname}", getattr(layer, fname)
        for idx in range(len(self.layers)):
            yield f"ln.{idx}.gain", self.ln_gain[idx]
            yield f"ln.{idx}.bias", self.ln_bias[idx]
        yield "W_out", self.W_out
        yield "b_out", self.b_out

    def copy(self) -> "ModelParams":
        layers = [
            PhasedLstmLayerParams(
                **{fname: getattr(layer, fname).copy() for fname in LAYER_TENSOR_FIELDS},
                alpha=layer.alpha,
            )
            for layer in self.layers
        ]
        return ModelParams(
            layers=layers,
            ln_gain=[g.copy() for g in self.ln_gain],
            ln_bias=[b.copy() for b in self.ln_bias],
            W_out=self.W_out.copy(),
            b_out=self.b_out.copy(),
            dropout_p=self.dropout_p,
        )


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
    alpha: float = ALPHA_TRAIN_DEFAULT,
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
    t_span = max(2.0, float(t_span_hours))
    layers = []
    ln_gain = []
    ln_bias = []
    for idx in range(n_layers):
        d = input_dim if idx == 0 else hidden_size
        H = hidden_size
        tau = np.exp(rng.uniform(np.log(1.0), np.log(t_span), size=H))
        layers.append(
            PhasedLstmLayerParams(
                W_xi=_glorot(rng, (d, H)),
                W_xf=_glorot(rng, (d, H)),
                W_xc=_glorot(rng, (d, H)),
                W_xo=_glorot(rng, (d, H)),
                W_hi=_glorot(rng, (H, H)),
                W_hf=_glorot(rng, (H, H)),
                W_hc=_glorot(rng, (H, H)),
                W_ho=_glorot(rng, (H, H)),
                w_ci=np.zeros(H),
                w_cf=np.zeros(H),
                w_co=np.zeros(H),
                b_i=np.zeros(H),
                b_f=np.ones(H),
                b_c=np.zeros(H),
                b_o=np.zeros(H),
                tau=tau,
                s=tau * rng.random(H),
                r_on=np.full(H, r_on_init),
                alpha=alpha,
            )
        )
        ln_gain.append(np.ones(H))
        ln_bias.append(np.zeros(H))
    if time_feature_index is not None:
        if not 0 <= time_feature_index < input_dim:
            raise ConfigError("time_feature_index out of range")
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            getattr(layers[0], name)[time_feature_index, :] /= t_span
    return ModelParams(
        layers=layers,
        ln_gain=ln_gain,
        ln_bias=ln_bias,
        W_out=_glorot(rng, (hidden_size, N_CLASSES)),
        b_out=np.zeros(N_CLASSES),
        dropout_p=dropout_p,
    )


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
    alpha: float | None = None,
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
    k, phi = _gate_forward(t, lp.tau, lp.s, lp.r_on, lp.alpha if alpha is None else alpha)
    c_t = k * c_tilde + (1.0 - k) * c0
    h_t = k * h_tilde + (1.0 - k) * h0
    cache = {
        "i": i_g, "f": f_g, "u": u_g, "o": o_g,
        "c_tilde": c_tilde, "h_tilde": h_tilde, "k": k, "phi": phi,
    }
    return h_t, c_t, cache


def _layer_forward(x, times, lp, ln_g, ln_b, alpha):
    """Batched scan of one layer. x: (B,T,d); times: (B,T) hours."""
    B, T, d = x.shape
    H = lp.hidden_size
    Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
    Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
    x_proj = (x.reshape(B * T, d) @ Wx).reshape(B, T, 4 * H)

    out = np.empty((B, T, H))
    hp = np.empty((T, B, H))
    cp = np.empty((T, B, H))
    a_hat = np.empty((T, B, 4, H))
    inv_std = np.empty((T, B, 4, 1))
    gates_i = np.empty((T, B, H))
    gates_f = np.empty((T, B, H))
    gates_u = np.empty((T, B, H))
    gates_o = np.empty((T, B, H))
    c_tildes = np.empty((T, B, H))
    tanh_cts = np.empty((T, B, H))
    h_tildes = np.empty((T, B, H))
    ks = np.empty((T, B, H))
    phis = np.empty((T, B, H))

    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(T):
        a4 = (x_proj[:, t, :] + h @ Wh).reshape(B, 4, H)
        n4, a_hat_t, inv_std_t = _ln_forward(a4, ln_g, ln_b)
        i_g = _sigmoid(n4[:, 0] + lp.w_ci * c + lp.b_i)
        f_g = _sigmoid(n4[:, 1] + lp.w_cf * c + lp.b_f)
        u_g = np.tanh(n4[:, 2] + lp.b_c)
        c_tilde = f_g * c + i_g * u_g
        o_g = _sigmoid(n4[:, 3] + lp.w_co * c + lp.b_o)
        tanh_ct = np.tanh(c_tilde)
        h_tilde = o_g * tanh_ct
        k, phi = _gate_forward(times[:, t:t + 1], lp.tau, lp.s, lp.r_on, alpha)
        c_new = k * c_tilde + (1.0 - k) * c
        h_new = k * h_tilde + (1.0 - k) * h

        hp[t] = h
        cp[t] = c
        a_hat[t] = a_hat_t
        inv_std[t] = inv_std_t
        gates_i[t] = i_g
        gates_f[t] = f_g
        gates_u[t] = u_g
        gates_o[t] = o_g
        c_tildes[t] = c_tilde
        tanh_cts[t] = tanh_ct
        h_tildes[t] = h_tilde
        ks[t] = k
        phis[t] = phi
        out[:, t, :] = h_new
        h, c = h_new, c_new

    cache = {
        "h_prev": hp, "c_prev": cp, "a_hat": a_hat, "inv_std": inv_std,
        "i": gates_i, "f": gates_f, "u": gates_u, "o": gates_o,
        "c_tilde": c_tildes, "tanh_ct": tanh_cts, "h_tilde": h_tildes,
        "k": ks, "phi": phis, "alpha": alpha, "Wx": Wx, "Wh": Wh,
    }
    return out, cache


def infer_step(a, h, c, k, lp, ln_g, ln_b):
    """One inference step (alpha 0) for N states, keeping no backward cache.

    a: (N, 4H) gate pre-activations x @ Wx + h @ Wh, overwritten in place;
    h, c: (N, H) previous states; k: the time gate's openness at alpha 0,
    (H,) when all N rows share one time or (N, H) per row. Returns (h_new,
    c_new). The operations and their order match `_layer_forward` at alpha
    0, so each row's state is bit-identical to the batched scan's, with
    fewer and smaller temporaries.
    """
    N, H = h.shape
    a4 = a.reshape(N, 4, H)
    # mean and var as ndarray.mean/var compute them (sum, then divide by
    # H), the squares one gate at a time
    mu = a4.sum(axis=-1, keepdims=True) / H
    np.subtract(a4, mu, out=a4)
    g = np.empty((N, H))
    var = np.empty((N, 4, 1))
    for j in range(4):
        var[:, j] = np.square(a4[:, j], out=g).sum(axis=-1, keepdims=True)
    var /= H
    var += LN_EPS
    a4 *= 1.0 / np.sqrt(var)
    a4 *= ln_g
    a4 += ln_b

    def gate(j, w_peep, bias, out):
        # _sigmoid(a_j + w_peep * c + bias), written into out
        np.multiply(c, w_peep, out=out)
        out += a4[:, j]
        out += bias
        out *= 0.5
        np.tanh(out, out=out)
        out += 1.0
        out *= 0.5
        return out

    ct = gate(1, lp.w_cf, lp.b_f, np.empty((N, H)))
    ct *= c
    iu = gate(0, lp.w_ci, lp.b_i, g)
    u = np.add(a4[:, 2], lp.b_c)
    iu *= np.tanh(u, out=u)
    ct += iu
    ht = gate(3, lp.w_co, lp.b_o, g)
    ht *= np.tanh(ct, out=u)
    ct *= k
    # keep and h_new reuse the last temporaries, so fewer arrays per row are alive
    keep = np.subtract(1.0, k, out=u)
    c_new = keep * c
    c_new += ct
    ht *= k
    h_new = np.multiply(keep, h, out=ct)
    h_new += ht
    return h_new, c_new


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation."""

    params: ModelParams
    training: bool
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
    The closed-phase leak is active only while training; inference uses
    alpha = 0. Dropout applies between layers while training; masks may be
    supplied explicitly (already scaled) for reproducible gradient checks.
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
        alpha_eff = lp.alpha if training else 0.0
        h_seq, cache = _layer_forward(layer_in, tt, lp, params.ln_gain[idx], params.ln_bias[idx], alpha_eff)
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
        training=training,
        times=tt,
        layer_inputs=layer_inputs,
        caches=caches,
        dropout_masks=masks_used,
        hidden=top,
        logits=logits,
    )
    return logits, trace


def forward_sequence(
    enc: EncodedJourney,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Forward one encoded journey; returns (logits (T,2), trace)."""
    logits, trace = forward_batch(enc.features[None, :, :], enc.times[None, :], params, training=training, rng=rng)
    return logits[0], trace


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _layer_backward(dH, x, times, cache, lp, ln_g):
    """Reverse scan of one layer.

    dH: (B,T,H) gradient w.r.t. this layer's hidden outputs. Returns
    (gradients dict, dX (B,T,d) gradient w.r.t. the layer input).
    """
    B, T, d = x.shape
    H = lp.hidden_size
    Wx, Wh = cache["Wx"], cache["Wh"]
    alpha = cache["alpha"]

    dA = np.empty((T, B, 4 * H))
    d_gain = np.zeros(H)
    d_bias = np.zeros(H)
    acc = {name: np.zeros(H) for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o", "tau", "s", "r_on")}

    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        k = cache["k"][t]
        h_prev = cache["h_prev"][t]
        c_prev = cache["c_prev"][t]
        i_g = cache["i"][t]
        f_g = cache["f"][t]
        u_g = cache["u"][t]
        o_g = cache["o"][t]
        c_tilde = cache["c_tilde"][t]
        tanh_ct = cache["tanh_ct"][t]
        h_tilde = cache["h_tilde"][t]

        dh = dH[:, t, :] + dh_next
        dc = dc_next

        dh_tilde = dh * k
        dk = dh * (h_tilde - h_prev) + dc * (c_tilde - c_prev)
        dh_prev = dh * (1.0 - k)
        dc_tilde = dc * k
        dc_prev = dc * (1.0 - k)

        do = dh_tilde * tanh_ct
        dc_tilde = dc_tilde + dh_tilde * o_g * (1.0 - tanh_ct * tanh_ct)

        t_minus_s = times[:, t:t + 1] - lp.s
        g_tau, g_s, g_ron = _gate_backward(dk, cache["phi"][t], t_minus_s, lp.tau, lp.r_on, alpha)
        acc["tau"] += g_tau.sum(axis=0)
        acc["s"] += g_s.sum(axis=0)
        acc["r_on"] += g_ron.sum(axis=0)

        dpre_o = do * o_g * (1.0 - o_g)
        acc["b_o"] += dpre_o.sum(axis=0)
        acc["w_co"] += (dpre_o * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_o * lp.w_co

        df = dc_tilde * c_prev
        dc_prev = dc_prev + dc_tilde * f_g
        di = dc_tilde * u_g
        du = dc_tilde * i_g

        dpre_c = du * (1.0 - u_g * u_g)
        acc["b_c"] += dpre_c.sum(axis=0)
        dpre_f = df * f_g * (1.0 - f_g)
        acc["b_f"] += dpre_f.sum(axis=0)
        acc["w_cf"] += (dpre_f * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_f * lp.w_cf
        dpre_i = di * i_g * (1.0 - i_g)
        acc["b_i"] += dpre_i.sum(axis=0)
        acc["w_ci"] += (dpre_i * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_i * lp.w_ci

        dn4 = np.stack([dpre_i, dpre_f, dpre_c, dpre_o], axis=1)
        da4, dg_step, db_step = _ln_backward(dn4, cache["a_hat"][t], cache["inv_std"][t], ln_g)
        d_gain += dg_step
        d_bias += db_step
        da = da4.reshape(B, 4 * H)
        dA[t] = da
        dh_prev = dh_prev + da @ Wh.T

        dh_next = dh_prev
        dc_next = dc_prev

    dA_flat = dA.transpose(1, 0, 2).reshape(B * T, 4 * H)
    hp_flat = cache["h_prev"].transpose(1, 0, 2).reshape(B * T, H)
    dWx = x.reshape(B * T, d).T @ dA_flat
    dWh = hp_flat.T @ dA_flat
    dX = (dA_flat @ Wx.T).reshape(B, T, d)

    grads = {
        "W_xi": dWx[:, 0:H], "W_xf": dWx[:, H:2 * H], "W_xc": dWx[:, 2 * H:3 * H], "W_xo": dWx[:, 3 * H:],
        "W_hi": dWh[:, 0:H], "W_hf": dWh[:, H:2 * H], "W_hc": dWh[:, 2 * H:3 * H], "W_ho": dWh[:, 3 * H:],
    }
    grads.update(acc)
    return grads, dX, d_gain, d_bias


def backward_batch(trace: ForwardTrace, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of every trainable tensor.

    grad_logits must match the shape of trace.logits and already include any
    loss normalization.
    """
    gl = np.asarray(grad_logits, dtype=np.float64)
    if gl.shape != trace.logits.shape:
        raise TraceError(f"grad_logits shape {gl.shape} does not match traced logits {trace.logits.shape}")
    if not np.all(np.isfinite(gl)):
        raise NumericError("grad_logits contains non-finite values")
    params = trace.params
    B, T, H = trace.hidden.shape

    grads: dict[str, np.ndarray] = {}
    gl_flat = gl.reshape(B * T, N_CLASSES)
    grads["W_out"] = trace.hidden.reshape(B * T, H).T @ gl_flat
    grads["b_out"] = gl_flat.sum(axis=0)

    dH = (gl_flat @ params.W_out.T).reshape(B, T, H)
    for idx in range(params.n_layers - 1, -1, -1):
        layer_grads, dX, d_gain, d_bias = _layer_backward(
            dH, trace.layer_inputs[idx], trace.times, trace.caches[idx], params.layers[idx], params.ln_gain[idx]
        )
        for fname in LAYER_TENSOR_FIELDS:
            grads[f"layers.{idx}.{fname}"] = layer_grads[fname]
        grads[f"ln.{idx}.gain"] = d_gain
        grads[f"ln.{idx}.bias"] = d_bias
        if idx > 0:
            mask = trace.dropout_masks[idx - 1]
            dH = dX * mask if mask is not None else dX
    return grads


def backward_sequence(trace: ForwardTrace, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for a single-sequence trace; accepts (T,2) or (1,T,2)."""
    gl = np.asarray(grad_logits, dtype=np.float64)
    if gl.ndim == 2:
        gl = gl[None, :, :]
    return backward_batch(trace, gl)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _expected_shapes(input_dim: int, hidden_size: int, n_layers: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for idx in range(n_layers):
        d = input_dim if idx == 0 else hidden_size
        H = hidden_size
        for fname in LAYER_TENSOR_FIELDS:
            if fname.startswith("W_x"):
                shapes[f"layers.{idx}.{fname}"] = (d, H)
            elif fname.startswith("W_h"):
                shapes[f"layers.{idx}.{fname}"] = (H, H)
            else:
                shapes[f"layers.{idx}.{fname}"] = (H,)
    for idx in range(n_layers):
        shapes[f"ln.{idx}.gain"] = (hidden_size,)
        shapes[f"ln.{idx}.bias"] = (hidden_size,)
    shapes["W_out"] = (hidden_size, N_CLASSES)
    shapes["b_out"] = (N_CLASSES,)
    return shapes


def save_checkpoint(path: str | Path, params: ModelParams, vocab: Vocabulary, seed: int = 0) -> None:
    """Write a JSON checkpoint with flat row-major float64 tensors."""
    obj = {
        "format_version": CHECKPOINT_VERSION,
        "vocab": {"channels": list(vocab.channels), "campaigns": list(vocab.campaigns)},
        "hyperparams": {
            "input_dim": params.input_dim,
            "hidden_size": params.hidden_size,
            "n_layers": params.n_layers,
            "dropout_p": params.dropout_p,
            "alpha": params.layers[0].alpha,
        },
        "tensors": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.named_parameters()
        },
        "rng_seed": seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _entry(obj: dict, key: str, kind, where: str, default=None):
    """obj[key] as a `kind` (never a bool); ValidationError when it is missing
    or of another type."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"checkpoint {where} {key!r} is missing or has the wrong type")
    return value


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Vocabulary, int]:
    """Read a checkpoint, validating its structure and every tensor shape
    against hyperparams; a malformed file is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # also not UTF-8, or an integer of more than 4300 digits
            raise ValidationError(f"checkpoint {path} is not JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format_version") != CHECKPOINT_VERSION:
        version = obj.get("format_version") if isinstance(obj, dict) else None
        raise ValidationError(f"unsupported checkpoint format_version {version!r}")
    hp = _entry(obj, "hyperparams", dict, "field")
    input_dim, hidden_size, n_layers = (
        _entry(hp, key, int, "hyperparam") for key in ("input_dim", "hidden_size", "n_layers")
    )
    if min(input_dim, hidden_size, n_layers) < 1:
        raise ValidationError("checkpoint input_dim, hidden_size and n_layers must be >= 1")
    dropout_p = _entry(hp, "dropout_p", (int, float), "hyperparam", 0.5)
    alpha = _entry(hp, "alpha", (int, float), "hyperparam", ALPHA_TRAIN_DEFAULT)
    expected = _expected_shapes(input_dim, hidden_size, n_layers)
    tensors = _entry(obj, "tensors", dict, "field")
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise ValidationError(f"checkpoint is missing tensors: {missing[:4]}")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise ValidationError(f"checkpoint has unexpected tensors: {extra[:4]}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in expected.items():
        entry = _entry(tensors, name, dict, "tensor")
        if tuple(_entry(entry, "shape", list, f"tensor {name!r} field")) != shape:
            raise ValidationError(f"tensor {name!r} has shape {tuple(entry['shape'])}, expected {shape}")
        try:
            arr = np.asarray(_entry(entry, "data", list, f"tensor {name!r} field"))
        except ValueError:
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
            raise ValidationError(f"tensor {name!r} data must be a flat list of numbers")
        if arr.size != int(np.prod(shape)):
            raise ValidationError(f"tensor {name!r} data length does not match its shape")
        arrays[name] = arr.astype(np.float64).reshape(shape)
    layers = []
    for idx in range(n_layers):
        fields = {fname: arrays[f"layers.{idx}.{fname}"] for fname in LAYER_TENSOR_FIELDS}
        layers.append(PhasedLstmLayerParams(**fields, alpha=float(alpha)))
    params = ModelParams(
        layers=layers,
        ln_gain=[arrays[f"ln.{idx}.gain"] for idx in range(n_layers)],
        ln_bias=[arrays[f"ln.{idx}.bias"] for idx in range(n_layers)],
        W_out=arrays["W_out"],
        b_out=arrays["b_out"],
        dropout_p=float(dropout_p),
    )
    vocab = vocabulary_from_dict(obj.get("vocab"), "checkpoint vocab")
    if params.input_dim != vocab.encoding_dim:
        raise ValidationError(
            f"checkpoint input_dim {params.input_dim} does not match vocabulary encoding dim {vocab.encoding_dim}"
        )
    return params, vocab, _entry(obj, "rng_seed", int, "field", 0)
