"""Numeric core of the conversion model.

A stack of recurrent cells with peephole connections whose cell and hidden
states are written through a periodic, piecewise-linear time gate, plus layer
normalization on gate pre-activations and inverted dropout between layers.
Gradients are hand-derived reverse-mode for this one architecture.
`gate_major_step` is the one batched cell kernel, gate-major: a step's
pre-activations are one (4, N, H) array in gate order i, f, c, o. It runs
in two modes: with cache slots (a training scan writes each step's gates
and layer norm statistics into the arrays `_layer_backward` reads) and
without (every inference scan). Tests cover the kernel against a readable
single-row reference (tests/reference.py) and its two modes against each
other. Every inference forward is a prefix-trie scan (`_trie_steps`): the
attribution games' mask rows, in float32 with float64 rechecks, and, with
one all-ones row per journey (`scan_logits`), eval, validation and
prediction in float64; `forward_batch(training=False)` is its oracle. The
layer scan (`_layer_scan`) and the backward's reverse scan
(`_layer_backward`) are generators that take each step's input and hand
on each step's output, so the trainer can run two layers one time step
apart. A layer's weights are gate-major views of `ModelParams.flat`
(`gate_stack`), and its input is step-major, (T, B, d). One product order
serves training and the wavefront: layer 0's input projection is one
batched product over all T*B rows; every higher layer's input projection
and input gradient are one batched B-row product per step, made only in
`_link` and `_link_back`, so all their callers get the same bits at every
batch shape. The part of a layer's backward that depends only on its
forward, the recurrence's factors (`_step_factors`, per step or for all
steps) and the time gate's (`_gate_cache`, the dk-free half of
`_gate_backward`), is made apart from the reverse scan, so the trainer can
make it before the output gradient is known.

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
weight.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    NumericError,
    ParameterError,
    TraceError,
    ValidationError,
)
from .journey import JourneyTable, Vocabulary, finite_number, read_json, vocabulary_from_dict

LN_EPS = 1e-5
N_CLASSES = 2
ALPHA_TRAIN_DEFAULT = 1e-3
RON_INIT = 0.05
TAU_MIN = 1e-2
RON_CLAMP = 1e-3


# ---------------------------------------------------------------------------
# time gate
# ---------------------------------------------------------------------------


def _gate_phase(t, tau, s):
    return np.mod(t - s, tau) / tau


def _gate_forward(t, tau, s, r_on, alpha):
    """Return (k, phi) with k piecewise in phi: rise to 1 over [0, r_on/2),
    fall back to 0 over [r_on/2, r_on), and leak alpha*phi elsewhere."""
    phi = _gate_phase(t, tau, s)
    # q <= 1 where phi < r_on/2 and q >= 1 from there to r_on, so the
    # minimum returns the rise or the fall unchanged, each the expression of
    # the branch-by-branch form; where q == 1 both are 1.0
    q = 2.0 * phi / r_on
    k = np.where(phi < r_on, np.minimum(q, 2.0 - q), alpha * phi)
    return k, phi


def _check_gate_ranges(tau, r_on):
    if np.any(tau <= 0):
        raise ParameterError("tau must be positive")
    if np.any(r_on <= 0) or np.any(r_on >= 1):
        raise ParameterError("r_on must lie in (0, 1)")


def _check_alpha(alpha):
    if not np.isfinite(alpha) or alpha < 0:
        raise ParameterError("alpha must be a finite value >= 0")


def _gate_factors(phi, t_minus_s, tau, r_on, alpha):
    """The part of the time gate's backward that does not depend on dk:
    dk/dphi and dk/dr_on per element, and dphi/dtau and dphi/ds.

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
    return dk_dphi, dk_dron, -t_minus_s / (tau * tau), -1.0 / tau


def _gate_backward(dk, factors):
    """Per-element gradients of k w.r.t. tau, s, r_on, from dk and the
    `_gate_factors` (dk_dphi, dk_dron, dphi_dtau, dphi_ds) of the same
    elements."""
    dk_dphi, dk_dron, dphi_dtau, dphi_ds = factors
    g = dk * dk_dphi
    return g * dphi_dtau, g * dphi_ds, dk * dk_dron


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------


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

    def move_to(self, flat: np.ndarray) -> None:
        """Copy the tensors into `flat`, a vector of this layout (in memory
        shared with another process, say), and make every tensor a view of
        it from now on."""
        flat[...] = self.flat
        self.flat = flat
        vars(self).update(_tensor_fields(self.unflatten(flat), self.n_layers))

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


def clamp_gate_timing(params: ModelParams, layers: Iterable[int] | None = None) -> None:
    """Clamp trainable gate timing into its legal ranges after an update:
    of the layers of the given indices, by default every layer."""
    for layer in params.layers if layers is None else (params.layers[idx] for idx in layers):
        np.clip(layer.tau, TAU_MIN, None, out=layer.tau)
        np.clip(layer.r_on, RON_CLAMP, 1.0 - RON_CLAMP, out=layer.r_on)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


# the values of a step that `_layer_backward` reads, which a training scan
# writes into its cache: the layer norm's a_hat and inv_std (4, N, ...), the
# four gates, gate-major (4, N, H), c~, tanh(c~) and h~ (N, H), and the new
# states
_SLOTS = ("a_hat", "inv_std", "gates", "c_tilde", "tanh_ct", "h_tilde", "h", "c")
# the (T, B, ...) values of `_layer_backward`'s recurrence that depend on the
# forward alone, which `_step_factors` writes into a cache: not_gates is
# 1 - gates, (T, 4, B, H), the others (T, B, H). They and the gate's factors
# are made for the backward only, and `_layer_backward` drops each as it
# last reads it, so that a training forward holds none of them
_FACTORS = ("keep", "not_gates", "d_tanh_ct", "d_tanh_u", "dh_dk", "dc_dk")


# the gate order of `gate_major_step`'s operands, the order of each layer's
# four gate tensors in `ModelParams.flat`, so that a float64 stack of them is
# a view; the rows of the sigmoid gates among them
GATES = ("i", "f", "c", "o")
_SIGMOID_ROWS = (0, 1, 3)


class GateMajorCell(NamedTuple):
    """A layer's operands for `gate_major_step`, all in one dtype: the input
    and recurrent weights as gate-major stacks, (4, d, H) and (4, H, H); the
    layer norm's gain and, folded together, the layer norm's bias plus each
    gate's bias, (4, 1, H); the peepholes of i, f and o, (3, 1, H); and the
    vector of 1/H whose products make the layer norm's means, (H,).
    Gates run in GATES order, and the rows of the sigmoid gates i, f and o
    in gain, bias and peepholes are halved, so each sigmoid(z) is
    tanh(z') / 2 + 1 / 2 of the folded pre-activation z' = z / 2."""

    Wx: np.ndarray
    Wh: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    peep: np.ndarray
    mean: np.ndarray


def gate_stack(params: ModelParams, idx: int, prefix: str, gates=GATES) -> np.ndarray:
    """Layer idx's tensors named prefix + gate, one per gate of `gates`, as
    one float64 view (len(gates), ...) of `params.flat`, where they lie next
    to each other in that order."""
    (start, shape), (stop, _) = (params.layout[f"layers.{idx}.{prefix}{gate}"] for gate in (gates[0], gates[-1]))
    return params.flat[start.start:stop.stop].reshape(len(gates), *shape)


def gate_major_cell(params: ModelParams, idx: int, dtype) -> GateMajorCell:
    """The `GateMajorCell` of layer idx and its layer norm in `dtype`; in
    float64 its weights are views of `params.flat`, else cast copies."""
    half = np.array([0.5 if row in _SIGMOID_ROWS else 1.0 for row in range(len(GATES))])[:, None, None]
    return GateMajorCell(
        Wx=gate_stack(params, idx, "W_x").astype(dtype, copy=False),
        Wh=gate_stack(params, idx, "W_h").astype(dtype, copy=False),
        gain=(half * params.ln_gain[idx]).astype(dtype),
        bias=(half * (params.ln_bias[idx] + gate_stack(params, idx, "b_")[:, None])).astype(dtype),
        peep=(0.5 * gate_stack(params, idx, "w_c", [GATES[row] for row in _SIGMOID_ROWS])[:, None]).astype(dtype),
        mean=np.full(params.hidden_size, 1.0 / params.hidden_size, dtype=dtype),
    )


def gate_major_step(a, h, c, k, cell: GateMajorCell, slots=None):
    """One batched recurrence step for N states, gate-major: the one cell
    kernel, of training's scans and of every trie scan.

    a: (4, N, H) gate pre-activations x @ Wx + h @ Wh in GATES order,
    overwritten in place; h, c: (N, H) previous states; k: the time gate's
    openness, (N, H) or (H,); cell: the layer's `GateMajorCell` in the dtype
    of `a`, which every operand shares. Returns (h_new, c_new).

    The layer norm's means and variances are products with a 1/H vector,
    the biases and sigmoid's halving are folded into `cell`, so one tanh
    covers all four gates, and the blends are c + k * (c~ - c) and
    h + k * (h~ - h). Every elementwise operation runs over a contiguous
    array of one gate or more.

    Without `slots` the step keeps no backward cache: besides `a`, it holds
    no state-sized temporary but the two new states, which serve as scratch
    first. With `slots`, the step's views into the cache arrays in _SLOTS
    order, it writes each of those values into its slot with `out=`, the
    new states into the last two, which it returns. Both modes run the same
    operations in the same order, so their states are bit-identical.
    """
    G, N, H = a.shape
    if slots is None:
        # a holds a_hat, then the gates, c~ (over f), tanh(c~) and h~ (over o)
        slots = (a, np.empty((G, N, 1), dtype=a.dtype), a, a[1], a[1], a[3], np.empty((N, H), dtype=a.dtype),
                 np.empty((N, H), dtype=a.dtype))
    a_hat, inv_std, gates, c_tilde, tanh_ct, h_tilde, h_new, c_new = slots
    rows = a.reshape(G * N, H)
    rows -= (rows @ cell.mean)[:, None]
    # each gate's squares in turn take h_new
    for j in range(G):
        np.matmul(np.square(a[j], out=h_new), cell.mean, out=inv_std[j, :, 0])
    inv_std += LN_EPS
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    np.multiply(a, inv_std, out=a_hat)
    np.multiply(a_hat, cell.gain, out=a)
    a += cell.bias
    for j, peep in zip(_SIGMOID_ROWS, cell.peep):
        a[j] += np.multiply(c, peep, out=h_new)
    np.tanh(a, out=gates)
    i, f, u, o = gates
    for sigmoids in (gates[:2], o):
        sigmoids *= 0.5
        sigmoids += 0.5
    # c~ = f * c + i * u, i * u in h_new
    np.multiply(f, c, out=c_tilde)
    c_tilde += np.multiply(i, u, out=h_new)
    np.subtract(c_tilde, c, out=c_new)
    c_new *= k
    c_new += c
    # h~ = o * tanh(c~)
    np.multiply(o, np.tanh(c_tilde, out=tanh_ct), out=h_tilde)
    np.subtract(h_tilde, h, out=h_new)
    h_new *= k
    h_new += h
    return h_new, c_new


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# the prefix-trie scan: every inference forward
# ---------------------------------------------------------------------------


class _TrieStep(NamedTuple):
    """One step t of a trie scan. Live rows are the rows with a kept event
    at t or later, as indices into the block's rows; nodes are in the order
    of their live rows."""

    rows: np.ndarray  # the live rows
    node: np.ndarray  # each live row's node
    done: np.ndarray  # whether a live row's last kept event is t; it leaves after this step
    head: np.ndarray  # each node's first live row
    parent: np.ndarray  # each node's node at step t - 1 (its piece's root at step 0)
    kept: np.ndarray  # whether the node keeps event t
    index: np.ndarray  # the node's event row in the table: its journey's first row plus t
    x: np.ndarray  # each node's new top-layer hidden state


def _scan_inputs(params: ModelParams, table: JourneyTable, dtype=np.float32) -> tuple[np.ndarray, list[np.ndarray]]:
    """The operands that a trie scan gathers by event row, computed once for
    all the blocks scanned over `table` and held only in `dtype`, as (x0,
    gates): layer 0's input projection of every event, gate-major (4,
    events + 1, H) in `GATES` order, with a last row of zeros that nodes
    masking their event gather instead, and each layer's time-gate openness
    at every event (alpha 0: inference), (events, H). Each gate's float64
    product is cast into x0 in turn, so no float64 table of all four is
    held. The gate depends only on an event's time, so it is evaluated in
    float64 once per distinct time and its rows gathered by event after the
    cast; every journey's first event is at hour 0. Both have the bits of
    one batched product of all four gates and of the gate per event."""
    Wx0 = gate_stack(params, 0, "W_x")
    x0 = np.zeros((len(Wx0), len(table.times) + 1, Wx0.shape[2]), dtype=dtype)
    for x0_j, Wx0_j in zip(x0, Wx0):
        x0_j[:-1] = table.features @ Wx0_j
    times, event_time = np.unique(table.times, return_inverse=True)
    gates = [_gate_forward(times[:, None], lp.tau, lp.s, lp.r_on, 0.0)[0].astype(dtype, copy=False)[event_time]
             for lp in params.layers]
    return x0, gates


def _pre_activations(cell, h: np.ndarray, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """The gate-major pre-activations (4, N, H) of N trie nodes whose
    previous hidden states are h: one batched product h @ Wh written into
    the buffer, plus each gate's input projection, made in one (N, H)
    scratch array: x @ Wx of the nodes' inputs x, or, given `rows`, those
    rows of x, a gate-major table of projections."""
    a = np.matmul(h, cell.Wh, out=np.empty((len(cell.Wh), *h.shape), dtype=h.dtype))
    part = np.empty_like(h)
    for j, a_j in enumerate(a):
        a_j += np.matmul(x, cell.Wx[j], out=part) if rows is None else np.take(x[j], rows, axis=0, out=part)
    return a


def _last_kept(bits: np.ndarray) -> np.ndarray:
    """Index of each row's last set bit, -1 for the all-zero row."""
    return np.where(bits.any(axis=1), bits.shape[1] - 1 - np.argmax(bits[:, ::-1], axis=1), -1)


def _trie_steps(params: ModelParams, inputs: tuple, starts: np.ndarray, bits: np.ndarray, row_piece: np.ndarray):
    """The prefix-trie scan of mask rows `bits` in the dtype of `inputs`,
    the `_scan_inputs` of the table that `starts` index: yields one
    `_TrieStep` per step. Row i masks piece row_piece[i], whose journey's
    first event row in the table is starts[row_piece[i]]; the rows of one
    piece are adjacent, distinct and lexicographically sorted.

    The model is causal and a masked event keeps its slot and time, so a
    row's state at step t depends only on its journey and mask[0..t]: one
    trie node. A row's value counts only its kept steps, so a row is
    stepped up to its last kept event and no further (the all-zero row not
    at all). At step t each node of the rows still live is stepped once by
    `gate_major_step`; a full powerset of n events costs 3 * 2^(n-1) - 2
    node-steps instead of n * 2^n row-steps. Live rows keep their block
    order, so the live rows of one node stay adjacent: a row starts a new
    node where its bit or its previous node differs from the live row
    before it. Each piece starts from a root node of its own, so no node
    spans two pieces even where a piece's first rows have already left. A
    step's pre-activations are one batched product h @ Wh into a gate-major
    buffer, plus layer 0's projection, gathered from `inputs` per gate by
    event row, or a higher layer's x @ Wx per gate; the time gates are
    gathered by event row too. Every other operand is cast to that dtype
    once, before the first step (`gate_major_cell`).

    Two kinds of scan run it: attribution's games, whose pieces are
    journeys and rows their mask rows, and inference (`scan_logits`),
    where every journey is a piece of one all-ones row, which leaves the
    scan after its last event, so journeys of any lengths step together.
    """
    x0, gates = inputs
    dtype = x0.dtype
    cells = [gate_major_cell(params, idx, dtype) for idx in range(params.n_layers)]

    # the live rows and each one's node at the previous step (its piece's
    # root before step 0)
    last = _last_kept(bits)
    live = np.flatnonzero(last >= 0)
    node = row_piece[live]
    live_last = last[live]
    states = [(np.zeros((len(starts), lp.hidden_size), dtype=dtype),) * 2 for lp in params.layers]
    for t in range(last.max() + 1):
        col = bits[live, t]
        fresh = np.empty(len(live), dtype=bool)
        fresh[0] = True
        np.not_equal(node[1:], node[:-1], out=fresh[1:])
        fresh[1:] |= col[1:] != col[:-1]
        first = np.flatnonzero(fresh)
        parent = node[first]
        kept = col[first]
        node = np.cumsum(fresh) - 1
        head = live[first]
        index = starts[row_piece[head]] + t
        x0_index = np.where(kept, index, x0.shape[1] - 1)
        x = None
        for idx, cell in enumerate(cells):
            h, c = (state[parent] for state in states[idx])
            states[idx] = None  # free the previous step's states before this step's temporaries
            a = _pre_activations(cell, h, x0, x0_index) if idx == 0 else _pre_activations(cell, h, x)
            x, c = gate_major_step(a, h, c, gates[idx][index], cell)
            del a  # spent: freed before the next layer makes its own
            states[idx] = (x, c)
        done = live_last == t
        yield _TrieStep(live, node, done, head, parent, kept, index, x)
        stay = ~done
        live, node, live_last = live[stay], node[stay], live_last[stay]


def scan_logits(params: ModelParams, table: JourneyTable) -> np.ndarray:
    """The logits at inference of every event of `table`, (events, 2) in
    table order: the values of `forward_batch(training=False)` on each
    journey, not its bits. One float64 trie scan (`_trie_steps`) over one
    all-ones row per journey, each its own piece, with the scan inputs of
    the table's own events; the top layer's states are projected once, after
    the scan."""
    bits = np.arange(table.lengths.max()) < table.lengths[:, None]
    hidden = np.empty((len(table.times), params.hidden_size))
    inputs = _scan_inputs(params, table, np.float64)
    for step in _trie_steps(params, inputs, table.starts, bits, np.arange(len(table))):
        hidden[step.index] = step.x
    return hidden @ params.W_out + params.b_out


def _layer_setup(times, params, idx, alpha, training):
    """What a scan of layer idx over a batch at `times` (B, T) hours needs
    besides its input: its float64 `GateMajorCell`, whose weights are views
    of params.flat, the time gate's openness k (T, B, H), evaluated for all
    steps at once since the gate depends only on the times, and the cache
    for `_layer_backward`, whose (T, ...) stacks of each step's _SLOTS and
    of the states before and after it the scan fills in, and to which
    `_step_factors` and `_gate_cache` add the backward's factors; the cache
    is None unless training."""
    B, T = times.shape
    lp = params.layers[idx]
    H = lp.hidden_size
    cell = gate_major_cell(params, idx, np.float64)
    k, phi = _gate_forward(times.T[:, :, None], lp.tau, lp.s, lp.r_on, alpha)
    cache = None
    if training:
        hs, cs = np.zeros((T + 1, B, H)), np.zeros((T + 1, B, H))
        cache = {name: np.empty((T, B, H)) for name in ("c_tilde", "tanh_ct", "h_tilde")}
        cache.update(
            a_hat=np.empty((T, 4, B, H)), inv_std=np.empty((T, 4, B, 1)), gates=np.empty((T, 4, B, H)),
            h=hs[1:], c=cs[1:], h_prev=hs[:-1], c_prev=cs[:-1],
            k=k, phi=phi, alpha=alpha, times=times, Wx=cell.Wx, Wh=cell.Wh,
        )
    return cell, k, cache


def _gate_cache(cache, lp) -> None:
    """Write the time gate's `_gate_factors` at every step of a layer's scan
    into its cache, as cache["gate"]."""
    t_minus_s = cache["times"].T[:, :, None] - lp.s
    cache["gate"] = _gate_factors(cache["phi"], t_minus_s, lp.tau, lp.r_on, cache["alpha"])


def _step_factors(cache, t=slice(None)) -> None:
    """Write the recurrence's _FACTORS of step t of a layer's scan, or of
    every step (the default), into its cache: the part of the reverse scan
    that does not depend on the output gradient, so it may be made before
    that is known, once the scan has written step t's slots. The first
    call makes their arrays. Each is elementwise, so step by step and all
    at once give the same bits."""
    if "keep" not in cache:
        cache.update({name: np.empty_like(cache["gates" if name == "not_gates" else "k"]) for name in _FACTORS})
    np.subtract(1.0, cache["k"][t], out=cache["keep"][t])
    np.subtract(1.0, cache["gates"][t], out=cache["not_gates"][t])
    for name, value in (("d_tanh_ct", cache["tanh_ct"][t]), ("d_tanh_u", cache["gates"][t, 2])):
        square = np.multiply(value, value, out=cache[name][t])
        np.subtract(1.0, square, out=square)
    np.subtract(cache["h_tilde"][t], cache["h_prev"][t], out=cache["dh_dk"][t])
    np.subtract(cache["c_tilde"][t], cache["c_prev"][t], out=cache["dc_dk"][t])


def _layer_scan(x_proj, cell, k, cache=None):
    """The scan of one layer, a generator: it takes each step's gate-major
    input projection x_t @ Wx, (4, B, H), from the iterable `x_proj` in
    step order, and yields the step's h (B, H) as soon as it is computed.
    So a step's input may be made from another layer's output at an earlier
    step, and the scan may wait for it. cell, k and cache come from
    `_layer_setup`; with a cache, each step's slots are written into it."""
    T, B, H = k.shape
    h = c = np.zeros((B, H))
    for t, x_t in enumerate(x_proj):
        a = np.matmul(h, cell.Wh)
        a += x_t
        slots = None if cache is None else tuple(cache[name][t] for name in _SLOTS)
        h, c = gate_major_step(a, h, c, k[t], cell, slots)
        yield h


def _link(scan, x, mask, Wx):
    """The input projections of the layer above `scan`'s, a generator:
    after the scan's step t it writes that layer's input x[t], the step's
    h times mask[:, t] unless mask is None, and yields x[t] @ Wx, gate-major
    (4, B, H), one batched B-row product. The only place that product is
    made."""
    for t, h in enumerate(scan):
        x[t] = h if mask is None else h * mask[:, t]
        yield np.matmul(x[t], Wx)


def _projections(idx, x, Wx, below, masks):
    """Layer idx's gate-major input projections x_t @ Wx, (4, B, H) each, in
    step order, from its step-major input x (T, B, d). Layer 0's input
    exists before its scan, so its projections are one batched product over
    all T*B rows; a higher layer's input x is filled in step by step from
    `below`, the scan of layer idx - 1, times masks[idx - 1], and projected
    by `_link`."""
    if idx:
        return _link(below, x, masks[idx - 1], Wx)
    T, B, d = x.shape
    return np.matmul(x.reshape(T * B, d), Wx).reshape(len(Wx), T, B, -1).swapaxes(0, 1)


def _stack_scan(x, times, params, masks, alpha, training, n):
    """Layers 0 .. n-1 of the stack over a batch x (B, T, d), chained as
    generators, one step apart, each over its `_projections`. Returns the
    layers' inputs, step-major (T, B, d) (those above layer 0 filled in as
    the scans run), their caches (None unless training) and the last
    layer's scan, not yet started: running it runs them all (None where n
    is 0)."""
    x = np.ascontiguousarray(x.swapaxes(0, 1))
    T, B, _ = x.shape
    inputs, caches, scan = [], [], None
    for idx in range(n):
        cell, k, cache = _layer_setup(times, params, idx, alpha, training)
        if idx:
            x = np.empty((T, B, params.layers[idx].input_size))
        scan = _layer_scan(_projections(idx, x, cell.Wx, scan, masks), cell, k, cache)
        inputs.append(x)
        caches.append(cache)
    return inputs, caches, scan


def _dropout_draws(rng: np.random.Generator, shape: tuple[int, ...], p: float, n: int) -> list[np.ndarray]:
    """n inverted-dropout masks of `shape`, drawn from rng one after the
    other: 1 / (1 - p) where a uniform draw is >= p, else 0."""
    return [(rng.random(shape) >= p) / (1.0 - p) for _ in range(n)]


@dataclass
class ForwardTrace:
    """One forward evaluation; a training forward's trace holds everything
    the backward pass needs, an inference trace no backward cache. Each
    layer's input is step-major, (T, B, d)."""

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

    alpha = params.alpha if training else 0.0
    masks: list[np.ndarray | None] = [None] * (params.n_layers - 1)
    if training and p > 0:
        if dropout_masks is None:
            masks = _dropout_draws(rng, (B, T, params.hidden_size), p, params.n_layers - 1)
        else:
            masks = [np.asarray(mask, dtype=np.float64) for mask in dropout_masks[:params.n_layers - 1]]
            if len(masks) != params.n_layers - 1 or any(mask.shape != (B, T, params.hidden_size) for mask in masks):
                raise DimensionError("dropout mask shape mismatch")
    layer_inputs, caches, scan = _stack_scan(x, tt, params, masks, alpha, training, params.n_layers)
    top = np.stack(list(scan), axis=1)
    logits = top @ params.W_out + params.b_out
    trace = ForwardTrace(
        params=params,
        times=tt,
        layer_inputs=layer_inputs,
        caches=caches,
        dropout_masks=masks,
        hidden=top,
        logits=logits,
    )
    return logits, trace


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _layer_backward(dH, x, cache, params, idx, flat, dA):
    """Reverse scan of layer idx, a generator. It takes the gradient w.r.t.
    each step's output h, (B, H), from the iterable dH, from step T-1 down
    to 0; it writes the step's gate-major pre-activation gradient into
    dA[:, t] (4, B, H) and yields it as soon as it is computed. So a step's
    output gradient may be made from another layer's dA at a later step,
    and the scan may wait for it. It reads step t's _FACTORS from the cache,
    so their arrays must be in the cache when it starts and `_step_factors`
    must have written step t's by the time it reaches step t, and the gate's
    factors (`_gate_cache`) by the end of the loop. It removes each factor
    from the cache once it has read it for the last time.

    After the last step it writes the gradients of the layer's tensors and
    of its layer norm into their stretches of `flat`, laid out as
    params.flat (the input gradient is `_link_back`'s, of the yielded
    steps). The loop carries only the recurrence. The per-step sums are
    taken after it and added from t = T-1 down to 0, starting from 0.0, as
    a per-step accumulation would. x is the layer's step-major input (T, B,
    d), and each gate's weight gradients are one product over all T*B rows.
    """
    T, B, d = x.shape
    lp, ln_g = params.layers[idx], params.ln_gain[idx]
    H = lp.hidden_size
    layout = params.layout
    # the layer's tensors sit side by side, W_xi first and r_on last
    out = flat[layout[f"layers.{idx}.W_xi"][0].start:layout[f"layers.{idx}.r_on"][0].stop]
    k, c_prev = cache["k"], cache["c_prev"]
    i_g, f_g, u_g, o_g = (cache["gates"][:, j] for j in range(4))
    tanh_ct = cache["tanh_ct"]
    keep, not_gates, d_tanh_ct, d_tanh_u = (cache[name] for name in _FACTORS[:4])
    not_i, not_f, _, not_o = (not_gates[:, j] for j in range(4))

    dn = np.empty((T, 4, B, H))  # pre-activation gradients of gates i, f, c, o
    dhs = np.empty((T, B, H))
    dcs = np.zeros((T + 1, B, H))  # step t's dc is dcs[t + 1]
    dh_next = np.zeros((B, H))
    for t, dH_t in zip(range(T - 1, -1, -1), dH):
        dh = np.add(dH_t, dh_next, out=dhs[t])
        dc = dcs[t + 1]
        dh_tilde = dh * k[t]
        dc_tilde = dc * k[t]
        dc_tilde += dh_tilde * o_g[t] * d_tanh_ct[t]
        np.multiply(dh_tilde * tanh_ct[t] * o_g[t], not_o[t], out=dn[t, 3])
        np.multiply(dc_tilde * i_g[t], d_tanh_u[t], out=dn[t, 2])
        np.multiply(dc_tilde * c_prev[t] * f_g[t], not_f[t], out=dn[t, 1])
        np.multiply(dc_tilde * u_g[t] * i_g[t], not_i[t], out=dn[t, 0])
        da = _ln_backward(dn[t], cache["a_hat"][t], cache["inv_std"][t], ln_g, dA[:, t])
        yield da
        if t == 0:  # step 0's dc_prev and dh_prev reach nothing
            break
        dc_prev = np.multiply(dc, keep[t], out=dcs[t])
        dc_prev += dn[t, 3] * lp.w_co
        dc_prev += dc_tilde * f_g[t]
        dc_prev += dn[t, 1] * lp.w_cf
        dc_prev += dn[t, 0] * lp.w_ci
        dh_next = dh * keep[t] + _gate_sum(da, cache["Wh"])

    for name in _FACTORS[:4]:
        del cache[name]
    del keep, not_gates, not_i, not_f, not_o, d_tanh_ct, d_tanh_u
    dK = dhs * cache.pop("dh_dk") + dcs[1:] * cache.pop("dc_dk")
    # each step's row sums: w_ci, w_cf, w_co, b_i .. b_o, tau, s, r_on (the
    # order of the layer's vectors in `out`), then the layer norm's gain, bias
    per_step = np.empty((T, 12, H))
    per_step[:, 0:3] = (dn * c_prev[:, None]).sum(axis=2)[:, [0, 1, 3]]
    np.sum(dn, axis=2, out=per_step[:, 3:7])
    for j, g in enumerate(_gate_backward(dK, cache.pop("gate"))):
        np.sum(g, axis=1, out=per_step[:, 7 + j])
    np.sum(dn * cache["a_hat"], axis=(1, 2), out=per_step[:, 10])
    np.sum(dn, axis=(1, 2), out=per_step[:, 11])
    sums = np.zeros((12, H))
    for t in range(T - 1, -1, -1):
        sums += per_step[t]
    out[4 * (d + H) * H:] = sums[:10].ravel()
    flat[layout[f"ln.{idx}.gain"][0]] = sums[10]
    flat[layout[f"ln.{idx}.bias"][0]] = sums[11]

    # W_xi .. W_xo, then W_hi .. W_ho: each gate's rows, one after the other
    dA_rows = dA.reshape(4, T * B, H)
    np.matmul(x.reshape(T * B, d).T, dA_rows, out=out[:4 * d * H].reshape(4, d, H))
    np.matmul(cache["h_prev"].reshape(T * B, H).T, dA_rows, out=out[4 * d * H:4 * (d + H) * H].reshape(4, H, H))


def _gate_sum(da, W):
    """The sum over the four gates j of da[j] @ W[j].T: the gradient that
    gate-major pre-activation gradients da (4, B, H) pass back through
    gate-major weights W (4, m, H) to their input, (B, m)."""
    return np.matmul(da, W.transpose(0, 2, 1)).sum(axis=0)


def _link_back(steps, Wx, mask):
    """The output gradients of the layer below, a generator over a reverse
    scan's `steps` (t = T-1 down to 0), which it runs to their end: each
    step's gate-major da (4, B, H) through Wx (`_gate_sum`), times
    mask[:, t] unless mask is None. The only place that product is made."""
    for i, da in enumerate(steps):
        dX = _gate_sum(da, Wx)
        yield dX if mask is None else dX * mask[:, -1 - i]


def _stack_backward(dH, inputs, caches, params, masks, flat, n):
    """The reverse scans of layers n-1 down to 0, each layer's gradients
    written into `flat`, laid out as params.flat. A layer's backward factors
    (`_step_factors`, `_gate_cache`) are made just before its scan unless
    its cache holds them; the scan drops them, so one layer's at most are
    held at a time. dH is layer n-1's output gradient, in the steps
    `_layer_backward` takes; each lower layer's is the input gradient of
    the layer above it (`_link_back`), one step at a time."""
    for idx in range(n - 1, -1, -1):
        x, cache = inputs[idx], caches[idx]
        T, B, _ = x.shape
        if "gate" not in cache:
            _step_factors(cache)
            _gate_cache(cache, params.layers[idx])
        dA = np.empty((4, T, B, params.hidden_size))
        steps = _layer_backward(dH, x, cache, params, idx, flat, dA)
        dH = list(_link_back(steps, cache["Wx"], masks[idx - 1]) if idx else steps)


class Gradients(dict):
    """name -> gradient, each a view into `flat`, laid out as ModelParams.flat."""

    flat: np.ndarray


def _gradients_over(params: ModelParams, flat: np.ndarray) -> Gradients:
    """The Gradients whose views are stretches of `flat`, a vector laid out
    as params.flat. It lists W_out and b_out, then each layer's tensors and
    layer norm from the top layer down: the order of the clip norm's sum."""
    views = params.unflatten(flat)
    grads = Gradients()
    grads.flat = flat
    names = ["W_out", "b_out"]
    for idx in range(params.n_layers - 1, -1, -1):
        names += [f"layers.{idx}.{fname}" for fname in LAYER_TENSOR_FIELDS] + [f"ln.{idx}.gain", f"ln.{idx}.bias"]
    grads.update((name, views[name]) for name in names)
    return grads


def _output_backward(hidden, grad_logits, W_out, grads: Gradients) -> np.ndarray:
    """Write the output projection's gradients into grads' W_out and b_out;
    returns the gradient w.r.t. the top layer's output, (B, T, H)."""
    B, T, H = hidden.shape
    gl_flat = grad_logits.reshape(B * T, N_CLASSES)
    np.matmul(hidden.reshape(B * T, H).T, gl_flat, out=grads["W_out"])
    np.sum(gl_flat, axis=0, out=grads["b_out"])
    return (gl_flat @ W_out.T).reshape(B, T, H)


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
    grads = _gradients_over(params, np.empty_like(params.flat))
    dH = _output_backward(trace.hidden, gl, params.W_out, grads)
    _stack_backward(
        dH.swapaxes(0, 1)[::-1], trace.layer_inputs, trace.caches, params, trace.dropout_masks,
        grads.flat, params.n_layers,
    )
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


def _base64_tensor(name: str, entry: dict, size: int) -> np.ndarray:
    """A tensor's data: one base64 string of its row-major, little-endian
    float64 bytes."""
    data = _entry(entry, "data", str, f"tensor {name!r} field")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValidationError(f"tensor {name!r} data is not base64") from None
    if len(raw) != 8 * size:
        raise ValidationError(f"tensor {name!r} data holds {len(raw)} bytes, but its shape needs {8 * size}")
    return np.frombuffer(raw, "<f8")


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Vocabulary, int]:
    """Read a checkpoint of format version 2, validating its structure
    and every tensor shape against the `param_shapes` table of its
    hyperparams; a malformed file is a ValidationError."""
    obj = read_json(path, "checkpoint")
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValidationError(f"unsupported checkpoint format_version {version!r}")
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
        arrays[name] = _base64_tensor(name, entry, math.prod(shape)).reshape(shape)
    # ModelParams checks each tensor's finiteness as it packs it
    params = ModelParams(**_tensor_fields(arrays, n_layers), **{key: float(value) for key, value in numbers.items()})
    vocab = vocabulary_from_dict(obj.get("vocab"), "checkpoint vocab")
    if params.input_dim != vocab.encoding_dim:
        raise ValidationError(
            f"checkpoint input_dim {params.input_dim} does not match vocabulary encoding dim {vocab.encoding_dim}"
        )
    return params, vocab, _entry(obj, "rng_seed", int, "field", 0)
