"""Mini-batch training loop, per-step conversion prediction, and ROC/AUC
evaluation over journey datasets.

An SGD step runs as a two-stage wavefront over the time steps. The first
stage is every layer below the top one, the second the top layer, the
output projection and the loss. In the forward the second stage runs one
time step behind the first; in the backward the first runs one step behind
the second. Both step their layers through the one cell kernel,
`model.gate_major_step`, with the layers' weights as gate-major views of
the parameters. The first stage also makes the top layer's input
projections (`model._projections`) and input gradients
(`model._link_back`), as `forward_batch` and `backward_batch` do: one
batched B-row product per step, or, in a one-layer model, one projection
of all B*T rows and no gradient; the stages exchange them gate-major,
(4, T, B, H). On two processes (`train(workers=2)`, two or more layers)
the first stage runs in the calling process and the second in a helper
forked at the start of `train`; each writes its layers' gradients into
one flat gradient in shared memory.

Each process also does the rest of the step for the tensors it owns. It
sums the squares of its gradients, tensor by tensor; the caller adds those
sums in `grads` order, the helper's first, for the clip norm. Then each
process clips, applies momentum, steps and clamps its own tensors: the
helper the top layer's recurrent weights, vectors and gate timing, its
layer norm and the output projection, the caller the rest, the top layer's
input weights among them, since its next step's first projection reads
them. The backward's factors that depend only on the forward are made in
the waits: the caller makes the lower layers' while it waits for the loss,
then reads the next batch and draws its dropout masks, and makes their time
gates' factors while it waits for the top layer's first input gradient; the
helper makes the top layer's gate factors before its first input arrives
and each step's recurrence factors just before that step's backward.
After each epoch the two processes score the validation blocks between
them (`_blocks`, shared by events): runs of at most EVAL_BATCH validation
journeys in their order, lengths mixed, each one float64 trie scan
(`model.scan_logits`). The blocks' losses are added in block order, so
the loss has the bits of one process.

On one process the same functions run one after the other. Either way
every operation keeps the operands and order of `forward_batch`,
`backward_batch` and one clip and update of the whole flat vector, so the
parameters and the loss history come out bit for bit the same at every
batch shape. Those two stay the readable reference the tests check a step
against; no training step calls them. Validation, `evaluate_roc` and
`predict` score through the trie scan, which gives `forward_batch`'s
values at inference, not its bits.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import mmap
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._fork import Worker, processes, sharded, shares
from .errors import (
    ConfigError,
    EvaluationError,
    TrainingDivergedError,
    ValidationError,
)
from .journey import CustomerJourney, JourneyTable, Vocabulary, encode_journey, journey_table
from .model import (
    LAYER_TENSOR_FIELDS,
    Gradients,
    ModelParams,
    _gate_cache,
    _dropout_draws,
    _gradients_over,
    _layer_backward,
    _layer_scan,
    _layer_setup,
    _link_back,
    _output_backward,
    _projections,
    _stack_backward,
    _stack_scan,
    _step_factors,
    clamp_gate_timing,
    gate_stack,
    init_params,
    scan_logits,
    softmax,
)
# forward_batch and backward_batch are not called here, but perfbench's
# tracer wraps deepmta.trainer.forward_batch and .backward_batch, so the
# names must stay importable
from .model import backward_batch, forward_batch  # noqa: F401

PROB_CLIP = 1e-12
MOMENTUM = 0.9
GRAD_CLIP_NORM = 5.0
EVAL_BATCH = 256


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 0.01
    epochs: int = 30
    dropout_p: float = 0.5
    hidden_size: int = 64
    n_layers: int = 2
    seed: int = 0
    optimizer: str = "sgd"
    val_fraction: float = 0.1
    r_on_init: float = 0.5
    use_time_feature: bool = False

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.hidden_size < 1 or self.n_layers < 1:
            raise ConfigError("batch_size, epochs, hidden_size, and n_layers must be positive integers")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite value > 0, got {self.learning_rate}")
        if not 0 <= self.dropout_p < 1:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError("val_fraction must lie in [0, 1)")
        if not 0 < self.r_on_init < 1:
            raise ConfigError("r_on_init must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "TrainConfig":
        """Named presets: "desk" for laptop-scale runs, "paper" for the
        published hyperparameter table (1024 units, batch 128, 300 epochs).

        Desk-scale departures, all forced by measurements at 64 units on
        short journeys: momentum SGD (plain SGD plateaus well short of the
        same loss in 30 epochs), gates open wider at init (r_on 0.5, since
        the closed branch passes no r_on gradient and 0.05 leaves most units
        permanently shut), and the raw hour-offset input column is ablated
        (use_time_feature=False). Ablating it matters twice over: its
        magnitude dominates the pre-activation layer-norm variance and
        drowns the one-hot content signal, and it leaks timing into the
        maskable features, which turns masked-input attribution into a
        recency detector. Timing still reaches the model through the gate,
        which sees the unmasked offsets.
        """
        if name == "desk":
            cfg = cls(optimizer="sgd_momentum")
        elif name == "paper":
            cfg = cls(
                batch_size=128, learning_rate=0.01, epochs=300, dropout_p=0.5,
                hidden_size=1024, n_layers=2, r_on_init=0.05, use_time_feature=True,
            )
        else:
            raise ConfigError(f"unknown preset {name!r} (expected 'desk' or 'paper')")
        return replace(cfg, **overrides) if overrides else cfg


def _step_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step binary cross-entropy and the softmax it uses. The
    positive-class probability comes from a two-way softmax and is clipped
    to [1e-12, 1 - 1e-12] before the logs."""
    probs = softmax(logits)
    p1 = np.clip(probs[..., 1], PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(labels, dtype=np.float64)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1)), probs


def _loss_and_grad_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss (mean over journeys of per-journey step means) and its
    gradient w.r.t. the logits."""
    B, T, _ = logits.shape
    ce, probs = _step_cross_entropy(logits, labels)
    target = np.zeros_like(probs)
    target[..., 1] = labels
    target[..., 0] = 1.0 - labels
    return float(ce.mean()), (probs - target) / (B * T)


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    train_losses: list[float]
    val_losses: list[float]


def _chunks(table: JourneyTable, order: np.ndarray, size: int):
    """The indices of each batch of `_batches`, in its order."""
    order = np.asarray(order, dtype=np.int64)
    order = order[np.argsort(table.lengths[order], kind="stable")]
    for bucket in np.split(order, np.flatnonzero(np.diff(table.lengths[order])) + 1):
        for start in range(0, len(bucket), size):
            yield bucket[start:start + size]


def _batches(table: JourneyTable, order: np.ndarray, size: int):
    """Journeys of `order` grouped by length, in ascending length, in `order`
    within a length and at most `size` per batch, so batches never pad:
    yields (chunk, features, times, labels) with the chunk's indices and its
    rows gathered from the table, shaped (batch, length, ...)."""
    for chunk in _chunks(table, order, size):
        rows = table.starts[chunk, None] + np.arange(table.lengths[chunk[0]])
        yield chunk, table.features[rows], table.times[rows], table.labels[rows]


def _blocks(table: JourneyTable, idxs: np.ndarray, n: int) -> tuple[list[np.ndarray], list[list[int]]]:
    """The blocks of inference: `idxs` cut into runs of at most EVAL_BATCH
    journeys, in their order, lengths mixed; and the blocks each of n
    processes scores, shared by events (`_fork.shares`)."""
    blocks = [idxs[start:start + EVAL_BATCH] for start in range(0, len(idxs), EVAL_BATCH)]
    return blocks, shares([int(table.lengths[block].sum()) for block in blocks], n)


def _block_logits(table: JourneyTable, block: np.ndarray, params: ModelParams) -> tuple[np.ndarray, JourneyTable]:
    """The table of the journeys of `block`, in its order, and the logits
    at inference of each of its events (`scan_logits`)."""
    lengths = table.lengths[block]
    rows = np.arange(lengths.sum()) + np.repeat(table.starts[block] - (np.cumsum(lengths) - lengths), lengths)
    sub = JourneyTable(table.features[rows], table.times[rows], table.labels[rows], lengths)
    return scan_logits(params, sub), sub


def _block_losses(table: JourneyTable, blocks: list[np.ndarray], params: ModelParams, totals, which) -> None:
    """totals[i] = the summed per-journey loss at inference of the journeys
    of blocks[i], for each i in `which`: a journey's loss is the mean of
    its steps' cross-entropies."""
    for i in which:
        logits, sub = _block_logits(table, blocks[i], params)
        ce, _ = _step_cross_entropy(logits, sub.labels)
        totals[i] = (np.add.reduceat(ce, sub.starts) / sub.lengths).sum()


def _block_scores(table: JourneyTable, blocks: list[np.ndarray], params: ModelParams, which) -> list[np.ndarray]:
    """The scores of every event of the journeys of blocks[i], in their
    order, for each i in `which`: a score is the positive-class softmax."""
    return [softmax(_block_logits(table, blocks[i], params)[0])[:, 1] for i in which]


def _ordered_sum(values) -> float:
    """The values added one at a time, left to right, from 0.0, as a loop
    over them adds them: the order that fixes the bits of a validation loss
    and of the clip norm, however their terms were made. (From Python 3.12
    the built-in sum compensates float rounding.)"""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def _dataset_loss(table: JourneyTable, idxs: np.ndarray, params: ModelParams) -> float:
    """Mean per-journey loss at inference over the given indices, in their
    `_blocks`, whose totals are added in block order."""
    if len(idxs) == 0:
        return float("nan")
    blocks, _ = _blocks(table, idxs, 1)
    totals = np.empty(len(blocks))
    _block_losses(table, blocks, params, totals, range(len(blocks)))
    return _ordered_sum(totals) / len(idxs)


def _train_val_split(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded journey-level split: every journey lands in exactly one side."""
    perm = rng.permutation(n)
    n_val = int(round(fraction * n))
    if fraction > 0 and n_val == 0 and n >= 2:
        n_val = 1
    return perm[n_val:], perm[:n_val]


# ---------------------------------------------------------------------------
# the two-stage wavefront of an SGD step
# ---------------------------------------------------------------------------


def _shared_arrays(sizes: dict[str, int]) -> dict[str, np.ndarray]:
    """name -> float64 vector of the given size, each in one anonymous
    shared mapping: a process forked after they are made reads and writes
    the same memory as its parent. Each starts on a 64-byte boundary."""
    starts, end = {}, 0
    for name, size in sizes.items():
        starts[name] = end
        end += -(-size // 8) * 8
    flat = np.frombuffer(mmap.mmap(-1, 8 * end), dtype=np.float64)
    return {name: flat[start:start + sizes[name]] for name, start in starts.items()}


def _view(vector: np.ndarray, *shape: int) -> np.ndarray:
    return vector[:math.prod(shape)].reshape(shape)


def _span(layout: dict, first: str, last: str) -> slice:
    """The stretch of the flat vector from tensor `first` to tensor `last`."""
    return slice(layout[first][0].start, layout[last][0].stop)


# W_out, b_out, the top layer's tensors and its layer norm lead `grads`
_TOP_TENSORS = 4 + len(LAYER_TENSOR_FIELDS)


def _square_sums(grads: Gradients, which: Iterable[int], sums: np.ndarray) -> None:
    """sums[i] = the sum of squares of the i-th gradient in `grads` order,
    for each i in `which`: the terms of the clip norm's square."""
    views = list(grads.values())
    for i in which:
        sums[i] = np.square(views[i].ravel()).sum()


def _sgd_update(params: ModelParams, grads: Gradients, velocity, parts, norm: float, learning_rate: float) -> None:
    """The clip to GRAD_CLIP_NORM, the momentum (unless velocity is None)
    and the SGD step, over the stretches `parts` of the flat gradient,
    velocity and parameters. Each is elementwise, so any split of the
    vector gives the bits of one pass over it."""
    for part in parts:
        g = grads.flat[part]
        if norm > GRAD_CLIP_NORM:
            g *= GRAD_CLIP_NORM / norm
        if velocity is not None:
            v = velocity[part]
            v *= MOMENTUM
            v += g
            g = v
        params.flat[part] -= learning_rate * g


def _lower_forward(params, feats, times, masks, shared, handoff):
    """The first stage's forward: the layers below the top one over the
    batch (`_stack_scan`), one step at a time. After step t the top layer's
    input row top_in[t] (in a one-layer model, the batch's) and its
    gate-major projection proj[:, t] (`_projections`) are written, then
    handoff() is called. Returns the lower layers' inputs and caches and
    the top layer's gate-major input weights, a view of params.flat."""
    B, T, _ = feats.shape
    top = params.n_layers - 1
    lp = params.layers[top]
    inputs, caches, scan = _stack_scan(feats, times, params, masks, params.alpha, True, top)
    top_in = _view(shared["top_in"], T, B, lp.input_size)
    if not top:
        top_in[...] = feats.swapaxes(0, 1)
    proj = _view(shared["proj"], 4, T, B, lp.hidden_size)
    Wx = gate_stack(params, top, "W_x")
    for t, x_proj in enumerate(_projections(top, top_in, Wx, scan, masks)):
        proj[:, t] = x_proj
        handoff()
    return inputs, caches, Wx


def _top_step(params, shared, grads, wait, handoff) -> None:
    """The second stage's part of an SGD step: the top layer, whose step t
    input projection proj[:, t] is read after wait(), the logits, and the
    loss, written into meta[2] before a handoff(). The layer's gate factors
    are made before the first wait. If the loss is finite, then the output
    projection's gradients and the top layer's reverse scan, which makes
    step t's recurrence factors, writes dA[:, t] and calls handoff() for each
    step t, and one more handoff() once every gradient of the stage is
    written into grads and its square sums into sums. (In the forward the
    stage keeps pace with the first and hardly waits, so the recurrence
    factors made there would delay the loss.)"""
    B, T = int(shared["meta"][0]), int(shared["meta"][1])
    H = params.hidden_size
    times, labels = _view(shared["times"], B, T), _view(shared["labels"], B, T)
    proj = _view(shared["proj"], 4, T, B, H)
    top = params.n_layers - 1
    lp = params.layers[top]
    cell, k, cache = _layer_setup(times, params, top, params.alpha, True)
    _gate_cache(cache, lp)

    def steps():
        for t in range(T):
            wait()
            yield proj[:, t]

    hidden = np.stack(list(_layer_scan(steps(), cell, k, cache)), axis=1)
    logits = hidden @ params.W_out + params.b_out
    shared["meta"][2], grad_logits = _loss_and_grad_batch(logits, labels)
    handoff()
    if not np.isfinite(shared["meta"][2]):
        return
    dH = _output_backward(hidden, grad_logits, params.W_out, grads)

    def upstream():
        for t in range(T - 1, -1, -1):
            yield dH[:, t]
            if t:
                _step_factors(cache, t - 1)

    _step_factors(cache, T - 1)  # it also makes the arrays, which the reverse scan reads from its start

    top_in, dA = _view(shared["top_in"], T, B, lp.input_size), _view(shared["dA"], 4, T, B, H)
    for _ in _layer_backward(upstream(), top_in, cache, params, top, grads.flat, dA):
        handoff()
    _square_sums(grads, range(_TOP_TENSORS), shared["sums"])
    handoff()


def _lower_backward(params, inputs, times, caches, masks, Wx, shared, flat, wait) -> None:
    """The first stage's backward: the reverse scans of the layers below the
    top one (`_stack_backward`). The output gradient of the last of them at
    step t is the top layer's input gradient (`_link_back` of dA[:, t]),
    made after wait(), from t = T-1 down to 0."""
    B, T = times.shape
    dA = _view(shared["dA"], 4, T, B, params.hidden_size)

    def steps():
        for t in range(T - 1, -1, -1):
            wait()
            yield dA[:, t]

    _stack_backward(_link_back(steps(), Wx, masks[-1]), inputs, caches, params, masks, flat, params.n_layers - 1)


# the commands that start the helper's part of an SGD step or of a
# validation pass; every other byte on the pipes is a plain handoff
_STEP, _VALIDATE = b"s", b"v"


class _Lookahead:
    """An iterator whose next item may be read early, by fetch()."""

    def __init__(self, items: Iterable):
        self.items, self.ahead = iter(items), []

    def fetch(self) -> None:
        if not self.ahead:
            self.ahead.extend(itertools.islice(self.items, 1))

    def __iter__(self) -> "_Lookahead":
        return self

    def __next__(self):
        self.fetch()
        if not self.ahead:
            raise StopIteration
        return self.ahead.pop()


class _Wavefront:
    """The SGD steps and validation passes of one `train` run, and, on two
    processes, their helper: where two are asked for and the model has a
    layer below the top one (`processes` says how many run). When it is
    made, the parameters and the momentum velocity move into shared memory,
    next to the flat gradient, the stages' exchange arrays (sized for
    batches of up to cfg.batch_size journeys of up to the table's longest
    length), the clip norm's per-tensor square sums and the validation
    batches' losses. On entry the helper is forked (a `_fork.Worker`), so
    it holds them all, the table and the validation indices from the start.

    The two processes hand each other one byte over the worker's pipes per
    event of the schedule. The caller sends a command (_STEP, _VALIDATE) to
    start each of the helper's parts, a byte after each forward step of its
    stage and one once the clip norm is in meta[3]; the helper sends one
    after the loss, after each backward step of its stage, at the end of
    its backward, at the end of its update and at the end of its validation
    share. A step returns after both updates, so the caller reads the
    helper's tensors only after their update."""

    def __init__(self, params: ModelParams, cfg: TrainConfig, table: JourneyTable, val_idx: np.ndarray, processes: int):
        H, n = params.hidden_size, cfg.batch_size * int(table.lengths.max())
        momentum = cfg.optimizer == "sgd_momentum"
        self.params, self.table = params, table
        self.processes = processes if params.n_layers > 1 else 1
        self.learning_rate = cfg.learning_rate
        self.val_idx = val_idx
        self.val_blocks, self.val_shares = _blocks(table, val_idx, 2)
        self.shared = _shared_arrays({
            "params": params.flat.size, "grads": params.flat.size, "velocity": params.flat.size if momentum else 0,
            "top_in": n * params.layers[-1].input_size, "proj": n * 4 * H, "dA": n * 4 * H, "times": n, "labels": n,
            "meta": 4, "sums": len(params.layout), "val": len(self.val_blocks),
        })
        params.move_to(self.shared["params"])
        self.velocity = self.shared["velocity"] if momentum else None
        self.grads = _gradients_over(params, self.shared["grads"])
        top, layout = params.n_layers - 1, params.layout
        # the stretches of the flat vectors each process updates and the
        # layers whose gate timing it clamps: the caller's, the helper's
        self.parts, self.clamped = ([slice(None)], []), ([0], [])
        if top:
            self.parts = (
                [_span(layout, "layers.0.W_xi", f"layers.{top}.W_xo"), _span(layout, "ln.0.gain", f"ln.{top - 1}.bias")],
                [_span(layout, f"layers.{top}.W_hi", f"layers.{top}.r_on"), _span(layout, f"ln.{top}.gain", "b_out")],
            )
            self.clamped = range(top), [top]
        self.helper = None

    def __enter__(self) -> "_Wavefront":
        if self.processes > 1:
            self.helper = Worker("the training helper process", self._helper).__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is not None:
            self.helper.__exit__(*exc)

    def _helper(self, recv_fd: int, send_fd: int) -> None:
        """The helper process's loop: its part of each step or validation
        pass the caller starts, until the caller closes its pipe."""
        def wait() -> bytes:
            command = os.read(recv_fd, 1)
            if not command:
                raise EOFError
            return command

        def handoff():
            os.write(send_fd, b"\0")

        try:
            while True:
                if wait() == _VALIDATE:
                    self._score_validation(1)
                    handoff()
                    continue
                _top_step(self.params, self.shared, self.grads, wait, handoff)
                if np.isfinite(self.shared["meta"][2]):
                    wait()  # the norm
                    self._update(1)
                    handoff()
        except (EOFError, BrokenPipeError):  # the caller is done, or gone
            return

    def _send(self, command: bytes = b"\0") -> None:
        if self.helper is not None:
            self.helper.write(command)

    def _wait(self) -> None:
        if self.helper is not None:
            self.helper.read(1)

    def _update(self, owner: int) -> None:
        """The clip, momentum and SGD step and the gate clamp of the tensors
        of one process (0 the caller, 1 the helper), by the norm in meta[3]."""
        params = self.params
        norm = float(self.shared["meta"][3])
        _sgd_update(params, self.grads, self.velocity, self.parts[owner], norm, self.learning_rate)
        clamp_gate_timing(params, self.clamped[owner])

    def _score_validation(self, owner: int) -> None:
        _block_losses(self.table, self.val_blocks, self.params, self.shared["val"], self.val_shares[owner])

    def validation_loss(self) -> float:
        """`_dataset_loss` of the validation indices; on two processes each
        scores its share of their `_blocks`, and the blocks' losses are
        added in block order."""
        if self.helper is None or not len(self.val_idx):
            return _dataset_loss(self.table, self.val_idx, self.params)
        self._send(_VALIDATE)
        self._score_validation(0)
        self._wait()
        return _ordered_sum(self.shared["val"]) / len(self.val_idx)

    def step(self, feats, times, labels, masks, while_waiting: Callable[[], None] | None = None):
        """One SGD step: the loss and the gradients, the clip, the momentum
        and SGD update and the gate clamp. Returns the loss and the
        gradient's norm before clipping, or the loss and None where the loss
        is not finite (the run then ends: nothing is updated, and the
        helper's stage stops at the loss). masks are the dropout masks of
        the layers below the top one, None where there is no dropout. Where
        cfg.use_time_feature is False, feats' hour-offset column must be
        zero, as `_drawn_batches` makes it: the step trains that column's
        input weights like any other. while_waiting, if given, is called
        once while the caller waits for the loss: the next batch is read
        there. The second stage runs on the
        helper, or on one process after the first stage's forward; the
        caller adds the square sums of its gradients once the helper's are
        in."""
        params, shared, grads = self.params, self.shared, self.grads
        B, T = times.shape
        _view(shared["times"], B, T)[...] = times
        _view(shared["labels"], B, T)[...] = labels
        shared["meta"][:2] = B, T
        self._send(_STEP)
        inputs, caches, Wx = _lower_forward(params, feats, times, masks, shared, self._send)
        if self.helper is None:  # one process: the second stage runs here, and _wait and _send do nothing
            _top_step(params, shared, grads, self._wait, self._send)
        # the lower layers' backward factors and the next batch while the
        # helper ends its forward, their gates' while it starts its backward
        for cache in caches:
            _step_factors(cache)
        if while_waiting is not None:
            while_waiting()
        self._wait()
        loss = float(shared["meta"][2])
        if not np.isfinite(loss):
            return loss, None
        for cache, lp in zip(caches, params.layers):
            _gate_cache(cache, lp)
        if caches:  # none in a one-layer model
            _lower_backward(params, inputs, times, caches, masks, Wx, shared, grads.flat, self._wait)
        _square_sums(grads, range(_TOP_TENSORS, len(grads)), shared["sums"])
        self._wait()
        # the clip norm: the square sums added in `grads` order, one tensor
        # at a time (one dot product over the vector would round differently)
        shared["meta"][3] = norm = float(np.sqrt(_ordered_sum(shared["sums"])))
        self._send()
        self._update(0)
        self._wait()
        if self.helper is None:
            self._update(1)
        return loss, norm


def _drawn_batches(table: JourneyTable, order: np.ndarray, cfg: TrainConfig, rng: np.random.Generator):
    """The `_batches` of `order`, each with the dropout masks of the layers
    below the top one, drawn from rng as the batch is read: the masks
    forward_batch would draw, in its order (None without dropout). Without
    cfg.use_time_feature the hour-offset column of the gathered features, a
    copy, is zeroed: its input weights start at +0.0, so their gradients
    are signed zeros, and the update keeps them at +0.0."""
    n_lower = cfg.n_layers - 1
    for chunk, feats, times, labels in _batches(table, order, cfg.batch_size):
        if not cfg.use_time_feature:
            feats[..., -1] = 0.0
        shape = (*times.shape, cfg.hidden_size)
        masks = _dropout_draws(rng, shape, cfg.dropout_p, n_lower) if cfg.dropout_p > 0 else [None] * n_lower
        yield chunk, feats, times, labels, masks


def train(
    journeys: Iterable[CustomerJourney] | JourneyTable,
    vocab: Vocabulary,
    cfg: TrainConfig,
    workers: int = 1,
    on_start: Callable[[int], None] | None = None,
) -> TrainResult:
    """Train from scratch on the given journeys: any iterable of them, read
    once into a JourneyTable (`journey_table`), or such a table.

    Deterministic for a fixed (data, cfg.seed): init, the train/validation
    split, shuffling, and dropout all draw from one seeded generator.
    Journeys are bucketed by length so batches never pad. Each SGD step is
    the two-stage wavefront of this module's docstring, on two processes
    where `workers` allows two, the model has two or more layers and the
    platform can fork, else on one; the result is the same either way.
    on_start, if given, is called with that process count before the first
    epoch. Raises TrainingDivergedError with epoch/step context if the loss
    goes non-finite, and WorkerError if the helper process dies.
    """
    n_processes = processes(workers, 2)
    table = journey_table(journeys, vocab)
    if not len(table):
        raise ValidationError("train requires a non-empty dataset")
    rng = np.random.default_rng(cfg.seed)

    train_idx, val_idx = _train_val_split(len(table), cfg.val_fraction, rng)
    if len(train_idx) == 0:
        raise ValidationError("dataset too small for the requested validation fraction")

    t_span = max(1.0, float(table.times.max()))
    time_idx = vocab.encoding_dim - 1
    params = init_params(
        input_dim=vocab.encoding_dim,
        hidden_size=cfg.hidden_size,
        n_layers=cfg.n_layers,
        dropout_p=cfg.dropout_p,
        t_span_hours=t_span,
        rng=rng,
        r_on_init=cfg.r_on_init,
        time_feature_index=time_idx if cfg.use_time_feature else None,
    )
    if not cfg.use_time_feature:
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            getattr(params.layers[0], name)[time_idx, :] = 0.0

    train_losses: list[float] = []
    val_losses: list[float] = []
    with _Wavefront(params, cfg, table, val_idx, n_processes) as wavefront:
        if on_start is not None:
            on_start(wavefront.processes)
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            order = train_idx[rng.permutation(len(train_idx))]
            batches = _Lookahead(_drawn_batches(table, order, cfg, rng))
            epoch_loss = 0.0
            n_journeys_seen = 0
            norms = []
            for step, (chunk, feats, times, labels, masks) in enumerate(batches):
                batch_loss, norm = wavefront.step(feats, times, labels, masks, batches.fetch)
                if norm is None:
                    raise TrainingDivergedError(epoch, step)
                norms.append(norm)
                epoch_loss += batch_loss * len(chunk)
                n_journeys_seen += len(chunk)
            train_losses.append(epoch_loss / n_journeys_seen)
            val_losses.append(wavefront.validation_loss())
            clipped = sum(norm > GRAD_CLIP_NORM for norm in norms) / len(norms)
            print(f"epoch={epoch} train_loss={train_losses[-1]:.6g} val_loss={val_losses[-1]:.6g} "
                  f"seconds={time.perf_counter() - start:.3f} grad_norm_mean={np.mean(norms):.6g} "
                  f"grad_norm_max={max(norms):.6g} clipped_share={clipped:.4g}", file=sys.stderr)
    # a copy, so that the result holds no shared memory
    return TrainResult(params=params.copy(), vocab=vocab, train_losses=train_losses, val_losses=val_losses)


def predict(params: ModelParams, journey: CustomerJourney, vocab: Vocabulary) -> np.ndarray:
    """Per-step conversion probability (positive-class softmax) for one
    journey, from the scan of eval and validation (`scan_logits`). Pure
    function of (params, journey); hard labels are prob >= 0.5."""
    return softmax(scan_logits(params, encode_journey(journey, vocab)))[:, 1]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    auc: float
    roc_points: list[tuple[float, float]]
    thresholds: list[float]
    per_step_accuracy: float


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """Average (midrank) 1-based ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + ends + 1) / 2.0
    return avg[inverse]


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with ties counted as one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs at least one positive and one negative step")
    ranks = _tied_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> tuple[list[float], list[tuple[float, float]]]:
    """Threshold sweep over distinct scores (predict positive at score >=
    threshold). Returns (thresholds, points); starts at (0,0) with threshold
    +inf and ends at (1,1)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC needs at least one positive and one negative step")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    # last index of each tie group
    distinct = np.r_[np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1]
    thresholds = [float("inf")] + [float(sorted_scores[i]) for i in distinct]
    points = [(0.0, 0.0)] + [(float(fps[i]) / n_neg, float(tps[i]) / n_pos) for i in distinct]
    return thresholds, points


def evaluate_roc(
    params: ModelParams,
    vocab: Vocabulary,
    journeys: Iterable[CustomerJourney] | JourneyTable,
    workers: int = 1,
    on_start: Callable[[int], None] | None = None,
) -> EvalResult:
    """Score every step of every journey (any iterable of them, read once
    into a JourneyTable, or such a table) and evaluate step-level ROC/AUC.

    Positives are the conversion steps (label 1); negatives are all other
    steps, including every step of non-converted journeys.

    The journeys are scored as validation scores them: in blocks of at
    most EVAL_BATCH journeys in table order, each one trie scan
    (`_blocks`, `scan_logits`). Where `workers` allows two processes
    (`_fork.processes`) and there are two blocks or more, a forked scorer
    process scores the blocks that `_fork.shares` gives the second process
    and sends back their scores in one pickle (`_fork.sharded`); the
    scores are joined in block order, so the result is the same either
    way. on_start, if given, is called with that process count before the
    first block is scored. Raises WorkerError if the scorer dies.
    """
    n_processes = processes(workers, 2)
    table = journey_table(journeys, vocab)
    if not len(table):
        raise EvaluationError("evaluation requires a non-empty dataset")
    blocks, parts = _blocks(table, np.arange(len(table)), n_processes)
    parts = [part for part in parts if part]
    if on_start is not None:
        on_start(len(parts))
    scored = sharded("the eval scorer process", functools.partial(_block_scores, table, blocks, params), parts)
    by_block = dict(zip(itertools.chain(*parts), itertools.chain(*scored)))
    # the blocks cover the table in order, so the scores are in the labels' order
    scores = np.concatenate([by_block[i] for i in range(len(blocks))])
    labels = table.labels
    auc = auc_score(scores, labels)
    thresholds, points = roc_curve(scores, labels)
    acc = float(((scores >= 0.5).astype(int) == labels).mean())
    return EvalResult(auc=auc, roc_points=points, thresholds=thresholds, per_step_accuracy=acc)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def save_loss_history(path: str | Path, train_losses: list[float], val_losses: list[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, (tr, va) in enumerate(zip(train_losses, val_losses)):
            writer.writerow([epoch, repr(tr), repr(va)])


def save_roc_csv(path: str | Path, result: EvalResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for thr, (fpr, tpr) in zip(result.thresholds, result.roc_points):
            writer.writerow([repr(thr), repr(fpr), repr(tpr)])
