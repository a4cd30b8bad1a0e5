"""Interpretation stage: per-event credit for a trained model's prediction.

Events of one journey are treated as players of a cooperative game whose
value is the model's masked-prediction accuracy. Credit comes from Shapley
values, exact up to EXACT_LIMIT events and permutation-sampled above, or
from a least-squares fit of accuracy on mask indicator rows (`ols`, the
Banzhaf values in closed form on the full powerset), and always ends in
clip-and-normalize.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ._fork import processes, sharded, shares
from .errors import ConfigError, DeepMtaError, DimensionError, LineError, NumericError, ValidationError
from .journey import (
    CustomerJourney,
    JourneyRecords,
    JourneyTable,
    Vocabulary,
    _journey_columns,
    _table_of,
    finite_number,
    read_jsonl,
    record_events,
    record_journey,
)
from .model import ModelParams, _last_kept, _scan_inputs, _trie_steps, softmax
# encode_journey and forward_batch are not called here, but perfbench's
# tracer wraps deepmta.attribution.encode_journey and .forward_batch, so the
# names must stay importable
from .journey import encode_journey  # noqa: F401
from .model import forward_batch  # noqa: F401

EXACT_LIMIT = 12
OLS_SAMPLE_ROWS = 2048
# sampled Shapley's default number of permutations per journey
PERMUTATION_SAMPLES = 2048
RIDGE = 1e-8
# the distinct mask rows per trie block: _BLOCK_VALUES // H at H units, but
# at least _MIN_BLOCK_ROWS. A block's scan holds about ten state-sized
# float32 arrays per row, so _BLOCK_VALUES // H rows take about 5 MB (2048
# rows at 64 units), and a worker's memory stays near that of one journey's
# scan. Each step of a block streams every layer's weights once, which at
# wide models costs more than the rows' own work: at 1024 units, blocks of
# 128 rows took 2.3 times as long as blocks of 1024 (about 40 MB of state)
_BLOCK_VALUES = 2 ** 17
_MIN_BLOCK_ROWS = 1024
# distinct mask rows per worker that close a window: four of the largest
# exact games, so that a window's fork, plans and scan inputs are paid once
# for many journeys
_WINDOW_ROWS = 2 ** (EXACT_LIMIT + 2)
# the trie scores in float32; a scored node whose float32 logit margin is
# smaller than this gets its hard label from a float64 scan. The largest
# float32 margin error measured is about 1.2e-5, so outside the band both
# precisions give the same label
RECHECK_MARGIN = 1e-3
# most permutation-prefix rows, n_samples * (n + 1), one sampled journey may
# plan: 2048 samples of a 32-event journey take 67584 rows, and at the limit
# its prefix matrix takes 32 MB
MAX_PREFIX_ROWS = 2 ** 20
# most planned-row values stacked into one solve. A sampled game of a short
# journey has far more planned rows than distinct ones, so a window can hold
# hundreds of such journeys. A sampled solve's temporaries take about three
# times this many float64s, an exact one's about 1.5 n times (2^16 of them,
# 16 games of 12 events, take about 9 MB)
_SOLVE_VALUES = 2 ** 16

METHODS = ("ols", "shapley_exact", "shapley_sampled", "auto")


@dataclass
class AttributionResult:
    """Per-event weights for one journey plus solver diagnostics."""

    raw_weights: np.ndarray
    intercept: float
    weights: np.ndarray
    method: str
    unattributed: bool


def mask_powerset(n: int) -> np.ndarray:
    """All 2^n binary rows in counting order (event 0 is the most
    significant bit), so 1-indexed row 8 for n=5 is [0,0,1,1,1]."""
    if n < 1:
        raise ValidationError("mask_powerset needs n >= 1")
    if n > EXACT_LIMIT:
        raise ValidationError(f"n={n} exceeds exact_limit={EXACT_LIMIT}; use shapley_sampled or auto")
    rows = np.arange(2 ** n, dtype=np.int64)
    bits = (rows[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits.astype(np.int64)


def masked_accuracy_batch(params: ModelParams, enc: JourneyTable, masks: np.ndarray) -> np.ndarray:
    """Masked accuracy of many 0/1 mask rows of the one journey of table
    `enc` (as `encode_journey` gives it), through a prefix trie: the
    agreement rate of hard predictions and labels over each row's unmasked
    positions, 0 for the all-zero row. A masked event's feature row is
    zeroed but keeps its slot and time.

    The one-journey case of the block scan that `attribute_journeys` runs
    over a table of many journeys' games: see `_scan_block`.
    """
    masks = np.asarray(masks)
    if len(enc) != 1 or masks.ndim != 2 or masks.shape[1] != len(enc.times):
        raise DimensionError(
            f"masks must be (m, {len(enc.times)}) of one journey, got {masks.shape} of {len(enc)} journeys")
    bits = masks != 0
    if not np.all(masks[bits] == 1):
        raise ValidationError("mask entries must be 0 or 1")
    if len(bits) == 0:
        return np.empty(0)
    rows, inverse = _distinct(bits)
    return _game_values(params, enc, [(0, rows)], GameStats())[0][inverse]


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a bool matrix, sorted so that rows sharing a
    prefix are adjacent, and for each row the index of its distinct row."""
    # one byte string per row; their sort order is the rows' lexicographic order
    packed = np.packbits(bits, axis=1)
    width = packed.shape[1]
    keys, inverse = np.unique(packed.view(f"V{width}").reshape(-1), return_inverse=True)
    rows = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=bits.shape[1]).astype(bool)
    return rows, inverse.reshape(-1)


@dataclass
class _Plan:
    """The game that every journey of one length plays under one method: its
    distinct mask rows and each planned row's index among them (as
    `_distinct` gives them), and `solve`, which maps the values of the
    planned rows of many journeys, stacked (J, planned rows), to their
    intercepts (J,) and raw weights (J, n)."""

    method: str
    rows: np.ndarray
    inverse: np.ndarray
    solve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def finish(self, values: np.ndarray) -> list[AttributionResult]:
        """The results of the journeys whose stacked values are given."""
        intercepts, raw = self.solve(values)
        weights, unattributed = _clip_normalize_rows(raw)
        return [
            AttributionResult(raw_weights=r, intercept=float(i), weights=w, method=self.method, unattributed=bool(u))
            for r, i, w, u in zip(raw, intercepts, weights, unattributed)
        ]


@dataclass
class GameStats:
    """Work counters of game evaluations: windows read (one fork and one set
    of plans each), trie blocks scanned, distinct prefix node-steps stepped,
    scored nodes whose hard label was rechecked in float64, and journeys
    left unattributed."""

    windows: int = 0
    blocks: int = 0
    node_steps: int = 0
    rechecked: int = 0
    unattributed: int = 0

    def add(self, other: "GameStats") -> None:
        self.windows += other.windows
        self.blocks += other.blocks
        self.node_steps += other.node_steps
        self.rechecked += other.rechecked
        self.unattributed += other.unattributed


def _block_rows(params: ModelParams) -> int:
    """The most distinct mask rows one trie block of `params` holds."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_VALUES // params.hidden_size)


def _pack_blocks(games: list[tuple[int, np.ndarray]], block_rows: int) -> list[list[tuple[int, int, int]]]:
    """Pieces (game, start, stop) of the games' distinct rows, packed into
    blocks of at most `block_rows` rows.

    The rows of all games, in game order, are cut into as few runs of equal
    length as `block_rows` allows. A cut may fall inside a game; its pieces
    then repeat the prefix nodes they share.
    """
    sizes = [len(rows) for _, rows in games]
    total = sum(sizes)
    if not total:
        return []
    n_blocks = -(-total // block_rows)
    cuts = [-(-total * b // n_blocks) for b in range(n_blocks + 1)]
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_blocks)]
    offset = 0
    for g, size in enumerate(sizes):
        start = 0
        while start < size:
            b = (offset + start) * n_blocks // total
            stop = min(size, cuts[b + 1] - offset)
            blocks[b].append((g, start, stop))
            start = stop
        offset += size
    return blocks


def _game_values(
    params: ModelParams, table: JourneyTable, games: list[tuple[int, np.ndarray]], stats: GameStats
) -> list[np.ndarray]:
    """Masked accuracy of the rows of every game, a (journey index in
    `table`, rows) pair with the rows distinct and sorted as `_distinct`
    gives them; one array per game. The table's scan inputs are computed
    once and held in float32 only, the precision the blocks scan in
    (`_scan_inputs`): (16 + 4 L) H bytes per event at L layers of H units,
    with no float64 copy; a block's recheck makes float64 inputs for the
    journeys it rescans only (`_scan_block`). The games' rows are packed
    into blocks of `_block_rows` rows and each block is one trie scan,
    counted in `stats`."""
    values = [np.empty(len(rows)) for _, rows in games]
    inputs = _scan_inputs(params, table, np.float32)
    for block in _pack_blocks(games, _block_rows(params)):
        pieces = [(games[g][0], games[g][1][start:stop]) for g, start, stop in block]
        shared = [_shared_steps(games[g][1], start) for g, start, _ in block]
        accs, node_steps, rechecked = _scan_block(params, table, inputs, pieces, shared)
        for (g, start, stop), acc in zip(block, accs):
            values[g][start:stop] = acc
        stats.add(GameStats(blocks=1, node_steps=node_steps, rechecked=rechecked))
    return values


def _shared_steps(rows: np.ndarray, start: int) -> int:
    """How many prefix nodes of row `start` the scan of the rows before it
    has stepped: those it shares with row start - 1, up to that row's last
    kept event (0 at a game's first row)."""
    if not start:
        return 0
    shared = int(np.argmin(rows[start - 1] == rows[start]))
    return min(shared, int(_last_kept(rows[start - 1:start])[0]) + 1)


def _scan_block(
    params: ModelParams, table: JourneyTable, inputs: tuple, pieces: list[tuple[int, np.ndarray]],
    shared: list[int] | None = None,
) -> tuple[list[np.ndarray], int, int]:
    """Masked accuracy of the distinct rows of several journeys' games in one
    prefix-trie scan (`_trie_steps`) in the dtype of `inputs`, the table's
    `_scan_inputs`; returns one accuracy array per piece, the number of
    node-steps and the number of rechecked nodes.

    `pieces` are (journey index in `table`, rows) with each journey's rows
    distinct and lexicographically sorted. `shared` gives, per piece, how
    many prefix nodes of its first row an earlier scan has stepped; they
    are stepped again but not counted. Each kept node is scored once, by
    its logit margin (class 1 minus class 0). Its hard label is margin >= 0,
    except that a node with |margin| < RECHECK_MARGIN, a rechecked node,
    takes the label of the float64 scan of its prefix row, by the softmax
    test (class 1 probability >= 0.5). One float64 scan after the block
    rechecks all its nodes, over the float64 scan inputs of a table of
    their journeys alone (`JourneyTable.take`): an event's inputs do not
    depend on the other events of its table, so the labels are those of a
    float64 scan over `table`. Where it changes a label, the rows through
    the node, which are adjacent, change their count.
    """
    journeys = np.array([journey for journey, _ in pieces])
    starts = table.starts[journeys]
    sizes = np.array([len(rows) for _, rows in pieces])
    row_start = np.cumsum(sizes) - sizes
    bits = np.zeros((sizes.sum(), max(rows.shape[1] for _, rows in pieces)), dtype=bool)
    for (_, rows), start in zip(pieces, row_start):
        bits[start:start + len(rows), :rows.shape[1]] = rows
    row_piece = np.repeat(np.arange(len(pieces)), sizes)
    # per row, the steps of its prefix nodes that this scan does not count:
    # only a piece's first row can head a node another scan has stepped
    uncounted = np.zeros(len(bits), dtype=np.int64)
    if shared is not None:
        uncounted[row_start] = shared
    dtype = inputs[0].dtype
    w_margin = (params.W_out[:, 1] - params.W_out[:, 0]).astype(dtype)
    b_margin = (params.b_out[1] - params.b_out[0]).astype(dtype)

    matches = np.zeros(len(pieces), dtype=np.int64)
    final = np.zeros(len(bits), dtype=np.int64)
    node_steps = 0
    ties = []  # per step, of the nodes to recheck: step, head, float32 label, true label, counted
    for t, step in enumerate(_trie_steps(params, inputs, starts, bits, row_piece)):
        counted = uncounted[step.head] <= t
        scored = np.flatnonzero(step.kept)
        margin = step.x[scored] @ w_margin + b_margin
        pred = margin >= 0
        truth = table.labels[step.index[scored]]
        near = np.abs(margin) < RECHECK_MARGIN
        if near.any():
            nodes = scored[near]
            ties.append((np.full(len(nodes), t), step.head[nodes], pred[near], truth[near], counted[nodes]))
        hit = np.zeros(len(step.head), dtype=np.int64)
        hit[scored] = pred == truth
        matches = matches[step.parent] + hit
        node_steps += int(np.count_nonzero(counted))
        # rows whose last kept event is at this step leave with their count
        final[step.rows[step.done]] = matches[step.node[step.done]]
    rechecked = 0
    if ties:
        steps, heads, pred, truth, counted = (np.concatenate(part) for part in zip(*ties))
        rechecked = int(np.count_nonzero(counted))
        # one float64 scan labels them all: each node's row is cut after its
        # step, so it leaves the scan there as its own node, and the rows,
        # sorted by piece and then by bits, share their common prefix nodes.
        # It runs over a table of the rechecked nodes' journeys only
        hit_pieces, piece = np.unique(row_piece[heads], return_inverse=True)
        sub = table.take(journeys[hit_pieces])
        cut = bits[heads] & (np.arange(bits.shape[1]) <= steps[:, None])
        order = np.lexsort([*cut.T[::-1], piece])
        labels = np.empty(len(heads), dtype=bool)
        for step in _trie_steps(params, _scan_inputs(params, sub, np.float64), sub.starts, cut[order], piece[order]):
            logits = step.x[step.node[step.done]] @ params.W_out + params.b_out
            labels[order[step.rows[step.done]]] = softmax(logits)[:, 1] >= 0.5
        flip = labels != pred
        # a flipped label turns a match into a miss or a miss into a match
        gains = np.where(pred[flip] == truth[flip], -1, 1)
        ends = (row_start + sizes)[row_piece[heads[flip]]]
        for t, head, end, gain in zip(steps[flip], heads[flip], ends, gains):
            # the rows through the node: its head and the rows after it in
            # its piece that share its first t + 1 bits
            same = (bits[head:end, :t + 1] == bits[head, :t + 1]).all(axis=1)
            final[head:head + np.argmin(np.append(same, False))] += gain
    counts = bits.sum(axis=1)
    acc = np.where(counts > 0, final / np.maximum(counts, 1), 0.0)
    return np.split(acc, row_start[1:]), node_steps, rechecked


# ---------------------------------------------------------------------------
# least-squares weight solve
# ---------------------------------------------------------------------------


def _normal_matrix(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The design X = [1 | mask] of float64 mask rows and its normal matrix
    X.T @ X, shared by every game played on those rows."""
    X = np.hstack([np.ones((len(masks), 1)), masks])
    return X, X.T @ X


def _least_squares(Xw: np.ndarray, M: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """[intercept, weights]: least squares of one game's values on the
    [1 | mask] rows X, given the design Xw (X, or X with weighted rows) and
    the normal matrix M = Xw.T @ X (`_normal_matrix`), via the normal
    equations with ridge 1e-8 for rank safety; two iterated-refinement steps
    remove the ridge bias, so residuals stay orthogonal to the design
    columns to machine precision on full-rank systems."""
    b = Xw.T @ acc
    A = M + RIDGE * np.eye(M.shape[0])
    try:
        beta = np.linalg.solve(A, b)
        for _ in range(2):
            beta = beta + np.linalg.solve(A, b - M @ beta)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"degenerate least-squares system after ridge: {exc}") from None
    if not np.all(np.isfinite(beta)):
        raise NumericError("least-squares solve produced non-finite coefficients")
    return beta


# ---------------------------------------------------------------------------
# Shapley values
# ---------------------------------------------------------------------------


def _exact_solver(n: int, coeff: np.ndarray, banzhaf: bool = False):
    """The semivalues of many n-player games at once, each game's exact
    least-squares fit on the full powerset: the returned function maps their
    values, stacked (J, 2^n) in `mask_powerset` order, to intercepts (J,)
    and values (J, n). Player i's value sums coeff[|S|] * (v(S + i) - v(S))
    over the subsets S without i in ascending bitmask order (bit j = player
    j), left to right: one cumsum per game and player over a row of the term
    matrix, whose coefficients and powerset rows are built once. The
    Shapley weights s!(n-s-1)!/n! give the Shapley-kernel fit (Lundberg & Lee
    2017, Theorem 2), with intercept v(empty). With `banzhaf`, weights
    1/2^(n-1) give the unweighted fit (Hammer & Holzman 1992), with
    intercept mean(v) - sum(values) / 2; both sums run left to right along
    each game's row, so a game's bits do not depend on how many are stacked.
    """
    sizes = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    # row i lists the subsets without player i, ascending: k with a 0 bit
    # inserted at position i
    k = np.arange(2 ** (n - 1))
    player = np.arange(n)[:, None]
    without = ((k >> player) << (player + 1)) | (k & ((1 << player) - 1))
    # the powerset row of each bitmask: player 0 is the row's most
    # significant bit, so the map reverses the bits and is its own inverse
    row = mask_powerset(n) @ (1 << np.arange(n, dtype=np.int64))
    coeffs = coeff[sizes[without]]
    with_rows, without_rows = row[without | (1 << player)], row[without]

    def solve(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        terms = np.zeros((len(values), n, 2 ** (n - 1) + 1))
        terms[:, :, 1:] = coeffs * (values[:, with_rows] - values[:, without_rows])
        phi = np.cumsum(terms, axis=2)[:, :, -1]
        if banzhaf:
            return np.cumsum(values, axis=1)[:, -1] / 2 ** n - np.cumsum(phi, axis=1)[:, -1] / 2, phi
        return values[:, 0], phi  # row 0 of the powerset is the empty coalition

    return solve


def _permutation_prefixes(n: int, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled Shapley's draw: (n_samples, n) permutations and the bool
    matrix of their prefixes, row k * (n + 1) + j holding the first j
    players of permutation k."""
    if n_samples < 1:
        raise ValidationError(f"the number of sampled permutations must be >= 1, got {n_samples}")
    if n_samples * (n + 1) > MAX_PREFIX_ROWS:
        raise ValidationError(
            f"{n_samples} permutations of {n} events make {n_samples * (n + 1)} prefix rows,"
            f" more than the budget of {MAX_PREFIX_ROWS}"
        )
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(n_samples)])
    ranks = np.empty_like(perms)
    ranks[np.arange(n_samples)[:, None], perms] = np.arange(n)
    prefix = ranks[:, None, :] < np.arange(n + 1)[None, :, None]
    return perms, prefix.reshape(-1, n)


def _permutation_estimates(perms: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Mean marginal per player from the values of `_permutation_prefixes`
    rows, accumulated in permutation order. `vals` may stack the values of
    many games, (J, rows); the estimates are then (J, n)."""
    n_samples, n = perms.shape
    by_player = np.zeros((*vals.shape[:-1], n_samples + 1, n))
    diffs = np.diff(vals.reshape(*vals.shape[:-1], n_samples, n + 1), axis=-1)
    by_player[..., 1 + np.arange(n_samples)[:, None], perms] = diffs
    return np.cumsum(by_player, axis=-2)[..., -1, :] / n_samples


def _clip_normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero out the negative weights of each row of a (J, n) matrix and
    normalize its positive mass to 1, summed on its own as a 1-D sum of that
    row. Returns (weights, unattributed); an all-non-positive row yields
    zeros with unattributed True."""
    if not np.all(np.isfinite(raw)):
        raise NumericError("clip-and-normalize requires finite weights")
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum(axis=1)
    attributed = total > 0
    weights = np.zeros_like(clipped)
    weights[attributed] = clipped[attributed] / total[attributed, None]
    return weights, ~attributed


# ---------------------------------------------------------------------------
# journey-level dispatch
# ---------------------------------------------------------------------------


def resolve_method(method: str, n_events: int) -> str:
    """The method that plays an n-event game under `method`, one of
    METHODS: auto is exact Shapley up to EXACT_LIMIT events and sampled
    Shapley above."""
    if method == "auto":
        return "shapley_exact" if n_events <= EXACT_LIMIT else "shapley_sampled"
    return method


def _build_plan(method: str, n: int, n_samples: int, seed: int) -> _Plan:
    """The plan of every n-event journey under `method`: its mask rows and
    solver. Up to EXACT_LIMIT events ols and exact Shapley take the powerset
    and `_exact_solver`, the Banzhaf values for ols and the Shapley values
    else. Above it, sampled Shapley draws its permutations from `seed`, and
    OLS 2048 rows that it solves on one normal matrix."""
    resolved = resolve_method(method, n)
    if resolved == "shapley_exact" and n > EXACT_LIMIT:
        raise ConfigError(f"shapley_exact supports at most {EXACT_LIMIT} events; use shapley_sampled")
    if resolved != "shapley_sampled" and n <= EXACT_LIMIT:
        banzhaf = resolved == "ols"
        fact = [math.factorial(i) for i in range(n + 1)]
        coeff = np.full(n, 0.5 ** (n - 1)) if banzhaf else np.array(
            [fact[size] * fact[n - size - 1] / fact[n] for size in range(n)])
        # the powerset rows are distinct and already in sorted order
        return _Plan(resolved, mask_powerset(n) != 0, np.arange(2 ** n), _exact_solver(n, coeff, banzhaf))
    if resolved == "shapley_sampled":
        perms, masks = _permutation_prefixes(n, n_samples, seed)
        # row 0 is the first permutation's empty coalition
        return _Plan(resolved, *_distinct(masks), lambda values: (values[:, 0], _permutation_estimates(perms, values)))
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(OLS_SAMPLE_ROWS, n))
    masks[0], masks[1] = 0, 1
    normal = _normal_matrix(masks.astype(np.float64))

    def solve(values):
        betas = np.array([_least_squares(*normal, acc) for acc in values])
        return betas[:, 0], betas[:, 1:]

    return _Plan(resolved, *_distinct(masks != 0), solve)


def _check_records(records: Iterable) -> None:
    """Raise the first record fault of `records`, an iterator's own LineError
    or a record's (`record_journey`)."""
    for record in records:
        record_journey(record)


def _plan_windows(items, method: str, n_samples: int, seed: int, limit: int, count: int):
    """Runs of at least `count` consecutive items whose games' distinct
    mask rows reach `limit`, and the rest; each with its items' event counts
    (`record_events`) and its plans by length, built once per window when
    its first item of that length comes. An item whose count or plan fails
    ends the windows. Its error is raised unless `_check_records` finds a
    record fault first: in the window so far, in that item or in the rest
    of `items`, an iterator."""
    window, lengths, plans, total = [], [], {}, 0
    for item in items:
        try:
            n = record_events(item)
            if n not in plans:
                plans[n] = _build_plan(method, n, n_samples, seed)
        except DeepMtaError:
            _check_records(itertools.chain(window, [item], items))
            raise
        window.append(item)
        lengths.append(n)
        total += len(plans[n].rows)
        if total >= limit and len(window) >= count:
            yield window, lengths, plans
            window, lengths, plans, total = [], [], {}, 0
    if window:
        yield window, lengths, plans


def _attribute_shard(params, vocab, plans, render: bool, items: list) -> tuple[list | None, GameStats, tuple | None]:
    """One process's path over its shard of a window, in input order: each
    item is replaced by its journey (`record_journey`), the journeys are
    encoded into one JourneyTable, their games are scored together in trie
    blocks, and the journeys of each length are finished by one solve over
    their stacked values. Returns the results, or with `render` their
    attribution lines (`attribution_line`), the shard's counters and None;
    or nothing and the shard's first fault, (0, index, error) for a record
    fault, else (1, index, error) for an encoding error (an unknown token,
    too many events). A faulty shard is not scored."""
    stats = GameStats()
    for idx, item in enumerate(items):
        try:
            items[idx] = record_journey(item)
        except LineError as exc:
            return None, stats, (0, idx, exc)
    columns, failed = _journey_columns(items, vocab)
    if failed is not None:
        # the columns end with the journey before it: none after it is encoded
        return None, stats, (1, len(columns[-1]), failed)
    table = _table_of(columns, vocab)
    lengths = table.lengths.tolist()
    values = _game_values(params, table, [(idx, plans[n].rows) for idx, n in enumerate(lengths)], stats)
    results = [None] * len(items)
    for n in dict.fromkeys(lengths):
        plan = plans[n]
        indices = np.flatnonzero(table.lengths == n)
        step = max(1, _SOLVE_VALUES // len(plan.inverse))
        for start in range(0, len(indices), step):
            chunk = indices[start:start + step]
            stacked = np.stack([values[idx] for idx in chunk])[:, plan.inverse]
            for idx, result in zip(chunk, plan.finish(stacked)):
                results[idx] = result
    stats.unattributed = sum(result.unattributed for result in results)
    if render:
        return [attribution_line(journey, result) for journey, result in zip(items, results)], stats, None
    return results, stats, None


def attribute_journeys(
    params: ModelParams,
    journeys,
    vocab: Vocabulary,
    method: str = "auto",
    n_samples: int = PERMUTATION_SAMPLES,
    seed: int = 0,
    workers: int = 1,
    stats: GameStats | None = None,
):
    """Attribute many journeys against a frozen model; returns a generator
    of one AttributionResult per journey, in input order. Given a
    `JourneyRecords` in place of journeys, it yields each record's
    attribution line (`attribution_line`) instead, and no journey is built
    in the calling process unless a record is faulty.

    Journeys are read in windows of at least N = `workers` journeys and
    N * _WINDOW_ROWS distinct mask rows, four of the largest exact games per
    worker (the last window may hold fewer). A journey's game depends only
    on its length and the method, so each window builds one plan per length
    (`_plan_windows`), from the event counts alone, and its journeys of that
    length share it. The window is split into N shards of whole journeys,
    largest first onto the lightest shard (`_fork.shares`). The calling
    process attributes the first shard, and a child forked for the window
    after its plans are built each other shard that is not empty
    (`_fork.sharded`); the windows and the shards' counters are summed into
    `stats`. Each shard process (`_attribute_shard`) builds its records'
    journeys, scores its games together in trie blocks of at most
    `_block_rows` rows, finishes the journeys of one length together, and
    for records renders their lines. So memory is bounded by one window's
    plans, items and values and one block scan. Every child is reaped before
    the window's output is yielded, and on an error; a child that dies
    without replying is a WorkerError. Where the platform cannot fork, N is
    1 (`_fork.processes`). Each journey's result equals `attribute_journey`
    on it alone, at any worker count.

    A journey is its own record, so every input has one fault order, as if
    every record were built first, then every journey encoded: the first
    record fault anywhere in the input (as `record_journey` names it, or a
    LineError raised by an iterator such as `iter_journeys`) wins over any
    encoding error (an unknown token, too many events) and any plan error,
    and of those the first met, in input order, is raised. Shards send
    their faults back, and the window's first is raised once the rest of
    the input has been checked for a record fault. The arguments, `method`
    among them, are checked at the call, before any journey is read.
    """
    workers = processes(workers)
    if method not in METHODS:
        raise ConfigError(f"unknown attribution method {method!r}")
    if n_samples < 1:
        raise ConfigError(f"the number of sampled permutations must be >= 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    stats = GameStats() if stats is None else stats
    render = isinstance(journeys, JourneyRecords)
    return _attribute_windows(params, journeys, vocab, method, n_samples, seed, workers, stats, render)


def _window_parts(window: list, shards: list[list[int]]):
    """The items of each shard of the window, each part a list of its own;
    the window is emptied after the last part is taken. So each part holds
    the only reference to its items: the caller's shard frees each record
    as it builds its journey, and a forked shard's records go with its
    fork (`_fork.sharded`)."""
    yield from ([window[idx] for idx in shard] for shard in shards)
    window.clear()


def _attribute_windows(params, items, vocab, method, n_samples, seed, workers, stats, render):
    """The generator of `attribute_journeys`, on checked arguments."""
    items = iter(items)
    # a window gives each worker a journey, also where one journey alone
    # has more rows than the limit
    for window, lengths, plans in _plan_windows(items, method, n_samples, seed, workers * _WINDOW_ROWS, workers):
        stats.windows += 1
        # the caller's first shard holds the largest journey
        shards = [shard for shard in shares([len(plans[n].rows) for n in lengths], workers) if shard]
        work = functools.partial(_attribute_shard, params, vocab, plans, render)
        replies = sharded("an attribution worker process", work, _window_parts(window, shards))
        outputs, faults = [None] * len(lengths), []
        for shard, (part, part_stats, fault) in zip(shards, replies):
            stats.add(part_stats)
            if fault is not None:
                kind, idx, exc = fault
                faults.append((kind, shard[idx], exc))
                continue
            for idx, output in zip(shard, part):
                outputs[idx] = output
        if faults:
            kind, _, exc = min(faults, key=lambda fault: fault[:2])
            if kind:  # an encoding error: a later record fault wins over it
                _check_records(items)
            raise exc
        yield from outputs


def attribute_journey(
    params: ModelParams,
    journey: CustomerJourney,
    vocab: Vocabulary,
    method: str = "auto",
    n_samples: int = PERMUTATION_SAMPLES,
    seed: int = 0,
) -> AttributionResult:
    """Attribute one journey's events against a frozen model.

    auto picks exact Shapley up to 12 events and permutation sampling above.
    Up to 12 events ols takes the closed form of its powerset regression,
    the Banzhaf values; above, it regresses on 2048 uniform subset rows.
    Every path ends in clip-and-normalize. The one-journey case of
    `attribute_journeys`.
    """
    return next(attribute_journeys(params, [journey], vocab, method, n_samples, seed))


# ---------------------------------------------------------------------------
# JSONL interface
# ---------------------------------------------------------------------------


def attribution_to_dict(journey: CustomerJourney, result: AttributionResult) -> dict:
    return {
        "user_id": journey.user_id,
        "method": result.method,
        "intercept": result.intercept,
        "raw_weights": result.raw_weights.tolist(),
        "weights": result.weights.tolist(),
        "unattributed": result.unattributed,
        "channels": journey.channels,
    }


def attribution_line(journey: CustomerJourney, result: AttributionResult) -> str:
    """The JSONL line of one journey's attribution, newline included: the
    one format of `save_attributions` and of the `attribute` command."""
    return json.dumps(attribution_to_dict(journey, result)) + "\n"


def save_attributions(path: str | Path, journeys: list[CustomerJourney], results: list[AttributionResult]) -> None:
    if len(journeys) != len(results):
        raise ValidationError("journeys and results must align one-to-one")
    with open(path, "w", encoding="utf-8") as fh:
        for journey, result in zip(journeys, results):
            fh.write(attribution_line(journey, result))


def _finite_numbers(value) -> bool:
    return isinstance(value, list) and all(map(finite_number, value))


def load_attributions(path: str | Path) -> list[dict]:
    """Read an attribution JSONL file, checking the fields the report reads;
    errors carry 1-based line numbers."""
    records = []
    for line_no, obj in read_jsonl(path):
        if not isinstance(obj, dict):
            raise ValidationError(f"line {line_no}: attribution record must be a JSON object")
        for key in ("user_id", "method", "intercept", "raw_weights", "weights", "unattributed", "channels"):
            if key not in obj:
                raise ValidationError(f"line {line_no}: missing field {key!r}")
        for key, ok, kind in (
            ("intercept", finite_number(obj["intercept"]), "a finite number"),
            ("raw_weights", _finite_numbers(obj["raw_weights"]), "a list of finite numbers"),
            ("weights", _finite_numbers(obj["weights"]), "a list of finite numbers"),
            ("unattributed", isinstance(obj["unattributed"], bool), "true or false"),
            ("channels", isinstance(obj["channels"], list) and all(isinstance(c, str) for c in obj["channels"]),
             "a list of strings"),
        ):
            if not ok:
                raise ValidationError(f"line {line_no}: field {key!r} must be {kind}")
        records.append(obj)
    return records
