"""Interpretation stage: per-event credit for a trained model's prediction.

Events of one journey are treated as players of a cooperative game whose
value is the model's masked-prediction accuracy. Credit comes either from a
least-squares fit of accuracy on mask indicator rows or from exact/sampled
Shapley values, and always ends in clip-and-normalize.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, ValidationError
from .journey import DEFAULT_MAX_SEQ_LEN, CustomerJourney, EncodedJourney, Vocabulary, encode_journey, read_jsonl
from .model import ModelParams, _gate_forward, forward_batch, infer_step
from .trainer import softmax

EXACT_LIMIT = 12
OLS_SAMPLE_ROWS = 2048
RIDGE = 1e-8
KERNEL_ENDPOINT_WEIGHT = 1e6
# distinct mask rows per trie block. A block's scan holds about ten
# state-sized arrays per row (5 KB a row at 64 units), so a worker's memory
# stays near that of one journey's scan
_BLOCK_ROWS = 1024

METHODS = ("ols", "kernel_ols", "shapley_exact", "shapley_sampled", "auto")


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
        raise ValidationError(f"n={n} exceeds exact_limit={EXACT_LIMIT}; use sampling mode")
    rows = np.arange(2 ** n, dtype=np.int64)
    bits = (rows[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits.astype(np.int64)


def masked_accuracy(params: ModelParams, enc: EncodedJourney, mask: np.ndarray) -> float:
    """Agreement rate between hard predictions and labels over unmasked
    positions.

    Feature rows with mask 0 are zeroed but keep their slot (the time gate
    still sees the original offsets); scoring only counts positions with
    mask 1. The all-zero mask is defined as accuracy 0. This is the readable
    reference that `masked_accuracy_batch` is checked against.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (len(enc.times),):
        raise DimensionError(f"mask length {mask.shape} does not match journey length {len(enc.times)}")
    logits, _ = forward_batch((enc.features * mask[:, None])[None], enc.times[None], params, training=False)
    preds = (softmax(logits[0])[:, 1] >= 0.5).astype(np.int64)
    scored = mask > 0
    count = scored.sum()
    if count == 0:
        return 0.0
    return float(((preds == enc.labels) & scored).sum() / count)


def masked_accuracy_batch(params: ModelParams, enc: EncodedJourney, masks: np.ndarray) -> np.ndarray:
    """Masked accuracy of many 0/1 mask rows of one journey, through a prefix
    trie; equal to `masked_accuracy` row by row.

    The one-journey case of the block scan that `attribute_journeys` runs
    over many journeys' games: see `_scan_block`.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != len(enc.times):
        raise DimensionError(f"masks must be (m, {len(enc.times)}), got {masks.shape}")
    bits = masks != 0
    if not np.all(masks[bits] == 1):
        raise ValidationError("mask entries must be 0 or 1")
    if len(bits) == 0:
        return np.empty(0)
    return _game_values(params, [_Game.of(enc, bits)])[0]


@dataclass
class _Game:
    """One journey's masked-accuracy game: its distinct mask rows, sorted so
    that rows sharing a prefix are adjacent, and for each planned row the
    index of its distinct row."""

    enc: EncodedJourney
    rows: np.ndarray  # (m, n) bool
    inverse: np.ndarray

    @classmethod
    def of(cls, enc: EncodedJourney, bits: np.ndarray) -> "_Game":
        # one byte string per row; their sort order is the rows' lexicographic order
        packed = np.packbits(bits, axis=1)
        width = packed.shape[1]
        keys, inverse = np.unique(packed.view(f"V{width}").reshape(-1), return_inverse=True)
        rows = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=bits.shape[1]).astype(bool)
        return cls(enc, rows, inverse.reshape(-1))


@dataclass
class GameStats:
    """Work counters of game evaluations: trie blocks scanned and distinct
    prefix node-steps stepped."""

    blocks: int = 0
    node_steps: int = 0


def _pack_blocks(games: list[_Game], workers: int) -> list[list[tuple[int, int, int]]]:
    """Pieces (game, start, stop) of the games' distinct rows, packed into
    blocks of at most _BLOCK_ROWS rows.

    The rows of all games, in game order, are cut into runs of equal length,
    in as few rounds of `workers` blocks as _BLOCK_ROWS allows, so that every
    worker gets the same share (fewer blocks only when there are fewer rows
    than workers). A cut may fall inside a game; its pieces then repeat the
    prefix nodes they share.
    """
    total = sum(len(game.rows) for game in games)
    if not total:
        return []
    n_blocks = min(total, workers * -(-total // (workers * _BLOCK_ROWS)))
    cuts = [-(-total * b // n_blocks) for b in range(n_blocks + 1)]
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_blocks)]
    offset = 0
    for g, game in enumerate(games):
        start = 0
        while start < len(game.rows):
            b = (offset + start) * n_blocks // total
            stop = min(len(game.rows), cuts[b + 1] - offset)
            blocks[b].append((g, start, stop))
            start = stop
        offset += len(game.rows)
    return blocks


def _game_values(
    params: ModelParams,
    games: list[_Game],
    workers: int = 1,
    map_blocks=map,
    stats: GameStats | None = None,
) -> list[np.ndarray]:
    """Masked accuracy of every planned row of every game, one array per
    game: the games' distinct rows are packed into blocks and each block is
    one trie scan. `map_blocks` runs the scans (a thread pool's map runs
    them in parallel)."""
    weights = _TrieWeights(params)

    def scan(block):
        # longest journey first, so the rows alive at a step are a prefix
        block = sorted(block, key=lambda p: -games[p[0]].rows.shape[1])
        pieces = [(games[g].enc, games[g].rows[start:stop]) for g, start, stop in block]
        return (block, *_scan_block(weights, pieces))

    values = [np.empty(len(game.rows)) for game in games]
    for block, accs, node_steps in map_blocks(scan, _pack_blocks(games, workers)):
        for (g, start, stop), acc in zip(block, accs):
            values[g][start:stop] = acc
            if start:
                # the prefix nodes this piece shares with the one before
                rows = games[g].rows
                node_steps -= int(np.argmin(rows[start - 1] == rows[start]))
        if stats is not None:
            stats.blocks += 1
            stats.node_steps += node_steps
    return [value[game.inverse] for value, game in zip(values, games)]


class _TrieWeights:
    """The frozen model's gate weights, concatenated per layer for the scan."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.Wx = [np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1) for lp in params.layers]
        self.Wh = [np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1) for lp in params.layers]


def _scan_block(weights: _TrieWeights, pieces: list[tuple[EncodedJourney, np.ndarray]]) -> tuple[list[np.ndarray], int]:
    """Masked accuracy of the distinct rows of several journeys' games in one
    prefix-trie scan; returns one accuracy array per piece and the number of
    node-steps.

    `pieces` are (journey, rows) with each journey's rows distinct and
    lexicographically sorted, longest journey first. The model is causal and
    a masked event keeps its slot and time, so a row's state at step t
    depends only on its journey and mask[0..t]: one trie node. At step t
    each node is stepped once by the cache-free `infer_step` and its hard
    label scored once; a full powerset of n events costs sum 2^(t+1)
    node-steps instead of n * 2^n row-steps. The rows of journeys longer
    than t are a prefix of the block. The time gate and layer 0's input
    projection are computed once per (journey, step) and gathered per node.
    """
    params = weights.params
    lengths = np.array([rows.shape[1] for _, rows in pieces])
    sizes = np.array([len(rows) for _, rows in pieces])
    row_start = np.cumsum(sizes) - sizes
    bits = np.zeros((sizes.sum(), lengths[0]), dtype=bool)
    for (_, rows), start in zip(pieces, row_start):
        bits[start:start + len(rows), :rows.shape[1]] = rows
    row_piece = np.repeat(np.arange(len(pieces)), sizes)
    alive = [int(sizes[lengths > t].sum()) for t in range(lengths[0] + 1)]
    # (journey, step) tables, indexed by the journey's first step plus t
    step0 = np.cumsum(lengths) - lengths
    times = np.concatenate([enc.times for enc, _ in pieces])
    labels = np.concatenate([enc.labels for enc, _ in pieces])
    x0 = np.concatenate([enc.features @ weights.Wx[0] for enc, _ in pieces])
    gates = [_gate_forward(times[:, None], lp.tau, lp.s, lp.r_on, 0.0)[0] for lp in params.layers]

    states = [(np.zeros((1, lp.hidden_size)), np.zeros((1, lp.hidden_size))) for lp in params.layers]
    matches = np.zeros(1, dtype=np.int64)
    new_node = np.zeros(len(bits), dtype=bool)
    new_node[row_start] = True
    node = np.zeros(len(bits), dtype=np.int64)
    final = np.empty(len(bits), dtype=np.int64)
    node_steps = 0
    for t in range(lengths[0]):
        col = bits[:alive[t], t]
        fresh = new_node[:alive[t]]
        fresh[1:] |= col[1:] != col[:-1]
        first = np.flatnonzero(fresh)
        parent = node[first]
        kept = col[first]
        node = np.cumsum(fresh) - 1
        step = step0[row_piece[first]] + t
        x = None
        for idx, lp in enumerate(params.layers):
            h, c = (state[parent] for state in states[idx])
            states[idx] = None  # free the previous step's states before this step's temporaries
            a = h @ weights.Wh[idx]
            if idx == 0:
                np.add(a, x0[step], out=a, where=kept[:, None])
            else:
                a += x @ weights.Wx[idx]
            x, c = infer_step(a, h, c, gates[idx][step], lp, params.ln_gain[idx], params.ln_bias[idx])
            states[idx] = (x, c)
        logits = x[kept] @ params.W_out + params.b_out
        hit = np.zeros(len(first), dtype=np.int64)
        hit[kept] = (softmax(logits)[:, 1] >= 0.5) == labels[step[kept]]
        matches = matches[parent] + hit
        # rows whose journey ends at this step
        ended = slice(alive[t + 1], alive[t])
        final[ended] = matches[node[ended]]
        node_steps += len(first)
    counts = bits.sum(axis=1)
    acc = np.where(counts > 0, final / np.maximum(counts, 1), 0.0)
    return np.split(acc, row_start[1:]), node_steps


# ---------------------------------------------------------------------------
# least-squares weight solve
# ---------------------------------------------------------------------------


def _shapley_kernel_row_weights(masks: np.ndarray) -> np.ndarray:
    m, n = masks.shape
    sizes = masks.sum(axis=1).astype(int)
    w = np.empty(m)
    for idx, size in enumerate(sizes):
        if size == 0 or size == n:
            w[idx] = KERNEL_ENDPOINT_WEIGHT
        else:
            w[idx] = (n - 1) / (math.comb(n, size) * size * (n - size))
    return w


def solve_weights(
    masks: np.ndarray,
    acc: np.ndarray,
    weighting: str = "uniform",
    include_intercept: bool = True,
) -> tuple[float, np.ndarray]:
    """Least squares of accuracy on [1 | mask] rows.

    Solved via the normal equations with ridge 1e-8 for rank safety; two
    iterated-refinement steps remove the ridge bias so residuals stay
    orthogonal to the design columns to machine precision on full-rank
    systems. "shapley_kernel" weights each row by the Shapley kernel of its
    subset size (all-zero/all-one rows get weight 1e6).
    """
    masks = np.asarray(masks, dtype=np.float64)
    acc = np.asarray(acc, dtype=np.float64)
    if masks.ndim != 2:
        raise DimensionError("masks must be a 2-D matrix")
    m, n = masks.shape
    if acc.shape != (m,):
        raise DimensionError(f"acc must have shape ({m},), got {acc.shape}")
    if m < n + 1:
        raise ValidationError(f"need at least n+1={n + 1} mask rows, got {m}")
    if weighting == "uniform":
        w = np.ones(m)
    elif weighting == "shapley_kernel":
        w = _shapley_kernel_row_weights(masks)
    else:
        raise ConfigError(f"unknown weighting {weighting!r}")

    X = np.hstack([np.ones((m, 1)), masks]) if include_intercept else masks
    Xw = X * w[:, None]
    M = Xw.T @ X
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
    if include_intercept:
        return float(beta[0]), beta[1:]
    return 0.0, beta


# ---------------------------------------------------------------------------
# Shapley values
# ---------------------------------------------------------------------------


def _subset_vector(bitmask: int, n: int) -> np.ndarray:
    return np.array([(bitmask >> j) & 1 for j in range(n)], dtype=np.int64)


def _shapley_from_table(values: np.ndarray, n: int) -> np.ndarray:
    """Exact values from a full table indexed by bitmask (bit j = player j).

    Player i's value sums coeff[|S|] * (v(S + i) - v(S)) over the subsets S
    without i in ascending bitmask order, left to right (one cumsum per
    player, as one row of the term matrix).
    """
    fact = [math.factorial(i) for i in range(n + 1)]
    coeff = np.array([fact[size] * fact[n - size - 1] / fact[n] for size in range(n)])
    sizes = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    # row i lists the subsets without player i, ascending: k with a 0 bit
    # inserted at position i
    k = np.arange(2 ** (n - 1))
    player = np.arange(n)[:, None]
    without = ((k >> player) << (player + 1)) | (k & ((1 << player) - 1))
    terms = np.zeros((n, 2 ** (n - 1) + 1))
    terms[:, 1:] = coeff[sizes[without]] * (values[without | (1 << player)] - values[without])
    return np.cumsum(terms, axis=1)[:, -1]


def shapley_exact(value, n: int) -> np.ndarray:
    """Exact Shapley values by subset enumeration with memoized evaluations.

    `value` maps a 0/1 membership vector of length n to a real game value.
    """
    if n < 1:
        raise ValidationError("shapley_exact needs n >= 1")
    if n > EXACT_LIMIT:
        raise ValidationError(f"n={n} exceeds exact_limit={EXACT_LIMIT}; use shapley_sampled")
    table = np.empty(2 ** n)
    for bitmask in range(2 ** n):
        table[bitmask] = float(value(_subset_vector(bitmask, n)))
    return _shapley_from_table(table, n)


def shapley_sampled(
    value,
    n: int,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Monte-Carlo Shapley over uniformly random player permutations.

    Each sampled permutation contributes one marginal per player; estimates
    are the means, accumulated in permutation order. Deterministic per seed.
    `value` maps a 0/1 membership vector to a game value and is called once
    per distinct coalition. This memo loop is the readable reference for
    `_permutation_estimates`, which the attribution path uses.
    """
    if n < 1:
        raise ValidationError("shapley_sampled needs n >= 1")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    perms, _ = _permutation_prefixes(n, n_samples, seed)
    marginals = np.zeros(n)
    memo: dict[bytes, float] = {}
    empty = np.zeros(n, dtype=np.int64)
    v_prev_base = float(value(empty))
    for perm in perms:
        mask = empty.copy()
        v_prev = v_prev_base
        for player in perm:
            mask[player] = 1
            key = mask.tobytes()
            v_cur = memo.get(key)
            if v_cur is None:
                v_cur = float(value(mask))
                memo[key] = v_cur
            marginals[player] += v_cur - v_prev
            v_prev = v_cur
    return marginals / n_samples


def _permutation_prefixes(n: int, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`shapley_sampled`'s draw: (n_samples, n) permutations and the bool
    matrix of their prefixes, row k * (n + 1) + j holding the first j
    players of permutation k."""
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(n_samples)])
    ranks = np.empty_like(perms)
    ranks[np.arange(n_samples)[:, None], perms] = np.arange(n)
    prefix = ranks[:, None, :] < np.arange(n + 1)[None, :, None]
    return perms, prefix.reshape(-1, n)


def _permutation_estimates(perms: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Mean marginal per player from the values of `_permutation_prefixes`
    rows, accumulated in permutation order."""
    n_samples, n = perms.shape
    by_player = np.zeros((n_samples + 1, n))
    by_player[1 + np.arange(n_samples)[:, None], perms] = np.diff(vals.reshape(n_samples, n + 1), axis=1)
    return np.cumsum(by_player, axis=0)[-1] / n_samples


def clip_normalize(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Zero out negative weights and normalize the positive mass to 1.

    Returns (weights, unattributed); an all-non-positive vector yields zeros
    with unattributed=True.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise NumericError("clip_normalize requires a finite vector")
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total > 0:
        return clipped / total, False
    return np.zeros_like(clipped), True


# ---------------------------------------------------------------------------
# journey-level dispatch
# ---------------------------------------------------------------------------


def resolve_method(method: str, n_events: int) -> str:
    if method not in METHODS:
        raise ConfigError(f"unknown attribution method {method!r}")
    if method == "auto":
        return "shapley_exact" if n_events <= EXACT_LIMIT else "shapley_sampled"
    return method


def _plan(
    journey: CustomerJourney,
    vocab: Vocabulary,
    method: str,
    n_samples: int,
    seed: int,
    max_seq_len: int,
    include_intercept: bool,
):
    """A journey's game and the function that turns the values of its
    planned mask rows into its AttributionResult."""
    enc = encode_journey(journey, vocab, max_seq_len)
    n = len(journey.events)
    resolved = resolve_method(method, n)

    if resolved in ("ols", "kernel_ols"):
        if n <= EXACT_LIMIT:
            masks = mask_powerset(n)
        else:
            rng = np.random.default_rng(seed)
            masks = rng.integers(0, 2, size=(OLS_SAMPLE_ROWS, n))
            masks[0] = 0
            masks[1] = 1
        weighting = "uniform" if resolved == "ols" else "shapley_kernel"

        def solve(acc):
            return solve_weights(masks, acc, weighting, include_intercept)

    elif resolved == "shapley_exact":
        if n > EXACT_LIMIT:
            raise ConfigError(f"shapley_exact supports at most {EXACT_LIMIT} events; use shapley_sampled")
        masks = mask_powerset(n)

        def solve(acc):
            table = np.empty(2 ** n)
            table[masks @ (1 << np.arange(n, dtype=np.int64))] = acc
            return float(table[0]), _shapley_from_table(table, n)

    else:
        perms, masks = _permutation_prefixes(n, n_samples, seed)

        def solve(acc):
            # row 0 is the first permutation's empty coalition
            return float(acc[0]), _permutation_estimates(perms, acc)

    def finish(acc):
        intercept, raw = solve(acc)
        weights, unattributed = clip_normalize(raw)
        return AttributionResult(
            raw_weights=np.asarray(raw, dtype=np.float64),
            intercept=intercept,
            weights=weights,
            method=resolved,
            unattributed=unattributed,
        )

    return _Game.of(enc, masks != 0), finish


def attribute_journeys(
    params: ModelParams,
    journeys,
    vocab: Vocabulary,
    method: str = "auto",
    n_samples: int = OLS_SAMPLE_ROWS,
    seed: int = 0,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    include_intercept: bool = True,
    workers: int = 1,
    map_blocks=map,
    stats: GameStats | None = None,
):
    """Attribute many journeys against a frozen model; yields one
    AttributionResult per journey, in input order.

    Journeys are planned in windows of at least workers * 2^EXACT_LIMIT
    distinct mask rows (or the last journeys). A window's games are scored
    together in trie blocks of at most _BLOCK_ROWS rows, in rounds of
    `workers` equal blocks; `map_blocks` runs the block scans (pass a thread
    pool's map to run them in parallel). Memory is bounded by one window's
    plans and `workers` block scans, whatever the number of journeys. Each
    journey's result equals `attribute_journey` on it alone.
    """
    window: list = []
    rows = 0
    for journey in journeys:
        window.append(_plan(journey, vocab, method, n_samples, seed, max_seq_len, include_intercept))
        rows += len(window[-1][0].rows)
        # at least one full exact game per worker, so that the wait for a
        # window's last block stays short next to the window's work
        if rows >= workers * 2 ** EXACT_LIMIT:
            yield from _finish_window(params, window, workers, map_blocks, stats)
            window, rows = [], 0
    yield from _finish_window(params, window, workers, map_blocks, stats)


def _finish_window(params, window, workers, map_blocks, stats):
    values = _game_values(params, [game for game, _ in window], workers, map_blocks, stats)
    for (_, finish), acc in zip(window, values):
        yield finish(acc)


def attribute_journey(
    params: ModelParams,
    journey: CustomerJourney,
    vocab: Vocabulary,
    method: str = "auto",
    n_samples: int = OLS_SAMPLE_ROWS,
    seed: int = 0,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    include_intercept: bool = True,
) -> AttributionResult:
    """Attribute one journey's events against a frozen model.

    auto picks exact Shapley up to 12 events and permutation sampling above;
    ols/kernel_ols regress masked accuracy on the full powerset (or 2048
    uniform subset rows above the exact limit). Every path ends in
    clip_normalize. The one-journey case of `attribute_journeys`.
    """
    return next(
        attribute_journeys(params, [journey], vocab, method, n_samples, seed, max_seq_len, include_intercept)
    )


# ---------------------------------------------------------------------------
# JSONL interface
# ---------------------------------------------------------------------------


def attribution_to_dict(journey: CustomerJourney, result: AttributionResult) -> dict:
    return {
        "user_id": journey.user_id,
        "method": result.method,
        "intercept": result.intercept,
        "raw_weights": [float(x) for x in result.raw_weights],
        "weights": [float(x) for x in result.weights],
        "unattributed": result.unattributed,
        "channels": journey.channels,
    }


def save_attributions(path: str | Path, journeys: list[CustomerJourney], results: list[AttributionResult]) -> None:
    if len(journeys) != len(results):
        raise ValidationError("journeys and results must align one-to-one")
    with open(path, "w", encoding="utf-8") as fh:
        for journey, result in zip(journeys, results):
            fh.write(json.dumps(attribution_to_dict(journey, result)) + "\n")


def _finite_numbers(value) -> bool:
    try:
        return isinstance(value, list) and all(type(x) in (int, float) and math.isfinite(x) for x in value)
    except OverflowError:  # an integer too large for a float
        return False


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
            ("intercept", _finite_numbers([obj["intercept"]]), "a finite number"),
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
