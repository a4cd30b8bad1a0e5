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
from .journey import DEFAULT_MAX_SEQ_LEN, CustomerJourney, EncodedJourney, Vocabulary, encode_journey
from .model import ModelParams, forward_batch, infer_step
from .trainer import softmax

EXACT_LIMIT = 12
OLS_SAMPLE_ROWS = 2048
RIDGE = 1e-8
KERNEL_ENDPOINT_WEIGHT = 1e6
# distinct mask rows per trie scan: the whole powerset at EXACT_LIMIT
_BLOCK_ROWS = 4096

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


def _hard_labels(params: ModelParams, features: np.ndarray, times: np.ndarray) -> np.ndarray:
    logits, _ = forward_batch(features, times, params, training=False)
    return (softmax(logits)[..., 1] >= 0.5).astype(np.int64)


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
    preds = _hard_labels(params, (enc.features * mask[:, None])[None], enc.times[None])[0]
    scored = mask > 0
    count = scored.sum()
    if count == 0:
        return 0.0
    return float(((preds == enc.labels) & scored).sum() / count)


def masked_accuracy_batch(params: ModelParams, enc: EncodedJourney, masks: np.ndarray) -> np.ndarray:
    """Masked accuracy of many 0/1 mask rows of one journey, through a prefix
    trie; equal to `masked_accuracy` row by row.

    The model is causal and a masked event keeps its slot and time, so the
    state at step t depends only on mask[0..t]. The distinct rows are sorted,
    so rows sharing a prefix are adjacent, and scanned in blocks of
    _BLOCK_ROWS: at step t each distinct prefix is stepped once by the
    cache-free `infer_step` and its hard label scored once. The full
    powerset of n events costs sum 2^(t+1) node-steps instead of n * 2^n
    row-steps, and the memory of a scan is bounded by the block.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != len(enc.times):
        raise DimensionError(f"masks must be (m, {len(enc.times)}), got {masks.shape}")
    bits = masks != 0
    if not np.all(masks[bits] == 1):
        raise ValidationError("mask entries must be 0 or 1")
    if len(bits) == 0:
        return np.empty(0)
    # one byte string per row; their sort order is the rows' lexicographic order
    packed = np.packbits(bits, axis=1)
    width = packed.shape[1]
    keys, inverse = np.unique(packed.view(f"V{width}").reshape(-1), return_inverse=True)
    rows = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=bits.shape[1]).astype(bool)
    model = _TrieModel(params, enc)
    acc = np.concatenate([model.scan(rows[start:start + _BLOCK_ROWS]) for start in range(0, len(rows), _BLOCK_ROWS)])
    return acc[inverse.reshape(-1)]


class _TrieModel:
    """The frozen model's weights arranged for a prefix-trie scan of one
    journey."""

    def __init__(self, params: ModelParams, enc: EncodedJourney):
        self.params = params
        self.enc = enc
        self.Wx = [np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1) for lp in params.layers]
        self.Wh = [np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1) for lp in params.layers]
        # layer 0 sees only two inputs per step: the event's features or zeros
        self.x0 = enc.features @ self.Wx[0]

    def scan(self, bits: np.ndarray) -> np.ndarray:
        """Accuracy of each of the distinct, lexicographically sorted rows."""
        params, enc = self.params, self.enc
        m, n = bits.shape
        states = [(np.zeros((1, lp.hidden_size)), np.zeros((1, lp.hidden_size))) for lp in params.layers]
        matches = np.zeros(1, dtype=np.int64)
        new_node = np.zeros(m, dtype=bool)
        new_node[0] = True
        node = np.zeros(m, dtype=np.int64)
        for t in range(n):
            col = bits[:, t]
            new_node[1:] |= col[1:] != col[:-1]
            first = np.flatnonzero(new_node)
            parent = node[first]
            kept = col[first]
            node = np.cumsum(new_node) - 1
            x = None
            for idx, lp in enumerate(params.layers):
                h, c = (state[parent] for state in states[idx])
                a = h @ self.Wh[idx]
                if idx == 0:
                    np.add(a, self.x0[t], out=a, where=kept[:, None])
                else:
                    a += x @ self.Wx[idx]
                x, c = infer_step(a, h, c, enc.times[t], lp, params.ln_gain[idx], params.ln_bias[idx])
                states[idx] = (x, c)
            logits = x[kept] @ params.W_out + params.b_out
            hit = np.zeros(len(first), dtype=np.int64)
            hit[kept] = (softmax(logits)[:, 1] >= 0.5) == enc.labels[t]
            matches = matches[parent] + hit
        counts = bits.sum(axis=1)
        return np.where(counts > 0, matches / np.maximum(counts, 1), 0.0)


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
    value_batch=None,
) -> np.ndarray:
    """Monte-Carlo Shapley over uniformly random player permutations.

    Each sampled permutation contributes one marginal per player; estimates
    are the means, accumulated in permutation order. Deterministic per seed.
    `value` maps a 0/1 membership vector to a game value and is called once
    per distinct coalition. When `value_batch` is given, `value` is unused
    and `value_batch` is called once, with the (n_samples * (n + 1), n)
    float 0/1 matrix of every permutation's prefix masks: row k * (n + 1) + j
    holds the first j players of permutation k, so row 0 is the empty
    coalition. It returns one value per row. Both paths give the same
    estimates.
    """
    if n < 1:
        raise ValidationError("shapley_sampled needs n >= 1")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(n_samples)])
    if value_batch is not None:
        samples = np.arange(n_samples)[:, None]
        ranks = np.empty_like(perms)
        ranks[samples, perms] = np.arange(n)
        prefix = ranks[:, None, :] < np.arange(n + 1)[None, :, None]
        vals = np.asarray(value_batch(prefix.reshape(-1, n).astype(np.float64)), dtype=np.float64)
        if vals.shape != (n_samples * (n + 1),):
            raise DimensionError(f"value_batch must return {n_samples * (n + 1)} values, got shape {vals.shape}")
        by_player = np.zeros((n_samples + 1, n))
        by_player[1 + samples, perms] = np.diff(vals.reshape(n_samples, n + 1), axis=1)
        marginals = np.cumsum(by_player, axis=0)[-1]
    else:
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
    clip_normalize.
    """
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
        acc = masked_accuracy_batch(params, enc, masks)
        weighting = "uniform" if resolved == "ols" else "shapley_kernel"
        intercept, raw = solve_weights(masks, acc, weighting, include_intercept)
    elif resolved == "shapley_exact":
        if n > EXACT_LIMIT:
            raise ConfigError(f"shapley_exact supports at most {EXACT_LIMIT} events; use shapley_sampled")
        masks = mask_powerset(n)
        acc = masked_accuracy_batch(params, enc, masks)
        table = np.empty(2 ** n)
        bit_index = masks @ (1 << np.arange(n, dtype=np.int64))
        table[bit_index] = acc
        raw = _shapley_from_table(table, n)
        intercept = float(table[0])
    else:
        game = {}

        def value_batch(masks):
            game["acc"] = masked_accuracy_batch(params, enc, masks)
            return game["acc"]

        raw = shapley_sampled(None, n, n_samples, seed, value_batch=value_batch)
        # row 0 is the first permutation's empty coalition
        intercept = float(game["acc"][0])

    weights, unattributed = clip_normalize(raw)
    return AttributionResult(
        raw_weights=np.asarray(raw, dtype=np.float64),
        intercept=intercept,
        weights=weights,
        method=resolved,
        unattributed=unattributed,
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


def load_attributions(path: str | Path) -> list[dict]:
    records = []
    required = ("user_id", "method", "intercept", "raw_weights", "weights", "unattributed", "channels")
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {line_no}: malformed JSON ({exc.msg})") from None
            for key in required:
                if key not in obj:
                    raise ValidationError(f"line {line_no}: missing field {key!r}")
            records.append(obj)
    return records
