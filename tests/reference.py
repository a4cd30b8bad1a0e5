"""Readable references that the package's fast paths are tested against
(the single-step cell, the time gate, per-journey stacked batches,
single-mask accuracy, Shapley values by enumeration and by a memo loop),
and the tests' helpers. No pipeline stage calls them."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from deepmta.attribution import EXACT_LIMIT, _exact_solver, _permutation_prefixes, mask_powerset
from deepmta.errors import DimensionError, NumericError, ParameterError, ValidationError
from deepmta.journey import (
    GAP_JITTER_HIGH,
    GAP_JITTER_LOW,
    GMV_MEDIAN,
    GMV_SIGMA,
    SECONDS_PER_HOUR,
    START_TS_LIMIT,
    ClickEvent,
    CustomerJourney,
    GeneratorConfig,
    JourneyTable,
    Vocabulary,
)
from deepmta.model import (
    ALPHA_TRAIN_DEFAULT,
    LN_EPS,
    ModelParams,
    PhasedLstmLayerParams,
    _check_alpha,
    _check_gate_ranges,
    _gate_forward,
    _gate_phase,
    forward_batch,
)
from deepmta.report import TOTAL_ROW_LABEL, channel_weights
from deepmta.trainer import softmax


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow for large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    k = gate_openness(_gate_phase(t, tau, s), r_on, float(alpha))
    return float(k) if np.ndim(k) == 0 else k


def gate_openness(phi, r_on, alpha):
    """The time gate's openness at phase phi, branch by branch: rise to 1
    over [0, r_on/2), fall back to 0 over [r_on/2, r_on), and leak alpha*phi
    elsewhere. The readable oracle of `model._gate_forward`'s k."""
    return np.where(
        phi < 0.5 * r_on,
        2.0 * phi / r_on,
        np.where(phi < r_on, 2.0 - 2.0 * phi / r_on, alpha * phi),
    )


def gate_backward(dk, phi, t_minus_s, tau, r_on, alpha):
    """Per-element gradients of k w.r.t. tau, s, r_on in one part: the
    readable oracle of the package's `_gate_factors` and `_gate_backward`.

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


def layer_norm(a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LN_EPS) -> np.ndarray:
    """gain * (a - mean) / sqrt(var + eps) + bias over the last axis."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] < 1:
        raise DimensionError("layer_norm needs at least one unit")
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    return gain * (a - mu) / np.sqrt(var + eps) + bias


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
    """One recurrence step on a single example (reference implementation)
    at time t: the step of `cell_forward_at` at the time gate's openness k
    at t, with k and the gate's phase phi added to its cache."""
    if not np.isfinite(t):
        raise NumericError("cell_forward received non-finite inputs")
    k, phi = _gate_forward(t, params.tau, params.s, params.r_on, alpha)
    h_t, c_t, cache = cell_forward_at(x_t, h_prev, c_prev, k, params, ln_gain, ln_bias)
    cache.update(k=k, phi=phi)
    return h_t, c_t, cache


def cell_forward_at(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    k: np.ndarray,
    params: PhasedLstmLayerParams,
    ln_gain: np.ndarray | None = None,
    ln_bias: np.ndarray | None = None,
):
    """One recurrence step on a single example at a given time-gate
    openness k, one value per unit (reference implementation).

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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h0)) and np.all(np.isfinite(c0)) and np.all(np.isfinite(k))):
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
    c_t = k * c_tilde + (1.0 - k) * c0
    h_t = k * h_tilde + (1.0 - k) * h0
    cache = {"i": i_g, "f": f_g, "u": u_g, "o": o_g, "c_tilde": c_tilde, "h_tilde": h_tilde}
    return h_t, c_t, cache


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------


def concatenated_tables(tables: list[JourneyTable]) -> JourneyTable:
    """The journeys of `tables` in one table, column by column."""
    return JourneyTable(
        features=np.concatenate([t.features for t in tables]), times=np.concatenate([t.times for t in tables]),
        labels=np.concatenate([t.labels for t in tables]), lengths=np.concatenate([t.lengths for t in tables]),
    )


def stacked_batches(encoded: list[JourneyTable], order, size: int):
    """The length-bucketed batches of `trainer._batches`, stacked from one
    one-journey table (`encode_journey`) per journey: (chunk, features,
    times, labels), lengths ascending, `order` kept within a length, at most
    `size` per batch."""
    buckets: dict[int, list[int]] = {}
    for idx in order:
        buckets.setdefault(len(encoded[idx].times), []).append(int(idx))
    for length in sorted(buckets):
        members = buckets[length]
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            feats = np.stack([encoded[i].features for i in chunk])
            times = np.stack([encoded[i].times for i in chunk])
            yield chunk, feats, times, np.stack([encoded[i].labels for i in chunk])


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------


def masked_accuracy(params: ModelParams, enc: JourneyTable, mask: np.ndarray) -> float:
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


def shapley_coeff(n: int) -> np.ndarray:
    """The Shapley weight of each coalition size s < n, s!(n-s-1)!/n!, by the
    expression the package's plans use."""
    fact = [math.factorial(i) for i in range(n + 1)]
    return np.array([fact[size] * fact[n - size - 1] / fact[n] for size in range(n)])


def shapley_exact(value, n: int) -> np.ndarray:
    """Exact Shapley values by subset enumeration, one evaluation per subset.

    `value` maps a 0/1 membership vector of length n to a real game value.
    """
    if n < 1:
        raise ValidationError("shapley_exact needs n >= 1")
    if n > EXACT_LIMIT:
        raise ValidationError(f"n={n} exceeds exact_limit={EXACT_LIMIT}; use shapley_sampled")
    values = np.array([float(value(mask)) for mask in mask_powerset(n)])
    return _exact_solver(n, shapley_coeff(n))(values[None])[1][0]


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

# ---------------------------------------------------------------------------
# journeys and reports
# ---------------------------------------------------------------------------


def synthetic_journeys(cfg: GeneratorConfig, vocab: Vocabulary, rng: np.random.Generator):
    """The synthetic journeys as they were made with numpy arithmetic after
    the draws: the oracle of `journey._synthetic_draws` and
    `journey._synthetic_journey`'s plain-Python journeys."""
    span_seconds = cfg.time_span_hours * SECONDS_PER_HOUR
    n_kept = 0
    while n_kept < cfg.n_journeys:
        n_events = int(rng.integers(1, cfg.max_len + 1))
        channel_ids = rng.integers(0, cfg.n_channels, size=n_events)
        campaign_ids = rng.integers(0, cfg.n_campaigns, size=n_events)
        start_ts = int(rng.integers(0, START_TS_LIMIT))
        if n_events > 1:
            unit_gap = span_seconds / (n_events - 1)
            jitter = rng.uniform(GAP_JITTER_LOW, GAP_JITTER_HIGH, size=n_events - 1)
            gaps = np.maximum(1, (unit_gap * jitter).astype(int))
        else:
            gaps = np.empty(0, dtype=int)
        timestamps = start_ts + np.concatenate([[0], np.cumsum(gaps)]).astype(int)

        key_recent = bool(np.any(channel_ids[-3:] == cfg.key_channel_index))
        p_convert = cfg.base_rate + (cfg.key_lift if key_recent else 0.0)
        converted = bool(rng.random() < p_convert)
        gmv = float(rng.lognormal(math.log(GMV_MEDIAN), GMV_SIGMA)) if converted else 0.0

        if not converted and not cfg.include_nonconverted:
            continue
        yield CustomerJourney(
            user_id=f"u{n_kept:06d}",
            events=[
                ClickEvent(
                    channel_id=vocab.channels[channel_ids[i]],
                    campaign_id=vocab.campaigns[campaign_ids[i]],
                    timestamp=int(timestamps[i]),
                )
                for i in range(n_events)
            ],
            converted=converted,
            gmv=gmv,
        )
        n_kept += 1


def split_stream(
    events: list[ClickEvent],
    conversions: list[tuple[int, float]],
    user_id: str = "user",
) -> list[CustomerJourney]:
    """Split one user's time-sorted click stream into journeys.

    Each conversion (timestamp, gmv) closes a journey holding every event
    since the previous conversion up to and including the last event at or
    before the conversion timestamp. Trailing events after the final
    conversion form one non-converted journey. A conversion that closes zero
    events is skipped.
    """
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValidationError("split_stream requires events sorted by timestamp")
    journeys: list[CustomerJourney] = []
    start = 0
    for ts, gmv in sorted(conversions, key=lambda c: c[0]):
        if gmv < 0:
            raise ValidationError("conversion gmv must be non-negative")
        end = start
        while end < len(events) and events[end].timestamp <= ts:
            end += 1
        if end == start:
            continue
        journeys.append(
            CustomerJourney(
                user_id=user_id,
                events=list(events[start:end]),
                converted=True,
                gmv=float(gmv),
            )
        )
        start = end
    if start < len(events):
        journeys.append(
            CustomerJourney(
                user_id=user_id,
                events=list(events[start:]),
                converted=False,
                gmv=0.0,
            )
        )
    return journeys


def allocate_gmv(journey: CustomerJourney, weights: np.ndarray) -> dict[str, float]:
    """Split the journey's GMV across channels by the per-event weights;
    repeated channels accumulate, exactly as the channel report adds them."""
    return {channel: w * journey.gmv for channel, w in channel_weights(journey, weights).items()}


def last_click_baseline(journey: CustomerJourney) -> dict[str, float]:
    """All GMV to the final event's channel; non-converted journeys are
    skipped (empty map)."""
    if not journey.converted:
        return {}
    return {journey.events[-1].channel_id: journey.gmv}


def load_report_csv(path: str | Path) -> tuple[list[dict], dict]:
    """Re-parse an emitted CSV back into (channel rows, totals row)."""
    rows = []
    totals = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            parsed = {
                "channel": record["channel"],
                "deepmta_gmv": float(record["deepmta_gmv"]),
                "lastclick_gmv": float(record["lastclick_gmv"]),
                "avg_attribution": float(record["avg_attribution"]),
                "journey_count": int(record["journey_count"]),
            }
            if parsed["channel"] == TOTAL_ROW_LABEL:
                totals = parsed
            else:
                rows.append(parsed)
    if totals is None:
        raise ValidationError(f"report CSV {path} has no TOTAL row")
    return rows, totals
