"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
while running).
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from deepmta.attribution import (
    _clip_normalize_rows,
    _least_squares,
    _normal_matrix,
    attribute_journey,
    mask_powerset,
)
from deepmta.journey import (
    ClickEvent,
    CustomerJourney,
    GeneratorConfig,
    generate_synthetic,
    load_journeys,
)
from deepmta.model import backward_batch, forward_batch, init_params, load_checkpoint
from deepmta.trainer import TrainConfig, evaluate_roc, train

from reference import (
    kernel_normal_matrix,
    load_report_csv,
    shapley_exact,
    shapley_kernel_row_weights,
    shapley_sampled,
    time_gate,
)
from test_attribution import random_game, shapley_permutation_oracle, table_to_value_fn
from test_model import ce_loss_and_grad, finite_difference_check, gate_phase_margin, random_model


def passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(1001)
    H, T, d = 8, 3, 6
    params = random_model(rng, d, H, 2, dropout_p=0.0)
    x = rng.normal(0, 1, (1, T, d))
    labels = rng.integers(0, 2, (1, T))
    times = np.cumsum(rng.uniform(1, 20, (1, T)), axis=1)
    while gate_phase_margin(params, times) < 1e-3:  # stay away from gate break points
        times = np.cumsum(rng.uniform(1, 20, (1, T)), axis=1)
    worst = finite_difference_check(params, x, times, labels, h=1e-5, rtol=1e-4)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    passed(1, f"gradient correctness, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: exact Shapley vs permutation-average oracle + axioms
# ---------------------------------------------------------------------------


def test_criterion_2_shapley_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2002)
    for n in range(1, 9):
        table = random_game(rng, n)
        phi = shapley_exact(table_to_value_fn(table), n)
        oracle = shapley_permutation_oracle(table, n)
        assert np.max(np.abs(phi - oracle)) < 1e-9, f"n={n}"

    # 1000 random games split across the three axioms
    for _ in range(400):  # efficiency
        n = int(rng.integers(2, 9))
        table = random_game(rng, n)
        phi = shapley_exact(table_to_value_fn(table), n)
        assert abs(phi.sum() - (table[frozenset(range(n))] - table[frozenset()])) < 1e-9
    for _ in range(300):  # symmetry: two interchangeable players get equal credit
        n = int(rng.integers(2, 8))
        base = {
            frozenset(s): float(rng.normal())
            for r in range(n) for s in itertools.combinations(range(n - 1), r)
        }

        def symmetric_value(mask):
            rest = frozenset(int(i) for i in np.nonzero(mask[2:])[0])
            pair_count = int(mask[0]) + int(mask[1])
            return base[rest] * (1 + pair_count) + 0.5 * pair_count

        phi = shapley_exact(symmetric_value, n)
        assert abs(phi[0] - phi[1]) < 1e-9
    for _ in range(300):  # dummy: a player that never changes the value gets zero
        n = int(rng.integers(2, 9))
        table = random_game(rng, n - 1)

        def dummy_value(mask):
            return table[frozenset(int(i) for i in np.nonzero(mask[: n - 1])[0])]

        phi = shapley_exact(dummy_value, n)
        assert phi[n - 1] == 0.0
    elapsed = time.time() - started
    assert elapsed < 60.0, f"shapley oracle suite took {elapsed:.1f}s"
    passed(2, f"shapley oracle equivalence + axioms, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: sampled-Shapley convergence
# ---------------------------------------------------------------------------


def test_criterion_3_sampled_shapley_convergence():
    two_player = {frozenset(): 0.0, frozenset({0}): 0.6, frozenset({1}): 0.2, frozenset({0, 1}): 1.0}
    phi2 = shapley_sampled(table_to_value_fn(two_player), 2, n_samples=2000, seed=33)
    np.testing.assert_allclose(phi2, [0.7, 0.3], atol=0.05)

    rng = np.random.default_rng(3003)
    five_player = random_game(rng, 5)
    exact5 = shapley_exact(table_to_value_fn(five_player), 5)
    phi5 = shapley_sampled(table_to_value_fn(five_player), 5, n_samples=2000, seed=34)
    np.testing.assert_allclose(phi5, exact5, atol=0.05)

    # Monte-Carlo rate: quadrupling samples should roughly halve the error
    errors = {m: [] for m in (250, 1000)}
    for seed in range(20):
        for m in (250, 1000):
            est = shapley_sampled(table_to_value_fn(five_player), 5, n_samples=m, seed=100 + seed)
            errors[m].append(np.abs(est - exact5).mean())
    ratio = np.mean(errors[1000]) / np.mean(errors[250])
    assert 0.2 <= ratio <= 0.8, f"error ratio {ratio:.3f}"
    passed(3, f"sampled shapley convergence, error ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 4: least-squares solver
# ---------------------------------------------------------------------------


def test_criterion_4_ols_solver():
    intercept, *w = _least_squares(*_normal_matrix(mask_powerset(2)), np.array([0.5, 0.6, 0.7, 0.9]))
    assert abs(intercept - 0.475) < 1e-9
    np.testing.assert_allclose(w, [0.25, 0.15], atol=1e-9)

    rng = np.random.default_rng(4004)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 2 ** n + 1))
        masks = rng.integers(0, 2, (m, n))
        acc = rng.random(m)
        kernel = rng.random() >= 0.5
        beta = _least_squares(*(kernel_normal_matrix if kernel else _normal_matrix)(masks), acc)
        X = np.hstack([np.ones((m, 1)), masks])
        row_w = shapley_kernel_row_weights(masks) if kernel else np.ones(m)
        residual = acc - X @ beta
        assert np.max(np.abs(X.T @ (row_w * residual))) < 1e-8
    passed(4, "ols worked example + residual orthogonality on 1000 systems")


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale training on the planted signal
# ---------------------------------------------------------------------------

PLANTED_CFG = GeneratorConfig(
    n_journeys=10_000,
    n_channels=8,
    n_campaigns=3,
    max_len=4,
    key_channel_index=0,
    key_lift=0.6,
    base_rate=0.2,
    time_span_hours=48.0,
    include_nonconverted=True,
)
GEN_SEED = 42
TRAIN_SEED = 7


@pytest.fixture(scope="module")
def trained_planted_model():
    vocab, journeys = generate_synthetic(PLANTED_CFG, seed=GEN_SEED)
    split = int(0.9 * len(journeys))
    started = time.time()
    result = train(journeys[:split], vocab, TrainConfig.preset("desk", seed=TRAIN_SEED))
    elapsed = time.time() - started
    return {
        "vocab": vocab,
        "train": journeys[:split],
        "test": journeys[split:],
        "params": result.params,
        "train_seconds": elapsed,
    }


def test_criterion_5_conversion_prediction_desk_scale(trained_planted_model):
    ctx = trained_planted_model
    started = time.time()
    trained = evaluate_roc(ctx["params"], ctx["vocab"], ctx["test"])
    untrained_params = init_params(
        ctx["vocab"].encoding_dim, 64, 2, dropout_p=0.5, t_span_hours=60.0,
        rng=np.random.default_rng(123),
    )
    untrained = evaluate_roc(untrained_params, ctx["vocab"], ctx["test"])
    total = ctx["train_seconds"] + (time.time() - started)
    assert trained.auc >= 0.85, f"trained AUC {trained.auc:.4f}"
    assert trained.auc - untrained.auc >= 0.25, f"margin {trained.auc - untrained.auc:.4f}"
    assert total < 600.0, f"desk run took {total:.0f}s"
    passed(5, f"desk AUC {trained.auc:.3f} vs untrained {untrained.auc:.3f}, {total:.0f}s")


def test_criterion_6_attribution_sanity_on_planted_signal(trained_planted_model):
    ctx = trained_planted_model
    key = ctx["vocab"].channels[PLANTED_CFG.key_channel_index]
    eligible = [j for j in ctx["test"] if j.converted and key in j.channels]
    assert len(eligible) >= 100
    wins = attributed = 0
    for journey in eligible:
        result = attribute_journey(ctx["params"], journey, ctx["vocab"], method="auto", seed=0)
        if result.unattributed:
            continue
        per_channel = {}
        for event, w in zip(journey.events, result.weights):
            per_channel[event.channel_id] = per_channel.get(event.channel_id, 0.0) + float(w)
        attributed += 1
        # an exact tie at the maximum still means the key is jointly highest
        wins += per_channel.get(key, 0.0) >= max(per_channel.values()) - 1e-12
    fraction = wins / attributed
    assert fraction >= 0.70, f"key-channel argmax fraction {fraction:.3f} over {attributed} journeys"
    passed(6, f"key channel argmax in {fraction:.1%} of {attributed} attributed journeys")


# ---------------------------------------------------------------------------
# criterion 7: clip-normalize properties
# ---------------------------------------------------------------------------


def test_criterion_7_clip_normalize_properties():
    rng = np.random.default_rng(7007)
    checked_all_negative = checked_single = 0
    for i in range(100_000):
        n = 1 + i % 16
        raw = rng.normal(0, rng.uniform(0.1, 5.0), n)
        if i % 7 == 0:
            raw = -np.abs(raw)  # force the all-negative branch
        (weights,), (unattributed,) = _clip_normalize_rows(raw[None])
        assert np.all(weights >= 0)
        if unattributed:
            assert np.all(weights == 0)
            assert np.all(raw <= 0)
        else:
            assert abs(weights.sum() - 1.0) < 1e-9
        checked_all_negative += unattributed
        checked_single += n == 1
    assert checked_all_negative > 10_000
    assert checked_single > 6_000
    passed(7, "clip-normalize non-negativity and unit sum over 100k vectors")


# ---------------------------------------------------------------------------
# criterion 8: pipeline round-trip and the five-event fixture
# ---------------------------------------------------------------------------


def run_pipeline_command(args):
    proc = subprocess.run([sys.executable, "-m", "deepmta", *args], capture_output=True, text=True)
    assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"
    return proc.stdout


def test_criterion_8_pipeline_round_trip(tmp_path):
    data = tmp_path / "journeys.jsonl"
    ckpt = tmp_path / "model.json"
    roc = tmp_path / "roc.csv"
    attr = tmp_path / "attr.jsonl"
    report = tmp_path / "report.csv"

    run_pipeline_command([
        "gen", "--out", str(data), "--journeys", "400", "--channels", "4", "--campaigns", "2",
        "--max-len", "4", "--key-channel", "0", "--key-lift", "0.5", "--base-rate", "0.2",
        "--time-span-hours", "48", "--seed", "5", "--include-nonconverted",
    ])
    run_pipeline_command([
        "train", "--data", str(data), "--vocab", str(data.with_suffix(".vocab.json")),
        "--out", str(ckpt), "--preset", "desk", "--epochs", "4", "--hidden-size", "16",
        "--batch-size", "16", "--seed", "3",
    ])
    eval_out = run_pipeline_command(["eval", "--model", str(ckpt), "--data", str(data), "--roc-out", str(roc)])
    assert any(line.startswith("auc=") for line in eval_out.splitlines())
    run_pipeline_command([
        "attribute", "--model", str(ckpt), "--data", str(data), "--out", str(attr),
        "--method", "auto", "--seed", "1",
    ])
    run_pipeline_command(["report", "--attr", str(attr), "--data", str(data), "--out", str(report)])

    # GMV conservation for both methods at 1e-6 relative tolerance
    journeys = load_journeys(data)
    records = [json.loads(line) for line in attr.read_text().splitlines()]
    attributed_gmv = sum(j.gmv for j, r in zip(journeys, records) if not r["unattributed"])
    rows, totals = load_report_csv(report)
    assert totals["deepmta_gmv"] == pytest.approx(attributed_gmv, rel=1e-6)
    assert totals["lastclick_gmv"] == pytest.approx(attributed_gmv, rel=1e-6)

    # the five-event case-analysis fixture: channels A B A A B, mask row 8
    np.testing.assert_array_equal(mask_powerset(5)[7], [0, 0, 1, 1, 1])
    params, vocab, _ = load_checkpoint(ckpt)
    chans = [vocab.channels[0], vocab.channels[1], vocab.channels[0], vocab.channels[0], vocab.channels[1]]
    fixture = CustomerJourney(
        "case-1",
        [ClickEvent(c, vocab.campaigns[0], 3600 * 12 * i) for i, c in enumerate(chans)],
        converted=True,
        gmv=100.0,
    )
    first = attribute_journey(params, fixture, vocab, method="auto", seed=0)
    second = attribute_journey(params, fixture, vocab, method="auto", seed=0)
    assert first.method == "shapley_exact"
    np.testing.assert_array_equal(first.raw_weights, second.raw_weights)
    np.testing.assert_array_equal(first.weights, second.weights)
    assert first.intercept == second.intercept
    assert np.all(np.isfinite(first.weights))
    passed(8, "pipeline exit codes, GMV conservation, five-event fixture deterministic")


# ---------------------------------------------------------------------------
# criterion 9: time-gate unit suite
# ---------------------------------------------------------------------------


def test_criterion_9_time_gate_suite():
    rng = np.random.default_rng(9009)
    groups, per_group = 20, 500  # 10k draws total; alpha is a scalar per group
    for _ in range(groups):
        alpha = float(rng.uniform(0.0, 0.1))
        tau = np.exp(rng.uniform(np.log(1.0), np.log(100.0), per_group))
        s = rng.uniform(0.0, tau)
        r_on = rng.uniform(0.05, 0.95, per_group)

        # zero at phase zero
        k0 = time_gate(s, tau, s, r_on, alpha)
        assert np.max(np.abs(k0)) == 0.0

        # peak of the triangle at phi = r_on/2
        k_peak = time_gate(s + tau * r_on / 2, tau, s, r_on, alpha)
        assert np.max(np.abs(k_peak - 1.0)) < 1e-12

        # leak branch equals alpha * phi (phi recomputed independently)
        phi_leak = rng.uniform(r_on + 1e-3, 1.0 - 1e-3)
        t_leak = s + tau * phi_leak
        phi_actual = (t_leak - s) / tau - np.floor((t_leak - s) / tau)
        k_leak = time_gate(t_leak, tau, s, r_on, alpha)
        np.testing.assert_allclose(k_leak, alpha * phi_actual, atol=1e-12)

        # periodicity away from break points
        t = rng.uniform(0.0, 100.0, per_group)

        def margin_of(t_values):
            phi = np.mod(t_values - s, tau) / tau
            return np.minimum.reduce(
                [np.abs(phi), np.abs(phi - r_on / 2), np.abs(phi - r_on), np.abs(phi - 1.0)]
            )

        margin = margin_of(t)
        retries = 0
        while np.any(margin < 1e-6):
            bad = margin < 1e-6
            t[bad] = rng.uniform(0.0, 100.0, int(bad.sum()))
            margin = margin_of(t)
            retries += 1
            assert retries < 100
        k_a = time_gate(t, tau, s, r_on, alpha)
        k_b = time_gate(t + tau, tau, s, r_on, alpha)
        assert np.max(np.abs(k_a - k_b)) < 1e-12
    passed(9, "time-gate origin/peak/leak/periodicity over 10k draws")
