import itertools
import json
import math

import numpy as np
import pytest

from deepmta.attribution import (
    _BLOCK_ROWS,
    EXACT_LIMIT,
    MAX_PREFIX_ROWS,
    AttributionResult,
    GameStats,
    _game_values,
    _Game,
    _pack_blocks,
    _permutation_estimates,
    _permutation_prefixes,
    _plan,
    _scan_block,
    attribute_journey,
    attribute_journeys,
    attribution_to_dict,
    clip_normalize,
    load_attributions,
    mask_powerset,
    masked_accuracy,
    masked_accuracy_batch,
    resolve_method,
    save_attributions,
    shapley_exact,
    shapley_sampled,
    solve_weights,
    _shapley_from_table,
)
from deepmta.errors import ConfigError, DimensionError, NumericError, ValidationError
from deepmta.journey import ClickEvent, CustomerJourney, Vocabulary, encode_journey
from deepmta.model import LAYER_TENSOR_FIELDS, ModelParams, PhasedLstmLayerParams, forward_batch, init_params
from deepmta.trainer import softmax


def shapley_permutation_oracle(values_by_subset, n):
    """Independent oracle: average marginal contribution over all n!
    permutations, with game values given as a dict keyed by frozenset."""
    phi = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        current = frozenset()
        for player in perm:
            nxt = current | {player}
            phi[player] += values_by_subset[nxt] - values_by_subset[current]
            current = nxt
    return phi / len(perms)


def shapley_table_double_loop(values, n):
    """The subset-by-player double loop that `_shapley_from_table` replaced,
    kept as its oracle: same terms, same order."""
    fact = [math.factorial(i) for i in range(n + 1)]
    coeff = np.array([fact[size] * fact[n - size - 1] / fact[n] for size in range(n)])
    sizes = np.array([bin(s).count("1") for s in range(2 ** n)])
    phi = np.zeros(n)
    for s in range(2 ** n):
        size = sizes[s]
        for i in range(n):
            if not (s >> i) & 1:
                phi[i] += coeff[size] * (values[s | (1 << i)] - values[s])
    return phi


def table_to_value_fn(values_by_subset):
    def value(mask):
        return values_by_subset[frozenset(np.nonzero(mask)[0].tolist())]

    return value


def random_game(rng, n):
    return {frozenset(s): float(rng.normal()) for r in range(n + 1) for s in itertools.combinations(range(n), r)}


class TestMaskPowerset:
    def test_n1(self):
        np.testing.assert_array_equal(mask_powerset(1), [[0], [1]])

    def test_n2_counting_order(self):
        np.testing.assert_array_equal(mask_powerset(2), [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_n3_size_and_last_row(self):
        m = mask_powerset(3)
        assert m.shape == (8, 3)
        np.testing.assert_array_equal(m[7], [1, 1, 1])

    def test_row_eight_of_five_events(self):
        # 1-indexed row 8 selects the last three of five events
        np.testing.assert_array_equal(mask_powerset(5)[7], [0, 0, 1, 1, 1])

    def test_rows_unique_with_endpoints(self):
        m = mask_powerset(4)
        assert len({tuple(r) for r in m}) == 16
        np.testing.assert_array_equal(m[0], 0)
        np.testing.assert_array_equal(m[-1], 1)

    def test_over_limit_rejected(self):
        with pytest.raises(ValidationError):
            mask_powerset(EXACT_LIMIT + 1)


def constant_class0_model(input_dim, H=6):
    """A model that predicts class 0 at every step (zero weights, biased
    output projection)."""
    zeros_layer = lambda d: PhasedLstmLayerParams(
        **{f: np.zeros((d, H)) if f.startswith("W_x") else
           np.zeros((H, H)) if f.startswith("W_h") else
           np.full(H, 2.0) if f == "tau" else
           np.full(H, 0.5) if f == "r_on" else
           np.zeros(H)
           for f in LAYER_TENSOR_FIELDS},
    )
    return ModelParams(
        layers=[zeros_layer(input_dim), zeros_layer(H)],
        ln_gain=[np.ones(H), np.ones(H)],
        ln_bias=[np.zeros(H), np.zeros(H)],
        W_out=np.zeros((H, 2)),
        b_out=np.array([4.0, -4.0]),
        dropout_p=0.0,
        alpha=0.0,
    )


VOCAB = Vocabulary(channels=("A", "B"), campaigns=("c1",))


def make_journey(channels, converted, gmv=10.0):
    events = [ClickEvent(c, "c1", 3600 * i) for i, c in enumerate(channels)]
    return CustomerJourney("u0", events, converted, gmv if converted else 0.0)


def random_journey(rng, n):
    """A converted journey of n events over both channels with irregular
    gaps, so the time gates see varied offsets."""
    channels = [("A", "B")[int(rng.integers(2))] for _ in range(n)]
    ts = np.cumsum(rng.integers(600, 4 * 3600, size=n))
    events = [ClickEvent(c, "c1", int(t)) for c, t in zip(channels, ts)]
    return CustomerJourney("u0", events, True, 10.0)


class TestMaskedAccuracy:
    params = constant_class0_model(VOCAB.encoding_dim)

    def test_full_mask_perfect_on_all_negative(self):
        enc = encode_journey(make_journey(["A", "B", "A"], converted=False), VOCAB)
        assert masked_accuracy(self.params, enc, np.ones(3)) == 1.0

    def test_position_exclusion(self):
        # labels [0,0,0,0,1]; the always-0 predictor is wrong only at the
        # final step, so excluding it from scoring yields a perfect score
        enc = encode_journey(make_journey(["A", "B", "A", "A", "B"], converted=True), VOCAB)
        assert masked_accuracy(self.params, enc, np.ones(5)) == pytest.approx(0.8)
        assert masked_accuracy(self.params, enc, np.array([1, 1, 1, 1, 0])) == 1.0

    def test_single_position_mask(self):
        enc = encode_journey(make_journey(["A", "B"], converted=False), VOCAB)
        assert masked_accuracy(self.params, enc, np.array([0, 1])) == 1.0

    def test_zero_mask_is_zero(self):
        enc = encode_journey(make_journey(["A", "B"], converted=False), VOCAB)
        assert masked_accuracy(self.params, enc, np.zeros(2)) == 0.0

    def test_length_mismatch(self):
        enc = encode_journey(make_journey(["A", "B"], converted=False), VOCAB)
        with pytest.raises(DimensionError):
            masked_accuracy(self.params, enc, np.ones(3))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=3)
        enc = encode_journey(make_journey(["A", "B", "A", "B"], converted=True), VOCAB)
        masks = mask_powerset(4)
        batch = masked_accuracy_batch(params, enc, masks)
        loop = np.array([masked_accuracy(params, enc, m) for m in masks])
        np.testing.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("n_layers", (1, 2))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("n", range(1, EXACT_LIMIT + 1))
    def test_batch_matches_loop_random_masks(self, n, seed, n_layers):
        # random rows plus repeats of some of them and of the all-zero row
        rng = np.random.default_rng(100 * n + 10 * seed + n_layers)
        params = init_params(VOCAB.encoding_dim, 6, n_layers, t_span_hours=12.0, rng=seed)
        enc = encode_journey(random_journey(rng, n), VOCAB)
        masks = rng.integers(0, 2, size=(min(2 ** n, 24), n))
        masks = np.vstack([masks, masks[rng.integers(0, len(masks), 6)], np.zeros((2, n), dtype=np.int64)])
        masks = masks[rng.permutation(len(masks))]
        batch = masked_accuracy_batch(params, enc, masks)
        loop = np.array([masked_accuracy(params, enc, m) for m in masks])
        np.testing.assert_array_equal(batch, loop)

    def test_batch_spans_several_blocks(self):
        # more distinct rows than one trie block holds, plus duplicates;
        # the reference is one batched forward over every row
        rng = np.random.default_rng(13)
        n = 14
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=5)
        enc = encode_journey(random_journey(rng, n), VOCAB)
        masks = rng.integers(0, 2, size=(6000, n))
        masks[:50] = 0
        assert len(np.unique(masks, axis=0)) > _BLOCK_ROWS
        feats = enc.features[None] * masks[:, :, None]
        logits, _ = forward_batch(feats, np.broadcast_to(enc.times, masks.shape), params)
        preds = (softmax(logits)[..., 1] >= 0.5).astype(np.int64)
        scored = masks > 0
        counts = scored.sum(axis=1)
        matches = ((preds == enc.labels) & scored).sum(axis=1)
        expected = np.where(counts > 0, matches / np.maximum(counts, 1), 0.0)
        np.testing.assert_array_equal(masked_accuracy_batch(params, enc, masks), expected)

    def test_non_binary_mask_rejected(self):
        enc = encode_journey(make_journey(["A", "B"], converted=False), VOCAB)
        with pytest.raises(ValidationError):
            masked_accuracy_batch(self.params, enc, np.array([[0.5, 1.0]]))


class TestSolveWeights:
    def test_worked_example(self):
        masks = mask_powerset(2)
        acc = np.array([0.5, 0.6, 0.7, 0.9])
        intercept, w = solve_weights(masks, acc)
        assert intercept == pytest.approx(0.475, abs=1e-9)
        np.testing.assert_allclose(w, [0.25, 0.15], atol=1e-9)

    def test_constant_acc_no_signal(self):
        masks = mask_powerset(3)
        intercept, w = solve_weights(masks, np.full(8, 0.4))
        assert intercept == pytest.approx(0.4, abs=1e-9)
        np.testing.assert_allclose(w, 0.0, atol=1e-9)

    def test_exact_linear_recovery(self):
        masks = mask_powerset(3).astype(float)
        target = 0.2 + masks @ np.array([0.1, -0.05, 0.3])
        intercept, w = solve_weights(masks, target)
        assert intercept == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(w, [0.1, -0.05, 0.3], atol=1e-9)
        residual = target - (intercept + masks @ w)
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            masks = mask_powerset(n)
            acc = rng.random(2 ** n)
            intercept, w = solve_weights(masks, acc)
            X = np.hstack([np.ones((2 ** n, 1)), masks])
            beta = np.linalg.pinv(X) @ acc
            assert intercept == pytest.approx(beta[0], abs=1e-9)
            np.testing.assert_allclose(w, beta[1:], atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 1, 2 ** n + 1))
            masks = rng.integers(0, 2, (m, n))
            acc = rng.random(m)
            weighting = "uniform" if rng.random() < 0.5 else "shapley_kernel"
            intercept, w = solve_weights(masks, acc, weighting)
            X = np.hstack([np.ones((m, 1)), masks])
            if weighting == "uniform":
                row_w = np.ones(m)
            else:
                from deepmta.attribution import _shapley_kernel_row_weights

                row_w = _shapley_kernel_row_weights(masks)
            residual = acc - X @ np.r_[intercept, w]
            assert np.max(np.abs(X.T @ (row_w * residual))) < 1e-8

    def test_kernel_weights_respect_endpoints(self):
        # enormous endpoint weights pin the fit at v(empty) and v(full),
        # giving the efficiency property of kernel-weighted regression
        rng = np.random.default_rng(4)
        n = 4
        masks = mask_powerset(n)
        acc = rng.random(2 ** n)
        intercept, w = solve_weights(masks, acc, weighting="shapley_kernel")
        assert intercept == pytest.approx(acc[0], abs=1e-3)
        assert intercept + w.sum() == pytest.approx(acc[-1], abs=1e-3)

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            solve_weights(np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5]))

    def test_unknown_weighting(self):
        with pytest.raises(ConfigError):
            solve_weights(mask_powerset(2), np.zeros(4), weighting="fancy")


class TestShapleyExact:
    def test_two_player_worked_example(self):
        game = {frozenset(): 0.0, frozenset({0}): 0.6, frozenset({1}): 0.2, frozenset({0, 1}): 1.0}
        phi = shapley_exact(table_to_value_fn(game), 2)
        np.testing.assert_allclose(phi, [0.7, 0.3], atol=1e-12)

    def test_symmetric_additive_game(self):
        n = 5
        phi = shapley_exact(lambda mask: mask.sum() / n, n)
        np.testing.assert_allclose(phi, 1.0 / n, atol=1e-12)

    def test_dummy_player(self):
        rng = np.random.default_rng(5)
        game = random_game(rng, 3)
        # player 3 adds nothing on top of any coalition
        full = {}
        for s, v in game.items():
            full[s] = v
            full[s | {3}] = v
        phi = shapley_exact(table_to_value_fn(full), 4)
        assert phi[3] == 0.0

    def test_efficiency(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            game = random_game(rng, n)
            phi = shapley_exact(table_to_value_fn(game), n)
            total = game[frozenset(range(n))] - game[frozenset()]
            assert phi.sum() == pytest.approx(total, abs=1e-9)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5, 6):
            game = random_game(rng, n)
            phi = shapley_exact(table_to_value_fn(game), n)
            oracle = shapley_permutation_oracle(game, n)
            np.testing.assert_allclose(phi, oracle, atol=1e-12)

    def test_symmetry_under_player_swap(self):
        rng = np.random.default_rng(8)
        game = random_game(rng, 4)

        def swapped(s):
            return frozenset(1 if p == 0 else 0 if p == 1 else p for p in s)

        swapped_game = {swapped(s): v for s, v in game.items()}
        phi = shapley_exact(table_to_value_fn(game), 4)
        phi_swapped = shapley_exact(table_to_value_fn(swapped_game), 4)
        np.testing.assert_allclose(phi[[1, 0, 2, 3]], phi_swapped, atol=1e-12)

    def test_over_limit(self):
        with pytest.raises(ValidationError):
            shapley_exact(lambda m: 0.0, EXACT_LIMIT + 1)

    @pytest.mark.parametrize("n", range(1, EXACT_LIMIT + 1))
    def test_table_sum_matches_double_loop(self, n):
        rng = np.random.default_rng(20 + n)
        values = rng.random(2 ** n)
        values[rng.integers(0, 2 ** n, size=2 ** n // 3)] = 0.5  # ties give zero terms
        np.testing.assert_array_equal(_shapley_from_table(values, n), shapley_table_double_loop(values, n))


class TestShapleySampled:
    game = {frozenset(): 0.0, frozenset({0}): 0.6, frozenset({1}): 0.2, frozenset({0, 1}): 1.0}

    def test_dummy_player_exact_zero(self):
        def value(mask):
            return float(mask[0])  # only player 0 matters

        phi = shapley_sampled(value, 3, n_samples=40, seed=0)
        assert phi[1] == 0.0
        assert phi[2] == 0.0

    def test_close_to_exact_at_2000_samples(self):
        phi = shapley_sampled(table_to_value_fn(self.game), 2, n_samples=2000, seed=1)
        np.testing.assert_allclose(phi, [0.7, 0.3], atol=0.05)

    def test_seed_deterministic(self):
        v = table_to_value_fn(self.game)
        a = shapley_sampled(v, 2, n_samples=100, seed=3)
        b = shapley_sampled(v, 2, n_samples=100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_batch_hook_matches_generic(self):
        # the attribution path's estimates from every prefix row's value equal
        # the memo loop's, exactly
        rng = np.random.default_rng(9)
        game = random_game(rng, 5)
        v = table_to_value_fn(game)
        perms, prefix = _permutation_prefixes(5, 50, seed=4)
        values = np.array([v(m) for m in prefix.astype(np.float64)])
        a = shapley_sampled(v, 5, n_samples=50, seed=4)
        np.testing.assert_array_equal(a, _permutation_estimates(perms, values))

    def test_batch_hook_called_once_with_every_prefix(self):
        # row k * (n + 1) + j holds the first j players of permutation k
        perms, prefix = _permutation_prefixes(4, 7, seed=2)
        masks = prefix.astype(np.float64).reshape(7, 5, 4)
        np.testing.assert_array_equal(masks[:, 0], 0.0)
        np.testing.assert_array_equal(masks[:, -1], 1.0)
        np.testing.assert_array_equal(masks.sum(axis=2), np.tile(np.arange(5.0), (7, 1)))
        assert np.all(np.diff(masks, axis=1) >= 0)
        added = np.argmax(np.diff(masks, axis=1), axis=2)
        np.testing.assert_array_equal(added, perms)

    def test_invalid_samples(self):
        with pytest.raises(ValidationError):
            shapley_sampled(lambda m: 0.0, 2, n_samples=0, seed=0)

    def test_prefix_row_budget_checked_before_the_draw(self, monkeypatch):
        # 10^8 permutations of 20 events would ask for 16 GB of permutations
        # and 42 GB of prefixes; the budget check runs before any draw
        def no_draw(seed):
            raise AssertionError("permutations drawn before the budget check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValidationError, match="budget"):
            _permutation_prefixes(20, 10 ** 8, seed=0)
        with pytest.raises(ValidationError, match="budget"):
            _permutation_prefixes(20, MAX_PREFIX_ROWS // 21 + 1, seed=0)

    def test_prefix_row_budget_admits_its_limit(self):
        n_samples = MAX_PREFIX_ROWS // 21
        perms, prefix = _permutation_prefixes(20, n_samples, seed=0)
        assert perms.shape == (n_samples, 20) and prefix.shape == (n_samples * 21, 20)


class TestClipNormalize:
    def test_mixed_signs(self):
        w, flag = clip_normalize(np.array([0.5, -0.2, 0.3]))
        np.testing.assert_allclose(w, [0.625, 0.0, 0.375], atol=1e-12)
        assert not flag

    def test_all_negative_flagged(self):
        w, flag = clip_normalize(np.array([-0.1, -0.2]))
        np.testing.assert_array_equal(w, 0.0)
        assert flag

    def test_single_positive(self):
        w, flag = clip_normalize(np.array([1.0]))
        np.testing.assert_array_equal(w, [1.0])
        assert not flag

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            clip_normalize(np.array([np.inf, 0.0]))

    def test_random_property(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            n = int(rng.integers(1, 20))
            raw = rng.normal(0, rng.uniform(0.1, 10), n)
            w, flag = clip_normalize(raw)
            assert np.all(w >= 0)
            if flag:
                np.testing.assert_array_equal(w, 0.0)
            else:
                assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        game = random_game(rng, 4)
        phi = shapley_exact(table_to_value_fn(game), 4)
        scaled = {s: 3.5 * v for s, v in game.items()}
        phi_scaled = shapley_exact(table_to_value_fn(scaled), 4)
        np.testing.assert_allclose(phi_scaled, 3.5 * phi, atol=1e-9)
        w1, f1 = clip_normalize(phi)
        w2, f2 = clip_normalize(phi_scaled)
        assert f1 == f2
        if not f1:
            np.testing.assert_allclose(w1, w2, atol=1e-9)


class TestAttributeJourney:
    def test_single_event_full_credit(self):
        params = constant_class0_model(VOCAB.encoding_dim)
        journey = make_journey(["A"], converted=False)
        result = attribute_journey(params, journey, VOCAB, method="shapley_exact")
        np.testing.assert_array_equal(result.weights, [1.0])
        assert not result.unattributed

    def test_method_resolution(self):
        assert resolve_method("auto", 5) == "shapley_exact"
        assert resolve_method("auto", EXACT_LIMIT) == "shapley_exact"
        assert resolve_method("auto", EXACT_LIMIT + 1) == "shapley_sampled"
        assert resolve_method("ols", 20) == "ols"
        with pytest.raises(ConfigError):
            resolve_method("magic", 3)

    def test_auto_dispatch_recorded(self):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=1)
        short = make_journey(["A", "B", "A"], converted=True)
        res = attribute_journey(params, short, VOCAB, method="auto")
        assert res.method == "shapley_exact"
        long_j = make_journey(["A", "B"] * 7, converted=True)
        res = attribute_journey(params, long_j, VOCAB, method="auto", n_samples=20, seed=5)
        assert res.method == "shapley_sampled"

    def test_exact_over_limit_rejected(self):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=1)
        long_j = make_journey(["A", "B"] * 7, converted=True)
        with pytest.raises(ConfigError):
            attribute_journey(params, long_j, VOCAB, method="shapley_exact")

    def test_ols_matches_bruteforce_pinv(self):
        rng = np.random.default_rng(12)
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=10.0, rng=7)
        for n in (2, 4, 6):
            chans = [("A", "B")[int(rng.integers(2))] for _ in range(n)]
            journey = make_journey(chans, converted=True)
            res = attribute_journey(params, journey, VOCAB, method="ols")
            enc = encode_journey(journey, VOCAB)
            masks = mask_powerset(n)
            acc = masked_accuracy_batch(params, enc, masks)
            X = np.hstack([np.ones((2 ** n, 1)), masks])
            beta = np.linalg.pinv(X) @ acc
            assert res.intercept == pytest.approx(beta[0], abs=1e-9)
            np.testing.assert_allclose(res.raw_weights, beta[1:], atol=1e-9)

    def test_exact_mode_deterministic(self):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=2)
        journey = make_journey(["A", "B", "A", "A", "B"], converted=True)
        r1 = attribute_journey(params, journey, VOCAB, method="auto")
        r2 = attribute_journey(params, journey, VOCAB, method="auto")
        np.testing.assert_array_equal(r1.raw_weights, r2.raw_weights)
        np.testing.assert_array_equal(r1.weights, r2.weights)
        assert r1.intercept == r2.intercept

    def test_shapley_efficiency_against_accuracies(self):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=3)
        journey = make_journey(["A", "B", "A", "B"], converted=True)
        enc = encode_journey(journey, VOCAB)
        res = attribute_journey(params, journey, VOCAB, method="shapley_exact")
        full = masked_accuracy(params, enc, np.ones(4))
        assert res.raw_weights.sum() == pytest.approx(full - 0.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(EXACT_LIMIT + 1, 21))
    def test_sampled_matches_reference_path(self, n):
        # the trie batch against one forward per distinct coalition
        rng = np.random.default_rng(30 + n)
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=n)
        journey = random_journey(rng, n)
        enc = encode_journey(journey, VOCAB)
        res = attribute_journey(params, journey, VOCAB, method="shapley_sampled", n_samples=6, seed=n)
        ref = shapley_sampled(lambda mask: masked_accuracy(params, enc, mask), n, n_samples=6, seed=n)
        np.testing.assert_array_equal(res.raw_weights, ref)
        assert res.intercept == 0.0

    def test_kernel_method(self):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=4)
        journey = make_journey(["A", "B", "A"], converted=True)
        res = attribute_journey(params, journey, VOCAB, method="kernel_ols")
        assert res.method == "kernel_ols"
        assert res.weights.shape == (3,)


class TestAttributionJsonl:
    def test_round_trip(self, tmp_path):
        journeys = [make_journey(["A", "B"], converted=True), make_journey(["B"], converted=False)]
        results = [
            AttributionResult(np.array([0.6, -0.1]), 0.2, np.array([1.0, 0.0]), "shapley_exact", False),
            AttributionResult(np.array([-0.5]), 0.0, np.array([0.0]), "shapley_exact", True),
        ]
        path = tmp_path / "attr.jsonl"
        save_attributions(path, journeys, results)
        records = load_attributions(path)
        assert len(records) == 2
        assert records[0]["user_id"] == "u0"
        assert records[0]["channels"] == ["A", "B"]
        assert records[0]["weights"] == [1.0, 0.0]
        assert records[1]["unattributed"] is True

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "attr.jsonl"
        record = attribution_to_dict(
            make_journey(["A"], converted=False),
            AttributionResult(np.array([1.0]), 0.0, np.array([1.0]), "ols", False),
        )
        del record["weights"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="weights"):
            load_attributions(path)


def forward_reference(params, enc, masks):
    """Masked accuracy of every row through one batched forward."""
    masks = np.asarray(masks)
    feats = enc.features[None] * masks[:, :, None]
    logits, _ = forward_batch(feats, np.broadcast_to(enc.times, masks.shape), params)
    preds = (softmax(logits)[..., 1] >= 0.5).astype(np.int64)
    scored = masks > 0
    counts = scored.sum(axis=1)
    matches = ((preds == enc.labels) & scored).sum(axis=1)
    return np.where(counts > 0, matches / np.maximum(counts, 1), 0.0)


def live_prefix_steps(rows):
    """Distinct (t, mask[0..t]) nodes of one game's rows that some row with a
    kept event at t or later passes through, counted row by row."""
    nodes = set()
    for row in np.asarray(rows, dtype=bool):
        kept = np.flatnonzero(row)
        if len(kept):
            nodes.update((t, row[:t + 1].tobytes()) for t in range(kept[-1] + 1))
    return len(nodes)


def mixed_journeys(rng, lengths):
    """Journeys of the given lengths, every third one not converted."""
    journeys = []
    for idx, n in enumerate(lengths):
        journey = random_journey(rng, int(n))
        if idx % 3 == 2:
            journey = CustomerJourney(f"u{idx}", journey.events, False, 0.0)
        journeys.append(journey)
    return journeys


class TestBlockScan:
    """Many journeys' games scored together in blocks equal each journey's
    own scan and the single-mask reference, whatever the packing."""

    @pytest.mark.parametrize("method", ("auto", "ols", "kernel_ols", "shapley_sampled"))
    def test_mixed_lengths_match_per_journey(self, method):
        rng = np.random.default_rng(40)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=4)
        journeys = mixed_journeys(rng, rng.permutation(np.arange(1, 21)))
        games = [_plan(j, VOCAB, method, 8, 1)[0] for j in journeys]
        stats = GameStats()
        values = _game_values(params, games, workers=3, stats=stats)
        assert stats.blocks >= 3
        for game, acc in zip(games, values):
            masks = game.rows[game.inverse]
            np.testing.assert_array_equal(acc, masked_accuracy_batch(params, game.enc, masks))
            for row in rng.choice(len(masks), 4):
                assert acc[row] == masked_accuracy(params, game.enc, masks[row])
        batched = list(attribute_journeys(params, journeys, VOCAB, method=method, n_samples=8, seed=1, workers=3))
        assert len(batched) == len(journeys)
        for journey, result in zip(journeys, batched):
            single = attribute_journey(params, journey, VOCAB, method=method, n_samples=8, seed=1)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)
            np.testing.assert_array_equal(result.weights, single.weights)
            assert (result.intercept, result.method, result.unattributed) == (
                single.intercept, single.method, single.unattributed,
            )

    def test_game_cut_across_blocks(self):
        # a game with more distinct rows than a block, between two small ones
        rng = np.random.default_rng(41)
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=5)
        encs = [encode_journey(j, VOCAB) for j in mixed_journeys(rng, (3, 14, 5))]
        masks = [mask_powerset(3), rng.integers(0, 2, size=(6000, 14)), mask_powerset(5)]
        games = [_Game.of(enc, m != 0) for enc, m in zip(encs, masks)]
        assert len(games[1].rows) > _BLOCK_ROWS
        blocks = _pack_blocks(games, workers=2)
        assert all(sum(stop - start for _, start, stop in block) <= _BLOCK_ROWS for block in blocks)
        assert sum(any(g == 1 for g, _, _ in block) for block in blocks) >= 2
        stats = GameStats()
        values = _game_values(params, games, workers=2, stats=stats)
        for enc, m, acc in zip(encs, masks, values):
            np.testing.assert_array_equal(acc, forward_reference(params, enc, m))
        # node_steps counts each journey's live prefixes once, across the cuts
        assert stats.node_steps == sum(live_prefix_steps(game.rows) for game in games)

    @pytest.mark.parametrize("seed", range(4))
    def test_live_rows_match_reference(self, seed):
        # rows with many trailing zeros and the all-zero row, with several
        # 1-event journeys in one block: each of those has one live row,
        # [1], alike across them
        rng = np.random.default_rng(50 + seed)
        params = init_params(VOCAB.encoding_dim, 6, 1 + seed % 2, t_span_hours=12.0, rng=seed)
        games = []
        for journey in mixed_journeys(rng, (1, 1, 7, 1, 12, 3, 1)):
            n = len(journey.events)
            masks = rng.integers(0, 2, size=(40, n))
            masks[np.arange(n) >= rng.integers(0, n + 1, size=(40, 1))] = 0
            masks[0] = 0
            games.append(_Game.of(encode_journey(journey, VOCAB), masks != 0))
        accs, node_steps = _scan_block(params, [(game.enc, game.rows) for game in games])
        assert node_steps == sum(live_prefix_steps(game.rows) for game in games)
        for game, acc in zip(games, accs):
            np.testing.assert_array_equal(acc, forward_reference(params, game.enc, game.rows))
            for row, value in zip(game.rows, acc):
                assert value == masked_accuracy(params, game.enc, row)

    def test_cut_after_a_row_with_trailing_zeros(self, monkeypatch):
        # blocks of 3 rows cut powersets everywhere, also after a row whose
        # last kept event comes before the prefix it shares with the next
        # row: the block before stepped only part of that prefix
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_BLOCK_ROWS", 3)
        rng = np.random.default_rng(46)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=9)
        encs = [encode_journey(j, VOCAB) for j in mixed_journeys(rng, (1, 5, 1, 6, 2))]
        games = [_Game.of(enc, mask_powerset(len(enc.times)) != 0) for enc in encs]
        blocks = _pack_blocks(games, workers=1)
        cuts = [games[g].rows[start - 1:start + 1] for block in blocks for g, start, _ in block if start]
        kept_before = [np.flatnonzero(before) for before, _ in cuts]
        assert any(
            (kept[-1] + 1 if len(kept) else 0) < np.argmin(before == after)
            for kept, (before, after) in zip(kept_before, cuts)
        )
        stats = GameStats()
        values = _game_values(params, games, stats=stats)
        assert stats.blocks == len(blocks)
        for game, acc in zip(games, values):
            np.testing.assert_array_equal(acc, forward_reference(params, game.enc, mask_powerset(len(game.enc.times))))
        steps = [3 * 2 ** (len(enc.times) - 1) - 2 for enc in encs]
        assert stats.node_steps == sum(steps) == sum(live_prefix_steps(game.rows) for game in games)

    @pytest.mark.parametrize("workers", (1, 2, 5))
    def test_packing_covers_every_row_once(self, workers):
        rng = np.random.default_rng(42)
        encs = [encode_journey(j, VOCAB) for j in mixed_journeys(rng, (12, 2, 12, 1, 9, 12, 4))]
        games = [_Game.of(enc, mask_powerset(len(enc.times)) != 0) for enc in encs]
        blocks = _pack_blocks(games, workers)
        sizes = [sum(stop - start for _, start, stop in block) for block in blocks]
        assert max(sizes) <= _BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        assert len(blocks) >= workers
        for g, game in enumerate(games):
            pieces = sorted((start, stop) for block in blocks for h, start, stop in block if h == g)
            assert pieces[0][0] == 0 and pieces[-1][1] == len(game.rows)
            assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(pieces, pieces[1:]))

    def test_last_journey_fills_the_window(self):
        # a full exact game per worker closes the window on the last
        # journey, leaving an empty one
        rng = np.random.default_rng(44)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=7)
        journey = random_journey(rng, EXACT_LIMIT)
        result = attribute_journey(params, journey, VOCAB)
        masks = mask_powerset(EXACT_LIMIT)
        table = np.empty(2 ** EXACT_LIMIT)
        table[masks @ (1 << np.arange(EXACT_LIMIT))] = forward_reference(params, encode_journey(journey, VOCAB), masks)
        np.testing.assert_array_equal(result.raw_weights, _shapley_from_table(table, EXACT_LIMIT))
        assert len(list(attribute_journeys(params, [journey, journey], VOCAB, workers=2))) == 2

    def test_workers_scan_on_their_own_threads(self, monkeypatch):
        # workers=2 alone runs the blocks on a pool thread and the calling
        # thread, with the results of one worker
        import threading
        import time

        import deepmta.attribution as attribution

        rng = np.random.default_rng(45)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=8)
        journeys = mixed_journeys(rng, (12, 5, 12, 9, 3))
        serial = list(attribute_journeys(params, journeys, VOCAB, workers=1))
        threads = set()

        def recorded(*args):
            threads.add(threading.get_ident())
            time.sleep(0.01)  # let the other thread take a block
            return _scan_block(*args)

        monkeypatch.setattr(attribution, "_scan_block", recorded)
        parallel = list(attribute_journeys(params, journeys, VOCAB, workers=2))
        assert len(threads) > 1
        assert len(parallel) == len(serial)
        for a, b in zip(parallel, serial):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.method, a.unattributed) == (b.intercept, b.method, b.unattributed)

    def test_more_journeys_than_one_window(self, monkeypatch):
        # at one worker, every 12-event journey fills a window
        import deepmta.attribution as attribution

        rng = np.random.default_rng(43)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=6)
        journeys = mixed_journeys(rng, (12, 3, 5, 12, 1, 12, 7))
        windows = []

        def counted(params, games, *args):
            windows.append(len(games))
            return _game_values(params, games, *args)

        monkeypatch.setattr(attribution, "_game_values", counted)
        stats = GameStats()
        batched = list(attribute_journeys(params, journeys, VOCAB, workers=1, stats=stats))
        assert windows == [1, 3, 2, 1]
        assert stats.node_steps == sum(3 * 2 ** (len(j.events) - 1) - 2 for j in journeys)
        monkeypatch.undo()
        for journey, result in zip(journeys, batched):
            single = attribute_journey(params, journey, VOCAB)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)
            assert result.intercept == single.intercept

