import itertools
import json
import types

import numpy as np
import pytest

from deepmta.attribution import (
    METHODS,
    _SOLVE_VALUES,
    _WINDOW_ROWS,
    EXACT_LIMIT,
    MAX_PREFIX_ROWS,
    RECHECK_MARGIN,
    AttributionResult,
    GameStats,
    _block_rows,
    _build_plan,
    _clip_normalize_rows,
    _distinct,
    _exact_solver,
    _game_values,
    _least_squares,
    _normal_matrix,
    _pack_blocks,
    _permutation_estimates,
    _permutation_prefixes,
    _scan_block,
    _scan_inputs,
    _trie_steps,
    attribute_journey,
    attribute_journeys,
    attribution_to_dict,
    load_attributions,
    mask_powerset,
    masked_accuracy_batch,
    resolve_method,
    save_attributions,
)
from deepmta._fork import shares
from deepmta.errors import ConfigError, DimensionError, NumericError, ValidationError
from deepmta.journey import ClickEvent, CustomerJourney, Vocabulary, encode_journey, journey_table
from deepmta.model import LAYER_TENSOR_FIELDS, ModelParams, PhasedLstmLayerParams, forward_batch, init_params
from deepmta.trainer import softmax
from reference import (
    kernel_normal_matrix,
    masked_accuracy,
    shapley_coeff,
    shapley_exact,
    shapley_kernel_row_weights,
    shapley_sampled,
)
from test_model import random_model


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


def shapley_table_double_loop(values, coeff):
    """The subset-by-player double loop over a table indexed by bitmask (bit
    j = player j) that `_exact_solver` replaced, kept as its oracle: same
    terms, same order. `coeff` gives the semivalue's weight of each coalition
    size: `shapley_coeff(n)` for the Shapley values, `banzhaf_coeff(n)` for
    the Banzhaf values."""
    n = len(coeff)
    sizes = np.array([bin(s).count("1") for s in range(2 ** n)])
    phi = np.zeros(n)
    for s in range(2 ** n):
        size = sizes[s]
        for i in range(n):
            if not (s >> i) & 1:
                phi[i] += coeff[size] * (values[s | (1 << i)] - values[s])
    return phi


def banzhaf_coeff(n):
    return np.full(n, 0.5 ** (n - 1))


def banzhaf_intercept(values, raw):
    """The unweighted least-squares intercept on the full powerset, mean(v) -
    sum(raw) / 2, with both sums added left to right in a loop (the built-in
    sum compensates its rounding from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    weight = 0.0
    for value in raw:
        weight += value
    return total / len(values) - weight / 2


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        # a table of two journeys is not one journey's game
        two = journey_table([make_journey(["A", "B"], converted=False)] * 2, VOCAB)
        with pytest.raises(DimensionError, match="of one journey, got .* of 2 journeys"):
            masked_accuracy_batch(self.params, two, np.ones((1, len(two.times))))

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

    def test_batch_spans_several_blocks(self, monkeypatch):
        # more distinct rows than one trie block holds, plus duplicates;
        # the reference is one batched forward over every row. At 8 units
        # a block of the package's size holds all 6000 rows, so blocks
        # here hold 1024 rows
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_block_rows", lambda params: 1024)
        rng = np.random.default_rng(13)
        n = 14
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=5)
        enc = encode_journey(random_journey(rng, n), VOCAB)
        masks = rng.integers(0, 2, size=(6000, n))
        masks[:50] = 0
        assert len(np.unique(masks, axis=0)) > 1024
        np.testing.assert_array_equal(masked_accuracy_batch(params, enc, masks), forward_reference(params, enc, masks))

    def test_non_binary_mask_rejected(self):
        enc = encode_journey(make_journey(["A", "B"], converted=False), VOCAB)
        with pytest.raises(ValidationError):
            masked_accuracy_batch(self.params, enc, np.array([[0.5, 1.0]]))


class TestSolveWeights:
    def test_worked_example(self):
        masks = mask_powerset(2)
        acc = np.array([0.5, 0.6, 0.7, 0.9])
        intercept, *w = _least_squares(*_normal_matrix(masks), acc)
        assert intercept == pytest.approx(0.475, abs=1e-9)
        np.testing.assert_allclose(w, [0.25, 0.15], atol=1e-9)

    def test_constant_acc_no_signal(self):
        masks = mask_powerset(3)
        intercept, *w = _least_squares(*_normal_matrix(masks), np.full(8, 0.4))
        assert intercept == pytest.approx(0.4, abs=1e-9)
        np.testing.assert_allclose(w, 0.0, atol=1e-9)

    def test_exact_linear_recovery(self):
        masks = mask_powerset(3).astype(float)
        target = 0.2 + masks @ np.array([0.1, -0.05, 0.3])
        beta = _least_squares(*_normal_matrix(masks), target)
        intercept, w = beta[0], beta[1:]
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
            intercept, *w = _least_squares(*_normal_matrix(masks), acc)
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
            kernel = rng.random() >= 0.5
            beta = _least_squares(*(kernel_normal_matrix if kernel else _normal_matrix)(masks), acc)
            X = np.hstack([np.ones((m, 1)), masks])
            row_w = shapley_kernel_row_weights(masks) if kernel else np.ones(m)
            residual = acc - X @ beta
            assert np.max(np.abs(X.T @ (row_w * residual))) < 1e-8

    def test_kernel_weights_respect_endpoints(self):
        # enormous endpoint weights pin the fit at v(empty) and v(full),
        # giving the efficiency property of kernel-weighted regression
        rng = np.random.default_rng(4)
        n = 4
        masks = mask_powerset(n)
        acc = rng.random(2 ** n)
        intercept, *w = _least_squares(*kernel_normal_matrix(masks), acc)
        assert intercept == pytest.approx(acc[0], abs=1e-3)
        assert intercept + sum(w) == pytest.approx(acc[-1], abs=1e-3)


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
        # one solve over several games' stacked values equals the double
        # loop on each game's table, bit for bit, under the Shapley and the
        # Banzhaf weights
        rng = np.random.default_rng(20 + n)
        tables = rng.random((4, 2 ** n))
        for table in tables:
            table[rng.integers(0, 2 ** n, size=2 ** n // 3)] = 0.5  # ties give zero terms
        # the value of powerset row r is the table's entry at r's bitmask
        bitmask = mask_powerset(n) @ (1 << np.arange(n))
        for coeff in (banzhaf_coeff(n), shapley_coeff(n)):
            _, solved = _exact_solver(n, coeff)(tables[:, bitmask])
            assert solved.shape == (4, n)
            for table, phi in zip(tables, solved):
                np.testing.assert_array_equal(phi, shapley_table_double_loop(table, coeff))
        # the last solve is Shapley's
        np.testing.assert_array_equal(
            shapley_exact(lambda mask: tables[0][mask @ (1 << np.arange(n))], n), solved[0]
        )


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
        (w,), (flag,) = _clip_normalize_rows(np.array([[0.5, -0.2, 0.3]]))
        np.testing.assert_allclose(w, [0.625, 0.0, 0.375], atol=1e-12)
        assert not flag

    def test_all_negative_flagged(self):
        (w,), (flag,) = _clip_normalize_rows(np.array([[-0.1, -0.2]]))
        np.testing.assert_array_equal(w, 0.0)
        assert flag

    def test_single_positive(self):
        (w,), (flag,) = _clip_normalize_rows(np.array([[1.0]]))
        np.testing.assert_array_equal(w, [1.0])
        assert not flag

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            _clip_normalize_rows(np.array([[np.inf, 0.0]]))

    def test_random_property(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            n = int(rng.integers(1, 20))
            raw = rng.normal(0, rng.uniform(0.1, 10), n)
            (w,), (flag,) = _clip_normalize_rows(raw[None])
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
        (w1, w2), (f1, f2) = _clip_normalize_rows(np.stack([phi, phi_scaled]))
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

    @pytest.mark.parametrize(
        "bad", ({"n_samples": 0}, {"workers": 0}, {"seed": -1}, {"method": "bogus"}, {"method": "kernel_ols"}))
    def test_many_journey_arguments_checked_at_the_call(self, bad):
        params = init_params(VOCAB.encoding_dim, 8, 2, rng=1)

        def journeys():
            raise AssertionError("a journey was read before the arguments were checked")
            yield

        with pytest.raises(ConfigError):
            attribute_journeys(params, [], VOCAB, **bad)
        with pytest.raises(ConfigError):
            attribute_journeys(params, journeys(), VOCAB, **bad)

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

    def test_sampled_tracks_exact_above_the_limit(self, monkeypatch):
        # a 13-event game that the model moves: the package's 2048-sample
        # estimate against exact Shapley over the whole powerset, with
        # EXACT_LIMIT raised for this test alone (RMSE 0.0034 measured)
        import deepmta.attribution as attribution

        n = EXACT_LIMIT + 1
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=1)
        journey = random_journey(np.random.default_rng(1), n)
        sampled = attribute_journey(params, journey, VOCAB, method="shapley_sampled", n_samples=2048, seed=0)
        monkeypatch.setattr(attribution, "EXACT_LIMIT", n)
        values = masked_accuracy_batch(params, encode_journey(journey, VOCAB), mask_powerset(n))
        exact = _exact_solver(n, shapley_coeff(n))(values[None])[1][0]
        # the game reads the model: its non-final events do not all tie
        assert np.ptp(exact[:-1]) > 0.1
        assert np.sqrt(np.mean((sampled.raw_weights - exact) ** 2)) < 0.005


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


def encoded_table(journeys):
    """Each journey's one-journey table and the table of them all."""
    return [encode_journey(j, VOCAB) for j in journeys], journey_table(journeys, VOCAB)


def scan_block(params, table, pieces, dtype=np.float32):
    """`_scan_block` over pieces (journey index in `table`, rows)."""
    return _scan_block(params, table, _scan_inputs(params, table, dtype), pieces)


@pytest.mark.parametrize("H", (64, 256))
def test_block_scan_peak_is_at_most_nine_states_per_row(H):
    # a trie block's memory: one 2048-row block, the full powerset of 11
    # events on a two-layer model, peaks at no more than nine state-sized
    # float32 arrays (H values) per row
    import tracemalloc

    rng = np.random.default_rng(95)
    params = init_params(VOCAB.encoding_dim, H, 2, rng=5, r_on_init=0.5)
    _, table = encoded_table([random_journey(rng, 11)])
    inputs = _scan_inputs(params, table)
    pieces = [(0, mask_powerset(11) != 0)]
    _scan_block(params, table, inputs, pieces)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _scan_block(params, table, inputs, pieces)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2048 * H * np.dtype(np.float32).itemsize, peak / (2048 * H * 4)


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_scan_inputs_per_distinct_time_equal_per_event_gates_and_batched_product(dtype):
    # every journey's first event is at hour 0 and later events share a few
    # gaps, so many events share a time: the gates made once per distinct
    # time and gathered by event, and the projection made gate by gate into
    # `dtype`, are the bits of the per-event gate and of the one batched
    # product, cast
    from deepmta.model import _gate_forward, gate_stack

    rng = np.random.default_rng(96)
    params = random_model(rng, VOCAB.encoding_dim, 16, 2)
    journeys = []
    for idx, n in enumerate(rng.integers(1, 6, size=60)):
        ts = np.cumsum(rng.choice([0, 1800, 3600, 7200], size=n))
        events = [ClickEvent(("A", "B")[t % 2], "c1", int(t)) for t in ts]
        journeys.append(CustomerJourney(f"u{idx}", events, True, 1.0))
    _, table = encoded_table(journeys)
    assert 2 * len(np.unique(table.times)) < len(table.times)
    x0, gates = _scan_inputs(params, table, dtype)
    Wx0 = gate_stack(params, 0, "W_x")
    batched = np.zeros((len(Wx0), len(table.times) + 1, Wx0.shape[2]))
    np.matmul(table.features, Wx0, out=batched[:, :-1])
    assert x0.dtype == dtype and all(gate.dtype == dtype for gate in gates)
    np.testing.assert_array_equal(x0, batched.astype(dtype))
    assert len(gates) == params.n_layers
    for gate, lp in zip(gates, params.layers):
        per_event = _gate_forward(table.times[:, None], lp.tau, lp.s, lp.r_on, 0.0)[0]
        np.testing.assert_array_equal(gate, per_event.astype(dtype))


def test_game_values_peak_per_event():
    # an attribution shard holds its scan inputs once, in float32: 24 H
    # bytes per event at two layers, no float64 copy. On a desk-shaped table
    # (500 journeys of 1-4 events, H = 64) the peak of _game_values, its two
    # block scans included, measured 60 H bytes per event (108 H when the
    # inputs were held in float64 and float32 both)
    import tracemalloc

    H = 64
    rng = np.random.default_rng(97)
    params = init_params(VOCAB.encoding_dim, H, 2, rng=5, r_on_init=0.5)
    _, table = encoded_table(mixed_journeys(rng, rng.integers(1, 5, size=500)))
    games = [(idx, _build_plan("auto", int(n), 8, 1).rows) for idx, n in enumerate(table.lengths)]
    _game_values(params, table, games, GameStats())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _game_values(params, table, games, GameStats())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 64 * H * len(table.times), peak / (H * len(table.times))


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

    @pytest.mark.parametrize("method", ("auto", "ols", "shapley_sampled"))
    def test_mixed_lengths_match_per_journey(self, method, monkeypatch):
        # blocks of 1024 rows at 6 units, so that every method's games are
        # cut into several
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_block_rows", lambda params: 1024)
        rng = np.random.default_rng(40)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=4)
        journeys = mixed_journeys(rng, rng.permutation(np.arange(1, 21)))
        plans = [_build_plan(method, len(j.events), 8, 1) for j in journeys]
        encs, table = encoded_table(journeys)
        games = [(idx, plan.rows) for idx, plan in enumerate(plans)]
        stats = GameStats()
        values = _game_values(params, table, games, stats=stats)
        assert stats.blocks == len(_pack_blocks(games, 1024)) >= 2
        for enc, plan, distinct in zip(encs, plans, values):
            masks, acc = plan.rows[plan.inverse], distinct[plan.inverse]
            np.testing.assert_array_equal(acc, masked_accuracy_batch(params, enc, masks))
            for row in rng.choice(len(masks), 4):
                assert acc[row] == masked_accuracy(params, enc, masks[row])
        batched = list(attribute_journeys(params, journeys, VOCAB, method=method, n_samples=8, seed=1, workers=3))
        assert len(batched) == len(journeys)
        for journey, result in zip(journeys, batched):
            single = attribute_journey(params, journey, VOCAB, method=method, n_samples=8, seed=1)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)
            np.testing.assert_array_equal(result.weights, single.weights)
            assert (result.intercept, result.method, result.unattributed) == (
                single.intercept, single.method, single.unattributed,
            )

    def test_game_cut_across_blocks(self, monkeypatch):
        # a game with more distinct rows than a block, between two small
        # ones; at 8 units blocks here hold 1024 rows, as in
        # test_batch_spans_several_blocks
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_block_rows", lambda params: 1024)
        rng = np.random.default_rng(41)
        params = init_params(VOCAB.encoding_dim, 8, 2, t_span_hours=12.0, rng=5)
        encs, table = encoded_table(mixed_journeys(rng, (3, 14, 5)))
        masks = [mask_powerset(3), rng.integers(0, 2, size=(6000, 14)), mask_powerset(5)]
        distinct = [_distinct(m != 0) for m in masks]
        games = [(idx, rows) for idx, (rows, _) in enumerate(distinct)]
        assert len(games[1][1]) > 1024
        blocks = _pack_blocks(games, 1024)
        assert all(sum(stop - start for _, start, stop in block) <= 1024 for block in blocks)
        assert sum(any(g == 1 for g, _, _ in block) for block in blocks) >= 2
        stats = GameStats()
        values = _game_values(params, table, games, stats=stats)
        for enc, m, (_, inverse), acc in zip(encs, masks, distinct, values):
            np.testing.assert_array_equal(acc[inverse], forward_reference(params, enc, m))
        # node_steps counts each journey's live prefixes once, across the cuts
        assert stats.node_steps == sum(live_prefix_steps(rows) for _, rows in games)

    @pytest.mark.parametrize("seed", range(4))
    def test_live_rows_match_reference(self, seed):
        # rows with many trailing zeros and the all-zero row, with several
        # 1-event journeys in one block: each of those has one live row,
        # [1], alike across them
        rng = np.random.default_rng(50 + seed)
        params = init_params(VOCAB.encoding_dim, 6, 1 + seed % 2, t_span_hours=12.0, rng=seed)
        encs, table = encoded_table(mixed_journeys(rng, (1, 1, 7, 1, 12, 3, 1)))
        games = []
        for idx, n in enumerate(table.lengths):
            masks = rng.integers(0, 2, size=(40, n))
            masks[np.arange(n) >= rng.integers(0, n + 1, size=(40, 1))] = 0
            masks[0] = 0
            games.append((idx, _distinct(masks != 0)[0]))
        accs, node_steps, _ = scan_block(params, table, games)
        assert node_steps == sum(live_prefix_steps(rows) for _, rows in games)
        for enc, (_, rows), acc in zip(encs, games, accs):
            np.testing.assert_array_equal(acc, forward_reference(params, enc, rows))
            for row, value in zip(rows, acc):
                assert value == masked_accuracy(params, enc, row)

    def test_cut_after_a_row_with_trailing_zeros(self, monkeypatch):
        # blocks of 3 rows cut powersets everywhere, also after a row whose
        # last kept event comes before the prefix it shares with the next
        # row: the block before stepped only part of that prefix
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_block_rows", lambda params: 3)
        rng = np.random.default_rng(46)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=9)
        encs, table = encoded_table(mixed_journeys(rng, (1, 5, 1, 6, 2)))
        games = [(idx, mask_powerset(len(enc.times)) != 0) for idx, enc in enumerate(encs)]
        blocks = _pack_blocks(games, 3)
        cuts = [games[g][1][start - 1:start + 1] for block in blocks for g, start, _ in block if start]
        kept_before = [np.flatnonzero(before) for before, _ in cuts]
        assert any(
            (kept[-1] + 1 if len(kept) else 0) < np.argmin(before == after)
            for kept, (before, after) in zip(kept_before, cuts)
        )
        stats = GameStats()
        values = _game_values(params, table, games, stats=stats)
        assert stats.blocks == len(blocks)
        for enc, acc in zip(encs, values):
            np.testing.assert_array_equal(acc, forward_reference(params, enc, mask_powerset(len(enc.times))))
        steps = [3 * 2 ** (len(enc.times) - 1) - 2 for enc in encs]
        assert stats.node_steps == sum(steps) == sum(live_prefix_steps(rows) for _, rows in games)

    @pytest.mark.parametrize(("H", "rows"), ((8, 16384), (64, 2048), (128, 1024), (1024, 1024), (4096, 1024)))
    def test_block_rows_follow_the_width(self, H, rows):
        # 2^17 values of state per block, but never fewer than 1024 rows
        assert _block_rows(types.SimpleNamespace(hidden_size=H)) == rows

    @pytest.mark.parametrize("workers", (1, 2, 5))
    def test_packing_covers_every_row_once(self, workers):
        # each worker packs the games of its own shard of journeys, here in
        # blocks of 1024 rows
        block_rows = 1024
        rng = np.random.default_rng(42)
        encs = [encode_journey(j, VOCAB) for j in mixed_journeys(rng, (12, 2, 12, 1, 9, 12, 4))]
        all_games = [(idx, mask_powerset(len(enc.times)) != 0) for idx, enc in enumerate(encs)]
        shards = shares([len(rows) for _, rows in all_games], workers)
        assert sorted(idx for shard in shards for idx in shard) == list(range(len(all_games)))
        for shard in shards:
            games = [all_games[idx] for idx in shard]
            blocks = _pack_blocks(games, block_rows)
            if not games:
                assert blocks == []
                continue
            sizes = [sum(stop - start for _, start, stop in block) for block in blocks]
            assert max(sizes) <= block_rows and max(sizes) - min(sizes) <= 1
            assert len(blocks) == -(-sum(sizes) // block_rows)
            for g, (_, rows) in enumerate(games):
                pieces = sorted((start, stop) for block in blocks for h, start, stop in block if h == g)
                assert pieces[0][0] == 0 and pieces[-1][1] == len(rows)
                assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(pieces, pieces[1:]))

    def test_last_journey_fills_the_window(self):
        # four full exact games per worker close the window on the last
        # journey, leaving no empty one
        rng = np.random.default_rng(44)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=7)
        journey = random_journey(rng, EXACT_LIMIT)
        result = attribute_journey(params, journey, VOCAB)
        masks = mask_powerset(EXACT_LIMIT)
        table = np.empty(2 ** EXACT_LIMIT)
        table[masks @ (1 << np.arange(EXACT_LIMIT))] = forward_reference(params, encode_journey(journey, VOCAB), masks)
        np.testing.assert_array_equal(result.raw_weights, shapley_table_double_loop(table, shapley_coeff(EXACT_LIMIT)))
        assert _WINDOW_ROWS == 4 * 2 ** EXACT_LIMIT
        stats = GameStats()
        assert len(list(attribute_journeys(params, [journey] * 8, VOCAB, workers=2, stats=stats))) == 8
        assert stats.windows == 1

    def test_workers_scan_in_their_own_processes(self, monkeypatch, tmp_path):
        # workers=2 alone runs the blocks in a forked worker and the calling
        # process, with the results and counters of one worker. A small
        # output layer puts many margins inside the recheck band, so the
        # rechecked counts compared are not 0
        import os

        import deepmta.attribution as attribution

        rng = np.random.default_rng(45)
        params = random_model(rng, VOCAB.encoding_dim, 8, 2)
        params.W_out[...] *= 1e-3
        params.b_out[...] = 0.0
        journeys = mixed_journeys(rng, (12, 5, 14, 12, 9, 3, 16, 1))
        serial_stats, parallel_stats = GameStats(), GameStats()
        serial = list(attribute_journeys(params, journeys, VOCAB, n_samples=64, workers=1, stats=serial_stats))

        def recorded(*args):
            # a worker's memory is its own, so each scan leaves its pid in a file
            (tmp_path / str(os.getpid())).touch()
            return _scan_block(*args)

        monkeypatch.setattr(attribution, "_scan_block", recorded)
        parallel = list(attribute_journeys(params, journeys, VOCAB, n_samples=64, workers=2, stats=parallel_stats))
        pids = {path.name for path in tmp_path.iterdir()}
        assert len(pids) > 1 and str(os.getpid()) in pids
        for a, b in zip(parallel, serial, strict=True):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.method, a.unattributed) == (b.intercept, b.method, b.unattributed)
        assert serial_stats.rechecked > 0
        assert parallel_stats.node_steps == serial_stats.node_steps
        assert parallel_stats.rechecked == serial_stats.rechecked
        assert_no_child_left()

    def test_no_fork_means_one_worker(self, monkeypatch):
        # where the platform cannot fork, two workers give the results and
        # counters of one, and start no process
        import os

        rng = np.random.default_rng(52)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=12)
        journeys = mixed_journeys(rng, (12, 5, 14, 12, 9, 3))
        serial_stats, parallel_stats = GameStats(), GameStats()
        serial = list(attribute_journeys(params, journeys, VOCAB, n_samples=64, workers=1, stats=serial_stats))
        monkeypatch.delattr(os, "fork")
        parallel = list(attribute_journeys(params, journeys, VOCAB, n_samples=64, workers=2, stats=parallel_stats))
        for a, b in zip(parallel, serial, strict=True):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.method, a.unattributed) == (b.intercept, b.method, b.unattributed)
        assert parallel_stats == serial_stats
        assert_no_child_left()

    def test_each_worker_gets_a_journey_of_a_long_window(self, monkeypatch, tmp_path):
        # each sampled journey has more distinct rows than a two-worker
        # window needs, yet a window holds a journey per worker. Windows
        # here close at 4096 rows per worker, so that 1000 samples exceed it
        import os

        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_WINDOW_ROWS", 2 ** EXACT_LIMIT)
        rng = np.random.default_rng(51)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=10)
        journeys = mixed_journeys(rng, (16, 17))
        assert min(len(_build_plan("auto", len(j.events), 1000, 0).rows) for j in journeys) > 2 * attribution._WINDOW_ROWS

        def recorded(*args):
            (tmp_path / str(os.getpid())).touch()
            return _scan_block(*args)

        monkeypatch.setattr(attribution, "_scan_block", recorded)
        parallel = list(attribute_journeys(params, journeys, VOCAB, n_samples=1000, workers=2))
        assert len(list(tmp_path.iterdir())) == 2
        monkeypatch.undo()
        for journey, result in zip(journeys, parallel, strict=True):
            single = attribute_journey(params, journey, VOCAB, n_samples=1000)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)

    @pytest.mark.parametrize("method", METHODS)
    def test_planned_rows_known_before_planning(self, method):
        # a plan depends only on the method and the length: its planned rows
        # are the powerset up to EXACT_LIMIT events, else OLS's 2048 rows or
        # the permutation prefixes drawn from the seed, and its distinct
        # rows and inverse are those of the journey's own game
        for n in (1, 5, 12, 13, 20) if method != "shapley_exact" else (1, 5, 12):
            plan = _build_plan(method, n, 24, 3)
            if resolve_method(method, n) == "shapley_sampled":
                masks = _permutation_prefixes(n, 24, 3)[1]
                assert len(masks) == 24 * (n + 1)
            elif n <= EXACT_LIMIT:
                masks = mask_powerset(n)
            else:
                masks = np.random.default_rng(3).integers(0, 2, size=(2048, n))
                masks[0], masks[1] = 0, 1
            assert len(plan.inverse) == len(masks)
            rows, inverse = _distinct(masks != 0)
            np.testing.assert_array_equal(plan.rows, rows)
            np.testing.assert_array_equal(plan.inverse, inverse)
            np.testing.assert_array_equal(plan.rows[plan.inverse], masks != 0)

    @pytest.mark.parametrize("n_shards", (1, 2, 3, 8))
    def test_shards_cover_each_journey_once(self, n_shards):
        rows = [16, 4096, 2, 4096, 2048, 8, 2, 624, 4096, 32]
        shards = shares(rows, n_shards)
        assert len(shards) == n_shards
        assert sorted(idx for shard in shards for idx in shard) == list(range(len(rows)))
        assert all(shard == sorted(shard) for shard in shards)
        loads = sorted(sum(rows[idx] for idx in shard) for shard in shards)
        # largest first onto the lightest: no shard exceeds another by more than its smallest journey
        for shard in shards:
            if shard:
                assert sum(rows[idx] for idx in shard) - loads[0] <= min(rows[idx] for idx in shard)

    def test_first_encoding_error_in_input_order_is_raised(self):
        # two journeys with unknown tokens, the earlier in the child's shard
        # and the later in the caller's: each shard sends its error back,
        # and the earlier one is raised
        from deepmta.errors import VocabularyError

        rng = np.random.default_rng(53)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=13)
        journeys = mixed_journeys(rng, (3, 5, 2, 4, 1, 3, 2, 5))
        caller_shard, child_shard = shares([2 ** len(j.events) for j in journeys], 2)
        first = child_shard[0]
        later = next(idx for idx in caller_shard if idx > first)
        for idx, token in ((first, "X"), (later, "Y")):
            events = [ClickEvent(token, "c1", e.timestamp) for e in journeys[idx].events]
            journeys[idx] = CustomerJourney(f"bad{idx}", events, False, 0.0)
        with pytest.raises(VocabularyError, match=f"journey 'bad{first}', event 0: unknown channel token 'X'"):
            list(attribute_journeys(params, journeys, VOCAB, workers=2))
        assert_no_child_left()

    def test_pool_is_joined_when_the_caller_closes_early(self):
        # the caller stops after the first window's first result; the
        # processes are gone (an error in a worker: see test_cli)
        rng = np.random.default_rng(49)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=9)
        journeys = mixed_journeys(rng, (12, 12, 12, 3, 12, 12, 5))
        batches = attribute_journeys(params, journeys, VOCAB, workers=2)
        next(batches)
        batches.close()
        assert_no_child_left()

    def test_more_journeys_than_one_window(self, monkeypatch):
        # at one worker, windows here close at 4096 rows: every 12-event
        # journey fills one
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_WINDOW_ROWS", 2 ** EXACT_LIMIT)
        rng = np.random.default_rng(43)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=6)
        journeys = mixed_journeys(rng, (12, 3, 5, 12, 1, 12, 7))
        windows = []

        def counted(params, table, games, *args, **kwargs):
            windows.append(len(games))
            return _game_values(params, table, games, *args, **kwargs)

        monkeypatch.setattr(attribution, "_game_values", counted)
        stats = GameStats()
        batched = list(attribute_journeys(params, journeys, VOCAB, workers=1, stats=stats))
        assert windows == [1, 3, 2, 1]
        assert stats.windows == 4
        assert stats.node_steps == sum(3 * 2 ** (len(j.events) - 1) - 2 for j in journeys)
        monkeypatch.undo()
        for journey, result in zip(journeys, batched):
            single = attribute_journey(params, journey, VOCAB)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)
            assert result.intercept == single.intercept

    @pytest.mark.parametrize(("count", "windows"), ((8, 1), (20, 3)))
    def test_four_full_games_per_worker_fill_a_window(self, count, windows):
        # at two workers a window closes at 8 full 12-event powersets: 8
        # journeys are one window (one fork), 20 are windows of 8, 8 and 4
        rng = np.random.default_rng(47)
        params = init_params(VOCAB.encoding_dim, 6, 2, t_span_hours=12.0, rng=8)
        journeys = mixed_journeys(rng, [EXACT_LIMIT] * count)
        stats = GameStats()
        batched = list(attribute_journeys(params, journeys, VOCAB, workers=2, stats=stats))
        assert stats.windows == windows
        assert stats.node_steps == count * (3 * 2 ** (EXACT_LIMIT - 1) - 2)
        assert_no_child_left()
        for journey, result in zip(journeys, batched, strict=True):
            single = attribute_journey(params, journey, VOCAB)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)
            np.testing.assert_array_equal(result.weights, single.weights)
            assert (result.intercept, result.method, result.unattributed) == (
                single.intercept, single.method, single.unattributed,
            )


def permutation_estimates_reference(perms, vals):
    """`_permutation_estimates` of one game, as it was before it took many:
    kept as the oracle of the stacked solve."""
    n_samples, n = perms.shape
    by_player = np.zeros((n_samples + 1, n))
    by_player[1 + np.arange(n_samples)[:, None], perms] = np.diff(vals.reshape(n_samples, n + 1), axis=1)
    return np.cumsum(by_player, axis=0)[-1] / n_samples


def clip_normalize_reference(raw):
    """Clip-and-normalize of one vector, as it was before it took many rows."""
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total > 0:
        return clipped / total, False
    return np.zeros_like(clipped), True


def accuracy_values(rng, shape, n):
    """Game values as masked accuracies take them: counts over 1..n kept
    events, with ties."""
    return rng.integers(0, n + 1, size=shape) / rng.integers(1, n + 1, size=shape)


class TestBatchedSolves:
    """Each plan solves all its journeys at once, with the bits of the
    per-journey solves it replaced."""

    @pytest.mark.parametrize("n", range(13, 21))
    @pytest.mark.parametrize("n_samples", (1, 7, 32))
    def test_permutation_estimates_match_each_game(self, n, n_samples):
        rng = np.random.default_rng(90 + n + n_samples)
        perms, _ = _permutation_prefixes(n, n_samples, n)
        values = accuracy_values(rng, (5, n_samples * (n + 1)), n)
        stacked = _permutation_estimates(perms, values)
        assert stacked.shape == (5, n)
        for vals, phi in zip(values, stacked):
            np.testing.assert_array_equal(phi, permutation_estimates_reference(perms, vals))
            np.testing.assert_array_equal(phi, _permutation_estimates(perms, vals))

    @pytest.mark.parametrize("n", (1, 2, 5, 7, 8, 9, 16, 17, 32))
    def test_clip_normalize_rows_match_each_row(self, n):
        # above 8 entries numpy's pairwise summation unrolls; each row is
        # still summed as that row alone. Rows 0-2 are all non-positive
        rng = np.random.default_rng(100 + n)
        raw = rng.normal(0.0, rng.uniform(0.01, 10.0, size=(40, 1)), size=(40, n))
        raw[0] = 0.0
        raw[1] = -np.abs(raw[1])
        raw[2] = -0.0
        weights, unattributed = _clip_normalize_rows(raw)
        assert unattributed[:3].all()
        for row, w, flag in zip(raw, weights, unattributed):
            ref, ref_flag = clip_normalize_reference(row)
            np.testing.assert_array_equal(w, ref)
            assert np.signbit(w).tolist() == np.signbit(ref).tolist()
            assert bool(flag) is ref_flag

    @pytest.mark.parametrize(
        ("method", "n"),
        [(method, n) for method in ("ols", "shapley_exact", "shapley_sampled")
         for n in (1, 3, 9, 12, 13, 17) if method != "shapley_exact" or n <= EXACT_LIMIT],
    )
    def test_plan_finish_matches_per_journey_solves(self, method, n):
        # every method's stacked solve and clip-normalize equal the
        # per-journey path they replaced. Up to EXACT_LIMIT events, ols and
        # shapley_exact are the closed forms of the unweighted and the
        # Shapley-kernel powerset regressions, which they equal within the
        # solve's rounding and, for shapley_exact, the soft endpoint weight
        rng = np.random.default_rng(110 + n)
        plan = _build_plan(method, n, 16, 4)
        values = accuracy_values(rng, (6, len(plan.rows)), n)[:, plan.inverse]
        values[0] = 0.0  # an all-zero game leaves its journey unattributed
        masks = plan.rows[plan.inverse].astype(np.int64)
        for vals, result in zip(values, plan.finish(values), strict=True):
            if method == "shapley_sampled":
                perms, _ = _permutation_prefixes(n, 16, 4)
                intercept, raw = vals[0], permutation_estimates_reference(perms, vals)
            elif n > EXACT_LIMIT:
                beta = _least_squares(*_normal_matrix(masks), vals)
                intercept, raw = beta[0], beta[1:]
            else:
                table = np.empty(2 ** n)
                table[masks @ (1 << np.arange(n))] = vals
                banzhaf = method == "ols"
                raw = shapley_table_double_loop(table, banzhaf_coeff(n) if banzhaf else shapley_coeff(n))
                intercept = banzhaf_intercept(vals, raw) if banzhaf else table[0]
                # the regression of each closed form; its gaps, like the
                # fit, scale with the values, which here reach n
                beta = _least_squares(*(_normal_matrix if banzhaf else kernel_normal_matrix)(masks), vals)
                scale = max(1.0, np.abs(vals).max())
                atol = (1e-12, 1e-12) if banzhaf else (5e-7, 5e-6)
                np.testing.assert_allclose(raw, beta[1:], rtol=0, atol=atol[0] * scale)
                assert abs(intercept - beta[0]) <= atol[1] * scale
            weights, unattributed = clip_normalize_reference(raw)
            np.testing.assert_array_equal(result.raw_weights, raw)
            np.testing.assert_array_equal(result.weights, weights)
            assert (result.intercept, result.method, result.unattributed) == (float(intercept), method, unattributed)
            assert type(result.intercept) is float and type(result.unattributed) is bool

    @pytest.mark.parametrize("method", METHODS)
    def test_stacked_games_equal_each_journey_alone(self, method):
        # many journeys of each length up to EXACT_LIMIT are solved stacked,
        # in one window or several; each result has the bits of its journey
        # attributed alone, at one and two workers
        rng = np.random.default_rng(122)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=13)
        journeys = mixed_journeys(rng, rng.integers(1, EXACT_LIMIT + 1, size=80))
        alone = [attribute_journey(params, journey, VOCAB, method=method, n_samples=8) for journey in journeys]
        for workers in (1, 2):
            stacked = list(attribute_journeys(params, journeys, VOCAB, method=method, n_samples=8, workers=workers))
            for a, b in zip(stacked, alone, strict=True):
                np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
                assert a.intercept == b.intercept

    def test_powerset_games_skip_the_normal_equations(self, monkeypatch):
        # ols takes its closed form up to EXACT_LIMIT events; only sampled
        # rows reach the least-squares solve
        import deepmta.attribution as attribution

        def spy(*args):
            raise AssertionError("a least-squares solve")

        monkeypatch.setattr(attribution, "_least_squares", spy)
        rng = np.random.default_rng(123)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=14)
        journeys = mixed_journeys(rng, range(1, EXACT_LIMIT + 1))
        assert len(list(attribute_journeys(params, journeys, VOCAB, method="ols"))) == EXACT_LIMIT
        with pytest.raises(AssertionError, match="a least-squares solve"):
            attribute_journey(params, random_journey(rng, EXACT_LIMIT + 1), VOCAB, method="ols")

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_plan_per_length_and_window(self, monkeypatch, workers):
        # plans are built as a window fills, once for each length in it,
        # and before any child is forked. Windows here close at 4096 rows
        # per worker, so that these journeys fill several
        import deepmta.attribution as attribution

        monkeypatch.setattr(attribution, "_WINDOW_ROWS", 2 ** EXACT_LIMIT)
        rng = np.random.default_rng(120)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=11)
        journeys = mixed_journeys(rng, (3, 1, 3, 12, 2, 3, 12, 1, 14, 2, 12, 3, 3))
        events = []

        def build(method, n, *args):
            events.append(("plan", method, n))
            return _build_plan(method, n, *args)

        def sharded(role, work, parts):
            parts = list(parts)
            events.append(("window", sorted({len(j.events) for part in parts for j in part})))
            return real_sharded(role, work, parts)

        real_sharded = attribution.sharded
        monkeypatch.setattr(attribution, "_build_plan", build)
        monkeypatch.setattr(attribution, "sharded", sharded)
        results = list(attribute_journeys(params, journeys, VOCAB, n_samples=8, seed=2, workers=workers))
        windows = [event for event in events if event[0] == "window"]
        assert len(windows) >= 2
        built = []
        for event in events:
            if event[0] == "plan":
                built.append(event[2])
            else:
                assert sorted(built) == event[1], "one plan per length in the window"
                built = []
        assert all(method == "auto" for kind, method, *_ in events if kind == "plan")
        monkeypatch.undo()
        for journey, result in zip(journeys, results, strict=True):
            single = attribute_journey(params, journey, VOCAB, n_samples=8, seed=2)
            np.testing.assert_array_equal(result.raw_weights, single.raw_weights)

    def test_solves_cut_into_chunks_keep_the_bits(self, monkeypatch):
        # a length with more journeys than one solve takes is finished in
        # several solves, with the same results
        import deepmta.attribution as attribution

        rng = np.random.default_rng(121)
        params = init_params(VOCAB.encoding_dim, 6, 1, t_span_hours=12.0, rng=12)
        journeys = mixed_journeys(rng, rng.integers(1, 6, size=40))
        whole = list(attribute_journeys(params, journeys, VOCAB, n_samples=8))
        monkeypatch.setattr(attribution, "_SOLVE_VALUES", 20)
        assert attribution._SOLVE_VALUES < _SOLVE_VALUES
        chunked = list(attribute_journeys(params, journeys, VOCAB, n_samples=8))
        for a, b in zip(whole, chunked, strict=True):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.unattributed) == (b.intercept, b.unattributed)


def trie_margins(params, enc, rows, dtype):
    """The logit margins (class 1 minus class 0) of the kept nodes of one
    journey's trie scan at `dtype`, step after step, computed as
    `_scan_block` scores them. The trie does not depend on the dtype, so
    two scans' margins align node by node."""
    w = (params.W_out[:, 1] - params.W_out[:, 0]).astype(dtype)
    b = (params.b_out[1] - params.b_out[0]).astype(dtype)
    steps = _trie_steps(params, _scan_inputs(params, enc, dtype), enc.starts, rows, np.zeros(len(rows), dtype=np.int64))
    return np.concatenate([step.x[step.kept] @ w + b for step in steps])


def game_rows(rng, enc, n_samples=16):
    """The distinct rows of an exact powerset up to 8 events, else of
    permutation prefixes."""
    n = len(enc.times)
    masks = mask_powerset(n) if n <= 8 else _permutation_prefixes(n, n_samples, int(rng.integers(1000)))[1]
    return _distinct(masks != 0)[0]


class TestFloat32Scan:
    """The trie scores in float32 and rechecks near-ties in float64; its
    accuracies equal those of the float64 scan exactly."""

    @pytest.mark.parametrize(("n_layers", "H"), ((1, 8), (2, 8), (1, 64), (2, 64)))
    def test_equals_float64_scan(self, n_layers, H):
        rng = np.random.default_rng(60 + H + n_layers)
        params = random_model(rng, VOCAB.encoding_dim, H, n_layers)
        encs, table = encoded_table(mixed_journeys(rng, rng.permutation(np.arange(1, 21))))
        pieces = [(idx, game_rows(rng, enc)) for idx, enc in enumerate(encs)]
        accs, node_steps, _ = scan_block(params, table, pieces)
        reference, reference_steps, _ = scan_block(params, table, pieces, dtype=np.float64)
        assert node_steps == reference_steps
        for enc, (_, rows), acc, ref in zip(encs, pieces, accs, reference):
            np.testing.assert_array_equal(acc, ref)
            if len(enc.times) <= 8:
                np.testing.assert_array_equal(acc, forward_reference(params, enc, rows))

    def test_recheck_fires_where_margins_straddle_zero(self):
        # b_out moves one node's float64 margin to -1e-9: far from a float64
        # tie, but below what float32 resolves at this scale, so only the
        # float64 recheck gives its label. Over 16 such nodes the float32
        # margins alone get some label wrong
        rng = np.random.default_rng(70)
        params = random_model(rng, VOCAB.encoding_dim, 8, 2)
        encs, table = encoded_table(mixed_journeys(rng, (3, 8, 5, 1, 7)))
        games = [mask_powerset(len(enc.times)) != 0 for enc in encs]
        pieces = list(enumerate(games))
        bias = params.b_out[1]
        margins = np.sort(trie_margins(params, encs[1], games[1], np.float64))
        flips = 0
        for target in margins[len(margins) // 2 - 8:len(margins) // 2 + 8]:
            params.b_out[1] = bias - target - 1e-9
            margins64 = np.concatenate([trie_margins(params, enc, rows, np.float64) for enc, rows in zip(encs, games)])
            margins32 = np.concatenate([trie_margins(params, enc, rows, np.float32) for enc, rows in zip(encs, games)])
            assert np.abs(margins64).min() < 1e-8
            flips += np.count_nonzero((margins32 >= 0) != (margins64 >= 0))
            accs, _, rechecked = scan_block(params, table, pieces)
            assert rechecked == np.count_nonzero(np.abs(margins32) < RECHECK_MARGIN) > 0
            reference, _, _ = scan_block(params, table, pieces, dtype=np.float64)
            for enc, rows, acc, ref in zip(encs, games, accs, reference):
                np.testing.assert_array_equal(acc, ref)
                np.testing.assert_array_equal(acc, forward_reference(params, enc, rows))
        assert flips > 0

    def test_recheck_over_its_journeys_gives_the_whole_tables_labels(self, monkeypatch):
        # the rechecked nodes of two journeys away from the table's start are
        # labelled by a float64 scan over a table of those two journeys: the
        # labels of a float64 scan over the whole table, without a recheck of
        # its own. b_out puts one node's float64 margin at -1e-9, as in
        # test_recheck_fires_where_margins_straddle_zero, and a small output
        # layer puts nodes of both journeys inside the band
        import deepmta.attribution as attribution

        rng = np.random.default_rng(73)
        params = random_model(rng, VOCAB.encoding_dim, 8, 2)
        params.W_out[...] *= 0.1
        encs, table = encoded_table(mixed_journeys(rng, (4, 6, 7, 2, 8, 3)))
        pieces = [(idx, mask_powerset(len(encs[idx].times)) != 0) for idx in (2, 4)]
        bias = params.b_out[1]
        margins = np.sort(trie_margins(params, encs[4], pieces[1][1], np.float64))
        flips = 0
        for target in margins[len(margins) // 2 - 8:len(margins) // 2 + 8]:
            params.b_out[1] = bias - target - 1e-9
            per_journey = [(trie_margins(params, encs[idx], rows, np.float32),
                            trie_margins(params, encs[idx], rows, np.float64)) for idx, rows in pieces]
            assert all(np.any(np.abs(m32) < RECHECK_MARGIN) for m32, _ in per_journey)
            flips += sum(np.count_nonzero((m32 >= 0) != (m64 >= 0)) for m32, m64 in per_journey)
            accs, _, rechecked = scan_block(params, table, pieces)
            assert rechecked == sum(np.count_nonzero(np.abs(m32) < RECHECK_MARGIN) for m32, _ in per_journey)
            with monkeypatch.context() as patch:
                patch.setattr(attribution, "RECHECK_MARGIN", 0.0)
                reference, _, unchecked = scan_block(params, table, pieces, dtype=np.float64)
            assert unchecked == 0
            for (idx, rows), acc, ref in zip(pieces, accs, reference):
                np.testing.assert_array_equal(acc, ref)
                np.testing.assert_array_equal(acc, forward_reference(params, encs[idx], rows))
        assert flips > 0

    def test_rechecks_equal_at_one_and_two_workers(self):
        # a small output layer puts many margins inside the band: the
        # journeys' results and rechecked counts are the same at one and two
        # workers, each shard rechecking over its own journeys
        rng = np.random.default_rng(73)
        params = random_model(rng, VOCAB.encoding_dim, 8, 2)
        params.W_out[...] *= 1e-3
        params.b_out[...] = 0.0
        journeys = mixed_journeys(rng, rng.permutation(np.arange(1, 15)))
        runs = []
        for workers in (1, 2):
            stats = GameStats()
            runs.append((list(attribute_journeys(params, journeys, VOCAB, n_samples=16, workers=workers, stats=stats)),
                         stats))
        (serial, serial_stats), (parallel, parallel_stats) = runs
        assert parallel_stats.rechecked == serial_stats.rechecked > 0
        for a, b in zip(serial, parallel, strict=True):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.method, a.unattributed) == (b.intercept, b.method, b.unattributed)

    def test_rechecks_counted_once_across_cuts(self, monkeypatch):
        # a small output layer puts most margins inside the band; blocks of
        # 3 rows cut every game, and the nodes two blocks share count once
        import deepmta.attribution as attribution

        rng = np.random.default_rng(71)
        params = random_model(rng, VOCAB.encoding_dim, 8, 2)
        params.W_out[...] *= 1e-3
        params.b_out[...] = 0.0
        encs, table = encoded_table(mixed_journeys(rng, (1, 5, 2, 6)))
        games = [(idx, mask_powerset(len(enc.times)) != 0) for idx, enc in enumerate(encs)]
        whole = [scan_block(params, table, [game]) for game in games]
        monkeypatch.setattr(attribution, "_block_rows", lambda params: 3)
        stats = GameStats()
        values = _game_values(params, table, games, stats=stats)
        assert stats.blocks > len(games)
        assert stats.rechecked == sum(rechecked for _, _, rechecked in whole) > 0
        assert stats.node_steps == sum(node_steps for _, node_steps, _ in whole)
        for enc, (_, rows), acc in zip(encs, games, values):
            np.testing.assert_array_equal(acc, forward_reference(params, enc, rows))

    @pytest.mark.parametrize("H", (64, 256))
    def test_margin_error_far_inside_the_band(self, H):
        # the band is safe only while float32 errs by far less than it: on
        # a sampled 20-event game's rows and on a full 12-event powerset
        rng = np.random.default_rng(80 + H)
        params = random_model(rng, VOCAB.encoding_dim, H, 2)
        games = [(encode_journey(random_journey(rng, 20), VOCAB), _distinct(_permutation_prefixes(20, 8, 3)[1])[0]),
                 (encode_journey(random_journey(rng, EXACT_LIMIT), VOCAB), mask_powerset(EXACT_LIMIT) != 0)]
        for enc, rows in games:
            error = np.abs(trie_margins(params, enc, rows, np.float32) - trie_margins(params, enc, rows, np.float64))
            assert error.max() < RECHECK_MARGIN / 10

    @pytest.mark.parametrize("n_layers", (1, 2))
    def test_rechecking_every_node_changes_nothing(self, n_layers, monkeypatch):
        # outside the band the float32 labels are the float64 ones: with
        # every scored node rechecked in float64, no result moves a bit
        import deepmta.attribution as attribution

        rng = np.random.default_rng(90 + n_layers)
        params = random_model(rng, VOCAB.encoding_dim, 8, n_layers)
        journeys = mixed_journeys(rng, rng.permutation(np.arange(1, 21)))
        stats, every = GameStats(), GameStats()
        banded = list(attribute_journeys(params, journeys, VOCAB, n_samples=16, stats=stats))
        monkeypatch.setattr(attribution, "RECHECK_MARGIN", np.inf)
        rechecked = list(attribute_journeys(params, journeys, VOCAB, n_samples=16, stats=every))
        assert every.node_steps == stats.node_steps
        assert every.rechecked > stats.rechecked
        for a, b in zip(banded, rechecked, strict=True):
            np.testing.assert_array_equal(a.raw_weights, b.raw_weights)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.intercept, a.method, a.unattributed) == (b.intercept, b.method, b.unattributed)
