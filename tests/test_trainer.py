import csv
from collections import Counter

import numpy as np
import pytest

from deepmta.errors import ConfigError, EvaluationError, TrainingDivergedError, ValidationError, VocabularyError
from deepmta.journey import GeneratorConfig, Vocabulary, encode_journey, generate_synthetic
import deepmta.trainer as trainer_mod
from deepmta.model import backward_batch, clamp_gate_timing, forward_batch, init_params
from deepmta.trainer import (
    MOMENTUM,
    EvalResult,
    TrainConfig,
    _batches,
    _loss_and_grad_batch,
    _train_val_split,
    auc_score,
    evaluate_roc,
    loss,
    predict,
    roc_curve,
    save_loss_history,
    save_roc_csv,
    softmax,
    train,
)

LN_HALF = 0.6931471805599453


@pytest.fixture(scope="module")
def small_planted():
    cfg = GeneratorConfig(
        n_journeys=600, n_channels=4, n_campaigns=2, max_len=4,
        key_lift=0.6, base_rate=0.2, time_span_hours=48.0, include_nonconverted=True,
    )
    return generate_synthetic(cfg, seed=31)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        logits = np.array([[0.0, 60.0]])
        assert loss(logits, np.array([1])) < 1e-10

    def test_ln_half(self):
        logits = np.zeros((1, 2))
        assert loss(logits, np.array([1])) == pytest.approx(LN_HALF, abs=1e-12)

    def test_mean_over_steps(self):
        logits = np.zeros((2, 2))
        assert loss(logits, np.array([0, 1])) == pytest.approx(LN_HALF, abs=1e-12)

    def test_no_steps_rejected(self):
        with pytest.raises(ValidationError):
            loss(np.zeros((0, 2)), np.zeros(0))

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(0, 3, (6, 2))
            labels = rng.integers(0, 2, 6)
            assert loss(logits, labels) >= 0.0

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(1)
        p = softmax(rng.normal(0, 5, (4, 7, 2)))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


class TestPresets:
    def test_paper_preset_table_values(self):
        cfg = TrainConfig.preset("paper")
        assert cfg.batch_size == 128
        assert cfg.learning_rate == 0.01
        assert cfg.dropout_p == 0.5
        assert cfg.hidden_size == 1024
        assert cfg.n_layers == 2
        assert cfg.epochs == 300

    def test_desk_preset_scale(self):
        cfg = TrainConfig.preset("desk")
        assert cfg.hidden_size == 64
        assert cfg.batch_size == 32
        assert cfg.epochs == 30

    def test_overrides(self):
        cfg = TrainConfig.preset("desk", epochs=3, seed=9)
        assert cfg.epochs == 3 and cfg.seed == 9

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            TrainConfig.preset("gpu")

    def test_default_optimizer_is_plain_sgd(self):
        assert TrainConfig().optimizer == "sgd"

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    def test_bad_config_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="adam")


class TestSplit:
    def test_split_partitions_journeys(self):
        rng = np.random.default_rng(2)
        train_idx, val_idx = _train_val_split(100, 0.1, rng)
        assert len(val_idx) == 10
        assert len(train_idx) == 90
        assert set(train_idx) | set(val_idx) == set(range(100))
        assert not set(train_idx) & set(val_idx)

    def test_split_seeded(self):
        a = _train_val_split(50, 0.1, np.random.default_rng(3))
        b = _train_val_split(50, 0.1, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])


class TestTrain:
    def test_deterministic_checkpoint(self, small_planted):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=12, epochs=2, batch_size=16, seed=5)
        r1 = train(journeys[:150], vocab, cfg)
        r2 = train(journeys[:150], vocab, cfg)
        for (na, a), (_, b) in zip(r1.params.named_parameters(), r2.params.named_parameters()):
            np.testing.assert_array_equal(a, b, err_msg=na)
        assert r1.train_losses == r2.train_losses

    def test_loss_improves_on_planted_signal(self, small_planted):
        vocab, journeys = small_planted
        cfg = TrainConfig.preset("desk", hidden_size=24, epochs=10, seed=1)
        result = train(journeys, vocab, cfg)
        assert result.val_losses[-1] < result.val_losses[0]
        assert result.train_losses[-1] < result.train_losses[0]

    def test_single_sgd_step_decreases_loss(self):
        # property: a tiny step along the negative gradient lowers that
        # example's loss
        rng = np.random.default_rng(6)
        for trial in range(5):
            params = init_params(4, 6, 2, dropout_p=0.0, t_span_hours=30.0, rng=rng)
            x = rng.normal(0, 1, (1, 4, 4))
            times = np.cumsum(rng.uniform(0, 10, (1, 4)), axis=1)
            labels = rng.integers(0, 2, (1, 4))
            logits, trace = forward_batch(x, times, params, training=True)
            before, grad_logits = _loss_and_grad_batch(logits, labels)
            grads = backward_batch(trace, grad_logits)
            eps = 1e-6
            for name, arr in params.named_parameters():
                arr -= eps * grads[name]
            logits2, _ = forward_batch(x, times, params, training=True)
            after, _ = _loss_and_grad_batch(logits2, labels)
            assert after < before

    def test_divergence_aborts_with_context(self, small_planted, monkeypatch):
        vocab, journeys = small_planted
        import deepmta.trainer as trainer_mod

        calls = {"n": 0}
        real = trainer_mod.forward_batch

        def poisoned(*args, **kwargs):
            logits, trace = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 3:
                logits = logits.copy()
                logits[0, 0, 0] = np.nan
            return logits, trace

        monkeypatch.setattr(trainer_mod, "forward_batch", poisoned)
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=8, seed=2)
        with pytest.raises(TrainingDivergedError) as err:
            train(journeys[:100], vocab, cfg)
        assert err.value.epoch == 0
        assert err.value.step == 2

    def test_empty_dataset_rejected(self):
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c",))
        with pytest.raises(ValidationError):
            train([], vocab, TrainConfig())


def reference_clip_gradients(grads, max_norm):
    sq = 0.0
    for arr in grads.values():
        sq += float(np.sum(arr * arr))
    norm = np.sqrt(sq)
    if norm > max_norm:
        scale = max_norm / norm
        for arr in grads.values():
            arr *= scale


def reference_train(journeys, vocab, cfg, clip_norm):
    """`train` with the per-tensor clip, momentum, SGD and clamp loop: the
    readable oracle of the flat update. Returns the trained parameters."""
    encoded = [encode_journey(j, vocab) for j in journeys]
    rng = np.random.default_rng(cfg.seed)
    train_idx, _ = _train_val_split(len(encoded), cfg.val_fraction, rng)
    time_idx = vocab.encoding_dim - 1
    params = init_params(
        input_dim=vocab.encoding_dim, hidden_size=cfg.hidden_size, n_layers=cfg.n_layers, dropout_p=cfg.dropout_p,
        t_span_hours=max(1.0, max(float(e.times.max()) for e in encoded)), rng=rng, r_on_init=cfg.r_on_init,
    )
    frozen_rows = ("layers.0.W_xi", "layers.0.W_xf", "layers.0.W_xc", "layers.0.W_xo")
    for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
        getattr(params.layers[0], name)[time_idx, :] = 0.0
    velocity = {name: np.zeros_like(arr) for name, arr in params.named_parameters()} if cfg.optimizer == "sgd_momentum" else None
    for _ in range(cfg.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        for _, feats, times, labels in _batches(encoded, order, cfg.batch_size):
            logits, trace = forward_batch(feats, times, params, training=True, rng=rng)
            _, grad_logits = _loss_and_grad_batch(logits, labels)
            grads = dict(backward_batch(trace, grad_logits))
            for name in frozen_rows:
                grads[name][time_idx, :] = 0.0
            reference_clip_gradients(grads, clip_norm)
            for name, arr in params.named_parameters():
                g = grads[name]
                if velocity is not None:
                    v = velocity[name]
                    v *= MOMENTUM
                    v += g
                    g = v
                arr -= cfg.learning_rate * g
            clamp_gate_timing(params)
    return params


class TestFlatUpdateMatchesReference:
    @pytest.mark.parametrize("optimizer", ("sgd", "sgd_momentum"))
    @pytest.mark.parametrize("clip_norm, clipped", ((1e-3, "1"), (1e9, "0"), (trainer_mod.GRAD_CLIP_NORM, None)))
    def test_parameters_identical(self, small_planted, monkeypatch, capsys, optimizer, clip_norm, clipped):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=2, batch_size=16, seed=7, optimizer=optimizer, learning_rate=0.05)
        monkeypatch.setattr(trainer_mod, "GRAD_CLIP_NORM", clip_norm)
        result = train(journeys[:160], vocab, cfg)
        expected = reference_train(journeys[:160], vocab, cfg, clip_norm)
        assert result.params.flat.tobytes() == expected.flat.tobytes()
        for (name, a), (_, b) in zip(result.params.named_parameters(), expected.named_parameters()):
            assert a.tobytes() == b.tobytes(), name
        shares = [line.split("clipped_share=")[1] for line in capsys.readouterr().err.splitlines()]
        assert len(shares) == cfg.epochs
        if clipped is not None:
            assert shares == [clipped] * cfg.epochs


class TestEpochTelemetry:
    def test_one_stderr_line_per_epoch(self, small_planted, capsys):
        vocab, journeys = small_planted
        result = train(journeys[:120], vocab, TrainConfig(hidden_size=8, epochs=3, batch_size=16, seed=2))
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        keys = ["epoch", "train_loss", "val_loss", "seconds", "grad_norm_mean", "grad_norm_max", "clipped_share"]
        for epoch, line in enumerate(lines):
            fields = dict(item.split("=") for item in line.split())
            assert list(fields) == keys
            assert int(fields["epoch"]) == epoch
            assert float(fields["train_loss"]) == pytest.approx(result.train_losses[epoch], rel=1e-5)
            assert float(fields["val_loss"]) == pytest.approx(result.val_losses[epoch], rel=1e-5)
            assert float(fields["seconds"]) >= 0
            assert 0 < float(fields["grad_norm_mean"]) <= float(fields["grad_norm_max"])
            assert 0 <= float(fields["clipped_share"]) <= 1


class TestPredict:
    def test_pure_and_shaped(self, small_planted):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=16, seed=4)
        result = train(journeys[:80], vocab, cfg)
        j = journeys[0]
        p1 = predict(result.params, j, vocab)
        p2 = predict(result.params, j, vocab)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (len(j.events),)
        assert np.all((p1 >= 0) & (p1 <= 1))

    def test_single_event_journey(self, small_planted):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=16, seed=4)
        result = train(journeys[:80], vocab, cfg)
        single = next(j for j in journeys if len(j.events) == 1)
        assert predict(result.params, single, vocab).shape == (1,)

    def test_vocab_mismatch(self, small_planted):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=16, seed=4)
        result = train(journeys[:80], vocab, cfg)
        other_vocab = Vocabulary(channels=("zz",), campaigns=("qq",))
        from deepmta.journey import CustomerJourney, ClickEvent

        j = CustomerJourney("u", [ClickEvent("zz", "qq", 1)], False, 0.0)
        with pytest.raises(VocabularyError):
            predict(result.params, j, vocab)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_score(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_all_ties_half(self):
        assert auc_score(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_worked_example(self):
        # positives {0.9, 0.4}, negatives {0.5, 0.1}: 3 of 4 pairs concordant
        scores = np.array([0.9, 0.4, 0.5, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_score(scores, labels) == 0.75

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(0, 1, 300)
        labels = rng.integers(0, 2, 300)
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        a1 = auc_score(scores, labels)
        a2 = auc_score(1 / (1 + np.exp(-3 * scores)), labels)
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(9)
        for _ in range(20):
            scores = np.round(rng.normal(0, 1, 200), 2)  # rounded to force ties
            labels = rng.integers(0, 2, 200)
            if labels.sum() in (0, len(labels)):
                labels[0] = 1 - labels[0]
            expected = sklearn_metrics.roc_auc_score(labels, scores)
            assert auc_score(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            auc_score(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(10)
        scores = np.round(rng.random(100), 1)
        labels = rng.integers(0, 2, 100)
        thresholds, points = roc_curve(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        assert thresholds[0] == float("inf")
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))

    def test_auc_equals_roc_area(self):
        rng = np.random.default_rng(11)
        scores = np.round(rng.random(500), 2)
        labels = rng.integers(0, 2, 500)
        _, points = roc_curve(scores, labels)
        fpr = np.array([p[0] for p in points])
        tpr = np.array([p[1] for p in points])
        area = float(np.trapezoid(tpr, fpr))
        assert auc_score(scores, labels) == pytest.approx(area, abs=1e-12)

    def test_evaluate_roc_all_negative_rejected(self, small_planted):
        vocab, journeys = small_planted
        nonconv = [j for j in journeys if not j.converted][:20]
        params = init_params(vocab.encoding_dim, 8, 2, rng=0)
        with pytest.raises(EvaluationError):
            evaluate_roc(params, vocab, nonconv)


@pytest.fixture(scope="module")
def bucketed():
    """Lengths 1-2, with more than 256 journeys of one length, so the
    length-bucketed loop cuts a bucket into several batches; and a model
    trained on them."""
    cfg = GeneratorConfig(
        n_journeys=1000, n_channels=3, n_campaigns=2, max_len=2,
        key_lift=0.5, base_rate=0.2, time_span_hours=48.0, include_nonconverted=True,
    )
    vocab, journeys = generate_synthetic(cfg, seed=8)
    train_cfg = TrainConfig.preset("desk", hidden_size=8, epochs=2, val_fraction=0.6, seed=2)
    return vocab, journeys, train_cfg, train(journeys, vocab, train_cfg)


class TestBatchLoopMatchesPerJourney:
    """The length-bucketed batch loop against one forward per journey."""

    def test_val_loss_is_mean_per_journey_loss(self, bucketed):
        vocab, journeys, cfg, result = bucketed
        _, val_idx = _train_val_split(len(journeys), cfg.val_fraction, np.random.default_rng(cfg.seed))
        lengths = Counter(len(journeys[i]) for i in val_idx)
        assert len(lengths) > 1 and max(lengths.values()) > 256
        per_journey = []
        for i in val_idx:
            enc = encode_journey(journeys[i], vocab)
            logits, _ = forward_batch(enc.features[None], enc.times[None], result.params)
            per_journey.append(loss(logits[0], enc.labels))
        np.testing.assert_allclose(result.val_losses[-1], np.mean(per_journey), rtol=1e-12)

    def test_empty_validation_split(self, bucketed):
        vocab, journeys, _, _ = bucketed
        result = train(journeys[:60], vocab, TrainConfig.preset("desk", hidden_size=8, epochs=2, val_fraction=0.0))
        assert len(result.train_losses) == 2 and np.all(np.isfinite(result.train_losses))
        assert len(result.val_losses) == 2 and np.all(np.isnan(result.val_losses))

    def test_evaluate_roc_matches_per_journey_predict(self, bucketed):
        vocab, journeys, _, result = bucketed
        assert max(Counter(len(j) for j in journeys).values()) > 256
        evaluated = evaluate_roc(result.params, vocab, journeys)
        scores = np.concatenate([predict(result.params, j, vocab) for j in journeys])
        labels = np.concatenate([j.labels for j in journeys])
        assert evaluated.auc == auc_score(scores, labels)
        assert evaluated.per_step_accuracy == float(((scores >= 0.5).astype(int) == labels).mean())

    def test_evaluate_roc_empty_rejected(self, bucketed):
        vocab, _, _, result = bucketed
        with pytest.raises(EvaluationError):
            evaluate_roc(result.params, vocab, [])


class TestCsvInterfaces:
    def test_loss_history_round_trip(self, tmp_path):
        path = tmp_path / "hist.csv"
        save_loss_history(path, [0.5, 0.4], [0.6, 0.55])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["epoch"] for r in rows] == ["0", "1"]
        assert [float(r["train_loss"]) for r in rows] == [0.5, 0.4]
        assert [float(r["val_loss"]) for r in rows] == [0.6, 0.55]

    def test_roc_csv_round_trip(self, tmp_path):
        result = EvalResult(
            auc=0.8,
            roc_points=[(0.0, 0.0), (0.25, 0.9), (1.0, 1.0)],
            thresholds=[float("inf"), 0.7, 0.1],
            per_step_accuracy=0.9,
        )
        path = tmp_path / "roc.csv"
        save_roc_csv(path, result)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["threshold"]) == float("inf")
        assert [float(r["fpr"]) for r in rows] == [0.0, 0.25, 1.0]
        assert [float(r["tpr"]) for r in rows] == [0.0, 0.9, 1.0]
