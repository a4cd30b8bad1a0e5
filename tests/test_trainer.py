import csv
import mmap
import os
import signal
from collections import Counter

import numpy as np
import pytest

from deepmta.errors import (
    ConfigError,
    DimensionError,
    EvaluationError,
    TrainingDivergedError,
    ValidationError,
    VocabularyError,
    WorkerError,
)
from deepmta.journey import GeneratorConfig, JourneyTable, Vocabulary, encode_journey, generate_synthetic
import deepmta.trainer as trainer_mod
from deepmta.model import RON_CLAMP, TAU_MIN, backward_batch, clamp_gate_timing, forward_batch, init_params
from deepmta.trainer import (
    MOMENTUM,
    EvalResult,
    TrainConfig,
    _batches,
    _dataset_loss,
    _loss_and_grad_batch,
    _step_cross_entropy,
    _train_val_split,
    auc_score,
    evaluate_roc,
    journey_table,
    predict,
    roc_curve,
    save_loss_history,
    save_roc_csv,
    softmax,
    train,
)
from reference import concatenated_tables, stacked_batches
from test_attribution import assert_no_child_left

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
        assert _step_cross_entropy(logits, np.array([1]))[0].mean() < 1e-10

    def test_ln_half(self):
        logits = np.zeros((1, 2))
        assert _step_cross_entropy(logits, np.array([1]))[0].mean() == pytest.approx(LN_HALF, abs=1e-12)

    def test_mean_over_steps(self):
        logits = np.zeros((2, 2))
        assert _step_cross_entropy(logits, np.array([0, 1]))[0].mean() == pytest.approx(LN_HALF, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(0, 3, (6, 2))
            labels = rng.integers(0, 2, 6)
            assert _step_cross_entropy(logits, labels)[0].mean() >= 0.0

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
        poison_third_loss(monkeypatch)
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=8, seed=2)
        with pytest.raises(TrainingDivergedError) as err:
            train(journeys[:100], vocab, cfg)
        assert err.value.epoch == 0
        assert err.value.step == 2

    def test_divergence_at_two_workers(self, small_planted, monkeypatch):
        # the helper process computes the loss; the caller raises with the
        # same context, and the helper is joined
        vocab, journeys = small_planted
        poison_third_loss(monkeypatch)
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=8, seed=2)
        with pytest.raises(TrainingDivergedError) as err:
            train(journeys[:100], vocab, cfg, workers=2)
        assert (err.value.epoch, err.value.step) == (0, 2)
        assert_no_child_left()

    def test_dead_helper_is_a_worker_error(self, small_planted, monkeypatch):
        # a helper killed mid-epoch ends train with WorkerError, an
        # EvaluationError as attribution's dead worker is, and is reaped
        import os
        import signal

        vocab, journeys = small_planted
        caller = os.getpid()
        top_step = trainer_mod._top_step
        calls = []

        def dying(*args):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return top_step(*args)

        monkeypatch.setattr(trainer_mod, "_top_step", dying)
        processes = []
        with pytest.raises(WorkerError, match=f"exit status {-signal.SIGKILL}") as err:
            train(journeys[:100], vocab, TrainConfig(hidden_size=8, epochs=1), workers=2, on_start=processes.append)
        assert isinstance(err.value, EvaluationError) and err.value.exit_code == 4
        assert processes == [2]
        assert_no_child_left()

    def test_empty_dataset_rejected(self):
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c",))
        with pytest.raises(ValidationError):
            train([], vocab, TrainConfig())


def poison_third_loss(monkeypatch):
    """Make the third training loss NaN, counted across processes: the count
    lives in shared memory, so a forked helper that computes a loss adds to
    it too."""
    calls = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    real = trainer_mod._loss_and_grad_batch

    def poisoned(logits, labels):
        loss, grad_logits = real(logits, labels)
        calls[0] += 1
        return (float("nan") if calls[0] == 3 else loss), grad_logits

    monkeypatch.setattr(trainer_mod, "_loss_and_grad_batch", poisoned)


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
        for _, feats, times, labels in stacked_batches(encoded, order, cfg.batch_size):
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


CLIP_CASES = ((1e-3, "1"), (1e9, "0"), (trainer_mod.GRAD_CLIP_NORM, None))


class TestFlatUpdateMatchesReference:
    @pytest.mark.parametrize("optimizer", ("sgd", "sgd_momentum"))
    @pytest.mark.parametrize(
        "clip_norm, clipped, workers",
        # the one-worker cases keep the ids they had before workers was a parameter
        [
            pytest.param(norm, share, workers, id=f"{norm}-{share}" + (f"-workers{workers}" if workers > 1 else ""))
            for workers in (1, 2)
            for norm, share in CLIP_CASES
        ],
    )
    def test_parameters_identical(self, small_planted, monkeypatch, capsys, optimizer, clip_norm, clipped, workers):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=2, batch_size=16, seed=7, optimizer=optimizer, learning_rate=0.05)
        monkeypatch.setattr(trainer_mod, "GRAD_CLIP_NORM", clip_norm)
        result = train(journeys[:160], vocab, cfg, workers=workers)
        expected = reference_train(journeys[:160], vocab, cfg, clip_norm)
        assert result.params.flat.tobytes() == expected.flat.tobytes()
        for (name, a), (_, b) in zip(result.params.named_parameters(), expected.named_parameters()):
            assert a.tobytes() == b.tobytes(), name
        shares = [line.split("clipped_share=")[1] for line in capsys.readouterr().err.splitlines()]
        assert len(shares) == cfg.epochs
        if clipped is not None:
            assert shares == [clipped] * cfg.epochs

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_layer(self, small_planted, workers):
        # a one-layer model has no first stage: its steps run through
        # forward_batch and backward_batch in the calling process
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, n_layers=1, epochs=2, batch_size=16, seed=7, learning_rate=0.05)
        processes = []
        result = train(journeys[:160], vocab, cfg, workers=workers, on_start=processes.append)
        expected = reference_train(journeys[:160], vocab, cfg, trainer_mod.GRAD_CLIP_NORM)
        assert result.params.flat.tobytes() == expected.flat.tobytes()
        assert processes == [1]
        assert_no_child_left()

    def test_three_layers(self, small_planted):
        # the middle layer's input projection and input gradient are
        # per-step products on both stages' sides of the wavefront, with a
        # dropout mask on each link: the reference's parameters at one and
        # two workers, and the same losses
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, n_layers=3, epochs=2, batch_size=16, seed=7, learning_rate=0.05)
        results = [train(journeys[:160], vocab, cfg, workers=workers) for workers in (1, 2)]
        expected = reference_train(journeys[:160], vocab, cfg, trainer_mod.GRAD_CLIP_NORM)
        for result in results:
            assert result.params.flat.tobytes() == expected.flat.tobytes()
        assert results[0].train_losses == results[1].train_losses
        assert results[0].val_losses == results[1].val_losses
        assert_no_child_left()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_journey_batches_and_long_journeys(self, workers):
        # journeys of 1-32 events, and every length's bucket leaves a
        # one-journey batch, whose per-step products a BLAS may make with
        # another kernel than the products of more rows. The wavefront runs
        # every batch and gives the reference's bits
        gen = GeneratorConfig(
            n_journeys=500, n_channels=3, n_campaigns=2, max_len=32, time_span_hours=48.0, include_nonconverted=True,
        )
        vocab, pool = generate_synthetic(gen, seed=12)
        by_length = {}
        for journey in pool:
            by_length.setdefault(len(journey.events), []).append(journey)
        # 4k + 1 journeys of each length
        journeys = [j for group in by_length.values() for j in group[:len(group) - (len(group) - 1) % 4]]
        cfg = TrainConfig(hidden_size=8, epochs=1, batch_size=4, seed=3, val_fraction=0.0, learning_rate=0.05)
        table = journey_table(journeys, vocab)
        shapes = {feats.shape[:2] for _, feats, _, _ in _batches(table, np.arange(len(table)), cfg.batch_size)}
        assert {(1, T) for T in by_length} <= shapes and max(T for _, T in shapes) == 32
        result = train(journeys, vocab, cfg, workers=workers)
        expected = reference_train(journeys, vocab, cfg, trainer_mod.GRAD_CLIP_NORM)
        assert result.params.flat.tobytes() == expected.flat.tobytes()
        assert_no_child_left()


class TestWavefront:
    """One SGD step of the wavefront against forward_batch and
    backward_batch, at every batch shape."""

    def test_workers_below_one_rejected(self, small_planted):
        vocab, journeys = small_planted
        with pytest.raises(ConfigError, match="workers"):
            train(journeys[:20], vocab, TrainConfig(hidden_size=4, epochs=1), workers=0)

    @pytest.mark.parametrize("processes", (1, 2))
    def test_step_equals_forward_and_backward_batch(self, processes, monkeypatch):
        # the desk shape at every T in 1..4, and tails of a length bucket,
        # with dropout: the loss, the gradients, the norm and the momentum
        # update's parameters of forward_batch, backward_batch and the
        # reference clip and update. The clip limit sits between the steps'
        # norms, so some steps clip and some do not
        monkeypatch.setattr(trainer_mod, "GRAD_CLIP_NORM", 0.5)
        rng = np.random.default_rng(5)
        cfg = TrainConfig(hidden_size=64, optimizer="sgd_momentum", learning_rate=0.1, use_time_feature=True)
        params = init_params(7, 64, 2, dropout_p=0.5, rng=rng)
        reference = params.copy()
        velocity = {name: np.zeros_like(arr) for name, arr in reference.named_parameters()}
        norms = []
        with trainer_mod._Wavefront(params, cfg, one_journey_table(5, 7), np.arange(0), processes) as wavefront:
            for B, T in ((32, 1), (32, 2), (32, 3), (32, 4), (9, 3), (1, 5), (2, 5), (1, 2), (5, 4), (13, 4), (32, 4)):
                feats = rng.normal(0, 1, (B, T, 7))
                times = np.cumsum(rng.uniform(0, 12, (B, T)), axis=1)
                labels = rng.integers(0, 2, (B, T))
                masks = [(rng.random((B, T, 64)) >= 0.5) / 0.5]
                logits, trace = forward_batch(feats, times, reference, training=True, dropout_masks=masks)
                loss, grad_logits = _loss_and_grad_batch(logits, labels)
                expected = dict(backward_batch(trace, grad_logits))
                sq = 0.0  # added in order: from Python 3.12 sum() compensates rounding
                for g in expected.values():
                    sq += float(np.sum(g * g))
                got_loss, norm = wavefront.step(feats, times, labels, masks)
                assert got_loss == loss and norm == np.sqrt(sq), (B, T)
                norms.append(norm)
                reference_clip_gradients(expected, trainer_mod.GRAD_CLIP_NORM)
                for name, arr in reference.named_parameters():
                    velocity[name] *= MOMENTUM
                    velocity[name] += expected[name]
                    arr -= cfg.learning_rate * velocity[name]
                clamp_gate_timing(reference)
                assert list(wavefront.grads) == list(expected)
                for name, value in expected.items():
                    assert wavefront.grads[name].tobytes() == value.tobytes(), (B, T, name)
                assert params.flat.tobytes() == reference.flat.tobytes(), (B, T)
        assert min(norms) < trainer_mod.GRAD_CLIP_NORM < max(norms)
        assert_no_child_left()

    @pytest.mark.parametrize("processes", (1, 2))
    def test_every_two_layer_batch_pipelines(self, processes, monkeypatch):
        # shapes whose one-row or small-matrix per-step products a BLAS may
        # make with another kernel than a product of all B * T rows: step
        # runs the wavefront at each, never forward_batch or backward_batch
        calls = []
        for name in ("forward_batch", "backward_batch"):
            monkeypatch.setattr(trainer_mod, name, lambda *args, name=name, **kwargs: calls.append(name))
        rng = np.random.default_rng(6)
        cfg = TrainConfig(hidden_size=64, use_time_feature=True)
        params = init_params(7, 64, 2, dropout_p=0.5, rng=rng)
        with trainer_mod._Wavefront(params, cfg, one_journey_table(4, 7), np.arange(0), processes) as wavefront:
            for B, T in ((1, 2), (1, 3), (1, 4), (5, 4), (13, 4)):
                feats = rng.normal(0, 1, (B, T, 7))
                times = np.cumsum(rng.uniform(0, 12, (B, T)), axis=1)
                masks = [(rng.random((B, T, 64)) >= 0.5) / 0.5]
                loss, norm = wavefront.step(feats, times, rng.integers(0, 2, (B, T)), masks)
                assert np.isfinite(loss) and norm is not None, (B, T)
        assert calls == []
        assert_no_child_left()

    @pytest.mark.parametrize("n_layers, processes", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_gate_clamp_binds_after_the_update(self, n_layers, processes):
        # a rate that pushes every layer's gate timing past its limits: the
        # parameters after each step are those of the reference update and
        # clamp, every layer's tau and r_on within their ranges
        rng = np.random.default_rng(8)
        cfg = TrainConfig(hidden_size=8, n_layers=n_layers, learning_rate=1e4, use_time_feature=True)
        params = init_params(5, 8, n_layers, dropout_p=0.0, rng=rng)
        reference = params.copy()
        bound = 0
        with trainer_mod._Wavefront(params, cfg, one_journey_table(3, 5), np.arange(0), processes) as wavefront:
            for _ in range(3):
                feats = rng.normal(0, 1, (4, 3, 5))
                times = np.cumsum(rng.uniform(0, 12, (4, 3)), axis=1)
                labels = rng.integers(0, 2, (4, 3))
                logits, trace = forward_batch(feats, times, reference, training=True)
                expected = dict(backward_batch(trace, _loss_and_grad_batch(logits, labels)[1]))
                wavefront.step(feats, times, labels, [None] * (n_layers - 1))
                reference_clip_gradients(expected, trainer_mod.GRAD_CLIP_NORM)
                for name, arr in reference.named_parameters():
                    arr -= cfg.learning_rate * expected[name]
                unclamped = reference.flat.copy()
                clamp_gate_timing(reference)
                bound += not np.array_equal(unclamped, reference.flat)
                assert params.flat.tobytes() == reference.flat.tobytes()
                for layer in params.layers:
                    assert layer.tau.min() >= TAU_MIN and RON_CLAMP <= layer.r_on.min() <= layer.r_on.max() <= 1 - RON_CLAMP
        assert bound == 3
        assert_no_child_left()


    def test_two_wavefronts_close_in_opening_order(self):
        # a helper forked later holds none of an earlier wavefront's pipe
        # ends, so closing the earlier wavefront first ends its helper at
        # once; a hang in its waitpid fails the test after 10 s
        cfg = TrainConfig(hidden_size=8, use_time_feature=True)
        wavefronts = [
            trainer_mod._Wavefront(init_params(5, 8, 2, rng=seed), cfg, one_journey_table(3, 5), np.arange(0), 2)
            for seed in (1, 2)
        ]
        rng = np.random.default_rng(9)
        for wavefront in wavefronts:
            wavefront.__enter__()
            feats = rng.normal(0, 1, (4, 3, 5))
            times = np.cumsum(rng.uniform(0, 12, (4, 3)), axis=1)
            loss, _ = wavefront.step(feats, times, rng.integers(0, 2, (4, 3)), [None])
            assert np.isfinite(loss)

        def expired(signum, frame):
            raise TimeoutError("closing the first wavefront hung")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            for wavefront in wavefronts:
                wavefront.__exit__(None, None, None)
                assert wavefront.pid is None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            for wavefront in wavefronts:  # only after a hang
                if wavefront.pid is not None:
                    os.kill(wavefront.pid, signal.SIGKILL)
                    os.waitpid(wavefront.pid, 0)
        assert not trainer_mod._CALLER_ENDS
        assert_no_child_left()


def one_journey_table(T, d):
    """A table of one journey of T events and d features: it sizes a
    _Wavefront's exchange arrays for batches of up to T steps."""
    return JourneyTable(
        features=np.zeros((T, d)), times=np.zeros(T), labels=np.zeros(T, dtype=np.int64), lengths=np.array([T]),
    )


class TestWaitsFilled:
    """The work moved into the schedule's waits keeps today's values:
    validation split between the processes, and the next batch read while
    the caller waits for the loss."""

    def test_validation_on_two_processes_writes_one_process_bytes(self, small_planted, tmp_path, monkeypatch):
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=2, batch_size=16, seed=4, val_fraction=0.4)
        owners = []
        eval_owners = trainer_mod._eval_owners
        monkeypatch.setattr(trainer_mod, "_eval_owners", lambda *args: owners.append(eval_owners(*args)) or owners[-1])
        histories = []
        for workers in (1, 2):
            result = train(journeys[:200], vocab, cfg, workers=workers)
            save_loss_history(tmp_path / "history.csv", result.train_losses, result.val_losses)
            histories.append((tmp_path / "history.csv").read_bytes())
        # both processes scored some of the eval batches
        assert set(owners[-1]) == {0, 1}
        assert histories[0] == histories[1]
        table = journey_table(journeys[:200], vocab)
        _, val_idx = _train_val_split(len(table), cfg.val_fraction, np.random.default_rng(cfg.seed))
        assert result.val_losses[-1] == _dataset_loss(table, val_idx, result.params)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_prefetched_masks_are_the_draws_in_order(self, small_planted, monkeypatch, workers):
        # the masks each step gets, the last step of each epoch's among
        # them, are the draws of one batch after the other, each epoch's
        # after its permutation
        vocab, journeys = small_planted
        cfg = TrainConfig(hidden_size=8, epochs=2, batch_size=16, seed=7)
        seen = []
        step = trainer_mod._Wavefront.step

        def recorded(self, feats, times, labels, masks, while_waiting=None):
            seen.append([mask.copy() for mask in masks])
            return step(self, feats, times, labels, masks, while_waiting)

        monkeypatch.setattr(trainer_mod._Wavefront, "step", recorded)
        train(journeys[:100], vocab, cfg, workers=workers)
        table = journey_table(journeys[:100], vocab)
        rng = np.random.default_rng(cfg.seed)
        train_idx, _ = _train_val_split(len(table), cfg.val_fraction, rng)
        init_params(
            vocab.encoding_dim, cfg.hidden_size, cfg.n_layers, cfg.dropout_p, max(1.0, float(table.times.max())), rng,
            cfg.r_on_init,
        )
        expected = []
        for _ in range(cfg.epochs):
            order = train_idx[rng.permutation(len(train_idx))]
            for _, _, times, _ in _batches(table, order, cfg.batch_size):
                expected.append(rng.random((*times.shape, cfg.hidden_size)) >= cfg.dropout_p)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert got[0].tobytes() == (want / (1.0 - cfg.dropout_p)).tobytes()


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
            per_journey.append(float(_step_cross_entropy(logits[0], enc.labels)[0].mean()))
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
        with pytest.raises(EvaluationError):
            evaluate_roc(result.params, vocab, iter([]))


COLUMNS = ("features", "times", "labels", "starts", "lengths")


def assert_same_columns(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestJourneyTable:
    """The columnar table and the batches gathered from it, against each
    journey's one-journey table (`encode_journey`) and per-journey
    stacking."""

    def test_rows_are_each_journeys_encoding(self, small_planted):
        vocab, journeys = small_planted
        table = journey_table(iter(journeys), vocab)
        assert len(table) == len(journeys) and len(table.times) == sum(len(j) for j in journeys)
        assert table.features.shape == (len(table.times), vocab.encoding_dim)
        for i, journey in enumerate(journeys):
            enc = encode_journey(journey, vocab)
            assert_same_columns(enc, journey_table([journey], vocab))
            rows = slice(table.starts[i], table.starts[i] + table.lengths[i])
            assert table.features[rows].tobytes() == enc.features.tobytes()
            assert table.times[rows].tobytes() == enc.times.tobytes()
            assert table.labels[rows].tobytes() == enc.labels.tobytes()
        assert journey_table(table, vocab) is table
        # tables of many journeys concatenate as their one-journey tables do
        parts = [journey_table(journeys[a:b], vocab) for a, b in ((0, 1), (1, 40), (40, len(journeys)))]
        assert_same_columns(concatenated_tables(parts), table)

    @pytest.mark.parametrize("case", ("lengths_plus_one", "lengths_all_one", "zero_length", "flat_features"))
    def test_columns_checked(self, small_planted, case):
        # lengths that disagree with the columns would gather rows past
        # their end (lengths + 1) or score the wrong rows (every length 1)
        vocab, journeys = small_planted
        table = journey_table(journeys[:50], vocab)
        assert_same_columns(JourneyTable(table.features, table.times, table.labels, table.lengths), table)
        features, lengths = table.features, table.lengths.copy()
        if case == "lengths_plus_one":
            lengths += 1
        elif case == "lengths_all_one":
            lengths[:] = 1
        elif case == "zero_length":
            lengths[0], lengths[1] = lengths[0] + lengths[1], 0
        else:
            features = features.ravel()
        with pytest.raises(DimensionError):
            JourneyTable(features, table.times, table.labels, lengths)

    def test_empty(self, small_planted):
        vocab, _ = small_planted
        table = journey_table([], vocab)
        assert len(table) == 0 and table.features.shape == (0, vocab.encoding_dim)
        assert list(_batches(table, np.arange(0), 32)) == []

    @pytest.mark.parametrize("size", (32, 256))
    def test_batches_equal_per_journey_stacking(self, bucketed, size):
        vocab, journeys, _, _ = bucketed
        assert max(Counter(len(j) for j in journeys).values()) > 256
        order = np.random.default_rng(5).permutation(len(journeys))
        encoded = [encode_journey(j, vocab) for j in journeys]
        got = list(_batches(journey_table(journeys, vocab), order, size))
        expected = list(stacked_batches(encoded, order, size))
        assert len(got) == len(expected) and any(len(chunk) == size for chunk, *_ in got)
        for (chunk, feats, times, labels), (ref_chunk, ref_feats, ref_times, ref_labels) in zip(got, expected):
            assert chunk.tolist() == ref_chunk
            for a, b in ((feats, ref_feats), (times, ref_times), (labels, ref_labels)):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_dataset_loss_over_a_subset(self, bucketed):
        vocab, journeys, _, result = bucketed
        idxs = np.random.default_rng(6).permutation(len(journeys))[:300]
        total = 0.0
        for _, feats, times, labels in stacked_batches([encode_journey(j, vocab) for j in journeys], idxs, 256):
            logits = forward_batch(feats, times, result.params, training=False)[0]
            total += float(_step_cross_entropy(logits, labels)[0].mean(axis=1).sum())
        assert _dataset_loss(journey_table(journeys, vocab), idxs, result.params) == total / len(idxs)

    def test_train_on_a_generator_equals_the_list(self, bucketed):
        vocab, journeys, cfg, result = bucketed
        streamed = train((j for j in journeys), vocab, cfg)
        assert streamed.params.flat.tobytes() == result.params.flat.tobytes()
        assert streamed.train_losses == result.train_losses
        np.testing.assert_array_equal(streamed.val_losses, result.val_losses)
        tabled = train(journey_table(journeys, vocab), vocab, cfg)
        assert tabled.params.flat.tobytes() == result.params.flat.tobytes()

    def test_evaluate_roc_on_a_generator_equals_the_list(self, bucketed):
        vocab, journeys, _, result = bucketed
        listed = evaluate_roc(result.params, vocab, journeys)
        streamed = evaluate_roc(result.params, vocab, iter(journeys))
        assert streamed == listed


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
