import json

import numpy as np
import pytest

from deepmta.errors import (
    DimensionError,
    NumericError,
    ParameterError,
    TraceError,
    ValidationError,
)
from deepmta.journey import EncodedJourney, Vocabulary
from deepmta.model import (
    LAYER_TENSOR_FIELDS,
    ModelParams,
    PhasedLstmLayerParams,
    backward_batch,
    backward_sequence,
    cell_forward,
    dropout,
    forward_batch,
    forward_sequence,
    infer_step,
    init_params,
    layer_norm,
    load_checkpoint,
    save_checkpoint,
    time_gate,
    _layer_forward,
)
from deepmta.trainer import softmax


def random_layer(rng, d, H, alpha=1e-3, scale=0.4):
    return PhasedLstmLayerParams(
        W_xi=rng.normal(0, scale, (d, H)), W_xf=rng.normal(0, scale, (d, H)),
        W_xc=rng.normal(0, scale, (d, H)), W_xo=rng.normal(0, scale, (d, H)),
        W_hi=rng.normal(0, scale, (H, H)), W_hf=rng.normal(0, scale, (H, H)),
        W_hc=rng.normal(0, scale, (H, H)), W_ho=rng.normal(0, scale, (H, H)),
        w_ci=rng.normal(0, 0.3, H), w_cf=rng.normal(0, 0.3, H), w_co=rng.normal(0, 0.3, H),
        b_i=rng.normal(0, 0.2, H), b_f=rng.normal(0, 0.2, H),
        b_c=rng.normal(0, 0.2, H), b_o=rng.normal(0, 0.2, H),
        tau=np.exp(rng.uniform(np.log(2.0), np.log(40.0), H)),
        s=rng.uniform(0, 30, H),
        r_on=rng.uniform(0.2, 0.8, H),
        alpha=alpha,
    )


def random_model(rng, d, H, n_layers, dropout_p=0.0, alpha=1e-3):
    layers = [random_layer(rng, d if i == 0 else H, H, alpha) for i in range(n_layers)]
    return ModelParams(
        layers=layers,
        ln_gain=[rng.uniform(0.5, 1.5, H) for _ in range(n_layers)],
        ln_bias=[rng.normal(0, 0.2, H) for _ in range(n_layers)],
        W_out=rng.normal(0, 0.4, (H, 2)),
        b_out=rng.normal(0, 0.2, 2),
        dropout_p=dropout_p,
    )


class TestTimeGate:
    def test_origin(self):
        assert time_gate(0.0, 5.0, 0.0, 0.5, 0.001) == 0.0

    def test_triangle_peak(self):
        assert time_gate(1.25, 5.0, 0.0, 0.5, 0.001) == pytest.approx(1.0, abs=1e-12)

    def test_leak_branch(self):
        assert time_gate(4.0, 5.0, 0.0, 0.5, 0.001) == pytest.approx(0.0008, abs=1e-15)

    def test_vectorized_over_units(self):
        tau = np.array([5.0, 10.0, 2.0])
        k = time_gate(1.0, tau, np.zeros(3), np.full(3, 0.5), 0.0)
        assert k.shape == (3,)

    def test_continuity_at_half_ron(self):
        # rise and fall branches both evaluate to 1 at phi = r_on/2
        tau, r_on = 3.0, 0.4
        phi = r_on / 2
        rise = 2 * phi / r_on
        fall = 2 - 2 * phi / r_on
        assert rise == fall == 1.0
        assert time_gate(tau * phi, tau, 0.0, r_on, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau = float(np.exp(rng.uniform(0, np.log(50))))
            s = float(rng.uniform(0, tau))
            r_on = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0, 80))
            k1 = time_gate(t, tau, s, r_on, 0.01)
            k2 = time_gate(t + tau, tau, s, r_on, 0.01)
            assert abs(k1 - k2) < 1e-9

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            time_gate(1.0, -1.0, 0.0, 0.5, 0.0)
        with pytest.raises(ParameterError):
            time_gate(1.0, 1.0, 0.0, 1.5, 0.0)
        with pytest.raises(ParameterError):
            time_gate(1.0, 1.0, 0.0, 0.5, -0.1)


class TestCellForward:
    def test_closed_gate_preserves_state(self):
        rng = np.random.default_rng(1)
        lp = random_layer(rng, 4, 6, alpha=0.0)
        lp.s[:] = 0.0
        lp.tau[:] = 10.0
        lp.r_on[:] = 0.1
        h0 = rng.normal(0, 1, 6)
        c0 = rng.normal(0, 1, 6)
        # t chosen so phi = 0.5 lands in the leak branch for every unit
        h1, c1, cache = cell_forward(rng.normal(0, 1, 4), h0, c0, 5.0, lp)
        np.testing.assert_array_equal(cache["k"], 0.0)
        np.testing.assert_array_equal(h1, h0)
        np.testing.assert_array_equal(c1, c0)

    def test_open_gate_uses_candidates(self):
        rng = np.random.default_rng(2)
        lp = random_layer(rng, 4, 6)
        lp.s[:] = 0.0
        lp.tau[:] = 10.0
        lp.r_on[:] = 0.5
        # phi = r_on/2 -> k = 1 for every unit
        h1, c1, cache = cell_forward(rng.normal(0, 1, 4), rng.normal(0, 1, 6), rng.normal(0, 1, 6), 2.5, lp)
        np.testing.assert_array_equal(cache["k"], 1.0)
        np.testing.assert_allclose(c1, cache["c_tilde"])
        np.testing.assert_allclose(h1, cache["h_tilde"])

    def test_zero_parameters_zero_state(self):
        # all-zero weights and states: gates sigmoid(0)=0.5, candidate tanh(0)=0,
        # so c~=0, h~=0 and the new state stays 0 for any k
        H, d = 5, 3
        zeros_layer = PhasedLstmLayerParams(
            **{f: np.zeros((d, H)) if f.startswith("W_x") else
               np.zeros((H, H)) if f.startswith("W_h") else
               np.full(H, 2.0) if f == "tau" else
               np.full(H, 0.5) if f == "r_on" else
               np.zeros(H)
               for f in LAYER_TENSOR_FIELDS},
            alpha=0.0,
        )
        h1, c1, cache = cell_forward(np.zeros(d), np.zeros(H), np.zeros(H), 0.5, zeros_layer)
        np.testing.assert_array_equal(cache["i"], 0.5)
        np.testing.assert_array_equal(cache["f"], 0.5)
        np.testing.assert_array_equal(cache["o"], 0.5)
        np.testing.assert_array_equal(cache["c_tilde"], 0.0)
        np.testing.assert_array_equal(h1, 0.0)
        np.testing.assert_array_equal(c1, 0.0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        lp = random_layer(rng, 4, 6)
        with pytest.raises(DimensionError):
            cell_forward(np.zeros(5), np.zeros(6), np.zeros(6), 1.0, lp)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(4)
        lp = random_layer(rng, 4, 6)
        x = np.zeros(4)
        x[0] = np.nan
        with pytest.raises(NumericError):
            cell_forward(x, np.zeros(6), np.zeros(6), 1.0, lp)


class TestLayerNorm:
    def test_known_values(self):
        out = layer_norm(np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(3), eps=1e-12)
        np.testing.assert_allclose(out, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-9)

    def test_constant_input(self):
        out = layer_norm(np.full(4, 7.0), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_zero_gain_returns_bias(self):
        bias = np.array([1.0, -2.0, 0.5])
        out = layer_norm(np.array([3.0, 1.0, 9.0]), np.zeros(3), bias)
        np.testing.assert_array_equal(out, bias)


class TestDropout:
    def test_p_zero_identity(self):
        v = np.arange(5.0)
        np.testing.assert_array_equal(dropout(v, 0.0, np.random.default_rng(0), True), v)

    def test_inference_identity(self):
        v = np.arange(5.0)
        np.testing.assert_array_equal(dropout(v, 0.9, np.random.default_rng(0), False), v)

    def test_mean_preserved(self):
        # Monte-Carlo oracle: E[dropout(v)] = v
        rng = np.random.default_rng(5)
        v = np.ones(100_000)
        out = dropout(v, 0.3, rng, True)
        assert abs(out.mean() - 1.0) < 0.01

    def test_invalid_p(self):
        with pytest.raises(ParameterError):
            dropout(np.ones(3), 1.0, np.random.default_rng(0), True)


def make_enc(rng, n, d):
    feats = rng.normal(0, 1, (n, d))
    times = np.sort(rng.uniform(0, 48, n))
    times[0] = 0.0
    labels = rng.integers(0, 2, n)
    return EncodedJourney(features=feats, times=times, labels=labels)


class TestForwardSequence:
    def test_single_step_shapes(self):
        rng = np.random.default_rng(6)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 1, 5)
        logits, trace = forward_sequence(enc, params)
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits))

    def test_zero_feature_row_ok(self):
        rng = np.random.default_rng(7)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 4, 5)
        enc.features[2, :] = 0.0
        logits, _ = forward_sequence(enc, params)
        assert np.all(np.isfinite(logits))

    def test_inference_deterministic(self):
        rng = np.random.default_rng(8)
        params = random_model(rng, 5, 8, 2, dropout_p=0.4)
        enc = make_enc(rng, 6, 5)
        l1, _ = forward_sequence(enc, params)
        l2, _ = forward_sequence(enc, params)
        np.testing.assert_array_equal(l1, l2)

    def test_matches_cell_forward_loop(self):
        # the batched scan must agree with the single-step reference
        rng = np.random.default_rng(9)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 7, 5)
        logits, _ = forward_sequence(enc, params)

        x = enc.features
        manual = np.zeros_like(logits)
        layer_in = [x[t] for t in range(len(x))]
        for idx, lp in enumerate(params.layers):
            h = np.zeros(8)
            c = np.zeros(8)
            outs = []
            for t in range(len(x)):
                h, c, _ = cell_forward(
                    layer_in[t], h, c, float(enc.times[t]), lp,
                    ln_gain=params.ln_gain[idx], ln_bias=params.ln_bias[idx], alpha=0.0,
                )
                outs.append(h)
            layer_in = outs
        for t, h in enumerate(layer_in):
            manual[t] = h @ params.W_out + params.b_out
        np.testing.assert_allclose(logits, manual, atol=1e-12)

    def test_batched_matches_individual(self):
        rng = np.random.default_rng(10)
        params = random_model(rng, 5, 8, 2)
        encs = [make_enc(rng, 5, 5) for _ in range(4)]
        feats = np.stack([e.features for e in encs])
        times = np.stack([e.times for e in encs])
        batched, _ = forward_batch(feats, times, params)
        for i, enc in enumerate(encs):
            single, _ = forward_sequence(enc, params)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    @pytest.mark.parametrize("H", (7, 8))
    def test_infer_step_matches_layer_forward(self, H):
        # the cache-free inference cell against the batched scan at alpha 0
        rng = np.random.default_rng(31)
        params = random_model(rng, 5, H, 2)
        x = rng.normal(0, 1, (6, 9, 5))
        times = np.broadcast_to(np.sort(rng.uniform(0, 48, 9)), (6, 9))
        for idx, lp in enumerate(params.layers):
            ln_g, ln_b = params.ln_gain[idx], params.ln_bias[idx]
            expected, _ = _layer_forward(x, times, lp, ln_g, ln_b, 0.0)
            Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
            Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
            x_proj = (x.reshape(-1, x.shape[2]) @ Wx).reshape(6, 9, -1)
            h = c = np.zeros((6, H))
            for t in range(9):
                k = time_gate(times[0, t], lp.tau, lp.s, lp.r_on, 0.0)
                h, c = infer_step(x_proj[:, t] + h @ Wh, h, c, k, lp, ln_g, ln_b)
                np.testing.assert_array_equal(h, expected[:, t])
            x = expected

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 4, 6)
        with pytest.raises(DimensionError):
            forward_sequence(enc, params)

    def test_training_dropout_requires_rng(self):
        from deepmta.errors import ConfigError

        rng = np.random.default_rng(30)
        params = random_model(rng, 5, 8, 2, dropout_p=0.5)
        enc = make_enc(rng, 4, 5)
        with pytest.raises(ConfigError):
            forward_sequence(enc, params, training=True)

    def test_no_nan_over_many_random_steps(self):
        rng = np.random.default_rng(12)
        params = random_model(rng, 5, 8, 2)
        feats = rng.normal(0, 3, (10, 1000, 5))
        times = np.cumsum(rng.uniform(0, 5, (10, 1000)), axis=1)
        logits, _ = forward_batch(feats, times, params)
        assert np.all(np.isfinite(logits))


def ce_loss_and_grad(logits, labels):
    if logits.ndim == 2:
        logits = logits[None]
        labels = labels[None]
    B, T, _ = logits.shape
    p = softmax(logits)
    y = labels.astype(float)
    value = float(-(y * np.log(p[..., 1]) + (1 - y) * np.log(p[..., 0])).mean())
    target = np.stack([1 - y, y], axis=-1)
    return value, (p - target) / (B * T)


def gate_phase_margin(params, times):
    margin = np.inf
    for lp in params.layers:
        phi = np.mod(times[..., None] - lp.s, lp.tau) / lp.tau
        for ref in (0.0, lp.r_on / 2, lp.r_on, 1.0):
            margin = min(margin, float(np.abs(phi - ref).min()))
    return margin


def finite_difference_check(params, x, times, labels, dropout_masks=None, training=True,
                            h=1e-5, rtol=1e-4):
    """Central-difference oracle over every parameter entry."""

    def objective():
        logits, trace = forward_batch(x, times, params, training=training, dropout_masks=dropout_masks)
        (value, grad_logits) = ce_loss_and_grad(logits, labels)
        return value, grad_logits, trace

    _, grad_logits, trace = objective()
    grads = backward_batch(trace, grad_logits)
    worst = 0.0
    for name, arr in params.named_parameters():
        g = grads[name]
        assert g.shape == arr.shape, name
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up, _, _ = objective()
            arr[idx] = orig - h
            down, _, _ = objective()
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            an = g[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-4)
            worst = max(worst, rel)
            assert rel < rtol, f"{name}{idx}: analytic {an} vs fd {fd} (rel {rel:.2e})"
    return worst


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(13)
        params = random_model(rng, 4, 6, 2)
        enc = make_enc(rng, 3, 4)
        logits, trace = forward_sequence(enc, params)
        grads = backward_sequence(trace, np.zeros_like(logits))
        for name, _ in params.named_parameters():
            np.testing.assert_array_equal(grads[name], 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        B, T, d, H = 2, 3, 4, 6
        params = random_model(rng, d, H, 2)
        x = rng.normal(0, 1, (B, T, d))
        labels = rng.integers(0, 2, (B, T))
        times = np.cumsum(rng.uniform(1, 20, (B, T)), axis=1)
        while gate_phase_margin(params, times) < 1e-3:
            times = np.cumsum(rng.uniform(1, 20, (B, T)), axis=1)
        worst = finite_difference_check(params, x, times, labels)
        assert worst < 1e-4

    def test_gradients_with_dropout_masks(self):
        rng = np.random.default_rng(15)
        B, T, d, H = 2, 3, 4, 6
        params = random_model(rng, d, H, 2, dropout_p=0.5)
        x = rng.normal(0, 1, (B, T, d))
        labels = rng.integers(0, 2, (B, T))
        times = np.cumsum(rng.uniform(1, 20, (B, T)), axis=1)
        while gate_phase_margin(params, times) < 1e-3:
            times = np.cumsum(rng.uniform(1, 20, (B, T)), axis=1)
        masks = [(rng.random((B, T, H)) >= 0.5) / 0.5]
        finite_difference_check(params, x, times, labels, dropout_masks=masks)

    def test_closed_gates_block_input_weight_gradients(self):
        # with k identically zero the cell never reads its input, so every
        # input-weight gradient vanishes; confirmed against the oracle
        rng = np.random.default_rng(16)
        B, T, d, H = 2, 3, 4, 5
        params = random_model(rng, d, H, 1, alpha=0.0)
        lp = params.layers[0]
        lp.s[:] = 0.0
        lp.tau[:] = 1000.0
        lp.r_on[:] = 0.01
        x = rng.normal(0, 1, (B, T, d))
        labels = rng.integers(0, 2, (B, T))
        times = np.cumsum(rng.uniform(100, 300, (B, T)), axis=1)  # leak phase everywhere
        logits, trace = forward_batch(x, times, params, training=True)
        assert np.all(trace.caches[0]["k"] == 0.0)
        _, grad_logits = ce_loss_and_grad(logits, labels)
        grads = backward_batch(trace, grad_logits)
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            np.testing.assert_array_equal(grads[f"layers.0.{name}"], 0.0)

    def test_trace_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        params = random_model(rng, 4, 6, 2)
        enc = make_enc(rng, 3, 4)
        _, trace = forward_sequence(enc, params)
        with pytest.raises(TraceError):
            backward_sequence(trace, np.zeros((5, 2)))


class TestInitAndCheckpoint:
    def test_init_respects_conventions(self):
        params = init_params(7, 12, 2, t_span_hours=100.0, rng=0)
        for lp in params.layers:
            assert np.all(lp.tau >= 1.0) and np.all(lp.tau <= 100.0)
            assert np.all(lp.s >= 0) and np.all(lp.s <= lp.tau)
            np.testing.assert_array_equal(lp.r_on, 0.05)
            np.testing.assert_array_equal(lp.b_f, 1.0)
        assert params.hidden_size == 12

    def test_init_deterministic(self):
        a = init_params(5, 8, 2, rng=42)
        b = init_params(5, 8, 2, rng=42)
        for (_, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(x, y)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        params = random_model(rng, 5, 8, 2)
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
        # encoding dim 5 matches the model input dim
        path = tmp_path / "model.json"
        save_checkpoint(path, params, vocab, seed=9)
        loaded, loaded_vocab, seed = load_checkpoint(path)
        assert seed == 9
        assert loaded_vocab == vocab
        for (na, a), (nb, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_shape_tamper_rejected(self, tmp_path):
        import json as _json

        rng = np.random.default_rng(19)
        params = random_model(rng, 5, 8, 2)
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, vocab)
        obj = _json.loads(path.read_text())
        obj["tensors"]["W_out"]["shape"] = [8, 3]
        path.write_text(_json.dumps(obj))
        with pytest.raises(ValidationError, match="W_out"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ("W_out", "b_out", "ln.1.gain", "ln.0.bias"))
    def test_checkpoint_non_finite_tensor_rejected(self, tmp_path, name):
        import json as _json

        rng = np.random.default_rng(21)
        params = random_model(rng, 5, 8, 2)
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, vocab)
        obj = _json.loads(path.read_text())
        obj["tensors"][name]["data"][0] = float("nan")
        path.write_text(_json.dumps(obj))
        with pytest.raises(NumericError, match=name):
            load_checkpoint(path)

    def test_checkpoint_vocab_dim_mismatch(self, tmp_path):
        rng = np.random.default_rng(20)
        params = random_model(rng, 4, 8, 2)
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))  # dim 5 != 4
        path = tmp_path / "model.json"
        save_checkpoint(path, params, vocab)
        with pytest.raises(ValidationError, match="encoding dim"):
            load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    """A valid checkpoint's path and its JSON object."""
    params = random_model(np.random.default_rng(22), 5, 8, 2)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, Vocabulary(channels=("A", "B"), campaigns=("c1", "c2")))
    return path, json.loads(path.read_text())


class TestCheckpointStructure:
    """Every malformed checkpoint is a ValidationError (exit 2), never a
    KeyError, TypeError or JSONDecodeError traceback."""

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not JSON"):
            load_checkpoint(path)

    def test_integer_too_long_for_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": ' + "1" * 5000 + "}")
        with pytest.raises(ValidationError, match="not JSON"):
            load_checkpoint(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="format_version"):
            load_checkpoint(path)

    def test_missing_hyperparams(self, tmp_path):
        path, obj = _saved_checkpoint(tmp_path)
        del obj["hyperparams"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="hyperparams"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", (None, "8", 8.5, True, 0))
    def test_bad_hidden_size(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        obj["hyperparams"]["hidden_size"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="hidden_size"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", (None, ["A", "B"], {"channels": ["A", "B"]}, {"channels": "AB", "campaigns": []}))
    def test_bad_vocab(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        if value is None:
            del obj["vocab"]
        else:
            obj["vocab"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="vocab|channels|campaigns"):
            load_checkpoint(path)

    def test_non_string_vocab_tokens(self, tmp_path):
        path, obj = _saved_checkpoint(tmp_path)
        obj["vocab"]["channels"] = [["A"], "B"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="strings"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", (None, [], "tensors"))
    def test_bad_tensors(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        if value is None:
            del obj["tensors"]
        else:
            obj["tensors"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="tensors"):
            load_checkpoint(path)

    def test_tensor_entry_not_an_object(self, tmp_path):
        path, obj = _saved_checkpoint(tmp_path)
        obj["tensors"]["W_out"] = [1.0] * 16
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="W_out"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", (None, 16, "8,2"))
    def test_bad_shape(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        if value is None:
            del obj["tensors"]["W_out"]["shape"]
        else:
            obj["tensors"]["W_out"]["shape"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="W_out.*shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "value", (None, 1.0, "data", [[1.0] * 2] * 8, [1.0] * 15 + ["x"], [1.0] * 15 + [None], [[1.0], 2.0])
    )
    def test_bad_data(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        if value is None:
            del obj["tensors"]["W_out"]["data"]
        else:
            obj["tensors"]["W_out"]["data"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="W_out.*data"):
            load_checkpoint(path)

