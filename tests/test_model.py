import base64
import json
from pathlib import Path

import numpy as np
import pytest

from deepmta.errors import (
    DimensionError,
    NumericError,
    ParameterError,
    TraceError,
    ValidationError,
)
from deepmta.journey import JourneyTable, Vocabulary
from deepmta.model import (
    _GATE_SLOTS,
    _FACTORS,
    LAYER_TENSOR_FIELDS,
    ModelParams,
    PhasedLstmLayerParams,
    _gate_backward,
    _gate_factors,
    _gate_forward,
    _stack_scan,
    _step_factors,
    backward_batch,
    cell_step,
    forward_batch,
    gate_major_cell,
    gate_major_step,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from deepmta.trainer import softmax
from reference import cell_forward, dropout, gate_backward, gate_openness, layer_norm, time_gate


def random_layer(rng, d, H, scale=0.4):
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
    )


def random_model(rng, d, H, n_layers, dropout_p=0.0, alpha=1e-3):
    layers = [random_layer(rng, d if i == 0 else H, H) for i in range(n_layers)]
    return ModelParams(
        layers=layers,
        ln_gain=[rng.uniform(0.5, 1.5, H) for _ in range(n_layers)],
        ln_bias=[rng.normal(0, 0.2, H) for _ in range(n_layers)],
        W_out=rng.normal(0, 0.4, (H, 2)),
        b_out=rng.normal(0, 0.2, 2),
        dropout_p=dropout_p,
        alpha=alpha,
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


    @pytest.mark.parametrize("alpha", (0.0, 1e-3, 0.5))
    def test_openness_has_the_bits_of_the_nested_form(self, alpha):
        # 300 cases per alpha, each over 64 units, the break points phi = 0,
        # r_on/2 and r_on among them: with tau = 1 and s = 0, phi is t itself
        rng = np.random.default_rng(31)
        for case in range(300):
            tau = np.exp(rng.uniform(np.log(1e-2), np.log(500), 64))
            s = tau * rng.random(64)
            r_on = rng.uniform(1e-3, 0.999, 64)
            t = rng.uniform(0, 1e3, (3, 64))
            if case % 3 == 0:
                tau, s = np.ones(64), np.zeros(64)
                t = np.stack([np.zeros(64), 0.5 * r_on, r_on, rng.random(64) * r_on])
            k, phi = _gate_forward(t, tau, s, r_on, alpha)
            expected = gate_openness(phi, r_on, alpha)
            if case % 3 == 0:
                np.testing.assert_array_equal(phi, t)
            assert k.dtype == expected.dtype
            np.testing.assert_array_equal(k.view(np.uint64), expected.view(np.uint64))


class TestGateBackwardInTwoParts:
    """`_gate_factors` and `_gate_backward` against the one-part formulas of
    tests/reference.py, bit for bit."""

    @pytest.mark.parametrize("alpha", (0.0, 1e-3))
    def test_equals_the_one_part_formulas(self, alpha):
        rng = np.random.default_rng(20)
        T, B, H = 4, 9, 16
        tau = np.exp(rng.uniform(0, np.log(50), H))
        s = tau * rng.random(H)
        r_on = rng.uniform(0.01, 0.99, H)
        times = np.cumsum(rng.uniform(0, 12, (B, T)), axis=1)
        _, phi = _gate_forward(times.T[:, :, None], tau, s, r_on, alpha)
        # the branch break points, where the subgradient is 0
        phi[0, 0] = 0.0
        phi[1, 0] = 0.5 * r_on
        phi[2, 0] = r_on
        t_minus_s = times.T[:, :, None] - s
        dk = rng.normal(0, 1, (T, B, H))
        expected = gate_backward(dk, phi, t_minus_s, tau, r_on, alpha)
        factors = _gate_factors(phi, t_minus_s, tau, r_on, alpha)
        for got, want in zip(_gate_backward(dk, factors), expected):
            assert got.tobytes() == want.tobytes()
        # one step at a time, as a process may make them
        for t in range(T):
            step = _gate_factors(phi[t], t_minus_s[t], tau, r_on, alpha)
            for got, want in zip(_gate_backward(dk[t], step), expected):
                assert got.tobytes() == want[t].tobytes()
        assert np.count_nonzero(expected[2][:3, 0]) == 0

    def test_step_factors_one_step_at_a_time(self):
        # _step_factors of each step equals those of every step at once
        rng = np.random.default_rng(21)
        params = random_model(rng, 5, 8, 1)
        x = rng.normal(0, 1, (6, 4, 5))
        times = np.cumsum(rng.uniform(0, 12, (6, 4)), axis=1)
        _, trace = forward_batch(x, times, params, training=True)
        cache = trace.caches[0]
        _step_factors(cache)
        whole = {name: cache[name].copy() for name in _FACTORS}
        for name in _FACTORS:
            cache[name][...] = np.nan
        for t in range(4):
            _step_factors(cache, t)
        for name in _FACTORS:
            assert cache[name].tobytes() == whole[name].tobytes(), name


class TestCellForward:
    def test_closed_gate_preserves_state(self):
        rng = np.random.default_rng(1)
        lp = random_layer(rng, 4, 6)
        lp.s[:] = 0.0
        lp.tau[:] = 10.0
        lp.r_on[:] = 0.1
        h0 = rng.normal(0, 1, 6)
        c0 = rng.normal(0, 1, 6)
        # t chosen so phi = 0.5 lands in the leak branch for every unit
        h1, c1, cache = cell_forward(rng.normal(0, 1, 4), h0, c0, 5.0, lp, alpha=0.0)
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
        )
        h1, c1, cache = cell_forward(np.zeros(d), np.zeros(H), np.zeros(H), 0.5, zeros_layer, alpha=0.0)
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
    return JourneyTable(features=feats, times=times, labels=labels, lengths=np.array([n]))


class TestForwardSequence:
    def test_single_step_shapes(self):
        rng = np.random.default_rng(6)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 1, 5)
        logits, trace = forward_batch(enc.features[None], enc.times[None], params)
        assert logits[0].shape == (1, 2)
        assert np.all(np.isfinite(logits))

    def test_zero_feature_row_ok(self):
        rng = np.random.default_rng(7)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 4, 5)
        enc.features[2, :] = 0.0
        logits, _ = forward_batch(enc.features[None], enc.times[None], params)
        assert np.all(np.isfinite(logits))

    def test_inference_deterministic(self):
        rng = np.random.default_rng(8)
        params = random_model(rng, 5, 8, 2, dropout_p=0.4)
        enc = make_enc(rng, 6, 5)
        l1, _ = forward_batch(enc.features[None], enc.times[None], params)
        l2, _ = forward_batch(enc.features[None], enc.times[None], params)
        np.testing.assert_array_equal(l1, l2)

    def test_matches_cell_forward_loop(self):
        # the batched scan must agree with the single-step reference
        rng = np.random.default_rng(9)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 7, 5)
        logits = forward_batch(enc.features[None], enc.times[None], params)[0][0]

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
            single, _ = forward_batch(enc.features[None], enc.times[None], params)
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)

    @pytest.mark.parametrize("H", (7, 8))
    def test_infer_step_matches_layer_forward(self, H):
        # the cache-free inference cell against the chained scan at alpha 0:
        # layer 0's input projections are one product over all rows, layer
        # 1's one product per step
        rng = np.random.default_rng(31)
        params = random_model(rng, 5, H, 2)
        x = rng.normal(0, 1, (6, 9, 5))
        times = np.broadcast_to(np.sort(rng.uniform(0, 48, 9)), (6, 9))
        inputs, _, scan = _stack_scan(x, times, params, [None], 0.0, False, 2)
        outputs = [inputs[1], np.stack(list(scan), axis=1)]
        for idx, lp in enumerate(params.layers):
            ln_g, ln_b = params.ln_gain[idx], params.ln_bias[idx]
            Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
            Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
            x = inputs[idx]
            x_proj = (x.reshape(-1, x.shape[2]) @ Wx).reshape(6, 9, -1) if idx == 0 else None
            h = c = np.zeros((6, H))
            for t in range(9):
                k = time_gate(times[0, t], lp.tau, lp.s, lp.r_on, 0.0)
                x_t = x_proj[:, t] if idx == 0 else x[:, t] @ Wx
                h, c = cell_step(x_t + h @ Wh, h, c, k, lp, ln_g, ln_b)
                np.testing.assert_array_equal(h, outputs[idx][:, t])

    def test_float32_inputs_give_float32_states(self):
        # the kernel's temporaries follow a's dtype, so no float64 operand
        # upcasts a float32 step
        from types import SimpleNamespace

        rng = np.random.default_rng(33)
        params = random_model(rng, 5, 8, 1)
        lp, ln_g, ln_b = params.layers[0], params.ln_gain[0], params.ln_bias[0]
        Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
        Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
        h, c = rng.normal(0, 0.5, (2, 6, 8))
        a = rng.normal(0, 1, (6, 5)) @ Wx + h @ Wh
        k = time_gate(3.5, lp.tau, lp.s, lp.r_on, 0.0)
        h64, c64 = cell_step(a.copy(), h, c, k, lp, ln_g, ln_b)
        f32 = lambda v: v.astype(np.float32)
        lp32 = SimpleNamespace(**{name: f32(getattr(lp, name)) for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o")})
        h32, c32 = cell_step(f32(a), f32(h), f32(c), f32(k), lp32, f32(ln_g), f32(ln_b))
        assert h32.dtype == c32.dtype == np.float32
        assert h64.dtype == c64.dtype == np.float64
        np.testing.assert_allclose(h32, h64, atol=1e-5)
        np.testing.assert_allclose(c32, c64, atol=1e-5)

    @pytest.mark.parametrize("H", (7, 8, 64))
    def test_training_forward_matches_inference(self, H):
        # at alpha 0 and dropout 0 the kernel's cache and no-cache modes
        # give the same logits, bit for bit
        rng = np.random.default_rng(32)
        params = random_model(rng, 5, H, 2, alpha=0.0)
        x = rng.normal(0, 1, (6, 9, 5))
        times = np.cumsum(rng.uniform(0, 12, (6, 9)), axis=1)
        trained, trace = forward_batch(x, times, params, training=True)
        inferred, _ = forward_batch(x, times, params, training=False)
        np.testing.assert_array_equal(trained, inferred)
        assert all(cache is not None for cache in trace.caches)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        params = random_model(rng, 5, 8, 2)
        enc = make_enc(rng, 4, 6)
        with pytest.raises(DimensionError):
            forward_batch(enc.features[None], enc.times[None], params)

    def test_training_dropout_requires_rng(self):
        from deepmta.errors import ConfigError

        rng = np.random.default_rng(30)
        params = random_model(rng, 5, 8, 2, dropout_p=0.5)
        enc = make_enc(rng, 4, 5)
        with pytest.raises(ConfigError):
            forward_batch(enc.features[None], enc.times[None], params, training=True)

    def test_no_nan_over_many_random_steps(self):
        rng = np.random.default_rng(12)
        params = random_model(rng, 5, 8, 2)
        feats = rng.normal(0, 3, (10, 1000, 5))
        times = np.cumsum(rng.uniform(0, 5, (10, 1000)), axis=1)
        logits, _ = forward_batch(feats, times, params)
        assert np.all(np.isfinite(logits))


class TestGateMajorStep:
    """The attribution trie's kernel against `cell_step`, its oracle: the
    same values in another arrangement, not the same bits."""

    @staticmethod
    def run_stack(params, x, states, k, dtype):
        """Each layer's (h, c) after one step of both kernels from the same
        inputs; a layer's input is the new h of the layer below, each
        kernel's own. cell_step runs in float64 and the gate-major kernel in
        `dtype`."""
        ref_x, new_x = x, x.astype(dtype)
        pairs = []
        for idx, lp in enumerate(params.layers):
            ln_g, ln_b = params.ln_gain[idx], params.ln_bias[idx]
            h, c = states[idx]
            Wx = np.concatenate([lp.W_xi, lp.W_xf, lp.W_xc, lp.W_xo], axis=1)
            Wh = np.concatenate([lp.W_hi, lp.W_hf, lp.W_hc, lp.W_ho], axis=1)
            ref = cell_step(ref_x @ Wx + h @ Wh, h, c, k[idx], lp, ln_g, ln_b)
            cell = gate_major_cell(params, idx, dtype)
            h32, c32, k32 = (v.astype(dtype) for v in (h, c, k[idx]))
            new = gate_major_step(np.matmul(h32, cell.Wh) + np.matmul(new_x, cell.Wx), h32, c32, k32, cell)
            pairs.append((ref, new))
            ref_x, new_x = ref[0], new[0]
        return pairs

    @pytest.mark.parametrize("n_layers", (1, 2))
    @pytest.mark.parametrize("N", (1, 5, 513))
    @pytest.mark.parametrize("H", (7, 8, 64))
    def test_matches_cell_step(self, H, N, n_layers):
        rng = np.random.default_rng(40 + H + N + n_layers)
        params = random_model(rng, 5, H, n_layers)
        x = rng.normal(0, 1, (N, 5))
        states = [rng.normal(0, 0.5, (2, N, H)) for _ in range(n_layers)]
        k = [rng.uniform(0, 1, (N, H)) for _ in range(n_layers)]
        for gate in k:  # a closed row and an open one, where there are rows enough
            gate[N // 2] = 0.0
            gate[-1] = 1.0
        # the blends round relative to the larger of the old and new states,
        # so an entry near 0 may differ by an ulp of its old state
        for (ref_h, ref_c), (h, c) in self.run_stack(params, x, states, k, np.float64):
            assert h.dtype == c.dtype == np.float64
            np.testing.assert_allclose(h, ref_h, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(c, ref_c, rtol=1e-12, atol=1e-15)
        for (ref_h, ref_c), (h, c) in self.run_stack(params, x, states, k, np.float32):
            assert h.dtype == c.dtype == np.float32
            np.testing.assert_allclose(h, ref_h, rtol=0, atol=1e-5)
            np.testing.assert_allclose(c, ref_c, rtol=0, atol=1e-5)

    def test_float64_weights_are_views_of_the_parameters(self):
        # the float64 recheck scan copies no weight: each gate-major stack is
        # the layer's four gate tensors where they lie in ModelParams.flat
        params = random_model(np.random.default_rng(42), 5, 8, 2)
        for idx, lp in enumerate(params.layers):
            cell64, cell32 = gate_major_cell(params, idx, np.float64), gate_major_cell(params, idx, np.float32)
            for prefix, stack in (("W_x", cell64.Wx), ("W_h", cell64.Wh)):
                assert np.shares_memory(stack, params.flat)
                np.testing.assert_array_equal(stack, np.stack([getattr(lp, prefix + gate) for gate in "ifco"]))
            assert cell32.Wh.dtype == np.float32 and not np.shares_memory(cell32.Wh, params.flat)

    def test_a_closed_gate_keeps_the_states(self):
        # k = 0 leaves a row's states as they were, bit for bit, as in cell_step
        rng = np.random.default_rng(41)
        params = random_model(rng, 5, 8, 1)
        cell = gate_major_cell(params, 0, np.float32)
        h, c = rng.normal(0, 0.5, (2, 4, 8)).astype(np.float32)
        a = rng.normal(0, 1, (4, 4, 8)).astype(np.float32)
        h_new, c_new = gate_major_step(a, h, c, np.zeros(8, dtype=np.float32), cell)
        np.testing.assert_array_equal(h_new, h)
        np.testing.assert_array_equal(c_new, c)


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
        logits, trace = forward_batch(enc.features[None], enc.times[None], params, training=True)
        grads = backward_batch(trace, np.zeros_like(logits))
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
        _, trace = forward_batch(enc.features[None], enc.times[None], params, training=True)
        with pytest.raises(TraceError):
            backward_batch(trace, np.zeros((5, 2))[None])

    def test_inference_trace_rejected(self):
        # an inference forward keeps no backward cache
        rng = np.random.default_rng(17)
        params = random_model(rng, 4, 6, 2)
        enc = make_enc(rng, 3, 4)
        logits, trace = forward_batch(enc.features[None], enc.times[None], params)
        assert trace.caches == [None, None]
        with pytest.raises(TraceError, match="training=True"):
            backward_batch(trace, np.zeros_like(logits))


def reference_ln_backward(dn: np.ndarray, a_hat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray):
    d_gain = np.sum(dn * a_hat, axis=tuple(range(dn.ndim - 1)))
    d_bias = np.sum(dn, axis=tuple(range(dn.ndim - 1)))
    d_hat = dn * gain
    m1 = d_hat.mean(axis=-1, keepdims=True)
    m2 = (d_hat * a_hat).mean(axis=-1, keepdims=True)
    da = inv_std * (d_hat - m1 - a_hat * m2)
    return da, d_gain, d_bias


def reference_layer_backward(dH, x, times, cache, lp, ln_g):
    """The per-step reverse scan of one layer, every reduction inside the
    loop: the readable oracle of the hoisted `_layer_backward`. Returns
    (gradients dict, dX, d_gain, d_bias)."""
    B, T, d = x.shape
    H = lp.hidden_size
    Wx, Wh = cache["Wx"], cache["Wh"]

    dA = np.empty((T, B, 4 * H))
    dK = np.empty((T, B, H))
    d_gain = np.zeros(H)
    d_bias = np.zeros(H)
    acc = {name: np.zeros(H) for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o", "tau", "s", "r_on")}

    dX = np.empty((B, T, d))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        k = cache["k"][t]
        h_prev = cache["h_prev"][t]
        c_prev = cache["c_prev"][t]
        i_g, f_g, u_g, o_g, c_tilde, tanh_ct, h_tilde = (cache[name][t] for name in _GATE_SLOTS)

        dh = dH[:, t, :] + dh_next
        dc = dc_next

        dh_tilde = dh * k
        np.add(dh * (h_tilde - h_prev), dc * (c_tilde - c_prev), out=dK[t])
        dh_prev = dh * (1.0 - k)
        dc_tilde = dc * k
        dc_prev = dc * (1.0 - k)

        do = dh_tilde * tanh_ct
        dc_tilde = dc_tilde + dh_tilde * o_g * (1.0 - tanh_ct * tanh_ct)

        dpre_o = do * o_g * (1.0 - o_g)
        acc["b_o"] += dpre_o.sum(axis=0)
        acc["w_co"] += (dpre_o * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_o * lp.w_co

        df = dc_tilde * c_prev
        dc_prev = dc_prev + dc_tilde * f_g
        di = dc_tilde * u_g
        du = dc_tilde * i_g

        dpre_c = du * (1.0 - u_g * u_g)
        acc["b_c"] += dpre_c.sum(axis=0)
        dpre_f = df * f_g * (1.0 - f_g)
        acc["b_f"] += dpre_f.sum(axis=0)
        acc["w_cf"] += (dpre_f * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_f * lp.w_cf
        dpre_i = di * i_g * (1.0 - i_g)
        acc["b_i"] += dpre_i.sum(axis=0)
        acc["w_ci"] += (dpre_i * c_prev).sum(axis=0)
        dc_prev = dc_prev + dpre_i * lp.w_ci

        dn4 = np.stack([dpre_i, dpre_f, dpre_c, dpre_o], axis=1)
        da4, dg_step, db_step = reference_ln_backward(dn4, cache["a_hat"][t], cache["inv_std"][t], ln_g)
        d_gain += dg_step
        d_bias += db_step
        da = da4.reshape(B, 4 * H)
        dA[t] = da
        dX[:, t] = da @ Wx.T  # one product per step, as `model._link_back` makes it
        dh_prev = dh_prev + da @ Wh.T

        dh_next = dh_prev
        dc_next = dc_prev

    # the gate's gradients for all steps at once, summed in reverse t order
    # as the loop above adds its sums
    t_minus_s = times.T[:, :, None] - lp.s
    g_tau, g_s, g_ron = gate_backward(dK, cache["phi"], t_minus_s, lp.tau, lp.r_on, cache["alpha"])
    for t in range(T - 1, -1, -1):
        acc["tau"] += g_tau[t].sum(axis=0)
        acc["s"] += g_s[t].sum(axis=0)
        acc["r_on"] += g_ron[t].sum(axis=0)

    dA_flat = dA.transpose(1, 0, 2).reshape(B * T, 4 * H)
    hp_flat = cache["h_prev"].transpose(1, 0, 2).reshape(B * T, H)
    dWx = x.reshape(B * T, d).T @ dA_flat
    dWh = hp_flat.T @ dA_flat

    grads = {
        "W_xi": dWx[:, 0:H], "W_xf": dWx[:, H:2 * H], "W_xc": dWx[:, 2 * H:3 * H], "W_xo": dWx[:, 3 * H:],
        "W_hi": dWh[:, 0:H], "W_hf": dWh[:, H:2 * H], "W_hc": dWh[:, 2 * H:3 * H], "W_ho": dWh[:, 3 * H:],
    }
    grads.update(acc)
    return grads, dX, d_gain, d_bias


def reference_backward_batch(trace, grad_logits):
    """backward_batch over reference_layer_backward, in its dict order."""
    params = trace.params
    B, T, H = trace.hidden.shape
    gl_flat = grad_logits.reshape(B * T, 2)
    grads = {"W_out": trace.hidden.reshape(B * T, H).T @ gl_flat, "b_out": gl_flat.sum(axis=0)}
    dH = (gl_flat @ params.W_out.T).reshape(B, T, H)
    for idx in range(params.n_layers - 1, -1, -1):
        layer_grads, dX, d_gain, d_bias = reference_layer_backward(
            dH, trace.layer_inputs[idx], trace.times, trace.caches[idx], params.layers[idx], params.ln_gain[idx]
        )
        for fname in LAYER_TENSOR_FIELDS:
            grads[f"layers.{idx}.{fname}"] = layer_grads[fname]
        grads[f"ln.{idx}.gain"] = d_gain
        grads[f"ln.{idx}.bias"] = d_bias
        mask = trace.dropout_masks[idx - 1] if idx > 0 else None
        dH = dX * mask if mask is not None else dX
    return grads


class TestBackwardMatchesReference:
    """The hoisted reverse scan and flat gradient against the per-step
    reference, bit for bit."""

    @pytest.mark.parametrize("H", (7, 64))
    @pytest.mark.parametrize("B", (1, 7, 32))
    @pytest.mark.parametrize("with_dropout", (False, True))
    def test_every_gradient_identical(self, H, B, with_dropout):
        rng = np.random.default_rng(40 + H + B)
        d = 5
        params = random_model(rng, d, H, 2, dropout_p=0.5 if with_dropout else 0.0)
        for T in range(1, 21):
            x = rng.normal(0, 1, (B, T, d))
            times = np.cumsum(rng.uniform(0, 12, (B, T)), axis=1)
            masks = [(rng.random((B, T, H)) >= 0.5) / 0.5] if with_dropout else None
            logits, trace = forward_batch(x, times, params, training=True, dropout_masks=masks)
            grad_logits = rng.normal(0, 0.1, logits.shape)
            expected = reference_backward_batch(trace, grad_logits)
            grads = backward_batch(trace, grad_logits)
            assert list(grads) == list(expected)
            for name, value in expected.items():
                assert np.array_equal(grads[name], value), f"T={T} {name}"
                assert grads[name].tobytes() == np.ascontiguousarray(value).tobytes(), f"T={T} {name} (signed zeros)"

    def test_gradients_of_two_calls_are_independent(self):
        rng = np.random.default_rng(41)
        params = random_model(rng, 4, 6, 2)
        x = rng.normal(0, 1, (3, 4, 4))
        times = np.cumsum(rng.uniform(0, 12, (3, 4)), axis=1)
        logits, trace = forward_batch(x, times, params, training=True)
        first = backward_batch(trace, np.full(logits.shape, 0.1))
        kept = {name: value.copy() for name, value in first.items()}
        second = backward_batch(trace, np.full(logits.shape, -0.3))
        assert not np.shares_memory(first.flat, second.flat)
        second.flat[:] = 7.0
        for name, value in kept.items():
            np.testing.assert_array_equal(first[name], value)
            assert first[name].base is first.flat

    def test_gradient_views_follow_the_parameter_layout(self):
        rng = np.random.default_rng(42)
        params = random_model(rng, 4, 6, 2)
        x = rng.normal(0, 1, (2, 3, 4))
        logits, trace = forward_batch(x, np.cumsum(rng.uniform(0, 9, (2, 3)), axis=1), params, training=True)
        grads = backward_batch(trace, rng.normal(0, 0.1, logits.shape))
        assert grads.flat.shape == params.flat.shape
        for name, view in params.unflatten(grads.flat).items():
            assert np.shares_memory(view, grads[name]) and view.shape == grads[name].shape
            np.testing.assert_array_equal(view, grads[name])


def assert_views_into_flat(params):
    """Every tensor is a view into params.flat, in named_parameters order."""
    offset = 0
    for name, arr in params.named_parameters():
        assert arr.base is params.flat, name
        assert arr.flags.c_contiguous, name
        start = (arr.__array_interface__["data"][0] - params.flat.__array_interface__["data"][0]) // 8
        assert start == offset, name
        offset += arr.size
    assert offset == params.flat.size
    layer_views = [getattr(lp, f) for lp in params.layers for f in LAYER_TENSOR_FIELDS]
    assert all(v.base is params.flat for v in layer_views + params.ln_gain + params.ln_bias)


class TestFlatParameters:
    def test_init_params_packs_every_tensor(self):
        assert_views_into_flat(init_params(5, 8, 2, rng=3))

    def test_direct_construction_packs_every_tensor(self):
        assert_views_into_flat(random_model(np.random.default_rng(43), 5, 7, 3))

    def test_copy_owns_a_new_buffer(self):
        params = random_model(np.random.default_rng(44), 5, 7, 2)
        clone = params.copy()
        assert_views_into_flat(clone)
        assert not np.shares_memory(clone.flat, params.flat)
        np.testing.assert_array_equal(clone.flat, params.flat)
        clone.layers[0].tau[:] += 1.0
        clone.flat[-1] = 99.0
        assert params.b_out[-1] != 99.0
        assert not np.array_equal(clone.layers[0].tau, params.layers[0].tau)

    def test_in_place_edits_reach_the_buffer(self):
        params = random_model(np.random.default_rng(45), 5, 7, 2)
        for name, arr in params.named_parameters():
            arr[(0,) * arr.ndim] = 123.0
        view = params.unflatten(params.flat)
        for name, arr in view.items():
            assert arr[(0,) * arr.ndim] == 123.0, name

    def test_layers_passed_in_stay_the_callers(self):
        rng = np.random.default_rng(47)
        layer = random_layer(rng, 5, 7)
        tau = layer.tau
        params = ModelParams(
            layers=[layer], ln_gain=[np.ones(7)], ln_bias=[np.zeros(7)], W_out=np.zeros((7, 2)), b_out=np.zeros(2),
        )
        other = ModelParams(
            layers=[layer], ln_gain=[np.ones(7)], ln_bias=[np.zeros(7)], W_out=np.zeros((7, 2)), b_out=np.zeros(2),
        )
        assert layer.tau is tau and not np.shares_memory(layer.tau, params.flat)
        params.layers[0].tau[:] = 3.0
        assert not np.any(other.layers[0].tau == 3.0) and not np.any(layer.tau == 3.0)
        assert_views_into_flat(params)
        assert_views_into_flat(other)

    def test_load_checkpoint_packs_every_tensor(self, tmp_path):
        params = random_model(np.random.default_rng(46), 5, 8, 2)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, Vocabulary(channels=("A", "B"), campaigns=("c1", "c2")))
        loaded, _, _ = load_checkpoint(path)
        assert_views_into_flat(loaded)
        np.testing.assert_array_equal(loaded.flat, params.flat)


def encode_tensor(values) -> str:
    """A format-2 tensor payload: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_tensor(data: str) -> np.ndarray:
    """The flat float64 entries of a format-2 tensor payload."""
    return np.frombuffer(base64.b64decode(data), "<f8").copy()


def set_tensor_entry(obj: dict, name: str, at: int, value) -> None:
    """Set entry `at` of tensor `name`'s data in a checkpoint object."""
    entry = obj["tensors"][name]
    data = decode_tensor(entry["data"])
    data[at] = value
    entry["data"] = encode_tensor(data)


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

    def test_checkpoint_bytes_equal_json_dump(self, tmp_path):
        # the C encoder behind json.dumps writes what json.dump would
        import io

        params = random_model(np.random.default_rng(24), 5, 8, 2)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, Vocabulary(channels=("A", "B"), campaigns=("c1", "c2")), seed=4)
        written = path.read_text(encoding="utf-8")
        expected = io.StringIO()
        json.dump(json.loads(written), expected)
        expected.write("\n")
        assert written == expected.getvalue()

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

    @pytest.mark.parametrize(
        "name", [pytest.param(name, id=f"{name}-v2") for name in ("W_out", "b_out", "ln.1.gain", "ln.0.bias")]
    )
    def test_checkpoint_non_finite_tensor_rejected(self, tmp_path, name):
        import json as _json

        rng = np.random.default_rng(21)
        params = random_model(rng, 5, 8, 2)
        vocab = Vocabulary(channels=("A", "B"), campaigns=("c1", "c2"))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, vocab)
        obj = _json.loads(path.read_text())
        set_tensor_entry(obj, name, 0, float("nan"))
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

    def test_golden_checkpoint_round_trips_to_its_bytes(self, tmp_path):
        # checkpoint_v2.json (d=5, H=4, two layers, alpha 0.002) was saved
        # before the parameter table and the model-wide alpha; it loads and
        # saves back to its bytes
        data = Path(__file__).parent / "data"
        loaded, vocab, seed = load_checkpoint(data / "checkpoint_v2.json")
        path = tmp_path / "model.json"
        save_checkpoint(path, loaded, vocab, seed=seed)
        assert path.read_bytes() == (data / "checkpoint_v2.json").read_bytes()
        assert loaded.alpha == 0.002


class TestParameterTable:
    """`param_shapes` decides every tensor's name, shape and place in `flat`;
    construction checks each tensor against it once."""

    def test_layout_and_named_parameters_follow_the_table(self):
        params = random_model(np.random.default_rng(48), 5, 7, 3)
        shapes = param_shapes(5, 7, 3)
        assert len(shapes) == 20 * 3 + 2
        assert [(name, arr.shape) for name, arr in params.named_parameters()] == list(shapes.items())
        assert [(name, shape) for name, (_, shape) in params.layout.items()] == list(shapes.items())

    def test_each_tensor_is_checked_once(self, monkeypatch, tmp_path):
        import deepmta.model as model_mod

        params = random_model(np.random.default_rng(49), 5, 7, 2)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, Vocabulary(channels=("A", "B"), campaigns=("c1", "c2")))
        checked, real = [], model_mod._checked
        monkeypatch.setattr(model_mod, "_checked", lambda name, *rest: checked.append(name) or real(name, *rest))
        params.copy()
        assert checked == list(params.layout)
        checked.clear()
        load_checkpoint(path)
        assert checked == list(params.layout)
        checked.clear()
        init_params(5, 7, 2, rng=3, time_feature_index=4)
        assert checked == list(params.layout)

    @pytest.mark.parametrize("alpha", (-0.1, float("nan"), float("inf")))
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            random_model(np.random.default_rng(50), 5, 7, 2, alpha=alpha)

    def test_layers_share_one_hidden_size(self):
        rng = np.random.default_rng(51)
        with pytest.raises(DimensionError, match="layers.1.W_xi"):
            ModelParams(
                layers=[random_layer(rng, 5, 7), random_layer(rng, 7, 6)], ln_gain=[np.ones(7)] * 2,
                ln_bias=[np.zeros(7)] * 2, W_out=np.zeros((7, 2)), b_out=np.zeros(2),
            )

    @pytest.mark.parametrize(
        ("fname", "value", "error"), (("tau", np.nan, NumericError), ("tau", 0.0, ParameterError), ("r_on", 1.0, ParameterError))
    )
    def test_layer_edited_after_its_construction(self, fname, value, error):
        rng = np.random.default_rng(52)
        layers = [random_layer(rng, 5, 7), random_layer(rng, 7, 7)]
        getattr(layers[1], fname)[3] = value
        with pytest.raises(error, match=fname):
            ModelParams(
                layers=layers, ln_gain=[np.ones(7)] * 2, ln_bias=[np.zeros(7)] * 2, W_out=np.zeros((7, 2)),
                b_out=np.zeros(2),
            )


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

    @pytest.mark.parametrize("value", (True, 1.0, 1, 3, 0, "2", None))
    def test_bad_format_version(self, tmp_path, value):
        # version 1 is no longer read, and a bool or a float equal to 1 is
        # not a version
        path, obj = _saved_checkpoint(tmp_path)
        obj["format_version"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"unsupported checkpoint format_version {value!r}"):
            load_checkpoint(path)

    def test_missing_hyperparams(self, tmp_path):
        path, obj = _saved_checkpoint(tmp_path)
        del obj["hyperparams"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="hyperparams"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_layers", (3, 10**9))
    def test_n_layers_beyond_the_tensors(self, tmp_path, monkeypatch, n_layers):
        # the tensor count is checked before the shape table is built, so a
        # huge n_layers fails at once instead of building a table that size
        import deepmta.model as model_mod

        path, obj = _saved_checkpoint(tmp_path)
        obj["hyperparams"]["n_layers"] = n_layers
        path.write_text(json.dumps(obj))
        monkeypatch.setattr(model_mod, "param_shapes", lambda *args: pytest.fail("built the table"))
        with pytest.raises(ValidationError, match="n_layers"):
            load_checkpoint(path)

    def test_renamed_tensor(self, tmp_path):
        path, obj = _saved_checkpoint(tmp_path)
        obj["tensors"]["W_final"] = obj["tensors"].pop("W_out")
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="W_final"):
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
        "value",
        (10**400, -(10**400), float("nan"), "0.5", True, None, [0.5]),
        ids=("huge", "-huge", "nan", "str", "bool", "null", "list"),
    )
    @pytest.mark.parametrize("field", ("dropout_p", "alpha"))
    def test_hyperparam_not_a_finite_number(self, tmp_path, field, value):
        # json.dumps writes NaN as the NaN token, which json.load reads back
        path, obj = _saved_checkpoint(tmp_path)
        obj["hyperparams"][field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"hyperparam '{field}' must be a finite number"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "value",
        (
            None, 1.0, [1.0] * 16, {"b64": ""},  # not a string
            "not base64!", encode_tensor([0.5] * 16)[:-1] + "*", encode_tensor([0.5] * 16) + "\n", "\u00e9" * 4,
            "", encode_tensor([0.5] * 15), encode_tensor([0.5] * 17), base64.b64encode(bytes(127)).decode(),
        ),
        ids=(
            "missing", "float", "number-list", "object", "text", "bad-char", "newline", "non-ascii",
            "empty", "15-floats", "17-floats", "127-bytes",
        ),
    )
    def test_bad_base64_data(self, tmp_path, value):
        path, obj = _saved_checkpoint(tmp_path)
        if value is None:
            del obj["tensors"]["W_out"]["data"]
        else:
            obj["tensors"]["W_out"]["data"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="W_out.*data") as err:
            load_checkpoint(path)
        assert err.value.exit_code == 2
