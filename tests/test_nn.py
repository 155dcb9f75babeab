"""Kernel-level tests: each op against an independent scalar oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tile360.errors import ParameterError, ShapeError, TrainingError
from tile360.nn import (
    AdamState,
    ParamStore,
    adam_update,
    conv1d_backward,
    conv1d_forward,
    finite_diff_check,
    linear_forward,
    load_checkpoint,
    lstm_step,
    LstmCellParams,
    save_checkpoint,
    sigmoid,
    softmax,
    uniform_init,
)


# ---------------------------------------------------------------------------
# linear layer
# ---------------------------------------------------------------------------

class TestLinear:
    def test_identity_weights(self):
        out = linear_forward(np.eye(2), np.zeros(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_zero_weights_bias_only(self):
        out = linear_forward(np.zeros((1, 3)), np.array([3.0]), np.array([9.0, -1.0, 4.0]))
        np.testing.assert_allclose(out, [3.0])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        x = rng.normal(size=3)
        expected = np.zeros(4)
        for k in range(4):
            acc = b[k]
            for j in range(3):
                acc += w[k, j] * x[j]
            expected[k] = acc
        np.testing.assert_allclose(linear_forward(w, b, x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            linear_forward(np.eye(2), np.zeros(2), np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _make_cell(input_dim, hidden_dim, seed=0, scale=None):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    cell = LstmCellParams.create(store, "cell", input_dim, hidden_dim, rng)
    return cell, store


def _scalar_lstm_oracle(cell, x, h_prev, c_prev):
    """Element-by-element reference implementation of one LSTM step."""
    hid = cell.hidden_dim
    z = list(x) + list(h_prev)
    h_out, c_out = np.zeros(hid), np.zeros(hid)
    for k in range(hid):
        a_i = sum(cell.w_i[k, j] * z[j] for j in range(len(z))) + cell.b_i[k]
        a_f = sum(cell.w_f[k, j] * z[j] for j in range(len(z))) + cell.b_f[k]
        a_o = sum(cell.w_o[k, j] * z[j] for j in range(len(z))) + cell.b_o[k]
        a_g = sum(cell.w_g[k, j] * z[j] for j in range(len(z))) + cell.b_g[k]
        i = 1.0 / (1.0 + math.exp(-a_i))
        f = 1.0 / (1.0 + math.exp(-a_f))
        o = 1.0 / (1.0 + math.exp(-a_o))
        g = math.tanh(a_g)
        c_out[k] = f * c_prev[k] + i * g
        h_out[k] = o * math.tanh(c_out[k])
    return h_out, c_out


class TestLstmStep:
    def test_zero_parameters_zero_output(self):
        cell, store = _make_cell(2, 4)
        store.from_vector(np.zeros(store.size))
        h, c, _ = lstm_step(cell, np.ones(2), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, 0.0, atol=1e-15)

    def test_saturated_forget_gate_preserves_cell(self):
        cell, store = _make_cell(2, 3, seed=1)
        cell.b_f[...] = 50.0  # forget gate pinned open
        c_prev = np.array([0.5, -0.2, 1.0])
        x = np.array([0.1, -0.3])
        h, c, _ = lstm_step(cell, x, np.zeros(3), c_prev)
        # c = f*c_prev + i*g with f ~ 1
        i = sigmoid(np.concatenate([x, np.zeros(3)]) @ cell.w_i.T + cell.b_i)
        g = np.tanh(np.concatenate([x, np.zeros(3)]) @ cell.w_g.T + cell.b_g)
        np.testing.assert_allclose(c, c_prev + i * g, atol=1e-12)

    def test_matches_scalar_oracle(self):
        cell, _ = _make_cell(3, 5, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        h_prev = rng.normal(size=5)
        c_prev = rng.normal(size=5)
        h, c, _ = lstm_step(cell, x, h_prev, c_prev)
        h_ref, c_ref = _scalar_lstm_oracle(cell, x, h_prev, c_prev)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)

    def test_batched_matches_loop(self):
        cell, _ = _make_cell(2, 4, seed=4)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(6, 2))
        hs = rng.normal(size=(6, 4))
        cs = rng.normal(size=(6, 4))
        h_batch, c_batch, _ = lstm_step(cell, xs, hs, cs)
        for b in range(6):
            h1, c1, _ = lstm_step(cell, xs[b], hs[b], cs[b])
            np.testing.assert_allclose(h_batch[b], h1, atol=1e-12)
            np.testing.assert_allclose(c_batch[b], c1, atol=1e-12)

    def test_shape_error(self):
        cell, _ = _make_cell(2, 3)
        with pytest.raises(ShapeError):
            lstm_step(cell, np.zeros(5), np.zeros(3), np.zeros(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hidden_bounded(self, seed):
        cell, _ = _make_cell(2, 3, seed=seed % 100)
        rng = np.random.default_rng(seed)
        h, _, _ = lstm_step(
            cell, rng.normal(size=2) * 3, rng.normal(size=3), rng.normal(size=3) * 2
        )
        assert np.all(np.abs(h) < 1.0)


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

class TestConv1d:
    def test_averaging_filter(self):
        filt = np.array([[1 / 3, 1 / 3, 1 / 3]])
        out = conv1d_forward(filt, np.zeros(1), np.array([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out[:, 0], [3.0, 3.0])

    def test_delta_filter_shifts(self):
        filt = np.array([[0.0, 1.0, 0.0]])
        out = conv1d_forward(filt, np.zeros(1), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out[:, 0], [2.0, 3.0])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(6)
        filters = rng.normal(size=(4, 3, 2))
        bias = rng.normal(size=4)
        x = rng.normal(size=(9, 2))
        out = conv1d_forward(filters, bias, x)
        out_len = 9 - 3 + 1
        assert out.shape == (out_len, 4)
        for o in range(out_len):
            for f in range(4):
                acc = bias[f]
                for w in range(3):
                    for c in range(2):
                        acc += filters[f, w, c] * x[o + w, c]
                assert abs(out[o, f] - acc) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        filters = rng.normal(size=(2, 3, 1))
        bias = rng.normal(size=2)
        x = rng.normal(size=(6, 1))

        def loss(filters_flat):
            f = filters_flat.reshape(2, 3, 1)
            y = conv1d_forward(f, bias, x)
            loss_val = float((y**2).sum())
            dy = 2.0 * y
            _, dfilt, _ = conv1d_backward(f, x, dy)
            return loss_val, dfilt.ravel()

        err = finite_diff_check(loss, filters.ravel())
        assert err < 1e-6

    def test_input_shorter_than_filter(self):
        with pytest.raises(ShapeError):
            conv1d_forward(np.ones((1, 3)), np.zeros(1), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_overflow_stability(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_direct_formula(self):
        logits = np.array([1.0, 2.0, 3.0])
        direct = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(softmax(logits), direct, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        v = np.array(logits)
        p = softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(p, softmax(v + shift), atol=1e-9)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = AdamState.create(3, learning_rate=0.1)
        params = np.array([1.0, -2.0, 0.5])
        out = adam_update(state, params, np.zeros(3))
        np.testing.assert_allclose(out, params)
        assert state.step_count == 1

    def test_first_step_matches_hand_computation(self):
        # fresh state, gradient g: m = (1-b1) g, v = (1-b2) g^2,
        # m_hat = g, v_hat = g^2, step = -lr * g / (|g| + eps)
        lr = 0.05
        g = np.array([0.3, -2.0])
        state = AdamState.create(2, learning_rate=lr)
        out = adam_update(state, np.zeros(2), g)
        expected = -lr * g / (np.abs(g) + state.epsilon)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_gradient_step_approaches_lr_sign(self):
        lr = 0.01
        g = np.array([0.7])
        state = AdamState.create(1, learning_rate=lr)
        params = np.array([0.0])
        for _ in range(200):
            new = adam_update(state, params, g)
            step = new - params
            params = new
        np.testing.assert_allclose(step, -lr * np.sign(g), rtol=1e-3)

    def test_nan_gradient_rejected(self):
        state = AdamState.create(1)
        with pytest.raises(TrainingError):
            adam_update(state, np.zeros(1), np.array([np.nan]))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        def loss(p):
            return 0.5 * float(p @ p), p

        rng = np.random.default_rng(8)
        err = finite_diff_check(loss, rng.normal(size=6))
        assert err < 1e-6

    def test_linear_layer_l1(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3)
        target = rng.normal(size=2)

        def loss(wflat):
            w = wflat.reshape(2, 3)
            y = w @ x
            r = y - target
            grad = np.sign(r)[:, None] * x[None, :]
            return float(np.abs(r).sum()), grad.ravel()

        err = finite_diff_check(loss, rng.normal(size=6))
        assert err < 1e-4

    def test_nonfinite_loss_rejected(self):
        def loss(p):
            return float("nan"), p

        with pytest.raises(TrainingError):
            finite_diff_check(loss, np.ones(2))


# ---------------------------------------------------------------------------
# parameter store and checkpoints
# ---------------------------------------------------------------------------

class TestParamStore:
    def test_vector_roundtrip(self):
        store = ParamStore()
        rng = np.random.default_rng(10)
        a = store.add("a", rng.normal(size=(2, 3)))
        b = store.add("b", rng.normal(size=4))
        vec = store.to_vector()
        assert vec.size == 10
        store.from_vector(vec * 2)
        np.testing.assert_allclose(store["a"], a)  # same object, updated in place
        np.testing.assert_allclose(store.to_vector(), vec * 2)

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("x", np.zeros(1))
        with pytest.raises(ParameterError):
            store.add("x", np.zeros(1))

    def test_init_range(self):
        rng = np.random.default_rng(11)
        arr = uniform_init((1000,), 16, rng)
        assert np.all(np.abs(arr) <= 0.25)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ParamStore()
        rng = np.random.default_rng(12)
        store.add("layer.w", rng.normal(size=(3, 2)))
        store.add("layer.b", rng.normal(size=3))
        path = tmp_path / "params.ckpt"
        save_checkpoint(path, store, {"note": "test"})
        arrays, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert list(arrays) == ["layer.w", "layer.b"]
        np.testing.assert_array_equal(arrays["layer.w"], store["layer.w"])
        np.testing.assert_array_equal(arrays["layer.b"], store["layer.b"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParameterError):
            load_checkpoint(path)
