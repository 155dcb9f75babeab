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
    lstm_step_backward,
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


def _gate_blocks(cell):
    """The fused (w, b) split into per-gate (w, b) pairs, in order i, f, o, g."""
    hid = cell.hidden_dim
    return [
        (cell.w[k * hid : (k + 1) * hid], cell.b[k * hid : (k + 1) * hid]) for k in range(4)
    ]


def _scalar_lstm_oracle(cell, x, h_prev, c_prev):
    """Element-by-element reference implementation of one LSTM step."""
    hid = cell.hidden_dim
    (w_in, b_in), (w_fg, b_fg), (w_out, b_out), (w_cand, b_cand) = _gate_blocks(cell)
    z = list(x) + list(h_prev)
    h_out, c_out = np.zeros(hid), np.zeros(hid)
    for k in range(hid):
        a_i = sum(w_in[k, j] * z[j] for j in range(len(z))) + b_in[k]
        a_f = sum(w_fg[k, j] * z[j] for j in range(len(z))) + b_fg[k]
        a_o = sum(w_out[k, j] * z[j] for j in range(len(z))) + b_out[k]
        a_g = sum(w_cand[k, j] * z[j] for j in range(len(z))) + b_cand[k]
        i = 1.0 / (1.0 + math.exp(-a_i))
        f = 1.0 / (1.0 + math.exp(-a_f))
        o = 1.0 / (1.0 + math.exp(-a_o))
        g = math.tanh(a_g)
        c_out[k] = f * c_prev[k] + i * g
        h_out[k] = o * math.tanh(c_out[k])
    return h_out, c_out


def _per_gate_lstm_step(cell, x, h_prev, c_prev):
    """One LSTM step with a separate matmul per gate on row blocks of ``w``."""
    z = np.concatenate([x, h_prev], axis=-1)
    i, f, o, g = (z @ w.T + b for w, b in _gate_blocks(cell))
    c = sigmoid(f) * c_prev + sigmoid(i) * np.tanh(g)
    return sigmoid(o) * np.tanh(c), c


def _masked_sigmoid(x):
    """Reference logistic function that evaluates each branch on its own mask."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_masked_reference(self):
        rng = np.random.default_rng(0)
        edges = [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 36.7, -36.7, 709.0, -745.0, 1e308]
        for x in [np.array(edges)] + [rng.normal(size=(7, 9)) * s for s in (0.1, 3.0, 800.0)]:
            assert np.array_equal(sigmoid(x), _masked_sigmoid(x))
            assert np.array_equal(np.signbit(sigmoid(x)), np.signbit(_masked_sigmoid(x)))


class TestLstmStep:
    def test_zero_parameters_zero_output(self):
        cell, store = _make_cell(2, 4)
        store.from_vector(np.zeros(store.size))
        h, c, _ = lstm_step(cell, np.ones(2), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, 0.0, atol=1e-15)

    def test_saturated_forget_gate_preserves_cell(self):
        cell, store = _make_cell(2, 3, seed=1)
        cell.b[3:6] = 50.0  # forget gate (second row block) pinned open
        c_prev = np.array([0.5, -0.2, 1.0])
        x = np.array([0.1, -0.3])
        h, c, _ = lstm_step(cell, x, np.zeros(3), c_prev)
        # c = f*c_prev + i*g with f ~ 1
        z = np.concatenate([x, np.zeros(3)])
        i = sigmoid(z @ cell.w[0:3].T + cell.b[0:3])
        g = np.tanh(z @ cell.w[9:12].T + cell.b[9:12])
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

    @pytest.mark.parametrize("lead", [(), (1,), (6,)])
    def test_fused_matches_per_gate_reference(self, lead):
        cell, _ = _make_cell(3, 4, seed=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=lead + (3,))
        h_prev = rng.normal(size=lead + (4,))
        c_prev = rng.normal(size=lead + (4,))
        h, c, _ = lstm_step(cell, x, h_prev, c_prev)
        h_ref, c_ref = _per_gate_lstm_step(cell, x, h_prev, c_prev)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(c, c_ref)

    def test_fused_layout(self):
        cell, store = _make_cell(2, 3)
        assert store.names() == ["cell.w", "cell.b"]
        assert cell.w.shape == (12, 5) and cell.b.shape == (12,)
        # one draw per array gives the numbers of per-gate draws in gate order
        rng = np.random.default_rng(0)
        per_gate = [uniform_init((3, 5), 5, rng) for _ in range(4)]
        per_gate += [uniform_init((3,), 5, rng) for _ in range(4)]
        assert np.array_equal(store.to_vector(), np.concatenate([a.ravel() for a in per_gate]))

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

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_backward_matches_finite_differences(self, lead):
        cell, store = _make_cell(2, 3, seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=lead + (2,))
        h_prev = rng.normal(size=lead + (3,))
        c_prev = rng.normal(size=lead + (3,))
        dh = rng.normal(size=lead + (3,))
        dc = rng.normal(size=lead + (3,))
        n_params = store.size
        sizes = np.cumsum([n_params, x.size, h_prev.size])

        def loss_fn(vec):
            params, xv, hv, cv = np.split(vec, sizes)
            store.from_vector(params)
            xv, hv, cv = xv.reshape(x.shape), hv.reshape(h_prev.shape), cv.reshape(c_prev.shape)
            h, c, cache = lstm_step(cell, xv, hv, cv)
            grads = store.zeros_like()
            dx, dh_prev, dc_prev = lstm_step_backward(cell, "cell", cache, dh, dc, grads)
            assert dx.shape == x.shape
            assert dh_prev.shape == h_prev.shape and dc_prev.shape == c_prev.shape
            loss = float(np.sum(h * dh) + np.sum(c * dc))
            return loss, np.concatenate(
                [grads.to_vector(), dx.ravel(), dh_prev.ravel(), dc_prev.ravel()]
            )

        vec = np.concatenate([store.to_vector(), x.ravel(), h_prev.ravel(), c_prev.ravel()])
        assert finite_diff_check(loss_fn, vec) < 1e-6

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
