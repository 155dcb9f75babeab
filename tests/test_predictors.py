"""Predictor tests: closed-form oracles, attention math, rolling prediction."""

import numpy as np
import pytest

from tile360.errors import ParameterError, PredictionError
from tile360.geometry import TileGrid, Trajectory
from tile360.nn import finite_diff_check, linear_forward
from tile360.predictors import (
    AttentionTrace,
    CrossUserAttentiveNet,
    CuanTrainConfig,
    PredictionTask,
    attend,
    predict_knn,
    predict_lr,
    predict_static,
    stack_tasks,
    task_from_trajectories,
    train_attentive,
)


def make_task(history, cross=None, horizon=3, targets=None):
    history = np.asarray(history, float)
    cross = (
        np.zeros((0, history.shape[0] + horizon, 2)) if cross is None else np.asarray(cross, float)
    )
    return PredictionTask(history=history, cross=cross, horizon=horizon, targets=targets)


class TestStatic:
    def test_repeats_last_sample(self):
        task = make_task([[0.1, 0.0], [0.5, 0.1]], horizon=3)
        out = predict_static(task)
        np.testing.assert_allclose(out, [[0.5, 0.1]] * 3)

    def test_zero_error_on_constant_truth(self):
        hist = np.tile([0.2, -0.3], (4, 1))
        task = make_task(hist, horizon=5, targets=np.tile([0.2, -0.3], (5, 1)))
        out = predict_static(task)
        assert np.abs(out - task.targets).max() == 0.0

    def test_error_grows_linearly_under_drift(self):
        # ground truth drifts 0.01/step; static prediction error = 0.01 * step
        drift = 0.01
        hist = np.tile([0.0, 0.0], (3, 1))
        targets = np.array([[drift * (s + 1), 0.0] for s in range(4)])
        task = make_task(hist, horizon=4, targets=targets)
        out = predict_static(task)
        err = np.abs(out - targets)[:, 0]
        np.testing.assert_allclose(err, drift * np.arange(1, 5), atol=1e-12)


class TestLeastSquares:
    def test_exact_on_line(self):
        t = np.arange(6.0)
        hist = np.stack([0.05 * t - 0.1, -0.02 * t + 0.3], axis=1)
        targets = np.stack(
            [0.05 * np.arange(6, 9) - 0.1, -0.02 * np.arange(6, 9) + 0.3], axis=1
        )
        task = make_task(hist, horizon=3, targets=targets)
        np.testing.assert_allclose(predict_lr(task), targets, atol=1e-12)

    def test_constant_history_equals_static(self):
        hist = np.tile([0.4, -0.2], (5, 1))
        task = make_task(hist, horizon=4)
        np.testing.assert_allclose(predict_lr(task), predict_static(task), atol=1e-12)

    def test_slope_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        t = np.arange(8.0)
        noise = rng.normal(0, 0.01, 8)
        series = 0.03 * t + 0.1 + noise
        hist = np.stack([series, np.zeros(8)], axis=1)
        task = make_task(hist, horizon=2)
        out = predict_lr(task)
        # closed-form OLS for slope/intercept
        A = np.stack([t, np.ones(8)], axis=1)
        slope, intercept = np.linalg.solve(A.T @ A, A.T @ series)
        expected = intercept + slope * np.array([8.0, 9.0])
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-10)

    def test_output_clamped(self):
        hist = np.stack([np.linspace(0.0, 0.9, 4), np.zeros(4)], axis=1)
        task = make_task(hist, horizon=10)
        out = predict_lr(task)
        assert np.all(out <= 1.0) and np.all(out >= -1.0)

    def test_single_sample_rejected(self):
        task = make_task([[0.0, 0.0]], horizon=2)
        with pytest.raises(ParameterError):
            predict_lr(task)


class TestKnn:
    def test_degenerate_cluster_equals_lr(self):
        hist = np.tile([0.1, 0.1], (4, 1))
        lr_point = np.array([0.1, 0.1])
        cross = np.tile(lr_point, (3, 7, 1))
        task = make_task(hist, cross=cross, horizon=3)
        points, _ = predict_knn(task, k=3)
        np.testing.assert_allclose(points, predict_lr(task), atol=1e-12)

    def test_k_equals_all_users_is_centroid(self):
        rng = np.random.default_rng(1)
        hist = np.tile([0.0, 0.0], (4, 1))
        cross = rng.uniform(-0.2, 0.2, (5, 7, 2))
        task = make_task(hist, cross=cross, horizon=3)
        points, _ = predict_knn(task, k=5)
        for s in range(3):
            np.testing.assert_allclose(points[s], cross[:, 4 + s].mean(axis=0), atol=1e-12)

    def test_matches_exhaustive_nearest_search(self):
        rng = np.random.default_rng(2)
        hist = np.stack([np.linspace(-0.1, 0.1, 5), np.zeros(5)], axis=1)
        cross = rng.uniform(-0.9, 0.9, (12, 8, 2))
        task = make_task(hist, cross=cross, horizon=3)
        k = 5
        points, _ = predict_knn(task, k=k)
        base = predict_lr(task)
        for s in range(3):
            others = cross[:, 5 + s]
            dx = np.abs(others[:, 0] - base[s, 0]) % 2.0
            dx = np.minimum(dx, 2.0 - dx) * 180.0
            dy = np.abs(others[:, 1] - base[s, 1]) * 90.0
            dist = dx + dy
            nearest = sorted(range(12), key=lambda i: (dist[i], i))[:k]
            np.testing.assert_allclose(points[s], others[nearest].mean(axis=0), atol=1e-12)

    def test_probability_vectors_average_neighbors(self):
        grid = TileGrid(2, 2)
        hist = np.tile([0.0, 0.0], (3, 1))
        cross = np.tile([0.0, 0.0], (4, 6, 1)).reshape(4, 6, 2)
        task = make_task(hist, cross=cross, horizon=3)
        _, probs = predict_knn(task, k=4, grid=grid)
        assert probs.shape == (3, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_no_cross_users_rejected(self):
        task = make_task(np.tile([0.0, 0.0], (3, 1)), horizon=2)
        with pytest.raises(PredictionError):
            predict_knn(task, k=1)


class TestTaskFromTrajectories:
    def _traj(self, lons, lats=None, user="u"):
        n = len(lons)
        return Trajectory(
            user_id=user,
            timestamps=np.arange(n, dtype=float),
            lons=np.asarray(lons, float),
            lats=np.zeros(n) if lats is None else np.asarray(lats, float),
            sample_rate=1.0,
        )

    def test_anchor_is_last_history_sample(self):
        traj = self._traj([10.0, 20.0, 30.0, 40.0, 50.0])
        task = task_from_trajectories(traj, [], end_index=2, history_len=3, horizon=2)
        assert task.anchor_lon == pytest.approx(30.0)
        np.testing.assert_allclose(task.history[-1], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(task.targets[:, 0] * 180.0, [10.0, 20.0], atol=1e-12)

    def test_seam_crossing_is_continuous(self):
        traj = self._traj([170.0, 178.0, -174.0, -166.0, -158.0])
        task = task_from_trajectories(traj, [], end_index=2, history_len=3, horizon=2)
        x = np.concatenate([task.history[:, 0], task.targets[:, 0]])
        steps = np.diff(x * 180.0)
        np.testing.assert_allclose(steps, 8.0, atol=1e-9)  # no seam jump

    def test_denormalize_rewraps(self):
        traj = self._traj([170.0, 178.0, -174.0, -166.0, -158.0])
        task = task_from_trajectories(traj, [], end_index=2, history_len=3, horizon=2)
        vps = task.denormalize(task.targets)
        assert vps[0].lon == pytest.approx(-166.0)
        assert vps[1].lon == pytest.approx(-158.0)

    def test_cross_users_recentred_near_anchor(self):
        user = self._traj([0.0, 1.0, 2.0, 3.0, 4.0])
        other = self._traj([359.0, 360.0, 361.0, 362.0, 363.0], user="o")  # same circle points
        task = task_from_trajectories(user, [other], end_index=2, history_len=3, horizon=2)
        # other's wrapped samples are at -1, 0, 1, 2, 3; continuous near anchor 2
        np.testing.assert_allclose(
            task.cross[0, :, 0] * 180.0 + task.anchor_lon, [-1, 0, 1, 2, 3], atol=1e-9
        )

    def test_too_short_cross_rejected(self):
        user = self._traj([0.0, 1.0, 2.0, 3.0, 4.0])
        other = self._traj([0.0, 1.0, 2.0], user="o")
        with pytest.raises(PredictionError):
            task_from_trajectories(user, [other], end_index=2, history_len=3, horizon=2)


class TestAttend:
    def test_single_participant(self):
        f = np.array([1.0, -2.0, 0.5])
        trace = attend(f, np.zeros((0, 3)))
        np.testing.assert_allclose(trace.weights, [1.0])
        np.testing.assert_allclose(trace.fused, f)

    def test_identical_embeddings_uniform_weights(self):
        f = np.array([0.3, 0.4])
        cross = np.tile(f, (3, 1))
        trace = attend(f, cross)
        np.testing.assert_allclose(trace.weights, np.full(4, 0.25), atol=1e-12)
        np.testing.assert_allclose(trace.fused, f, atol=1e-12)

    def test_hand_computed_three_embeddings(self):
        f_user = np.array([1.0, 0.0])
        cross = np.array([[0.5, 0.5], [-1.0, 1.0]])
        sims = np.array([0.5, -1.0, 1.0])  # inner products with the user last
        ex = np.exp(sims - sims.max())
        alpha = ex / ex.sum()
        stacked = np.vstack([cross, f_user])
        fused = alpha @ stacked
        trace = attend(f_user, cross)
        np.testing.assert_allclose(trace.similarities, sims, atol=1e-12)
        np.testing.assert_allclose(trace.weights, alpha, atol=1e-12)
        np.testing.assert_allclose(trace.fused, fused, atol=1e-12)

    def test_weights_shift_invariant(self):
        # adding a constant vector direction that shifts all inner products
        # equally cannot change the weights
        rng = np.random.default_rng(3)
        f = rng.normal(size=4)
        cross = rng.normal(size=(3, 4))
        trace = attend(f, cross)
        assert trace.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(trace.weights >= 0)


    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(4)
        users = rng.normal(size=(2, 3, 4))
        cross = rng.normal(size=(2, 3, 5, 4))
        trace = attend(users, cross)
        assert trace.stacked.shape == (2, 3, 6, 4)
        for idx in np.ndindex(2, 3):
            row = attend(users[idx], cross[idx])
            assert np.array_equal(trace.stacked[idx], row.stacked)
            assert np.array_equal(trace.similarities[idx], row.similarities)
            assert np.array_equal(trace.weights[idx], row.weights)
            assert np.array_equal(trace.fused[idx], row.fused)

    def test_batched_without_cross_users(self):
        users = np.array([[1.0, 2.0], [-0.5, 0.25]])
        trace = attend(users, np.zeros((2, 0, 2)))
        assert np.array_equal(trace.weights, np.ones((2, 1)))
        assert np.array_equal(trace.fused, users)

    @pytest.mark.parametrize(
        "user_shape, cross_shape",
        [((3,), (2, 4)), ((3,), (3,)), ((2, 3), (3, 2, 3)), ((2, 3), (2, 2, 4))],
    )
    def test_mismatched_shapes_rejected(self, user_shape, cross_shape):
        with pytest.raises(ParameterError):
            attend(np.ones(user_shape), np.ones(cross_shape))

class TestEncoder:
    def test_zero_parameters_zero_embedding(self):
        net = CrossUserAttentiveNet(hidden=6, seed=0)
        net.store.from_vector(np.zeros(net.store.size))
        f, _ = net.encode(np.array([[0.5, -0.5], [0.1, 0.2]]))
        np.testing.assert_allclose(f, 0.0, atol=1e-15)

    def test_prefix_causality(self):
        net = CrossUserAttentiveNet(hidden=5, seed=1)
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, (6, 2))
        full, _ = net.encode(seq)
        _, state = net.encode(seq[:4])
        resumed, _ = net.encode(seq[4:], state=state)
        np.testing.assert_allclose(full, resumed, atol=1e-12)

    def test_matches_chained_scalar_steps(self):
        from tile360.nn import lstm_step

        net = CrossUserAttentiveNet(hidden=4, seed=3)
        rng = np.random.default_rng(4)
        seq = rng.uniform(-1, 1, (3, 2))
        h1 = c1 = h2 = c2 = np.zeros(4)
        for x in seq:
            h1, c1, _ = lstm_step(net.enc1, x, h1, c1)
            h2, c2, _ = lstm_step(net.enc2, h1, h2, c2)
        f, _ = net.encode(seq)
        np.testing.assert_allclose(f, h2, atol=1e-12)


class TestAttentivePrediction:
    def test_zero_parameters_predict_origin(self):
        net = CrossUserAttentiveNet(hidden=4, seed=0)
        net.store.from_vector(np.zeros(net.store.size))
        task = make_task(np.tile([0.3, -0.2], (3, 1)), horizon=4)
        out = net.predict(task)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_outputs_in_tanh_range(self):
        net = CrossUserAttentiveNet(hidden=8, seed=5)
        rng = np.random.default_rng(6)
        task = make_task(
            rng.uniform(-1, 1, (4, 2)), cross=rng.uniform(-1, 1, (3, 9, 2)), horizon=5
        )
        out = net.predict(task)
        assert np.all(np.abs(out) < 1.0)

    def test_single_step_matches_manual_composition(self):
        net = CrossUserAttentiveNet(hidden=5, seed=7)
        rng = np.random.default_rng(8)
        history = rng.uniform(-0.5, 0.5, (4, 2))
        cross = rng.uniform(-0.5, 0.5, (2, 5, 2))
        task = make_task(history, cross=cross, horizon=1)
        out = net.predict(task)
        f_user, _ = net.encode(history)
        f_cross = np.stack([net.encode(cross[i, :5])[0] for i in range(2)])
        trace = attend(f_user, f_cross)
        manual = np.tanh(linear_forward(net.dec.w, net.dec.b, trace.fused))
        np.testing.assert_allclose(out[0], manual, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        net = CrossUserAttentiveNet(hidden=4, seed=9)
        rng = np.random.default_rng(10)
        history = rng.uniform(-0.5, 0.5, (2, 3, 2))
        cross = rng.uniform(-0.5, 0.5, (2, 2, 6, 2))
        preds = net.predict_batch(history, cross, 3)
        targets = preds + rng.choice([-1, 1], preds.shape) * rng.uniform(0.2, 0.5, preds.shape)

        def loss_fn(vec):
            net.store.from_vector(vec)
            loss, grads = net.loss_and_grad(history, cross, targets)
            return loss, grads.to_vector()

        err = finite_diff_check(loss_fn, net.store.to_vector())
        assert err < 1e-3

    def test_zero_init_loss_is_l1_of_targets(self):
        net = CrossUserAttentiveNet(hidden=4, seed=11)
        net.store.from_vector(np.zeros(net.store.size))
        rng = np.random.default_rng(12)
        history = rng.uniform(-0.5, 0.5, (3, 4, 2))
        cross = rng.uniform(-0.5, 0.5, (3, 2, 7, 2))
        targets = rng.uniform(-0.8, 0.8, (3, 3, 2))
        loss, _ = net.loss_and_grad(history, cross, targets)
        assert loss == pytest.approx(float(np.abs(targets).sum()) / 3, abs=1e-12)

    def test_training_learns_constant_signal(self):
        # one shared constant trajectory: the decoder bias alone can fit it
        rng = np.random.default_rng(13)
        point = rng.uniform(-0.4, 0.4, 2)
        hist = np.tile(point, (3, 1))
        cross = np.tile(point, (2, 6, 1)).reshape(2, 6, 2)
        tasks = [
            PredictionTask(history=hist, cross=cross, horizon=3, targets=np.tile(point, (3, 1)))
            for _ in range(64)
        ]
        net = CrossUserAttentiveNet(hidden=6, seed=14)
        losses = train_attentive(
            net,
            tasks,
            CuanTrainConfig(epochs=50, batch_size=4, learning_rate=1e-2, lr_decay=0.88, seed=0),
        )
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_training_is_seed_reproducible(self):
        rng = np.random.default_rng(15)
        tasks = []
        for _ in range(8):
            hist = rng.uniform(-0.3, 0.3, (3, 2))
            cross = rng.uniform(-0.3, 0.3, (2, 5, 2))
            tasks.append(
                PredictionTask(history=hist, cross=cross, horizon=2, targets=rng.uniform(-0.3, 0.3, (2, 2)))
            )
        results = []
        for _ in range(2):
            net = CrossUserAttentiveNet(hidden=4, seed=3)
            train_attentive(net, tasks, CuanTrainConfig(epochs=3, batch_size=4, seed=7))
            results.append(net.store.to_vector())
        np.testing.assert_array_equal(results[0], results[1])


class TestStackTasks:
    def test_requires_targets(self):
        task = make_task(np.zeros((2, 2)), horizon=2)
        with pytest.raises(ParameterError):
            stack_tasks([task])
