"""Acceptance suite: one test per release criterion, with a printed verdict.

Each test prints "[criterion N] PASS/FAIL ..." so a bare ``pytest -s
tests/test_acceptance.py`` reads as a checklist. The desk-scale worlds used
here were sized so the whole suite runs on one core in well under half an
hour; training-dependent criteria use frozen seeds.
"""

import dataclasses
import time

import numpy as np
import pytest

from tile360.agent import (
    EpisodeWorld,
    PolicyNet,
    StateEncoder,
    TrainConfig,
    ValueNet,
    evaluate_policy,
    policy_loss_and_grad,
    train,
    value_loss_and_grad,
)
from tile360.baselines import brute_force_oracle
from tile360.environment import NetworkTrace, StreamEnv, VideoManifest
from tile360.geometry import (
    TileGrid,
    Viewpoint,
    angular_errors,
    hit_rate,
    neighbor_map,
    viewing_probabilities,
    wrap_longitude,
)
from tile360.harness import (
    ExperimentConfig,
    StreamWorld,
    probs_schedule,
    run_bb_episode,
    run_experiment,
    replay,
    sample_tasks,
)
from tile360.nn import finite_diff_check
from tile360.predictors import (
    CrossUserAttentiveNet,
    CuanTrainConfig,
    predict_knn,
    predict_lr,
    predict_static,
    train_attentive,
)
from tile360.qoe import QoeWeights, SegmentDecision, spatial_variation, viewport_quality
from tile360.sequential import DecisionOrder, DecisionPass, decision_order
from tile360.synth import TraceSpec, TrajectorySpec, synthesize_traces, synthesize_trajectories

# the release criteria take minutes; `pytest -m "not acceptance"` skips them
pytestmark = pytest.mark.acceptance


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every trainable network
# ---------------------------------------------------------------------------

class TestCriterion1Gradients:
    TOL = 1e-3
    POINTS = 10

    def test_gradients(self):
        t0 = time.time()
        rng = np.random.default_rng(11)

        # attentive predictor: full rolling L1 loss
        net = CrossUserAttentiveNet(hidden=3, seed=0)
        history = rng.uniform(-0.5, 0.5, (1, 2, 2))
        cross = rng.uniform(-0.5, 0.5, (1, 2, 4, 2))
        worst_cuan = 0.0
        for point in range(self.POINTS):
            point_rng = np.random.default_rng(100 + point)
            vec = point_rng.uniform(-0.4, 0.4, net.store.size)
            net.store.from_vector(vec)
            # offset targets keep residuals away from the L1 kink
            preds = net.predict_batch(history, cross, 2)
            targets = preds + point_rng.choice([-1.0, 1.0], preds.shape) * point_rng.uniform(
                0.2, 0.5, preds.shape
            )

            def loss_fn(v):
                net.store.from_vector(v)
                loss, grads = net.loss_and_grad(history, cross, targets)
                return loss, grads.to_vector()

            worst_cuan = max(worst_cuan, finite_diff_check(loss_fn, vec))

        # policy (with entropy term) and value networks
        from tile360.sequential import TileDecisionState

        def random_state(seed):
            r = np.random.default_rng(seed)
            return TileDecisionState(
                tile=0,
                chunk_sizes=np.sort(r.uniform(0.1, 2.0, 3)),
                neighbor_probs=r.uniform(0, 0.3, 8),
                neighbor_rates=r.uniform(0, 1.0, 8),
                neighbor_decided=r.integers(0, 2, 8).astype(float),
                neighbor_tiles=np.arange(8),
                throughput_est=float(r.uniform(1, 6)),
                last_viewport_quality=float(r.uniform(0, 1)),
                tile_prob=float(r.uniform(0, 1)),
                buffer_est=float(r.uniform(0, 6)),
            )

        encoder = StateEncoder(
            n_levels=3, chunk_scale=2.0, rate_scale=1.0, throughput_scale=8.0, buffer_scale=6.0
        )
        policy = PolicyNet(encoder, filters=4, scalar_units=4, seed=1)
        value = ValueNet(encoder, filters=4, scalar_units=4, seed=2)
        states = [random_state(s) for s in range(4)]
        actions = np.array([0, 2, 1, 1])
        advantages = rng.normal(0, 1, 4)
        targets_v = rng.normal(0, 2, 4)
        worst_policy = 0.0
        worst_value = 0.0
        for point in range(self.POINTS):
            point_rng = np.random.default_rng(200 + point)
            beta = float(point_rng.uniform(0.1, 1.0))
            vec_p = point_rng.uniform(-0.4, 0.4, policy.store.size)
            vec_v = point_rng.uniform(-0.4, 0.4, value.store.size)

            def p_loss(v):
                policy.store.from_vector(v)
                loss, grads = policy_loss_and_grad(policy, states, actions, advantages, beta)
                return loss, grads.to_vector()

            def v_loss(v):
                value.store.from_vector(v)
                loss, grads = value_loss_and_grad(value, states, targets_v)
                return loss, grads.to_vector()

            worst_policy = max(worst_policy, finite_diff_check(p_loss, vec_p))
            worst_value = max(worst_value, finite_diff_check(v_loss, vec_v))

        elapsed = time.time() - t0
        passed = (
            worst_cuan < self.TOL
            and worst_policy < self.TOL
            and worst_value < self.TOL
            and elapsed < 60.0
        )
        report(
            1,
            passed,
            f"max rel err attentive {worst_cuan:.2e}, policy {worst_policy:.2e}, "
            f"value {worst_value:.2e} over {self.POINTS} points each, {elapsed:.1f}s",
        )
        assert worst_cuan < self.TOL
        assert worst_policy < self.TOL
        assert worst_value < self.TOL
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: per-tile reward terms sum to the segment terms exactly
# ---------------------------------------------------------------------------

class TestCriterion2RewardIdentities:
    def test_identities(self):
        rng = np.random.default_rng(2)
        grid = TileGrid(3, 3)
        manifest = VideoManifest.synthetic(
            grid, 4, level_mbps=(0.5, 1.0, 2.0, 4.0, 8.0), seed=3, jitter_sigma=0.2
        )
        neighbors = neighbor_map(grid)
        from tile360.environment import StreamState

        worst_q1 = 0.0
        worst_q3 = 0.0
        orders = list(DecisionOrder)
        for trial in range(1000):
            probs = rng.dirichlet(np.ones(9) * 0.8)
            if trial % 4 == 0:
                probs[rng.integers(0, 9)] = 0.0
                probs = probs / probs.sum()
            stream = StreamState(
                segment_index=int(rng.integers(0, 4)),
                buffer_s=float(rng.uniform(0, 6)),
                download_history=((float(rng.uniform(0.5, 4)), 1.0),),
                last_viewport_quality=float(rng.uniform(0, 1)),
            )
            plan = decision_order(probs, orders[trial % 4], seed=trial)
            walk = DecisionPass(stream, plan, manifest, probs, QoeWeights())
            q1_sum = 0.0
            q3_sum = 0.0
            while not walk.done:
                state = walk.state()
                action = 0 if walk.forced else int(rng.integers(0, 5))
                r = manifest.tile_rates[walk.current_tile][action]
                q1_sum += state.tile_prob * r
                seen = set()
                for k in range(8):
                    u = int(state.neighbor_tiles[k])
                    if u < 0 or u in seen or state.neighbor_decided[k] == 0:
                        continue
                    seen.add(u)
                    q3_sum += state.tile_prob * state.neighbor_probs[k] * abs(
                        r - state.neighbor_rates[k]
                    )
                walk.advance(state, action)
            decision = walk.decision()
            worst_q1 = max(worst_q1, abs(q1_sum - viewport_quality(decision)))
            worst_q3 = max(worst_q3, abs(q3_sum - spatial_variation(decision, neighbors)))
        passed = worst_q1 < 1e-12 and worst_q3 < 1e-12
        report(2, passed, f"1000 trials, max |dq1| {worst_q1:.2e}, max |dq3| {worst_q3:.2e}")
        assert worst_q1 < 1e-12
        assert worst_q3 < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: time conservation and buffer bounds over 100 episodes
# ---------------------------------------------------------------------------

class TestCriterion3Conservation:
    def test_conservation(self):
        worst_gap = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            grid = TileGrid(2, 2)
            manifest = VideoManifest.synthetic(
                grid, 12, level_mbps=(0.5, 2.0, 8.0), seed=seed, jitter_sigma=0.2
            )
            trace = synthesize_traces(TraceSpec(duration_s=40.0, seed=seed), 1)[0].augmented()
            cap = float(rng.uniform(2.0, 8.0))
            env = StreamEnv(manifest, trace, buffer_cap_s=cap)
            env.reset(seed=seed)
            probs = rng.dirichlet(np.ones(4))
            while not env.done:
                d = SegmentDecision(
                    levels=rng.integers(0, 3, 4),
                    ladder=manifest.tile_rates,
                    probs=probs,
                    segment_index=env.segment_index,
                )
                result = env.step(d, probs)
                assert -1e-12 <= result.state.buffer_s <= cap + 1e-12
            acct = env.account
            wall = acct.playing_download_s + acct.rebuffer_s + acct.idle_s
            worst_gap = max(worst_gap, abs(wall - acct.trace_consumed_s))
        passed = worst_gap < 1e-9
        report(3, passed, f"100 episodes, max |wall - trace consumed| {worst_gap:.2e} s")
        assert worst_gap < 1e-9


# ---------------------------------------------------------------------------
# shared desk-scale worlds for criteria 4-7
# ---------------------------------------------------------------------------

def build_rl_world(seed=0, n_videos=4, n_traces=10, n_segments=3, buffer_cap=6.0):
    """4-tile, 3-level world with 10 augmented traces (criteria 5 and 7)."""
    grid = TileGrid(2, 2)
    levels = (0.5, 2.0, 4.0)
    traces = [
        t.augmented()
        for t in synthesize_traces(TraceSpec(duration_s=60.0, seed=seed + 50), n_traces)
    ]
    manifests, schedules = [], []
    for v in range(n_videos):
        manifests.append(
            VideoManifest.synthetic(grid, n_segments, level_mbps=levels, seed=seed + v)
        )
        traj = synthesize_trajectories(
            TrajectorySpec(users=1, duration_s=n_segments + 2.0, seed=seed + 100 + v)
        )[0]
        actual = probs_schedule(traj, grid, (100.0, 100.0), n_segments, 1.0)
        schedules.append((actual, actual))
    return StreamWorld(
        manifests=manifests,
        traces=traces,
        schedules=schedules,
        weights=QoeWeights(),
        buffer_cap_s=buffer_cap,
    )


def rl_eval_episodes(world, n=10, base=1000):
    return [
        world.episode(k % len(world.manifests), k % len(world.traces), reset_seed=base + 7 * k)
        for k in range(n)
    ]


RL_TRAIN_CONFIG = TrainConfig(
    max_iterations=60_000,
    workers=4,
    seed=0,
    entropy_init=0.5,
    entropy_decay=0.3,
    entropy_decay_interval=10_000,
    filters=32,
    scalar_units=32,
)


@pytest.fixture(scope="module")
def trained_rl_agent():
    world = build_rl_world()
    result = train(world.episode_factory(), world.encoder(), RL_TRAIN_CONFIG)
    return world, result


# ---------------------------------------------------------------------------
# criterion 4: exhaustive oracle dominates every controller
# ---------------------------------------------------------------------------

class TestCriterion4OracleBound:
    def test_oracle_dominates(self):
        grid = TileGrid(1, 2)
        manifest_seed = 7
        levels = (1.0, 4.0)
        traces = [
            t.augmented()
            for t in synthesize_traces(TraceSpec(duration_s=40.0, seed=99), 5)
        ]

        def make_world(instance):
            manifest = VideoManifest.synthetic(
                grid, 3, level_mbps=levels, seed=manifest_seed + instance % 3
            )
            traj = synthesize_trajectories(
                TrajectorySpec(users=1, duration_s=5.0, seed=300 + instance)
            )[0]
            actual = probs_schedule(traj, grid, (100.0, 100.0), 3, 1.0)
            trace = traces[instance % len(traces)]
            env = StreamEnv(manifest, trace, buffer_cap_s=4.0)
            return EpisodeWorld(
                env=env, predicted=actual, actual=actual, reset_seed=instance
            )

        # a quickly trained agent on the same family of instances
        world0 = make_world(0)
        encoder = StateEncoder.for_manifest(world0.env.manifest, 4.0)

        def factory(rng):
            return make_world(int(rng.integers(0, 50)))

        result = train(
            factory,
            encoder,
            TrainConfig(
                max_iterations=3000,
                workers=2,
                seed=0,
                entropy_init=0.5,
                entropy_decay=0.3,
                entropy_decay_interval=600,
                filters=8,
                scalar_units=8,
            ),
        )

        from tile360.harness import run_agent_episode, run_greedy_episode

        violations = 0
        for instance in range(50):
            ep = make_world(instance)
            _, oracle_value = brute_force_oracle(ep.env, ep.actual, reset_seed=ep.reset_seed)
            competitors = {
                "bb": run_bb_episode(make_world(instance))["mean_qoe"] * 3,
                "greedy": run_greedy_episode(make_world(instance))["mean_qoe"] * 3,
                "agent": run_agent_episode(make_world(instance), result.policy)["mean_qoe"] * 3,
            }
            for name, total in competitors.items():
                if total > oracle_value + 1e-9:
                    violations += 1
        passed = violations == 0
        report(4, passed, f"50 instances x 3 controllers, {violations} dominance violations")
        assert violations == 0


# ---------------------------------------------------------------------------
# criterion 5: desk-scale learning reaches >= 90% of the oracle and beats BB
# ---------------------------------------------------------------------------

class TestCriterion5DeskScaleLearning:
    def test_learning(self, trained_rl_agent):
        world, result = trained_rl_agent
        assert RL_TRAIN_CONFIG.max_iterations <= 200_000
        t0 = time.time()
        episodes = rl_eval_episodes(world)
        oracle_means = []
        for ep in episodes:
            _, val = brute_force_oracle(ep.env, ep.actual, reset_seed=ep.reset_seed)
            oracle_means.append(val / world.manifests[0].n_segments)
        oracle = float(np.mean(oracle_means))
        agent = evaluate_policy(result.policy, rl_eval_episodes(world))["mean_qoe"]
        bb = float(
            np.mean([run_bb_episode(ep)["mean_qoe"] for ep in rl_eval_episodes(world)])
        )
        elapsed = time.time() - t0
        passed = agent >= 0.9 * oracle and agent > bb
        report(
            5,
            passed,
            f"agent {agent:.4f} vs oracle {oracle:.4f} (ratio {agent / oracle:.2f}) "
            f"and BB {bb:.4f}; eval {elapsed:.0f}s after {RL_TRAIN_CONFIG.max_iterations} steps",
        )
        assert agent >= 0.9 * oracle
        assert agent > bb


# ---------------------------------------------------------------------------
# criterion 6: decision-order ablation direction across 5 seeds
# ---------------------------------------------------------------------------

def build_order_world(seed=0, n_videos=3, n_traces=8, n_segments=10):
    """2x4-tile, 2-level world where allocation must track probabilities."""
    grid = TileGrid(2, 4)
    traces = [
        t.augmented(cap_mbps=6.0)
        for t in synthesize_traces(
            TraceSpec(duration_s=60.0, mean_mbps=1.0, volatility=0.5, seed=seed + 70), n_traces
        )
    ]
    manifests, schedules = [], []
    for v in range(n_videos):
        manifests.append(
            VideoManifest.synthetic(grid, n_segments, level_mbps=(0.5, 5.0), seed=seed + v)
        )
        traj = synthesize_trajectories(
            TrajectorySpec(
                users=1,
                duration_s=n_segments + 2.0,
                seed=seed + 200 + v,
                pan_speed_deg_s=(20.0, 70.0),
            )
        )[0]
        schedules.append(
            (probs_schedule(traj, grid, (120.0, 100.0), n_segments, 1.0),) * 2
        )
    return StreamWorld(
        manifests=manifests,
        traces=traces,
        schedules=schedules,
        weights=QoeWeights(),
        buffer_cap_s=6.0,
    )


class TestCriterion6DecisionOrder:
    def test_order_direction(self):
        world = build_order_world()
        episodes = [
            world.episode(k % len(world.manifests), k % len(world.traces), reset_seed=3000 + 13 * k)
            for k in range(24)
        ]
        steps = 36_000
        wins = 0
        lines = []
        for seed in range(5):
            row = {}
            for order in (
                DecisionOrder.HIGH_TO_LOW,
                DecisionOrder.RANDOM,
                DecisionOrder.LOW_TO_HIGH,
            ):
                cfg = TrainConfig(
                    max_iterations=steps,
                    workers=4,
                    seed=seed,
                    entropy_init=1.0,
                    entropy_decay=0.5,
                    entropy_decay_interval=steps // 4,
                    filters=16,
                    scalar_units=16,
                    order=order,
                )
                result = train(world.episode_factory(), world.encoder(), cfg)
                row[order.value] = evaluate_policy(result.policy, episodes, order=order)[
                    "mean_qoe"
                ]
            ordered = row["high_to_low"] >= row["random"] >= row["low_to_high"]
            wins += ordered
            lines.append(
                f"seed {seed}: H2L {row['high_to_low']:.4f} >= RND {row['random']:.4f} "
                f">= L2H {row['low_to_high']:.4f}: {ordered}"
            )
        passed = wins >= 4
        report(6, passed, f"{wins}/5 seeds ordered; " + "; ".join(lines))
        assert wins >= 4


# ---------------------------------------------------------------------------
# criterion 7: buffer-cap insensitivity of a fixed trained agent
# ---------------------------------------------------------------------------

class TestCriterion7BufferCap:
    def test_insensitivity(self, trained_rl_agent):
        world, result = trained_rl_agent
        grid = world.manifests[0].grid
        n_seg = 30
        manifests, schedules = [], []
        for v in range(4):
            manifests.append(
                VideoManifest.synthetic(grid, n_seg, level_mbps=(0.5, 2.0, 4.0), seed=1000 + v)
            )
            traj = synthesize_trajectories(
                TrajectorySpec(users=1, duration_s=n_seg + 2.0, seed=1100 + v)
            )[0]
            actual = probs_schedule(traj, grid, (100.0, 100.0), n_seg, 1.0)
            schedules.append((actual, actual))
        means = {}
        for cap in (2.0, 4.0, 6.0, 8.0, 10.0):
            capped = StreamWorld(
                manifests=manifests,
                traces=world.traces,
                schedules=schedules,
                weights=QoeWeights(),
                buffer_cap_s=cap,
            )
            episodes = [
                capped.episode(k % 4, k % len(world.traces), reset_seed=500 + 3 * k)
                for k in range(8)
            ]
            means[cap] = evaluate_policy(result.policy, episodes)["mean_qoe"]
        values = np.array(list(means.values()))
        spread = float(values.max() - values.min())
        rel = spread / abs(values.mean())
        passed = rel <= 0.02
        report(
            7,
            passed,
            f"mean QoE by cap {dict((k, round(v, 5)) for k, v in means.items())}, "
            f"spread {100 * rel:.2f}% of mean",
        )
        assert rel <= 0.02


# ---------------------------------------------------------------------------
# criterion 8: predictor ordering on synthetic data at the 5-second horizon
# ---------------------------------------------------------------------------

PRED_GRID = TileGrid(3, 3)
PRED_FOV = (100.0, 100.0)
PRED_CADENCE = 3.0
PRED_HISTORY = 3     # 1 second
PRED_HORIZON = 15    # 5 seconds
PRED_CROSS = 12
PRED_KNN_K = 5
# tiles covering under 5% of the FoV do not count as "viewed"; with the
# threshold at zero any sliver counts and diffuse multi-user supports
# saturate recall, masking positional quality
PRED_HIT_THRESHOLD = 0.05


def build_prediction_videos(seed, n_videos=6, users=16):
    videos = {}
    for v in range(n_videos):
        spec = TrajectorySpec(
            users=users,
            duration_s=40.0,
            cadence_hz=PRED_CADENCE,
            pan_speed_deg_s=(8.0, 45.0),
            user_lag_s=(0.0, 0.3),
            user_gain=(0.8, 1.2),
            user_noise_deg=2.5,
            seed=seed + 997 * v,
        )
        videos[f"v{v}"] = synthesize_trajectories(spec, video_id=f"v{v}")
    return videos


@pytest.fixture(scope="module")
def prediction_benchmark():
    videos = build_prediction_videos(seed=0)
    rng = np.random.default_rng(0)
    train_tasks = sample_tasks(videos, 1024, PRED_HISTORY, PRED_HORIZON, PRED_CROSS, rng)
    net = CrossUserAttentiveNet(hidden=32, seed=0)
    train_attentive(
        net,
        train_tasks,
        CuanTrainConfig(epochs=45, batch_size=32, learning_rate=2e-3, lr_decay=0.95, seed=0),
    )
    eval_videos = build_prediction_videos(seed=5_000_000)
    eval_tasks = sample_tasks(
        eval_videos, 200, PRED_HISTORY, PRED_HORIZON, PRED_CROSS, np.random.default_rng(1)
    )
    return net, eval_tasks


class TestCriterion8PredictorOrdering:
    def test_hit_rate_ordering(self, prediction_benchmark):
        net, tasks = prediction_benchmark
        idx = PRED_HORIZON - 1
        hits = {"static": [], "lr": [], "knn": [], "attentive": []}
        for task in tasks:
            actual = viewing_probabilities(
                task.denormalize(task.targets)[idx], PRED_GRID, *PRED_FOV
            )

            def point_hit(points):
                vp = task.denormalize(points)[idx]
                return hit_rate(
                    viewing_probabilities(vp, PRED_GRID, *PRED_FOV),
                    actual,
                    PRED_HIT_THRESHOLD,
                )

            hits["static"].append(point_hit(predict_static(task)))
            hits["lr"].append(point_hit(predict_lr(task)))
            _, probs = predict_knn(task, k=PRED_KNN_K, grid=PRED_GRID, fov_deg=PRED_FOV)
            hits["knn"].append(hit_rate(probs[idx], actual, PRED_HIT_THRESHOLD))
            hits["attentive"].append(point_hit(net.predict(task)))
        means = {k: float(np.mean(v)) for k, v in hits.items()}
        gap = 0.01
        passed = (
            means["attentive"] >= means["knn"] + gap
            and means["knn"] >= means["lr"] + gap
            and means["attentive"] >= means["static"] + gap
        )
        report(
            8,
            passed,
            f"hit rates at 5 s over {len(tasks)} tasks: "
            + ", ".join(f"{k} {v:.4f}" for k, v in means.items()),
        )
        assert means["attentive"] >= means["knn"] + gap
        assert means["knn"] >= means["lr"] + gap
        assert means["attentive"] >= means["static"] + gap

    def test_longitude_error_below_least_squares(self, prediction_benchmark):
        # the trained net's 5-second wrapped longitude error must beat the
        # least-squares extrapolation it is meant to amend
        net, tasks = prediction_benchmark
        idx = PRED_HORIZON - 1
        att_errs, lr_errs = [], []
        for task in tasks:
            actual_vp = task.denormalize(task.targets)[idx]
            att_vp = task.denormalize(net.predict(task))[idx]
            lr_vp = task.denormalize(predict_lr(task))[idx]
            att_errs.append(angular_errors(att_vp, actual_vp)[0])
            lr_errs.append(angular_errors(lr_vp, actual_vp)[0])
        assert float(np.mean(att_errs)) < float(np.mean(lr_errs))


# ---------------------------------------------------------------------------
# criterion 9: metric oracles
# ---------------------------------------------------------------------------

class TestCriterion9MetricCorrectness:
    def test_metrics(self):
        t0 = time.time()
        # Monte-Carlo check of the FoV overlap probabilities
        grid = TileGrid(3, 3)
        rng = np.random.default_rng(9)
        worst = 0.0
        for vp in (Viewpoint(0.0, 0.0), Viewpoint(150.0, 35.0), Viewpoint(-170.0, -50.0)):
            probs = viewing_probabilities(vp, grid, 100.0, 100.0)
            n = 1_000_000
            lons = vp.lon + rng.uniform(-50.0, 50.0, n)
            lats = vp.lat + rng.uniform(-50.0, 50.0, n)
            keep = (lats >= -90.0) & (lats <= 90.0)
            lons, lats = lons[keep], lats[keep]
            cols = np.minimum((((lons + 180.0) % 360.0) / 120.0).astype(int), 2)
            rows = np.minimum(((90.0 - lats) / 60.0).astype(int), 2)
            counts = np.bincount(rows * 3 + cols, minlength=9) / keep.sum()
            worst = max(worst, float(np.abs(probs - counts).max()))
        mc_ok = worst < 1e-3

        # exact set-overlap and wrap-distance cases
        cases_ok = (
            hit_rate(np.array([0, 0, 1, 1, 1, 1.0]), np.array([0, 1, 1, 1, 1, 0.0])) == 0.75
            and hit_rate(np.zeros(3), np.zeros(3)) == 1.0
            and angular_errors(Viewpoint(179, 10), Viewpoint(-179, -10)) == (2.0, 20.0)
            and angular_errors(Viewpoint(0, 90), Viewpoint(0, -90)) == (0.0, 180.0)
            and wrap_longitude(-181.0) == 179.0
        )
        elapsed = time.time() - t0
        passed = mc_ok and cases_ok and elapsed < 60.0
        report(
            9,
            passed,
            f"Monte-Carlo max |dp| {worst:.2e} over 3 viewpoints; exact cases "
            f"{'ok' if cases_ok else 'failed'}; {elapsed:.1f}s",
        )
        assert mc_ok and cases_ok
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 10: experiments replay byte-identically from their summaries
# ---------------------------------------------------------------------------

class TestCriterion10Reproducibility:
    def test_replay_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            kind="stream",
            out_dir=str(tmp_path / "orig"),
            seed=17,
            trajectories=TrajectorySpec(users=2, duration_s=12.0, seed=17),
            n_videos=2,
            n_traces=2,
            traces=TraceSpec(duration_s=30.0, seed=17),
            abr=("bb", "greedy"),
            grid_rows=2,
            grid_cols=2,
            levels_mbps=(1.0, 2.0, 4.0),
            n_segments=10,
        )
        run_experiment(cfg)
        replay(tmp_path / "orig" / "summary.json", tmp_path / "replayed")
        identical = True
        for name in ("streaming_metrics.csv", "qoe_breakdown.csv"):
            a = (tmp_path / "orig" / name).read_bytes()
            b = (tmp_path / "replayed" / name).read_bytes()
            identical = identical and a == b
        # and the prediction experiment kind as well
        cfg_p = ExperimentConfig(
            kind="predict",
            out_dir=str(tmp_path / "orig_p"),
            seed=23,
            trajectories=TrajectorySpec(users=5, duration_s=10.0, seed=23),
            n_videos=2,
            predictors=("static", "lr", "knn"),
            horizons_s=(0.5, 1.0),
            history_s=0.5,
            n_tasks=6,
            cross_users=3,
            knn_k=3,
        )
        run_experiment(cfg_p)
        replay(tmp_path / "orig_p" / "summary.json", tmp_path / "replayed_p")
        a = (tmp_path / "orig_p" / "prediction_metrics.csv").read_bytes()
        b = (tmp_path / "replayed_p" / "prediction_metrics.csv").read_bytes()
        identical = identical and a == b
        report(10, identical, "stream and predict experiments replay byte-identically")
        assert identical
