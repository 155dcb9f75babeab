"""The benchmark's workloads.

Each workload is a closed loop in one process: every call into the program
waits for the one before it. A workload builds its seeded inputs once, then
repeats one round, a fixed list of phases, until the run's time is up. Every
round of a run does the same work, so rounds are comparable and ``failed``
is the same share of ``attempted`` in every run. Rounds are short, so that a
run holds many of them.

Program functions are called through their modules (``agent.train``, not a
name imported from ``tile360.agent``) so that a traced run sees the calls.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import checks
import worlds
from tile360 import agent, baselines, geometry, harness, predictors
from tile360.environment import StreamEnv
from tile360.geometry import Viewpoint
from tile360.qoe import SegmentDecision


@dataclasses.dataclass
class Round:
    """Seconds spent in each phase of one round, and what the round produced."""

    phases: dict[str, float]
    attempted: int
    failed: int
    outputs: object


class Phases:
    """Times consecutive phases of one round."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def run(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        return out


# ---------------------------------------------------------------------------
# agent_train: 360SRL actor-critic training on the decision-order world
# ---------------------------------------------------------------------------

class AgentTrain:
    """``agent.train`` on the 2x4-tile, 2-level, 3 videos x 8 traces world.

    A round is one whole training run of 200 segments. The checks train the
    same config to 12000 segments, which learns: there the greedy policy
    beats the same-seed untrained one on every seed tried. The rounds' log
    rows must be a prefix of that run's.
    """

    # phase -> (rate name, unit of the rate)
    PHASES = {"train": ("agent_train_segments_per_s", "segments/s")}
    EVAL_EPISODES = 24
    EVAL_BASE = 3000

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.learn_config = agent.TrainConfig(
            max_iterations=12000,
            workers=4,
            seed=seed,
            entropy_init=0.3,
            entropy_decay=0.5,
            entropy_decay_interval=3000,
            filters=16,
            scalar_units=16,
            policy_lr=1e-3,
        )
        self.config = dataclasses.replace(self.learn_config, max_iterations=100 if tiny else 200)

    def setup(self) -> None:
        self.world = worlds.build_order_world(self.seed)
        self.encoder = self.world.encoder()

    def run_round(self) -> Round:
        drawn = []
        factory = self.world.episode_factory()

        def recording_factory(rng):
            episode = factory(rng)
            drawn.append(episode)
            return episode

        phases = Phases()
        result = phases.run("train", agent.train, recording_factory, self.encoder, self.config)
        return Round(phases.seconds, len(drawn), len(result.incidents), (result, drawn))

    def work(self, r: Round) -> dict[str, float]:
        return {"train": r.outputs[0].log_rows[-1]["step"]}

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        long_run = agent.train(self.world.episode_factory(), self.encoder, self.learn_config)
        problems += checks.rows_finite(long_run.log_rows)
        for r in rounds:
            result, drawn = r.outputs
            problems += checks.steps_match_episodes(
                result.log_rows, [ep.env.manifest.n_segments for ep in drawn]
            )
            problems += checks.rows_finite(result.log_rows)
            problems += checks.rows_reproduced(long_run.log_rows, result.log_rows)
        untrained = agent.PolicyNet(
            self.encoder,
            filters=self.config.filters,
            scalar_units=self.config.scalar_units,
            seed=self.config.seed,
        )
        trained_qoe = self._greedy_qoe(long_run.policy, problems)
        untrained_qoe = self._greedy_qoe(untrained, problems)
        return problems + checks.learned(trained_qoe, untrained_qoe)

    def _greedy_qoe(self, policy, problems: list[str]) -> float:
        """Mean greedy QoE over fixed held-out episodes, checking each rollout."""
        qoes = []
        for episode in worlds.order_episodes(self.world, self.EVAL_EPISODES, self.EVAL_BASE):
            rollout = agent.run_episode(policy, episode, greedy=True)
            ladder = episode.env.manifest.tile_rates
            qoes.append(float(np.mean(rollout.top_rewards)))
            problems += checks.time_conserved(episode.env.account)
            problems += checks.under_qoe_bound(qoes[-1], episode.actual, ladder)
            problems += checks.q1_from_transitions(rollout.segments, ladder, rollout.breakdowns)
        return float(np.mean(qoes))

    def count_checks(self, calls: dict[str, int], rounds: list[Round]) -> list[str]:
        segments = sum(self.work(r)["train"] for r in rounds)
        drawn = [episode for r in rounds for episode in r.outputs[1]]
        in_fov = sum(int(np.count_nonzero(episode.predicted > 0.0)) for episode in drawn)
        # each episode starts by syncing the worker's policy and value nets
        return (
            checks.count_matches(
                "environment.StreamEnv.step", calls["environment.StreamEnv.step"], segments
            )
            + checks.count_matches("agent.select_action", calls["agent.select_action"], in_fov)
            + checks.count_matches("agent.TileNet.sync_from", calls["agent.TileNet.sync_from"], 2 * len(drawn))
        )


# ---------------------------------------------------------------------------
# cuan_predict: attentive-network training and four-predictor evaluation
# ---------------------------------------------------------------------------

class CuanPredict:
    """Train ``CrossUserAttentiveNet``, then evaluate all four predictors.

    Criterion 8's correlated videos: 3x3 tiles, 12 cross users, a 1 s
    history and a 5 s horizon. A round trains a fresh seeded net for two
    epochs, then runs ``harness.evaluate_prediction`` on held-out tasks at
    1, 3 and 5 s. The checks train a net on more tasks for one more epoch.
    """

    PHASES = {
        "train": ("cuan_train_tasks_per_s", "tasks/s"),
        "evaluate": ("predict_eval_tasks_per_s", "tasks/s"),
    }
    HORIZON_STEPS = (3, 9, 15)
    HIDDEN = 32
    GRADIENT_COORDS = 24
    # seam and pole viewpoints, plus seeded random ones
    EDGE_VIEWPOINTS = (
        (180.0, 0.0), (-180.0, 10.0), (179.9, -20.0), (-179.95, 45.0),
        (0.0, 90.0), (0.0, -90.0), (90.0, 85.0), (-45.0, -88.0),
    )

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_train, self.n_eval, self.n_check = (16, 4, 32) if tiny else (64, 32, 128)
        self.config = predictors.CuanTrainConfig(
            epochs=2, batch_size=32, learning_rate=2e-3, lr_decay=0.95, seed=seed
        )
        self.check_config = dataclasses.replace(self.config, epochs=3)

    def setup(self) -> None:
        self.check_tasks, self.eval_tasks = worlds.prediction_tasks(
            self.seed, self.n_check, self.n_eval
        )
        self.train_tasks = self.check_tasks[: self.n_train]

    def _net(self):
        return predictors.CrossUserAttentiveNet(hidden=self.HIDDEN, seed=self.seed)

    def run_round(self) -> Round:
        phases = Phases()
        net = self._net()
        losses = phases.run("train", predictors.train_attentive, net, self.train_tasks, self.config)
        bundle = harness.PredictorBundle(
            grid=worlds.PRED_GRID, fov_deg=worlds.PRED_FOV, knn_k=worlds.PRED_KNN_K, attentive=net
        )
        rows = phases.run(
            "evaluate", harness.evaluate_prediction,
            self.eval_tasks, bundle, harness.PREDICTOR_NAMES, self.HORIZON_STEPS,
        )
        return Round(phases.seconds, sum(self.work(None).values()), 0, (losses, rows))

    def work(self, r: Round | None) -> dict[str, float]:
        return {"train": self.n_train * self.config.epochs, "evaluate": self.n_eval}

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for r in rounds:
            losses, rows = r.outputs
            problems += checks.losses_fall(losses)
            problems += checks.evaluation_rows(rows)
        net = self._net()
        problems += checks.losses_fall(
            predictors.train_attentive(net, self.check_tasks, self.check_config)
        )
        problems += self._gradient_check(net)
        grid, fov = worlds.PRED_GRID, worlds.PRED_FOV
        for task in self.eval_tasks:
            problems += checks.lr_matches_polyfit(
                task.history, task.horizon, predictors.predict_lr(task)
            )
            for vp in task.denormalize(task.targets):
                problems += checks.probability_vector(geometry.viewing_probabilities(vp, grid, *fov))
            _, knn_probs = predictors.predict_knn(task, k=worlds.PRED_KNN_K, grid=grid, fov_deg=fov)
            for row in knn_probs:
                problems += checks.probability_vector(row)
        rng = np.random.default_rng(self.seed)
        random_vps = zip(rng.uniform(-180.0, 180.0, 8), rng.uniform(-90.0, 90.0, 8))
        for lon, lat in list(self.EDGE_VIEWPOINTS) + [(float(a), float(b)) for a, b in random_vps]:
            for grid, fov in ((worlds.PRED_GRID, worlds.PRED_FOV), (worlds.ORDER_GRID, worlds.ORDER_FOV)):
                probs = geometry.viewing_probabilities(Viewpoint(lon, lat), grid, *fov)
                problems += checks.probability_vector(probs)
                problems += checks.matches_raster(lon, lat, grid, fov, probs)
        return problems

    def _gradient_check(self, net) -> list[str]:
        history, cross, targets = predictors.stack_tasks(self.check_tasks[:2])
        params = net.store.to_vector()
        _, grads = net.loss_and_grad(history, cross, targets)

        def loss(vec):
            net.store.from_vector(vec)
            return net.loss_and_grad(history, cross, targets)[0]

        coords = np.random.default_rng(self.seed).choice(
            params.size, self.GRADIENT_COORDS, replace=False
        )
        try:
            return checks.central_difference(loss, params, grads.to_vector(), coords)
        finally:
            net.store.from_vector(params)

    def count_checks(self, calls: dict[str, int], rounds: list[Round]) -> list[str]:
        # no episode runs here, so the environment must not be stepped
        return checks.count_matches(
            "environment.StreamEnv.step", calls["environment.StreamEnv.step"], 0
        )


# ---------------------------------------------------------------------------
# stream_eval: ABR controllers on long episodes, and the exhaustive oracle
# ---------------------------------------------------------------------------

class StreamEval:
    """BB, greedy and agent controllers, then one oracle search, per round.

    The controllers play 60-segment episodes of the 2x4-tile world; the
    agent is a seeded untrained ``PolicyNet``, since inference costs the same
    whatever the weights. The oracle searches one of criterion 5's 2x2-tile,
    3-level, 3-segment instances per round (3^12 sequences); the seed picks
    which of the ten.
    """

    PHASES = {
        "bb": ("bb_segments_per_s", "segments/s"),
        "greedy": ("greedy_segments_per_s", "segments/s"),
        "agent": ("agent_eval_segments_per_s", "segments/s"),
        "oracle": ("oracle_searches_per_s", "searches/s"),
    }
    N_INSTANCES = 10
    EPISODE_BASE = 4000

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        if tiny:
            self.n_segments, self.oracle_segments = 10, 2
            self.episodes = {"bb": 2, "greedy": 2, "agent": 2}
        else:
            self.n_segments, self.oracle_segments = 60, 3
            # about a quarter of the round each, as long as the oracle search
            self.episodes = {"bb": 240, "greedy": 12, "agent": 24}

    def setup(self) -> None:
        self.world = worlds.build_order_world(self.seed, n_segments=self.n_segments)
        self.policy = self._untrained(self.world)
        self.oracle_world = worlds.build_rl_world(self.seed, n_segments=self.oracle_segments)
        self.oracle_policy = self._untrained(self.oracle_world)
        # one instance per run keeps every round the same work
        self.instance = worlds.rl_episode_indices(self.oracle_world, self.N_INSTANCES)[
            self.seed % self.N_INSTANCES
        ]

    def _untrained(self, world):
        return agent.PolicyNet(world.encoder(), filters=16, scalar_units=16, seed=self.seed)

    def _controllers(self, policy):
        return {
            "bb": harness.run_bb_episode,
            "greedy": harness.run_greedy_episode,
            "agent": lambda episode: harness.run_agent_episode(episode, policy),
        }

    def run_round(self) -> Round:
        phases = Phases()
        played = []
        for name, run in self._controllers(self.policy).items():
            episodes = worlds.order_episodes(self.world, self.episodes[name], self.EPISODE_BASE)
            stats = phases.run(name, lambda: [run(episode) for episode in episodes])
            played += zip(episodes, stats)
        video, trace, reset_seed = self.instance
        episode = self.oracle_world.episode(video, trace, reset_seed=reset_seed)
        best_seq, best_value = phases.run(
            "oracle", baselines.brute_force_oracle, episode.env, episode.actual, reset_seed=reset_seed
        )
        return Round(phases.seconds, len(played) + 1, 0, (played, best_seq, best_value))

    def work(self, r: Round | None) -> dict[str, float]:
        segments = {name: n * self.n_segments for name, n in self.episodes.items()}
        return {**segments, "oracle": 1}

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for r in rounds:
            played, best_seq, best_value = r.outputs
            for episode, stats in played:
                problems += checks.stream_episode(
                    stats, episode.env.account, episode.actual, episode.env.manifest.tile_rates
                )
            # every round searches the same instance: check the first search
            # against the controllers and a replay, the others against it
            problems += checks.oracle_repeated(rounds[0].outputs[1:], (best_seq, best_value))
        return problems + self._oracle_checks(*rounds[0].outputs[1:])

    def _oracle_checks(self, best_seq, best_value) -> list[str]:
        video, trace, reset_seed = self.instance
        totals = {}
        for name, run in self._controllers(self.oracle_policy).items():
            stats = run(self.oracle_world.episode(video, trace, reset_seed=reset_seed))
            totals[name] = stats["mean_qoe"] * stats["segments"]
        problems = checks.oracle_dominates(best_value, totals)
        world = self.oracle_world
        manifest, actual = world.manifests[video], world.schedules[video][1]
        if len(best_seq) != manifest.n_segments:
            problems.append(f"oracle sequence covers {len(best_seq)} of {manifest.n_segments} segments")
        env = StreamEnv(
            manifest, world.traces[trace], weights=world.weights, buffer_cap_s=world.buffer_cap_s
        )
        env.reset(seed=reset_seed)
        replayed = 0.0
        for depth, levels in enumerate(best_seq):
            decision = SegmentDecision(
                levels=levels, ladder=manifest.tile_rates, probs=actual[depth], segment_index=depth
            )
            replayed += env.step(decision, actual[depth]).reward
        return problems + checks.oracle_replayed(best_value, replayed)

    def count_checks(self, calls: dict[str, int], rounds: list[Round]) -> list[str]:
        # the oracle leaves its environment at the end of the winning
        # playthrough by stepping it once per segment of the best sequence
        segments = sum(
            sum(stats["segments"] for _, stats in r.outputs[0]) + len(r.outputs[1]) for r in rounds
        )
        return checks.count_matches(
            "environment.StreamEnv.step", calls["environment.StreamEnv.step"], segments
        )


WORKLOADS = {
    "agent_train": AgentTrain,
    "cuan_predict": CuanPredict,
    "stream_eval": StreamEval,
}
