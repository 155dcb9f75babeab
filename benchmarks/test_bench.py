"""Self-test of the benchmark.

    python3 -m pytest benchmarks/test_bench.py -q

Runs every workload at a tiny size, traced and untraced, and checks the
result line against BENCHMARK.json. Then shows that each output check
passes on a real output and fails on a corrupted copy of it.
"""

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worlds  # noqa: E402
from tile360 import agent, baselines, geometry, harness, predictors  # noqa: E402
from tile360.geometry import Viewpoint  # noqa: E402
from tracing import metric_names  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_matches_tracer():
    assert [m["name"] for m in BENCH["per_layer"]] == metric_names()


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------------------
# each check passes on a real output and fails on a corrupted one
# ---------------------------------------------------------------------------

def bumped(x: float) -> float:
    return float(np.nextafter(x, math.inf))


@pytest.fixture(scope="module")
def order_world():
    return worlds.build_order_world(0)


@pytest.fixture(scope="module")
def training(order_world):
    config = agent.TrainConfig(max_iterations=60, workers=2, seed=0, filters=4, scalar_units=4)
    drawn = []
    factory = order_world.episode_factory()

    def recording(rng):
        drawn.append(factory(rng))
        return drawn[-1]

    long_run = agent.train(order_world.episode_factory(), order_world.encoder(), config)
    short = agent.train(recording, order_world.encoder(), dataclasses.replace(config, max_iterations=30))
    return long_run.log_rows, short.log_rows, [ep.env.manifest.n_segments for ep in drawn]


def test_training_checks(training):
    long_rows, short_rows, segments = training
    assert checks.steps_match_episodes(short_rows, segments) == []
    assert checks.steps_match_episodes(short_rows, segments[:-1]) != []
    assert checks.rows_finite(long_rows) == []
    broken = copy.deepcopy(long_rows)
    broken[1]["q3"] = math.nan
    assert checks.rows_finite(broken) != []
    assert checks.rows_reproduced(long_rows, short_rows) == []
    broken = copy.deepcopy(short_rows)
    broken[-1]["mean_qoe"] = bumped(broken[-1]["mean_qoe"])
    assert checks.rows_reproduced(long_rows, broken) != []
    assert checks.learned(0.4, 0.1) == [] and checks.learned(0.1, 0.1) != []


def test_rollout_checks(order_world):
    policy = agent.PolicyNet(order_world.encoder(), filters=4, scalar_units=4, seed=0)
    episode = worlds.order_episodes(order_world, 1, 3000)[0]
    rollout = agent.run_episode(policy, episode, greedy=True)
    ladder = episode.env.manifest.tile_rates
    account = episode.env.account
    assert checks.time_conserved(account) == []
    assert checks.time_conserved(dataclasses.replace(account, idle_s=account.idle_s + 1e-6)) != []
    mean_qoe = float(np.mean(rollout.top_rewards))
    assert checks.under_qoe_bound(mean_qoe, episode.actual, ladder) == []
    bound = checks.qoe_upper_bound(episode.actual, ladder)
    assert checks.under_qoe_bound(bound + 1e-9, episode.actual, ladder) != []
    assert checks.q1_from_transitions(rollout.segments, ladder, rollout.breakdowns) == []
    segments = copy.deepcopy(rollout.segments)
    step = next(t for seg in segments for t in seg if not t.forced)
    step.action = 1 - step.action
    assert checks.q1_from_transitions(segments, ladder, rollout.breakdowns) != []


def test_stream_checks(order_world):
    episode = worlds.order_episodes(order_world, 1, 4000)[0]
    stats = harness.run_bb_episode(episode)
    args = (episode.env.account, episode.actual, episode.env.manifest.tile_rates)
    assert checks.stream_episode(stats, *args) == []
    for corrupt in (
        {"segments": stats["segments"] - 1},
        {"rebuffer_s": -1e-3},
        {"mean_qoe": 100.0},
        {"breakdowns": [dataclasses.replace(stats["breakdowns"][0], q1=100.0)]
         + stats["breakdowns"][1:]},
    ):
        assert checks.stream_episode({**stats, **corrupt}, *args) != [], corrupt


def test_oracle_checks():
    world = worlds.build_rl_world(0, n_segments=2)
    video, trace, reset_seed = worlds.rl_episode_indices(world, 1)[0]
    episode = world.episode(video, trace, reset_seed=reset_seed)
    _, value = baselines.brute_force_oracle(episode.env, episode.actual, reset_seed=reset_seed)
    bb = harness.run_bb_episode(world.episode(video, trace, reset_seed=reset_seed))
    bb_total = bb["mean_qoe"] * bb["segments"]
    assert checks.oracle_dominates(value, {"bb": bb_total}) == []
    assert checks.oracle_dominates(value, {"bb": value + 1e-6}) != []
    assert checks.oracle_replayed(value, value) == []
    assert checks.oracle_replayed(value, value + 1e-6) != []
    seq, _ = baselines.brute_force_oracle(episode.env, episode.actual, reset_seed=reset_seed)
    assert checks.oracle_repeated((seq, value), (seq, value)) == []
    assert checks.oracle_repeated((seq, value), (seq, bumped(value))) != []
    other = [levels.copy() for levels in seq]
    other[0][0] = (other[0][0] + 1) % 3
    assert checks.oracle_repeated((seq, value), (other, value)) != []


def test_prediction_checks():
    train, held_out = worlds.prediction_tasks(0, 2, 2)
    net = predictors.CrossUserAttentiveNet(hidden=4, seed=0)
    history, cross, targets = predictors.stack_tasks(train)
    params = net.store.to_vector()
    _, grads = net.loss_and_grad(history, cross, targets)

    def loss(vec):
        net.store.from_vector(vec)
        return net.loss_and_grad(history, cross, targets)[0]

    coords = np.arange(0, params.size, 7)
    grad = grads.to_vector()
    assert checks.central_difference(loss, params, grad, coords) == []
    assert checks.central_difference(loss, params, grad * 1.01, coords) != []

    assert checks.losses_fall([3.0, 2.5, 2.0]) == []
    assert checks.losses_fall([3.0, 3.5]) != [] and checks.losses_fall([3.0, math.nan]) != []

    task = held_out[0]
    lr = predictors.predict_lr(task)
    assert checks.lr_matches_polyfit(task.history, task.horizon, lr) == []
    assert checks.lr_matches_polyfit(task.history, task.horizon, lr + 1e-6) != []

    grid, fov = worlds.PRED_GRID, worlds.PRED_FOV
    for lon, lat in ((180.0, 0.0), (0.0, 90.0), (-179.95, 45.0)):
        probs = geometry.viewing_probabilities(Viewpoint(lon, lat), grid, *fov)
        assert checks.matches_raster(lon, lat, grid, fov, probs) == []
        assert checks.matches_raster(lon, lat, grid, fov, np.roll(probs, 1)) != []
        assert checks.probability_vector(probs) == []
        assert checks.probability_vector(probs * 0.99) != []
        broken = probs.copy()
        broken[np.argmax(broken)] *= -1.0
        assert checks.probability_vector(broken) != []

    bundle = harness.PredictorBundle(grid=grid, fov_deg=fov, knn_k=worlds.PRED_KNN_K)
    rows = harness.evaluate_prediction(held_out, bundle, ("static", "lr", "knn"), (3, 15))
    assert checks.evaluation_rows(rows) == []
    for key, value in (("hit_rate", 1.2), ("longitude_error_deg", 181.0), ("latitude_error_deg", -1.0)):
        assert checks.evaluation_rows([{**rows[0], key: value}]) != [], key


def test_count_check():
    assert checks.count_matches("environment.StreamEnv.step", 40, 40) == []
    assert checks.count_matches("environment.StreamEnv.step", 41, 40) != []
