"""Seeded inputs for the benchmark workloads.

Each builder copies the make-up of one acceptance-suite world, so that the
benchmark's figures map to the cost of the test suite. They live here and
are not imported from ``tests/``: an edit to a test must not silently change
what the benchmark measures. Only public ``synth``, ``environment``,
``geometry`` and ``harness`` functions are used; the program under test
receives nothing but the inputs built here. Program functions are called
through their modules, so that a traced run sees the calls.
"""

from __future__ import annotations

import numpy as np

from tile360 import harness, synth
from tile360.environment import VideoManifest
from tile360.geometry import TileGrid
from tile360.harness import StreamWorld
from tile360.qoe import QoeWeights
from tile360.synth import TraceSpec, TrajectorySpec

# decision-order world (acceptance criterion 6)
ORDER_GRID = TileGrid(2, 4)
ORDER_FOV = (120.0, 100.0)
ORDER_LEVELS = (0.5, 5.0)

# oracle instances (acceptance criterion 5)
RL_GRID = TileGrid(2, 2)
RL_FOV = (100.0, 100.0)
RL_LEVELS = (0.5, 2.0, 4.0)

# viewpoint prediction (acceptance criterion 8)
PRED_GRID = TileGrid(3, 3)
PRED_FOV = (100.0, 100.0)
PRED_CADENCE = 3.0
PRED_HISTORY = 3     # 1 s
PRED_HORIZON = 15    # 5 s
PRED_CROSS = 12
PRED_KNN_K = 5
# offset between the training and the held-out video seeds
EVAL_SEED_OFFSET = 5_000_000


def build_order_world(seed: int, n_videos: int = 3, n_traces: int = 8, n_segments: int = 10):
    """2x4-tile, 2-level world whose predicted probabilities equal the actual ones."""
    traces = [
        t.augmented(cap_mbps=6.0)
        for t in synth.synthesize_traces(
            TraceSpec(duration_s=60.0, mean_mbps=1.0, volatility=0.5, seed=seed + 70), n_traces
        )
    ]
    manifests, schedules = [], []
    for v in range(n_videos):
        manifests.append(
            VideoManifest.synthetic(ORDER_GRID, n_segments, level_mbps=ORDER_LEVELS, seed=seed + v)
        )
        traj = synth.synthesize_trajectories(
            TrajectorySpec(
                users=1,
                duration_s=n_segments + 2.0,
                seed=seed + 200 + v,
                pan_speed_deg_s=(20.0, 70.0),
            )
        )[0]
        schedules.append((harness.probs_schedule(traj, ORDER_GRID, ORDER_FOV, n_segments, 1.0),) * 2)
    return StreamWorld(
        manifests=manifests,
        traces=traces,
        schedules=schedules,
        weights=QoeWeights(),
        buffer_cap_s=6.0,
    )


def order_episodes(world: StreamWorld, n: int, base: int):
    """Fixed (video, trace, reset seed) episodes, as criterion 6 evaluates them."""
    n_videos, n_traces = len(world.manifests), len(world.traces)
    return [
        world.episode(k % n_videos, k % n_traces, reset_seed=base + 13 * k) for k in range(n)
    ]


def build_rl_world(seed: int, n_videos: int = 4, n_traces: int = 10, n_segments: int = 3):
    """2x2-tile, 3-level, 3-segment world small enough for the exhaustive oracle."""
    traces = [
        t.augmented()
        for t in synth.synthesize_traces(TraceSpec(duration_s=60.0, seed=seed + 50), n_traces)
    ]
    manifests, schedules = [], []
    for v in range(n_videos):
        manifests.append(
            VideoManifest.synthetic(RL_GRID, n_segments, level_mbps=RL_LEVELS, seed=seed + v)
        )
        traj = synth.synthesize_trajectories(
            TrajectorySpec(users=1, duration_s=n_segments + 2.0, seed=seed + 100 + v)
        )[0]
        actual = harness.probs_schedule(traj, RL_GRID, RL_FOV, n_segments, 1.0)
        schedules.append((actual, actual))
    return StreamWorld(
        manifests=manifests,
        traces=traces,
        schedules=schedules,
        weights=QoeWeights(),
        buffer_cap_s=6.0,
    )


def rl_episode_indices(world: StreamWorld, n: int, base: int = 1000):
    """(video, trace, reset seed) of criterion 5's evaluation instances."""
    return [
        (k % len(world.manifests), k % len(world.traces), base + 7 * k) for k in range(n)
    ]


def build_prediction_videos(seed: int, n_videos: int = 6, users: int = 16):
    """Correlated multi-user trajectories, 40 s at 3 Hz per video."""
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
        videos[f"v{v}"] = synth.synthesize_trajectories(spec, video_id=f"v{v}")
    return videos


def prediction_tasks(seed: int, n_train: int, n_eval: int):
    """Training tasks and held-out tasks cut from disjoint video sets."""
    train_videos = build_prediction_videos(seed)
    eval_videos = build_prediction_videos(seed + EVAL_SEED_OFFSET)
    train = harness.sample_tasks(
        train_videos, n_train, PRED_HISTORY, PRED_HORIZON, PRED_CROSS, np.random.default_rng(seed)
    )
    held_out = harness.sample_tasks(
        eval_videos, n_eval, PRED_HISTORY, PRED_HORIZON, PRED_CROSS,
        np.random.default_rng(seed + 1),
    )
    return train, held_out
