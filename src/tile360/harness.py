"""Experiment orchestration: datasets, evaluations, reports, sweeps.

Everything here is a pure function of (config, seed): dataset synthesis,
predictor training, streaming rollouts, and report emission are all seeded,
and every run writes a JSON summary (config echo + seeds + schema version)
from which it can be replayed byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .agent import (
    EpisodeWorld,
    PolicyNet,
    StateEncoder,
    TrainConfig,
    TrainResult,
    evaluate_policy,
    run_episode,
    train,
)
from .environment import NetworkTrace, StreamEnv, VideoManifest, harmonic_throughput
from .errors import ConfigurationError, ParameterError, Tile360Error
from .geometry import (
    TileGrid,
    Trajectory,
    Viewpoint,
    angular_errors,
    hit_rate,
    neighbor_map,
    viewing_probabilities,
)
from .predictors import (
    CrossUserAttentiveNet,
    CuanTrainConfig,
    PredictionTask,
    predict_knn,
    predict_lr,
    predict_static,
    task_from_trajectories,
    train_attentive,
)
from .qoe import QoeWeights
from .sequential import DecisionOrder
from .synth import TraceSpec, TrajectorySpec, synthesize_traces, synthesize_trajectories

Array = np.ndarray

SCHEMA_VERSION = "tile360-report-v1"
TRAJECTORY_DATASET_FORMAT = "trajectory-dataset-v1"

PREDICTOR_NAMES = ("static", "lr", "knn", "attentive")


def _fmt(value) -> str:
    """Deterministic cell formatting: shortest round-trip repr for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_report(path, columns: list[str], rows: list[dict]) -> None:
    """Write rows as CSV with a stable column order; header-only when empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_summary(path, config_dict: dict, results: dict, outputs: list[str]) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_dict,
        "outputs": outputs,
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# trajectory dataset files
# ---------------------------------------------------------------------------

def save_trajectory_dataset(directory, videos: dict[str, list[Trajectory]]) -> None:
    """One CSV per trajectory plus a manifest JSON naming them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format": TRAJECTORY_DATASET_FORMAT, "videos": []}
    for video_id, trajectories in videos.items():
        entry = {
            "video_id": video_id,
            "frame_rate_hz": trajectories[0].sample_rate,
            "trajectories": [],
        }
        for traj in trajectories:
            fname = f"{video_id}_{traj.user_id}.csv"
            with open(directory / fname, "w", encoding="utf-8") as fh:
                fh.write("timestamp_s,longitude_deg,latitude_deg\n")
                for t, lon, lat in zip(traj.timestamps, traj.lons, traj.lats):
                    fh.write(f"{t:.6f},{lon:.6f},{lat:.6f}\n")
            entry["trajectories"].append({"user_id": traj.user_id, "path": fname})
        manifest["videos"].append(entry)
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_trajectory_dataset(directory) -> dict[str, list[Trajectory]]:
    directory = Path(directory)
    with open(directory / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != TRAJECTORY_DATASET_FORMAT:
        raise ConfigurationError(f"{directory} is not a {TRAJECTORY_DATASET_FORMAT} dataset")
    videos: dict[str, list[Trajectory]] = {}
    for entry in manifest["videos"]:
        rows = []
        for item in entry["trajectories"]:
            data = np.loadtxt(directory / item["path"], delimiter=",", skiprows=1, ndmin=2)
            rows.append(
                Trajectory(
                    user_id=item["user_id"],
                    timestamps=data[:, 0],
                    lons=data[:, 1],
                    lats=data[:, 2],
                    sample_rate=entry["frame_rate_hz"],
                    video_id=entry["video_id"],
                )
            )
        videos[entry["video_id"]] = rows
    return videos


def save_trace_set(directory, traces: list[NetworkTrace]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, trace in enumerate(traces):
        trace.to_csv(directory / f"trace{i:03d}.csv")


def load_trace_set(directory) -> list[NetworkTrace]:
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise ConfigurationError(f"no trace CSVs under {directory}")
    return [NetworkTrace.from_csv(p, name=p.stem) for p in paths]


# ---------------------------------------------------------------------------
# prediction tasks and evaluation
# ---------------------------------------------------------------------------

def sample_tasks(
    videos: dict[str, list[Trajectory]],
    n_tasks: int,
    history_len: int,
    horizon: int,
    cross_users: int,
    rng: np.random.Generator,
) -> list[PredictionTask]:
    """Random (video, user, time) task instances with cross-user context."""
    video_ids = sorted(videos)
    tasks: list[PredictionTask] = []
    while len(tasks) < n_tasks:
        vid = video_ids[rng.integers(len(video_ids))]
        users = videos[vid]
        if len(users) < cross_users + 1:
            raise ConfigurationError(
                f"video {vid} has {len(users)} users, need {cross_users + 1}"
            )
        u = int(rng.integers(len(users)))
        others = [i for i in range(len(users)) if i != u]
        rng.shuffle(others)
        cross = [users[i] for i in others[:cross_users]]
        user = users[u]
        last_valid = len(user) - horizon - 1
        if last_valid < history_len - 1:
            raise ConfigurationError("trajectories too short for the task window")
        end = int(rng.integers(history_len - 1, last_valid + 1))
        tasks.append(task_from_trajectories(user, cross, end, history_len, horizon))
    return tasks


@dataclass
class PredictorBundle:
    """Callable predictors sharing one evaluation interface.

    Each entry maps a task to (points (T, 2) normalized, probs (T, N) or
    None); tile probabilities default to the FoV overlap of the predicted
    point when a predictor does not produce its own.
    """

    grid: TileGrid
    fov_deg: tuple[float, float]
    knn_k: int = 5
    attentive: CrossUserAttentiveNet | None = None

    def run(self, name: str, task: PredictionTask) -> tuple[Array, Array | None]:
        if name == "static":
            return predict_static(task), None
        if name == "lr":
            return predict_lr(task), None
        if name == "knn":
            return predict_knn(task, k=self.knn_k, grid=self.grid, fov_deg=self.fov_deg)
        if name == "attentive":
            if self.attentive is None:
                raise ConfigurationError("no attentive network was trained/loaded")
            return self.attentive.predict(task), None
        raise ConfigurationError(f"unknown predictor {name!r}")


def evaluate_prediction(
    tasks: list[PredictionTask],
    bundle: PredictorBundle,
    predictor_names: tuple[str, ...],
    horizons_steps: tuple[int, ...],
    error_rows: list[dict] | None = None,
) -> list[dict]:
    """Angular errors and hit rate per (task, predictor, horizon step).

    When ``error_rows`` is given, per-item failures are recorded there and
    evaluation continues; otherwise the first failure propagates.
    """
    rows: list[dict] = []
    for t_idx, task in enumerate(tasks):
        if task.targets is None:
            raise ParameterError("evaluation tasks need targets")
        actual_vps = task.denormalize(task.targets)
        actual_probs = [
            viewing_probabilities(vp, bundle.grid, *bundle.fov_deg) for vp in actual_vps
        ]
        for name in predictor_names:
            try:
                points, probs = bundle.run(name, task)
            except Tile360Error as exc:
                if error_rows is None:
                    raise
                error_rows.append({"item": f"task{t_idx}/{name}", "error": str(exc)})
                continue
            pred_vps = task.denormalize(points)
            for step in horizons_steps:
                idx = step - 1
                lon_err, lat_err = angular_errors(pred_vps[idx], actual_vps[idx])
                if probs is None:
                    p_pred = viewing_probabilities(pred_vps[idx], bundle.grid, *bundle.fov_deg)
                else:
                    p_pred = probs[idx]
                rows.append(
                    {
                        "task": t_idx,
                        "predictor": name,
                        "horizon_steps": step,
                        "longitude_error_deg": lon_err,
                        "latitude_error_deg": lat_err,
                        "hit_rate": hit_rate(p_pred, actual_probs[idx]),
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# streaming worlds
# ---------------------------------------------------------------------------

def probs_schedule(
    trajectory: Trajectory,
    grid: TileGrid,
    fov_deg: tuple[float, float],
    n_segments: int,
    segment_duration: float,
) -> Array:
    """Actual per-segment viewing probabilities (segment midpoint sample)."""
    rows = []
    for seg in range(n_segments):
        mid = (seg + 0.5) * segment_duration
        vp = trajectory.viewpoint_at(mid)
        rows.append(viewing_probabilities(vp, grid, *fov_deg))
    return np.stack(rows)


def predicted_schedule(
    trajectory: Trajectory,
    grid: TileGrid,
    fov_deg: tuple[float, float],
    n_segments: int,
    segment_duration: float,
    predictor: str,
    bundle: PredictorBundle | None = None,
    cross: list[Trajectory] | None = None,
    history_len: int = 6,
    lead_s: float = 1.0,
) -> Array:
    """Per-segment predicted probabilities.

    ``predictor="actual"`` returns the true schedule (perfect prediction).
    Otherwise the segment playing at time t*T is predicted ``lead_s`` ahead
    using a history window ending at t*T - lead_s; early segments without
    enough history fall back to the first sample's FoV.
    """
    actual = probs_schedule(trajectory, grid, fov_deg, n_segments, segment_duration)
    if predictor == "actual":
        return actual
    if bundle is None:
        raise ConfigurationError("a PredictorBundle is required for model predictions")
    cadence = trajectory.sample_rate
    lead_steps = max(1, int(round(lead_s * cadence)))
    rows = []
    for seg in range(n_segments):
        mid_idx = int(round((seg + 0.5) * segment_duration * cadence))
        end = mid_idx - lead_steps
        if end < history_len - 1 or mid_idx >= len(trajectory):
            vp = trajectory.viewpoint_at(0.0)
            rows.append(viewing_probabilities(vp, grid, *fov_deg))
            continue
        task = task_from_trajectories(
            trajectory, cross or [], end, history_len, lead_steps, with_targets=False
        )
        points, probs = bundle.run(predictor, task)
        if probs is not None:
            rows.append(probs[lead_steps - 1])
        else:
            vp = task.denormalize(points)[lead_steps - 1]
            rows.append(viewing_probabilities(vp, grid, *fov_deg))
    return np.stack(rows)


@dataclass
class StreamWorld:
    """A reusable bundle of manifests, traces, and probability schedules.

    ``schedules`` holds (predicted, actual) pairs per video; episodes pair a
    video with a trace round-robin or by explicit index.
    """

    manifests: list[VideoManifest]
    traces: list[NetworkTrace]
    schedules: list[tuple[Array, Array]]
    weights: QoeWeights = field(default_factory=QoeWeights)
    buffer_cap_s: float = 6.0

    def episode(self, video_idx: int, trace_idx: int, reset_seed: int = 0) -> EpisodeWorld:
        manifest = self.manifests[video_idx]
        env = StreamEnv(
            manifest,
            self.traces[trace_idx],
            weights=self.weights,
            buffer_cap_s=self.buffer_cap_s,
        )
        predicted, actual = self.schedules[video_idx]
        return EpisodeWorld(env=env, predicted=predicted, actual=actual, reset_seed=reset_seed)

    def all_episodes(self, reset_seed: int = 0) -> list[EpisodeWorld]:
        return [
            self.episode(v, t, reset_seed=reset_seed + v * len(self.traces) + t)
            for v in range(len(self.manifests))
            for t in range(len(self.traces))
        ]

    def encoder(self) -> StateEncoder:
        return StateEncoder.for_manifest(self.manifests[0], self.buffer_cap_s)

    def episode_factory(self, reset_seed_base: int = 0):
        """Seeded random (video, trace) picker for training."""

        def factory(rng: np.random.Generator) -> EpisodeWorld:
            v = int(rng.integers(len(self.manifests)))
            t = int(rng.integers(len(self.traces)))
            return self.episode(v, t, reset_seed=int(rng.integers(2**31)) + reset_seed_base)

        return factory


# ---------------------------------------------------------------------------
# baseline episode rollouts
# ---------------------------------------------------------------------------

def run_bb_episode(world: EpisodeWorld, cfg: baselines.BbConfig = baselines.BbConfig()) -> dict:
    env = world.env
    state = env.reset(seed=world.reset_seed)
    rewards, parts = [], []
    while not env.done:
        seg = env.segment_index
        decision = baselines.bb_select(
            state.buffer_s,
            env.manifest.tile_rates,
            world.predicted[seg],
            cfg,
            segment_index=seg,
        )
        result = env.step(decision, world.actual[seg])
        rewards.append(result.reward)
        parts.append(result.breakdown)
        state = result.state
    return _episode_stats(rewards, parts, env)


def run_greedy_episode(world: EpisodeWorld) -> dict:
    env = world.env
    state = env.reset(seed=world.reset_seed)
    neighbors = neighbor_map(env.manifest.grid)
    rewards, parts = [], []
    while not env.done:
        seg = env.segment_index
        budget = max(
            harmonic_throughput(state.download_history, env.throughput_prior_mbps)
            * env.manifest.segment_duration,
            float(env.manifest.chunk_sizes[seg, :, 0].sum()),
        )
        decision = baselines.greedy_mckp(
            env.manifest.tile_rates,
            world.predicted[seg],
            budget,
            env.weights,
            neighbors,
            env.manifest.chunk_sizes[seg],
            segment_index=seg,
        )
        result = env.step(decision, world.actual[seg])
        rewards.append(result.reward)
        parts.append(result.breakdown)
        state = result.state
    return _episode_stats(rewards, parts, env)


def run_agent_episode(world: EpisodeWorld, policy: PolicyNet, order=DecisionOrder.HIGH_TO_LOW) -> dict:
    buffer = run_episode(policy, world, order=order, greedy=True)
    env = world.env
    return _episode_stats(buffer.top_rewards, buffer.breakdowns, env)


def _episode_stats(rewards, parts, env: StreamEnv) -> dict:
    return {
        "mean_qoe": float(np.mean(rewards)),
        "q1": float(np.mean([p.q1 for p in parts])),
        "q2": float(np.mean([p.q2 for p in parts])),
        "q3": float(np.mean([p.q3 for p in parts])),
        "q4": float(np.mean([p.q4 for p in parts])),
        "rebuffer_s": env.account.rebuffer_s,
        "segments": len(rewards),
        "breakdowns": parts,
    }


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Everything one experiment needs; serializes losslessly to JSON."""

    kind: str = "predict"  # "predict" or "stream"
    out_dir: str = "out"
    seed: int = 0
    grid_rows: int = 3
    grid_cols: int = 3
    fov_width_deg: float = 100.0
    fov_height_deg: float = 100.0
    # dataset synthesis (ignored when explicit paths are given)
    trajectory_dir: str | None = None
    trace_dir: str | None = None
    n_videos: int = 3
    trajectories: TrajectorySpec = field(default_factory=TrajectorySpec)
    n_traces: int = 3
    traces: TraceSpec = field(default_factory=TraceSpec)
    augment_traces: bool = True
    # prediction evaluation
    predictors: tuple[str, ...] = ("static", "lr", "knn")
    history_s: float = 1.0
    horizons_s: tuple[float, ...] = (1.0, 3.0, 5.0)
    n_tasks: int = 40
    cross_users: int = 8
    knn_k: int = 5
    attentive_hidden: int = 32
    attentive_epochs: int = 25
    attentive_batch: int = 32
    attentive_lr: float = 2e-3
    attentive_lr_decay: float = 0.93
    attentive_train_tasks: int = 256
    # streaming evaluation
    abr: tuple[str, ...] = ("bb", "greedy")
    stream_predictor: str = "actual"
    levels_mbps: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    n_segments: int = 30
    segment_duration_s: float = 1.0
    qoe_eta: tuple[float, float, float] = (1.0, 1.0, 4.3)
    buffer_cap_s: float = 6.0
    agent_checkpoint: str | None = None

    def grid(self) -> TileGrid:
        return TileGrid(self.grid_rows, self.grid_cols)

    def fov(self) -> tuple[float, float]:
        return (self.fov_width_deg, self.fov_height_deg)

    def weights(self) -> QoeWeights:
        return QoeWeights(*self.qoe_eta)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a JSON-style dict; missing fields take their defaults."""
        d = dict(d)
        _reject_unknown(cls, d, "ExperimentConfig")
        for key, spec in (("trajectories", TrajectorySpec), ("traces", TraceSpec)):
            if key in d:
                nested = dict(d[key])
                _reject_unknown(spec, nested, key)
                d[key] = spec(**_tuplify(nested))
        for key in ("predictors", "horizons_s", "abr", "levels_mbps", "qoe_eta"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _reject_unknown(cls, d: dict, where: str) -> None:
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s) {unknown}")


def _tuplify(spec_dict: dict) -> dict:
    """JSON round-trips tuples as lists; dataclass fields want tuples back."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in spec_dict.items()}


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def _load_or_make_videos(cfg: ExperimentConfig) -> dict[str, list[Trajectory]]:
    if cfg.trajectory_dir:
        return load_trajectory_dataset(cfg.trajectory_dir)
    videos = {}
    for v in range(cfg.n_videos):
        spec = dataclasses.replace(cfg.trajectories, seed=cfg.trajectories.seed + 1000 * v)
        vid = f"video{v:02d}"
        videos[vid] = synthesize_trajectories(spec, video_id=vid)
    return videos


def _load_or_make_traces(cfg: ExperimentConfig) -> list[NetworkTrace]:
    if cfg.trace_dir:
        traces = load_trace_set(cfg.trace_dir)
    else:
        traces = synthesize_traces(cfg.traces, cfg.n_traces)
    if cfg.augment_traces:
        traces = [t.augmented() for t in traces]
    return traces


def _train_attentive_for(cfg: ExperimentConfig, videos, rng) -> CrossUserAttentiveNet:
    cadence = cfg.trajectories.cadence_hz
    history_len = max(2, int(round(cfg.history_s * cadence)))
    horizon = int(round(max(cfg.horizons_s) * cadence))
    train_tasks = sample_tasks(
        videos, cfg.attentive_train_tasks, history_len, horizon, cfg.cross_users, rng
    )
    net = CrossUserAttentiveNet(hidden=cfg.attentive_hidden, seed=cfg.seed)
    train_attentive(
        net,
        train_tasks,
        CuanTrainConfig(
            epochs=cfg.attentive_epochs,
            batch_size=cfg.attentive_batch,
            learning_rate=cfg.attentive_lr,
            lr_decay=cfg.attentive_lr_decay,
            seed=cfg.seed,
        ),
    )
    return net


def build_stream_world(cfg: ExperimentConfig) -> StreamWorld:
    """The stream experiment's world: every video against every trace.

    Each video gets a synthetic manifest and is watched by its first user;
    the controllers see ``cfg.stream_predictor``'s schedule (predicted from
    the next ``cross_users`` users) and are scored on the actual one.
    """
    if cfg.stream_predictor not in ("actual", *PREDICTOR_NAMES):
        raise ConfigurationError(f"unknown stream_predictor {cfg.stream_predictor!r}")
    videos = _load_or_make_videos(cfg)
    traces = _load_or_make_traces(cfg)
    grid, fov = cfg.grid(), cfg.fov()
    bundle = None
    if cfg.stream_predictor != "actual":
        attentive = None
        if cfg.stream_predictor == "attentive":
            attentive = _train_attentive_for(cfg, videos, np.random.default_rng(cfg.seed + 1))
        bundle = PredictorBundle(grid=grid, fov_deg=fov, knn_k=cfg.knn_k, attentive=attentive)
    manifests, schedules = [], []
    for v, (vid, users) in enumerate(sorted(videos.items())):
        manifests.append(
            VideoManifest.synthetic(
                grid,
                cfg.n_segments,
                segment_duration=cfg.segment_duration_s,
                level_mbps=cfg.levels_mbps,
                seed=cfg.seed + v,
                video_id=vid,
            )
        )
        actual = probs_schedule(users[0], grid, fov, cfg.n_segments, cfg.segment_duration_s)
        predicted = actual
        if bundle is not None:
            predicted = predicted_schedule(
                users[0],
                grid,
                fov,
                cfg.n_segments,
                cfg.segment_duration_s,
                cfg.stream_predictor,
                bundle=bundle,
                cross=users[1 : 1 + cfg.cross_users],
            )
        schedules.append((predicted, actual))
    return StreamWorld(
        manifests=manifests,
        traces=traces,
        schedules=schedules,
        weights=cfg.weights(),
        buffer_cap_s=cfg.buffer_cap_s,
    )


PREDICTION_COLUMNS = [
    "task", "predictor", "horizon_steps", "longitude_error_deg", "latitude_error_deg", "hit_rate"
]
STREAMING_COLUMNS = [
    "abr", "video", "trace", "mean_qoe", "q1", "q2", "q3", "q4", "rebuffer_s", "segments"
]
BREAKDOWN_COLUMNS = ["abr", "video", "trace", "segment_index", "q1", "q2", "q3", "q4", "total"]


def _run_predict(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], list[dict]]:
    unknown = [name for name in cfg.predictors if name not in PREDICTOR_NAMES]
    if unknown:
        raise ConfigurationError(
            f"unknown predictor {unknown}; expected names from {list(PREDICTOR_NAMES)}"
        )
    rng = np.random.default_rng(cfg.seed)
    videos = _load_or_make_videos(cfg)
    cadence = cfg.trajectories.cadence_hz
    history_len = max(2, int(round(cfg.history_s * cadence)))
    horizons_steps = tuple(int(round(h * cadence)) for h in cfg.horizons_s)
    attentive = None
    if "attentive" in cfg.predictors:
        attentive = _train_attentive_for(cfg, videos, np.random.default_rng(cfg.seed + 1))
    bundle = PredictorBundle(
        grid=cfg.grid(), fov_deg=cfg.fov(), knn_k=cfg.knn_k, attentive=attentive
    )
    tasks = sample_tasks(
        videos, cfg.n_tasks, history_len, max(horizons_steps), cfg.cross_users, rng
    )
    error_rows: list[dict] = []
    rows = evaluate_prediction(tasks, bundle, cfg.predictors, horizons_steps, error_rows)
    emit_report(out / "prediction_metrics.csv", PREDICTION_COLUMNS, rows)
    results = {}
    for name in cfg.predictors:
        sel = [r for r in rows if r["predictor"] == name]
        results[name] = {
            "mean_longitude_error_deg": float(np.mean([r["longitude_error_deg"] for r in sel])),
            "mean_latitude_error_deg": float(np.mean([r["latitude_error_deg"] for r in sel])),
            "mean_hit_rate": float(np.mean([r["hit_rate"] for r in sel])),
        }
    return results, ["prediction_metrics.csv"], error_rows


def _load_policy(cfg: ExperimentConfig) -> PolicyNet:
    if not cfg.agent_checkpoint:
        raise ConfigurationError("abr 'agent' needs agent_checkpoint")
    policy = PolicyNet.load(cfg.agent_checkpoint)
    if policy.encoder.n_levels != len(cfg.levels_mbps):
        raise ConfigurationError(
            f"agent_checkpoint {cfg.agent_checkpoint} chooses among "
            f"{policy.encoder.n_levels} levels, levels_mbps has {len(cfg.levels_mbps)}"
        )
    return policy


def _stream_controllers(cfg: ExperimentConfig) -> dict:
    """Episode runner per ABR name; checks ``cfg.abr`` and the agent checkpoint."""
    controllers = {"bb": run_bb_episode, "greedy": run_greedy_episode, "agent": None}
    unknown = [name for name in cfg.abr if name not in controllers]
    if unknown:
        raise ConfigurationError(f"unknown abr {unknown}; expected names from {list(controllers)}")
    if "agent" in cfg.abr:
        controllers["agent"] = functools.partial(run_agent_episode, policy=_load_policy(cfg))
    return controllers


def _run_stream(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], list[dict]]:
    controllers = _stream_controllers(cfg)
    world = build_stream_world(cfg)
    pairs = [(v, t) for v in range(len(world.manifests)) for t in range(len(world.traces))]
    rows, breakdown_rows, error_rows = [], [], []
    for abr in cfg.abr:
        for (v, t), episode in zip(pairs, world.all_episodes(reset_seed=cfg.seed)):
            try:
                stats = controllers[abr](episode)
            except ConfigurationError:
                raise
            except Tile360Error as exc:
                error_rows.append({"item": f"{abr}/video{v}/trace{t}", "error": str(exc)})
                continue
            for seg, p in enumerate(stats.pop("breakdowns")):
                cells = (abr, v, t, seg, p.q1, p.q2, p.q3, p.q4, p.total)
                breakdown_rows.append(dict(zip(BREAKDOWN_COLUMNS, cells)))
            rows.append({"abr": abr, "video": v, "trace": t, **stats})
    emit_report(out / "streaming_metrics.csv", STREAMING_COLUMNS, rows)
    emit_report(out / "qoe_breakdown.csv", BREAKDOWN_COLUMNS, breakdown_rows)
    results = {
        abr: {"mean_qoe": float(np.mean([r["mean_qoe"] for r in rows if r["abr"] == abr]))}
        for abr in cfg.abr
    }
    return results, ["streaming_metrics.csv", "qoe_breakdown.csv"], error_rows


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment and write CSV reports plus a replayable summary."""
    runner = {"predict": _run_predict, "stream": _run_stream}.get(cfg.kind)
    if runner is None:
        raise ConfigurationError(
            f"unknown experiment kind {cfg.kind!r}; expected 'predict' or 'stream'"
        )
    out = Path(cfg.out_dir)  # created by the runner's first report
    results, outputs, error_rows = runner(cfg, out)
    if error_rows:
        emit_report(out / "errors.csv", ["item", "error"], error_rows)
        outputs.append("errors.csv")
    results["error_count"] = len(error_rows)
    write_summary(out / "summary.json", cfg.to_dict(), results, outputs)
    return results


def replay(summary_path, out_dir) -> dict:
    """Re-run an experiment from its emitted summary into a new directory."""
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    cfg = ExperimentConfig.from_dict(summary["config"])
    cfg = dataclasses.replace(cfg, out_dir=str(out_dir))
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# training entry points and sweeps
# ---------------------------------------------------------------------------

def write_training_log(path, rows: list[dict]) -> None:
    columns = ["step", "episode", "mean_qoe", "q1", "q2", "q3", "q4", "entropy", "beta"]
    emit_report(path, columns, rows)


def train_agent_on_world(
    world: StreamWorld, config: TrainConfig, log_path=None
) -> TrainResult:
    result = train(world.episode_factory(), world.encoder(), config)
    if log_path is not None:
        write_training_log(log_path, result.log_rows)
    return result


def sweep_decision_order(
    world: StreamWorld,
    config: TrainConfig,
    orders=(
        DecisionOrder.HIGH_TO_LOW,
        DecisionOrder.LOW_TO_HIGH,
        DecisionOrder.Z_SCAN,
        DecisionOrder.RANDOM,
    ),
) -> list[dict]:
    """Train one agent per decision order and evaluate greedily."""
    rows = []
    for order in orders:
        cfg = dataclasses.replace(config, order=order)
        result = train(world.episode_factory(), world.encoder(), cfg)
        stats = evaluate_policy(result.policy, world.all_episodes(), order=order)
        rows.append({"order": order.value, "mean_qoe": stats["mean_qoe"]})
    return rows


def sweep_buffer_cap(
    world: StreamWorld,
    policy: PolicyNet,
    caps_s=(2.0, 4.0, 6.0, 8.0, 10.0),
    order=DecisionOrder.HIGH_TO_LOW,
) -> list[dict]:
    """Evaluate one fixed policy across buffer caps."""
    rows = []
    for cap in caps_s:
        capped = dataclasses.replace(world, buffer_cap_s=cap)
        stats = evaluate_policy(policy, capped.all_episodes(), order=order)
        rows.append({"buffer_cap_s": cap, "mean_qoe": stats["mean_qoe"]})
    return rows
