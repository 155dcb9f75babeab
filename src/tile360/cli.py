"""Command-line entry points.

Subcommands: gen-traces, gen-trajectories, train-cuan, train-agent,
eval-predict, eval-stream, sweep. A config JSON (--config) can supply any
ExperimentConfig field; explicit flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

from .agent import TrainConfig
from .harness import (
    ExperimentConfig,
    build_stream_world,
    emit_report,
    load_trajectory_dataset,
    replay,
    run_experiment,
    sample_tasks,
    save_trace_set,
    save_trajectory_dataset,
    sweep_buffer_cap,
    sweep_decision_order,
    train_agent_on_world,
)
from .predictors import CrossUserAttentiveNet, CuanTrainConfig, train_attentive
from .nn import save_checkpoint
from .synth import TraceSpec, TrajectorySpec, synthesize_traces, synthesize_trajectories


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = {}
    for name in ("out_dir", "seed", "kind"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return dataclasses.replace(cfg, **overrides)


def cmd_gen_traces(args) -> int:
    spec = TraceSpec(seed=args.seed, duration_s=args.duration, mean_mbps=args.mean_mbps)
    traces = synthesize_traces(spec, args.count)
    save_trace_set(args.out_dir, traces)
    print(f"wrote {len(traces)} traces to {args.out_dir}")
    return 0


def cmd_gen_trajectories(args) -> int:
    videos = {}
    for v in range(args.videos):
        spec = TrajectorySpec(
            users=args.users, duration_s=args.duration, seed=args.seed + 1000 * v
        )
        vid = f"video{v:02d}"
        videos[vid] = synthesize_trajectories(spec, video_id=vid)
    save_trajectory_dataset(args.out_dir, videos)
    print(f"wrote {args.videos} videos x {args.users} users to {args.out_dir}")
    return 0


def cmd_train_cuan(args) -> int:
    videos = load_trajectory_dataset(args.dataset)
    cadence = next(iter(videos.values()))[0].sample_rate
    history_len = max(2, int(round(args.history_s * cadence)))
    horizon = int(round(args.horizon_s * cadence))
    rng = np.random.default_rng(args.seed)
    tasks = sample_tasks(videos, args.tasks, history_len, horizon, args.cross_users, rng)
    net = CrossUserAttentiveNet(hidden=args.hidden, seed=args.seed)
    losses = train_attentive(
        net,
        tasks,
        CuanTrainConfig(
            epochs=args.epochs,
            batch_size=args.batch,
            learning_rate=args.lr,
            seed=args.seed,
        ),
    )
    save_checkpoint(args.out, net.store, {"kind": "attentive", "hidden": args.hidden})
    print(f"final epoch loss {losses[-1]:.4f}; checkpoint at {args.out}")
    return 0


def cmd_train_agent(args) -> int:
    cfg = _load_config(args)
    world = build_stream_world(cfg)
    train_cfg = TrainConfig(
        max_iterations=args.steps,
        workers=args.workers,
        seed=cfg.seed,
        filters=args.filters,
        entropy_decay_interval=args.entropy_interval,
    )
    result = train_agent_on_world(world, train_cfg, log_path=Path(args.out_dir) / "training_log.csv")
    result.policy.save(Path(args.out_dir) / "policy.ckpt", {"kind": "policy"})
    result.value.save(Path(args.out_dir) / "value.ckpt", {"kind": "value"})
    print(f"trained {args.steps} steps; checkpoints in {args.out_dir}")
    return 0


def cmd_eval(args) -> int:
    results = run_experiment(_load_config(args))
    print(json.dumps(results, indent=2, sort_keys=True))
    return 1 if results.get("error_count") else 0


def cmd_replay(args) -> int:
    results = replay(args.summary, args.out_dir)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    world = build_stream_world(cfg)
    train_cfg = TrainConfig(max_iterations=args.steps, workers=args.workers, seed=cfg.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.what == "order":
        rows = sweep_decision_order(world, train_cfg)
        emit_report(out / "sweep_order.csv", ["order", "mean_qoe"], rows)
    else:
        result = train_agent_on_world(world, train_cfg)
        rows = sweep_buffer_cap(world, result.policy)
        emit_report(out / "sweep_buffer.csv", ["buffer_cap_s", "mean_qoe"], rows)
    for row in rows:
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tile360")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-traces", help="synthesize network throughput traces")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--duration", type=float, default=120.0)
    g.add_argument("--mean-mbps", type=float, default=2.5)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_traces)

    g = sub.add_parser("gen-trajectories", help="synthesize head-movement datasets")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--videos", type=int, default=3)
    g.add_argument("--users", type=int, default=20)
    g.add_argument("--duration", type=float, default=40.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_trajectories)

    g = sub.add_parser("train-cuan", help="train the attentive viewpoint predictor")
    g.add_argument("--dataset", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--tasks", type=int, default=256)
    g.add_argument("--cross-users", type=int, default=8)
    g.add_argument("--history-s", type=float, default=1.0)
    g.add_argument("--horizon-s", type=float, default=5.0)
    g.add_argument("--hidden", type=int, default=32)
    g.add_argument("--epochs", type=int, default=50)
    g.add_argument("--batch", type=int, default=64)
    g.add_argument("--lr", type=float, default=1e-3)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_train_cuan)

    g = sub.add_parser("train-agent", help="train the sequential bitrate agent")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--config")
    g.add_argument("--steps", type=int, default=20000)
    g.add_argument("--workers", type=int, default=4)
    g.add_argument("--filters", type=int, default=64)
    g.add_argument("--entropy-interval", type=int, default=5000)
    g.add_argument("--seed", type=int, default=None, dest="seed")
    g.set_defaults(func=cmd_train_agent)

    g = sub.add_parser("eval-predict", help="prediction metrics experiment")
    g.add_argument("--out-dir", default=None)
    g.add_argument("--config")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_eval, kind="predict")

    g = sub.add_parser("eval-stream", help="streaming QoE experiment")
    g.add_argument("--out-dir", default=None)
    g.add_argument("--config")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_eval, kind="stream")

    g = sub.add_parser("replay", help="re-run an experiment from its summary")
    g.add_argument("summary")
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_replay)

    g = sub.add_parser("sweep", help="decision-order or buffer-cap ablations")
    g.add_argument("what", choices=["order", "buffer"])
    g.add_argument("--out-dir", required=True)
    g.add_argument("--config")
    g.add_argument("--steps", type=int, default=20000)
    g.add_argument("--workers", type=int, default=4)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
