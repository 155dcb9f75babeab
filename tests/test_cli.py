"""CLI surface tests: every documented subcommand runs end to end."""

import json
from pathlib import Path

from tile360.cli import main


def test_gen_traces_and_trajectories(tmp_path):
    assert main(["gen-traces", "--out-dir", str(tmp_path / "tr"), "--count", "2",
                 "--duration", "20", "--seed", "1"]) == 0
    assert len(list((tmp_path / "tr").glob("*.csv"))) == 2
    assert main(["gen-trajectories", "--out-dir", str(tmp_path / "ds"), "--videos", "1",
                 "--users", "3", "--duration", "6", "--seed", "1"]) == 0
    assert (tmp_path / "ds" / "manifest.json").exists()


def test_train_cuan_small(tmp_path):
    main(["gen-trajectories", "--out-dir", str(tmp_path / "ds"), "--videos", "1",
          "--users", "4", "--duration", "8", "--seed", "0"])
    rc = main([
        "train-cuan", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "cuan.ckpt"),
        "--tasks", "8", "--cross-users", "2", "--history-s", "0.5", "--horizon-s", "0.5",
        "--hidden", "4", "--epochs", "2", "--batch", "4",
    ])
    assert rc == 0
    assert (tmp_path / "cuan.ckpt").exists()


def test_eval_predict_with_config(tmp_path):
    config = {
        "kind": "predict",
        "out_dir": str(tmp_path / "out"),
        "seed": 0,
        "trajectories": {"users": 4, "duration_s": 8.0, "seed": 0},
        "n_videos": 1,
        "predictors": ["static", "lr"],
        "horizons_s": [0.5],
        "history_s": 0.5,
        "n_tasks": 3,
        "cross_users": 2,
    }
    # config files may be partial: fill in defaults via the dataclass
    from tile360.harness import ExperimentConfig
    from tile360.synth import TrajectorySpec
    import dataclasses

    full = dataclasses.replace(
        ExperimentConfig(),
        **{k: v for k, v in config.items() if k not in ("trajectories", "predictors", "horizons_s")},
        trajectories=TrajectorySpec(**config["trajectories"]),
        predictors=tuple(config["predictors"]),
        horizons_s=tuple(config["horizons_s"]),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(full.to_dict()))
    assert main(["eval-predict", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "prediction_metrics.csv").exists()


def test_replay_subcommand(tmp_path):
    from tile360.harness import ExperimentConfig
    from tile360.synth import TrajectorySpec
    import dataclasses

    cfg = dataclasses.replace(
        ExperimentConfig(),
        kind="predict",
        out_dir=str(tmp_path / "orig"),
        seed=3,
        trajectories=TrajectorySpec(users=4, duration_s=8.0, seed=3),
        n_videos=1,
        predictors=("static", "lr"),
        horizons_s=(0.5,),
        history_s=0.5,
        n_tasks=3,
        cross_users=2,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["eval-predict", "--config", str(path)]) == 0
    assert main(["replay", str(tmp_path / "orig" / "summary.json"),
                 "--out-dir", str(tmp_path / "again")]) == 0
    a = (tmp_path / "orig" / "prediction_metrics.csv").read_bytes()
    b = (tmp_path / "again" / "prediction_metrics.csv").read_bytes()
    assert a == b


def test_sweep_subcommand(tmp_path):
    from tile360.harness import ExperimentConfig
    from tile360.synth import TraceSpec, TrajectorySpec
    import dataclasses

    cfg = dataclasses.replace(
        ExperimentConfig(),
        kind="stream",
        out_dir=str(tmp_path / "sweep"),
        seed=0,
        trajectories=TrajectorySpec(users=1, duration_s=6.0, seed=0),
        n_videos=1,
        n_traces=1,
        traces=TraceSpec(duration_s=20.0, seed=0),
        grid_rows=1,
        grid_cols=2,
        levels_mbps=(1.0, 4.0),
        n_segments=4,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["sweep", "order", "--out-dir", str(tmp_path / "sweep"),
               "--config", str(path), "--steps", "24", "--workers", "1"])
    assert rc == 0
    lines = (tmp_path / "sweep" / "sweep_order.csv").read_text().splitlines()
    assert lines[0] == "order,mean_qoe"
    assert len(lines) == 5  # header + four orders


def test_train_agent_and_sweep_buffer(tmp_path):
    from tile360.harness import ExperimentConfig
    from tile360.synth import TraceSpec, TrajectorySpec
    import dataclasses

    cfg = dataclasses.replace(
        ExperimentConfig(),
        kind="stream",
        out_dir=str(tmp_path / "agent"),
        seed=0,
        trajectories=TrajectorySpec(users=1, duration_s=6.0, seed=0),
        n_videos=1,
        n_traces=1,
        traces=TraceSpec(duration_s=20.0, seed=0),
        grid_rows=1,
        grid_cols=2,
        levels_mbps=(1.0, 4.0),
        n_segments=4,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main([
        "train-agent", "--out-dir", str(tmp_path / "agent"), "--config", str(path),
        "--steps", "40", "--workers", "1", "--filters", "4",
    ])
    assert rc == 0
    assert (tmp_path / "agent" / "policy.ckpt").exists()
    assert (tmp_path / "agent" / "training_log.csv").exists()


def test_train_agent_then_eval_stream_with_agent(tmp_path):
    from tile360.harness import ExperimentConfig
    from tile360.synth import TraceSpec, TrajectorySpec
    import dataclasses

    cfg = dataclasses.replace(
        ExperimentConfig(),
        kind="stream",
        seed=0,
        trajectories=TrajectorySpec(users=1, duration_s=6.0, seed=0),
        n_videos=1,
        n_traces=1,
        traces=TraceSpec(duration_s=20.0, seed=0),
        grid_rows=1,
        grid_cols=2,
        levels_mbps=(1.0, 4.0),
        n_segments=4,
        abr=("bb", "agent"),
        agent_checkpoint=str(tmp_path / "agent" / "policy.ckpt"),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main([
        "train-agent", "--out-dir", str(tmp_path / "agent"), "--config", str(path),
        "--steps", "16", "--workers", "1", "--filters", "4",
    ]) == 0
    assert main(["eval-stream", "--out-dir", str(tmp_path / "eval"), "--config", str(path)]) == 0
    rows = (tmp_path / "eval" / "streaming_metrics.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["bb", "agent"]
