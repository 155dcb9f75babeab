"""Harness tests: file formats, reports, experiment determinism, replay."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tile360.agent import PolicyNet, StateEncoder
from tile360.environment import NetworkTrace
from tile360.errors import ConfigurationError
from tile360.harness import (
    ExperimentConfig,
    PredictorBundle,
    SCHEMA_VERSION,
    StreamWorld,
    build_stream_world,
    emit_report,
    evaluate_prediction,
    load_trace_set,
    load_trajectory_dataset,
    predicted_schedule,
    probs_schedule,
    replay,
    run_experiment,
    sample_tasks,
    save_trace_set,
    save_trajectory_dataset,
)
from tile360.geometry import TileGrid
from tile360.predictors import CrossUserAttentiveNet
from tile360.synth import TraceSpec, TrajectorySpec, synthesize_traces, synthesize_trajectories


class TestEmitReport:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_deterministic_float_formatting(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_report(path, ["x"], [{"x": 0.1}, {"x": 1.0 / 3.0}])
        assert path.read_text() == "x\n0.1\n0.3333333333333333\n"


class TestDatasets:
    def test_trajectory_roundtrip(self, tmp_path):
        videos = {
            "vid0": synthesize_trajectories(TrajectorySpec(users=3, duration_s=5.0, seed=0)),
            "vid1": synthesize_trajectories(TrajectorySpec(users=2, duration_s=5.0, seed=1)),
        }
        save_trajectory_dataset(tmp_path / "ds", videos)
        back = load_trajectory_dataset(tmp_path / "ds")
        assert set(back) == {"vid0", "vid1"}
        for vid in videos:
            for orig, loaded in zip(videos[vid], back[vid]):
                assert loaded.user_id == orig.user_id
                np.testing.assert_allclose(loaded.lons, orig.lons, atol=1e-6)

    def test_trace_set_roundtrip(self, tmp_path):
        traces = synthesize_traces(TraceSpec(duration_s=20.0, seed=4), 3)
        save_trace_set(tmp_path / "traces", traces)
        back = load_trace_set(tmp_path / "traces")
        assert len(back) == 3
        np.testing.assert_allclose(back[0].throughput_mbps, traces[0].throughput_mbps, atol=1e-6)


class TestSchedules:
    def test_actual_schedule_rows_sum_to_one(self):
        traj = synthesize_trajectories(TrajectorySpec(users=1, duration_s=12.0, seed=0))[0]
        sched = probs_schedule(traj, TileGrid(3, 3), (100.0, 100.0), 10, 1.0)
        assert sched.shape == (10, 9)
        np.testing.assert_allclose(sched.sum(axis=1), 1.0, atol=1e-9)

    def test_predicted_schedule_actual_passthrough(self):
        traj = synthesize_trajectories(TrajectorySpec(users=1, duration_s=12.0, seed=0))[0]
        actual = probs_schedule(traj, TileGrid(2, 2), (100.0, 100.0), 8, 1.0)
        pred = predicted_schedule(traj, TileGrid(2, 2), (100.0, 100.0), 8, 1.0, "actual")
        np.testing.assert_array_equal(pred, actual)

    def test_predicted_schedule_with_model(self):
        users = synthesize_trajectories(TrajectorySpec(users=4, duration_s=15.0, seed=2))
        bundle = PredictorBundle(grid=TileGrid(2, 2), fov_deg=(100.0, 100.0))
        pred = predicted_schedule(
            users[0], TileGrid(2, 2), (100.0, 100.0), 8, 1.0, "lr", bundle=bundle,
            cross=users[1:],
        )
        assert pred.shape == (8, 4)
        np.testing.assert_allclose(pred.sum(axis=1), 1.0, atol=1e-9)


class TestPredictionEval:
    def test_tasks_and_rows(self):
        videos = {
            "v0": synthesize_trajectories(TrajectorySpec(users=6, duration_s=15.0, seed=0))
        }
        rng = np.random.default_rng(0)
        tasks = sample_tasks(videos, 5, history_len=4, horizon=6, cross_users=3, rng=rng)
        bundle = PredictorBundle(grid=TileGrid(3, 3), fov_deg=(100.0, 100.0), knn_k=3)
        rows = evaluate_prediction(tasks, bundle, ("static", "lr", "knn"), (2, 6))
        assert len(rows) == 5 * 3 * 2
        for row in rows:
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert row["longitude_error_deg"] >= 0.0


def _fast_predict_config(tmp_path, seed=0):
    return ExperimentConfig(
        kind="predict",
        out_dir=str(tmp_path / "run"),
        seed=seed,
        trajectories=TrajectorySpec(users=5, duration_s=10.0, seed=seed),
        n_videos=2,
        predictors=("static", "lr", "knn"),
        horizons_s=(0.5, 1.0),
        history_s=0.5,
        n_tasks=6,
        cross_users=3,
        knn_k=3,
    )


def _fast_stream_config(tmp_path, seed=0):
    return ExperimentConfig(
        kind="stream",
        out_dir=str(tmp_path / "run"),
        seed=seed,
        trajectories=TrajectorySpec(users=2, duration_s=10.0, seed=seed),
        n_videos=2,
        n_traces=2,
        traces=TraceSpec(duration_s=30.0, seed=seed),
        abr=("bb", "greedy"),
        grid_rows=2,
        grid_cols=2,
        levels_mbps=(1.0, 2.0, 4.0),
        n_segments=8,
    )


class TestRunExperiment:
    def test_predict_outputs_and_summary(self, tmp_path):
        cfg = _fast_predict_config(tmp_path)
        results = run_experiment(cfg)
        out = Path(cfg.out_dir)
        assert (out / "prediction_metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == SCHEMA_VERSION
        assert set(results) == {"static", "lr", "knn", "error_count"}
        assert results["error_count"] == 0

    def test_stream_outputs_and_breakdown_totals(self, tmp_path):
        cfg = _fast_stream_config(tmp_path)
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        lines = (out / "qoe_breakdown.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = {name: k for k, name in enumerate(header)}
        assert lines[1:], "breakdown should not be empty"
        for line in lines[1:]:
            cells = line.split(",")
            q1, q2, q3, q4, total = (
                float(cells[idx[c]]) for c in ("q1", "q2", "q3", "q4", "total")
            )
            assert total == pytest.approx(q1 - q2 - q3 - 4.3 * q4, abs=1e-9)

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = _fast_predict_config(tmp_path / "a", seed=3)
        cfg2 = _fast_predict_config(tmp_path / "b", seed=3)
        run_experiment(cfg1)
        run_experiment(cfg2)
        csv1 = (Path(cfg1.out_dir) / "prediction_metrics.csv").read_bytes()
        csv2 = (Path(cfg2.out_dir) / "prediction_metrics.csv").read_bytes()
        assert csv1 == csv2

    def test_replay_from_summary(self, tmp_path):
        cfg = _fast_stream_config(tmp_path / "orig", seed=5)
        run_experiment(cfg)
        orig = Path(cfg.out_dir)
        replay(orig / "summary.json", tmp_path / "replayed")
        for name in ("streaming_metrics.csv", "qoe_breakdown.csv"):
            assert (orig / name).read_bytes() == (tmp_path / "replayed" / name).read_bytes()

    def test_config_json_roundtrip(self, tmp_path):
        cfg = _fast_stream_config(tmp_path)
        d = cfg.to_dict()
        back = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
        assert back == cfg

    def test_partial_config_takes_defaults(self):
        cfg = ExperimentConfig.from_dict({"kind": "stream", "seed": 1})
        assert cfg == dataclasses.replace(ExperimentConfig(), kind="stream", seed=1)
        cfg = ExperimentConfig.from_dict({"traces": {"seed": 4}, "abr": ["greedy"]})
        assert cfg.traces == TraceSpec(seed=4)
        assert cfg.abr == ("greedy",)
        assert cfg.trajectories == TrajectorySpec()

    @pytest.mark.parametrize(
        "d,name", [({"seeds": 1}, "seeds"), ({"trajectories": {"user": 3}}, "user")]
    )
    def test_unknown_config_key_rejected(self, d, name):
        with pytest.raises(ConfigurationError, match=name):
            ExperimentConfig.from_dict(d)


class TestStreamWorld:
    def test_predictor_schedule_feeds_the_world(self, tmp_path):
        cfg = dataclasses.replace(
            _fast_stream_config(tmp_path),
            trajectories=TrajectorySpec(users=3, duration_s=10.0, seed=0),
            cross_users=2,
        )
        world = build_stream_world(cfg)
        assert all(np.array_equal(p, a) for p, a in world.schedules)
        lr_world = build_stream_world(dataclasses.replace(cfg, stream_predictor="lr"))
        for (p, a), (p0, a0) in zip(lr_world.schedules, world.schedules):
            np.testing.assert_array_equal(a, a0)
        assert any(not np.array_equal(p, a) for p, a in lr_world.schedules)

    def test_unknown_stream_predictor_rejected(self, tmp_path):
        cfg = dataclasses.replace(_fast_stream_config(tmp_path), stream_predictor="oracle")
        with pytest.raises(ConfigurationError, match="stream_predictor"):
            build_stream_world(cfg)


def _small_stream_config(tmp_path, **changes):
    return dataclasses.replace(
        _fast_stream_config(tmp_path),
        trajectories=TrajectorySpec(users=3, duration_s=10.0, seed=0),
        n_videos=1,
        n_traces=1,
        n_segments=5,
        cross_users=2,
        **changes,
    )


class TestStreamControllers:
    def test_attentive_stream_predictor_runs(self, tmp_path, monkeypatch):
        calls = []
        predict = CrossUserAttentiveNet.predict

        def counting_predict(net, task):
            calls.append(task)
            return predict(net, task)

        monkeypatch.setattr(CrossUserAttentiveNet, "predict", counting_predict)
        cfg = _small_stream_config(
            tmp_path,
            stream_predictor="attentive",
            horizons_s=(1.0,),
            attentive_hidden=4,
            attentive_epochs=1,
            attentive_train_tasks=8,
            attentive_batch=4,
        )
        results = run_experiment(cfg)
        assert results["error_count"] == 0
        # segments 2-4 have a full history window, so the network predicts them
        assert len(calls) == 3

    def test_agent_controller_runs(self, tmp_path):
        cfg = _small_stream_config(tmp_path, abr=("bb", "agent"))
        world = build_stream_world(cfg)
        PolicyNet(world.encoder(), filters=4, scalar_units=4).save(tmp_path / "policy.ckpt")
        cfg = dataclasses.replace(cfg, agent_checkpoint=str(tmp_path / "policy.ckpt"))
        results = run_experiment(cfg)
        assert results["error_count"] == 0
        assert set(results) == {"bb", "agent", "error_count"}
        assert np.isfinite(results["agent"]["mean_qoe"])

    def _assert_rejected(self, cfg, match):
        with pytest.raises(ConfigurationError, match=match):
            run_experiment(cfg)
        assert not Path(cfg.out_dir).exists(), "a rejected config must write nothing"

    def test_unknown_abr_rejected_before_any_report(self, tmp_path):
        self._assert_rejected(_small_stream_config(tmp_path, abr=("bb", "mpc")), "mpc")

    def test_unknown_predictor_rejected_before_any_report(self, tmp_path):
        cfg = dataclasses.replace(_fast_predict_config(tmp_path), predictors=("static", "bogus"))
        self._assert_rejected(cfg, "bogus")

    def test_unknown_kind_rejected_before_any_report(self, tmp_path):
        self._assert_rejected(_small_stream_config(tmp_path, kind="train"), "kind 'train'")

    def test_agent_without_checkpoint_rejected(self, tmp_path):
        self._assert_rejected(_small_stream_config(tmp_path, abr=("agent",)), "agent_checkpoint")

    def test_checkpoint_ladder_mismatch_rejected(self, tmp_path):
        encoder = StateEncoder(
            n_levels=2, chunk_scale=1.0, rate_scale=1.0, throughput_scale=1.0, buffer_scale=1.0
        )
        PolicyNet(encoder, filters=4, scalar_units=4).save(tmp_path / "policy.ckpt")
        cfg = _small_stream_config(
            tmp_path, abr=("agent",), agent_checkpoint=str(tmp_path / "policy.ckpt")
        )
        self._assert_rejected(cfg, "2 levels, levels_mbps has 3")


class TestSweeps:
    def _tiny_world(self):
        from tile360.environment import VideoManifest
        from tile360.qoe import QoeWeights

        grid = TileGrid(1, 2)
        manifests = [
            VideoManifest.synthetic(grid, 3, level_mbps=(1.0, 4.0), seed=0)
        ]
        traces = synthesize_traces(TraceSpec(duration_s=20.0, seed=0), 2)
        traj = synthesize_trajectories(TrajectorySpec(users=1, duration_s=5.0, seed=0))[0]
        actual = probs_schedule(traj, grid, (100.0, 100.0), 3, 1.0)
        return StreamWorld(
            manifests=manifests,
            traces=[t.augmented() for t in traces],
            schedules=[(actual, actual)],
            weights=QoeWeights(),
            buffer_cap_s=4.0,
        )

    def test_decision_order_sweep_emits_four_rows(self):
        from tile360.agent import TrainConfig
        from tile360.harness import sweep_decision_order

        world = self._tiny_world()
        rows = sweep_decision_order(
            world,
            TrainConfig(max_iterations=30, workers=1, seed=0, filters=4, scalar_units=4),
        )
        assert [r["order"] for r in rows] == [
            "high_to_low",
            "low_to_high",
            "z_scan",
            "random",
        ]
        assert all(np.isfinite(r["mean_qoe"]) for r in rows)

    def test_buffer_cap_sweep_rows(self):
        from tile360.agent import PolicyNet, TrainConfig
        from tile360.harness import sweep_buffer_cap

        world = self._tiny_world()
        policy = PolicyNet(world.encoder(), filters=4, scalar_units=4, seed=0)
        rows = sweep_buffer_cap(world, policy, caps_s=(2.0, 4.0))
        assert [r["buffer_cap_s"] for r in rows] == [2.0, 4.0]
