"""Streaming environment tests: trace integration, buffer dynamics, files."""

import numpy as np
import pytest

from tile360.environment import (
    NetworkTrace,
    StreamEnv,
    VideoManifest,
    download_time,
    download_times,
    harmonic_throughput,
)
from tile360.errors import ConfigurationError, ParameterError, ProtocolError
from tile360.geometry import TileGrid
from tile360.qoe import QoeWeights, SegmentDecision


def make_manifest(rows=1, cols=2, segments=3, levels=(1.0, 4.0), seed=0, jitter=0.0):
    return VideoManifest.synthetic(
        TileGrid(rows, cols), segments, level_mbps=levels, seed=seed, jitter_sigma=jitter
    )


class TestNetworkTrace:
    def test_augmentation_adds_and_caps(self):
        trace = NetworkTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, 4.0, 7.0]))
        aug = trace.augmented()
        np.testing.assert_allclose(aug.throughput_mbps, [4.0, 7.0, 8.0])

    def test_strictly_increasing_required(self):
        with pytest.raises(ConfigurationError):
            NetworkTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_csv_roundtrip(self, tmp_path):
        trace = NetworkTrace(np.array([0.0, 1.5, 3.0]), np.array([2.0, 0.5, 6.0]), name="t")
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = NetworkTrace.from_csv(path)
        np.testing.assert_allclose(back.timestamps, trace.timestamps)
        np.testing.assert_allclose(back.throughput_mbps, trace.throughput_mbps)

    def test_version_line_present(self, tmp_path):
        path = tmp_path / "trace.csv"
        NetworkTrace.constant(2.0).to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "# format=net-trace-v1"


class TestDownloadTime:
    def test_constant_rate(self):
        trace = NetworkTrace.constant(2.0, duration_s=10.0)
        dt, _ = download_time(4.0, trace, 0.0)
        assert dt == pytest.approx(2.0)

    def test_piecewise_hand_integration(self):
        # 1 Mbps for 1 s, then 3 Mbps: 4 Mbit = 1 Mbit in first second + 1 s at 3
        trace = NetworkTrace(np.array([0.0, 1.0, 100.0]), np.array([1.0, 3.0, 3.0]))
        dt, cursor = download_time(4.0, trace, 0.0)
        assert dt == pytest.approx(2.0)
        assert cursor == pytest.approx(2.0)

    def test_loops_past_trace_end(self):
        trace = NetworkTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        dt, _ = download_time(5.0, trace, 0.0)  # 1 Mbps forever
        assert dt == pytest.approx(5.0)

    def test_tiny_chunk_positive_time(self):
        trace = NetworkTrace.constant(8.0)
        dt, _ = download_time(1e-6, trace, 0.3)
        assert dt > 0.0

    def test_zero_size_rejected(self):
        with pytest.raises(ParameterError):
            download_time(0.0, NetworkTrace.constant(1.0), 0.0)

    def test_all_zero_trace_raises_instead_of_looping(self):
        trace = NetworkTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        for _ in range(2):  # the second call reads the cached flag
            with pytest.raises(ConfigurationError, match="no positive-throughput"):
                download_time(1.0, trace, 0.5)


class TestDownloadTimes:
    @pytest.mark.parametrize(
        "trace",
        [
            NetworkTrace(np.arange(6.0), np.array([3.0, 0.0, 0.0, 5.0, 0.0, 1.5])),
            NetworkTrace(np.array([0.0, 0.7, 1.1, 2.9]), np.array([0.0, 2.0, 0.0, 4.0])),
            NetworkTrace(np.array([0.0]), np.array([2.5])),
            NetworkTrace.constant(1.3, duration_s=0.4),
        ],
        ids=["zero-intervals", "starts-at-zero", "one-sample", "constant"],
    )
    def test_lanes_equal_scalar(self, trace):
        rng = np.random.default_rng(0)
        loop = trace.loop_duration
        peak = float(trace.throughput_mbps.max())
        sizes = rng.uniform(1e-4, 3.0 * loop * peak, 300)
        cursors = rng.uniform(-loop, 3.0 * loop, 300)
        cursors[:3] = (0.0, loop, trace._playback()[0][-1])  # on interval edges
        elapsed, cursor = download_times(sizes, trace, cursors)
        assert elapsed.max() > loop, "some downloads must outlast one trace loop"
        for k in range(sizes.size):
            assert (elapsed[k], cursor[k]) == download_time(sizes[k], trace, cursors[k])

    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(ParameterError):
            download_times(np.array([1.0, 0.0]), NetworkTrace.constant(1.0), np.zeros(2))
        trace = NetworkTrace(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ConfigurationError, match="no positive-throughput"):
            download_times(np.ones(2), trace, np.zeros(2))


class TestHarmonicThroughput:
    def test_constant(self):
        hist = [(2.0, 1.0)] * 3
        assert harmonic_throughput(hist) == pytest.approx(2.0)

    def test_two_point(self):
        hist = [(1.0, 1.0), (3.0, 1.0)]  # rates 1 and 3 -> harmonic mean 1.5
        assert harmonic_throughput(hist) == pytest.approx(1.5)

    def test_empty_uses_prior(self):
        assert harmonic_throughput([], prior_mbps=1.0) == 1.0

    def test_uses_last_five_only(self):
        hist = [(100.0, 1.0)] + [(2.0, 1.0)] * 5
        assert harmonic_throughput(hist) == pytest.approx(2.0)


class TestManifest:
    def test_expected_chunk_size_is_nominal(self):
        m = make_manifest(segments=50, jitter=0.0)
        # per-tile share of a 4 Mbps level over T=1 in a 2-tile grid
        np.testing.assert_allclose(m.chunk_sizes[:, :, 1], 2.0)
        np.testing.assert_allclose(m.tile_rates[0], [0.5, 2.0])

    def test_jitter_preserves_monotonicity_and_mean(self):
        m = VideoManifest.synthetic(
            TileGrid(2, 2), 400, level_mbps=(0.5, 1.0, 2.0), seed=1, jitter_sigma=0.2
        )
        assert np.all(np.diff(m.chunk_sizes, axis=2) >= 0)
        mean = m.chunk_sizes[:, :, 2].mean()
        assert abs(mean - 0.5) < 0.02  # 2 Mbps / 4 tiles * 1 s, lognormal mean 1

    def test_json_roundtrip(self, tmp_path):
        m = make_manifest(jitter=0.2, seed=3)
        path = tmp_path / "video.json"
        m.to_json(path)
        back = VideoManifest.from_json(path)
        np.testing.assert_allclose(back.chunk_sizes, m.chunk_sizes)
        assert back.level_mbps == m.level_mbps
        assert back.grid == m.grid

    def test_nonmonotone_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            VideoManifest(
                grid=TileGrid(1, 1),
                level_mbps=(1.0, 2.0),
                segment_duration=1.0,
                chunk_sizes=np.array([[[2.0, 1.0]]]),
            )


def uniform_probs(n):
    return np.full(n, 1.0 / n)


class TestStreamEnv:
    def test_reset_deterministic(self):
        m = make_manifest()
        trace = NetworkTrace(np.arange(5.0), np.array([1, 2, 3, 2, 1.0]))
        env = StreamEnv(m, trace)
        env.reset(seed=7)
        c1 = env.snapshot()["cursor"]
        env.reset(seed=7)
        assert env.snapshot()["cursor"] == c1
        env.reset(seed=8)
        assert env.snapshot()["cursor"] != c1

    def test_reset_zero_buffer(self):
        env = StreamEnv(make_manifest(), NetworkTrace.constant(2.0))
        state = env.reset(seed=0)
        assert state.buffer_s == 0.0
        assert state.segment_index == 0
        assert state.download_history == ()

    def test_no_stall_with_big_buffer(self):
        m = make_manifest(segments=8, levels=(0.1, 0.2))
        env = StreamEnv(m, NetworkTrace.constant(100.0), buffer_cap_s=6.0)
        env.reset(seed=0)
        # preload buffer by stepping with tiny chunks
        for seg in range(4):
            d = SegmentDecision(
                levels=np.zeros(2, int),
                ladder=m.tile_rates,
                probs=uniform_probs(2),
                segment_index=seg,
            )
            r = env.step(d, uniform_probs(2))
        assert r.rebuffer_s == 0.0
        assert r.state.buffer_s <= 6.0

    def test_cold_start_stall(self):
        m = make_manifest(segments=1, levels=(2.0,), jitter=0.0)
        env = StreamEnv(m, NetworkTrace.constant(1.0))
        env.reset(seed=0)
        d = SegmentDecision(
            levels=np.zeros(2, int), ladder=m.tile_rates, probs=uniform_probs(2), segment_index=0
        )
        r = env.step(d, uniform_probs(2))  # 2 Mbit at 1 Mbps = 2 s, buffer 0
        assert r.rebuffer_s == pytest.approx(2.0)
        assert r.state.buffer_s == pytest.approx(1.0)

    def test_three_segment_manual_simulation(self):
        # constant 2 Mbps, levels 1/4 Mbps over 2 tiles, no jitter, uniform p
        m = make_manifest(segments=3, levels=(1.0, 4.0), jitter=0.0)
        env = StreamEnv(m, NetworkTrace.constant(2.0), weights=QoeWeights(1, 1, 4.3))
        env.reset(seed=0)
        probs = uniform_probs(2)
        levels = [np.array([0, 0]), np.array([1, 1]), np.array([1, 0])]
        # hand simulation:
        #   seg0: 1 Mbit at 2 Mbps = 0.5 s; rebuf 0.5; buffer 0 + 1 = 1.0; q1 = 0.5
        #   seg1: 4 Mbit -> 2.0 s; rebuf 1.0; buffer 0 + 1 = 1.0; q1 = 2.0
        #   seg2: 2.5 Mbit -> 1.25 s; rebuf 0.25; buffer 0 + 1 = 1.0; q1 = 1.25
        expected_rebuf = [0.5, 1.0, 0.25]
        expected_buffer = [1.0, 1.0, 1.0]
        expected_q1 = [0.5, 2.0, 1.25]
        expected_q2 = [0.5, 1.5, 0.75]
        # spatial: p_i p_u |r_i - r_u| over the single pair
        expected_q3 = [0.0, 0.0, 0.25 * 1.5]
        for seg in range(3):
            d = SegmentDecision(
                levels=levels[seg], ladder=m.tile_rates, probs=probs, segment_index=seg
            )
            r = env.step(d, probs)
            assert r.rebuffer_s == pytest.approx(expected_rebuf[seg])
            assert r.state.buffer_s == pytest.approx(expected_buffer[seg])
            assert r.breakdown.q1 == pytest.approx(expected_q1[seg])
            assert r.breakdown.q2 == pytest.approx(expected_q2[seg])
            assert r.breakdown.q3 == pytest.approx(expected_q3[seg])
            assert r.breakdown.q4 == pytest.approx(expected_rebuf[seg])
            expected_total = (
                expected_q1[seg] - expected_q2[seg] - expected_q3[seg] - 4.3 * expected_rebuf[seg]
            )
            assert r.reward == pytest.approx(expected_total)

    def test_wrong_segment_index_rejected(self):
        m = make_manifest()
        env = StreamEnv(m, NetworkTrace.constant(2.0))
        env.reset(seed=0)
        d = SegmentDecision(
            levels=np.zeros(2, int), ladder=m.tile_rates, probs=uniform_probs(2), segment_index=2
        )
        with pytest.raises(ProtocolError):
            env.step(d, uniform_probs(2))

    def test_wrong_probs_shape_rejected_before_download(self):
        m = make_manifest()
        env = StreamEnv(m, NetworkTrace.constant(2.0))
        env.reset(seed=0)
        before = env.snapshot()
        d = SegmentDecision(
            levels=np.zeros(2, int), ladder=m.tile_rates, probs=uniform_probs(2), segment_index=0
        )
        with pytest.raises(ParameterError, match="actual_probs"):
            env.step(d, uniform_probs(3))
        assert env.snapshot()["cursor"] == before["cursor"]
        assert env.segment_index == 0

    def test_step_before_reset_rejected(self):
        m = make_manifest()
        env = StreamEnv(m, NetworkTrace.constant(2.0))
        d = SegmentDecision(
            levels=np.zeros(2, int), ladder=m.tile_rates, probs=uniform_probs(2)
        )
        with pytest.raises(ProtocolError):
            env.step(d, uniform_probs(2))

    def test_conservation_and_buffer_bounds(self):
        rng = np.random.default_rng(0)
        m = make_manifest(rows=2, cols=2, segments=25, levels=(0.5, 2.0, 8.0), jitter=0.2, seed=5)
        trace = NetworkTrace(
            np.arange(40.0), np.clip(rng.lognormal(0.7, 0.6, 40), 0.3, 8.0)
        )
        env = StreamEnv(m, trace, buffer_cap_s=4.0)
        env.reset(seed=3)
        probs = uniform_probs(4)
        while not env.done:
            d = SegmentDecision(
                levels=rng.integers(0, 3, 4),
                ladder=m.tile_rates,
                probs=probs,
                segment_index=env.segment_index,
            )
            r = env.step(d, probs)
            assert 0.0 <= r.state.buffer_s <= 4.0 + 1e-12
        acct = env.account
        wall = acct.playing_download_s + acct.rebuffer_s + acct.idle_s
        assert wall == pytest.approx(acct.trace_consumed_s, abs=1e-9)

    def test_infinite_throughput_never_stalls(self):
        m = make_manifest(segments=10, levels=(1.0, 8.0), jitter=0.1, seed=2)
        env = StreamEnv(m, NetworkTrace.constant(1e9), buffer_cap_s=3.0)
        env.reset(seed=0)
        probs = uniform_probs(2)
        rng = np.random.default_rng(1)
        while not env.done:
            d = SegmentDecision(
                levels=rng.integers(0, 2, 2), ladder=m.tile_rates, probs=probs,
                segment_index=env.segment_index,
            )
            r = env.step(d, probs)
            assert r.rebuffer_s < 1e-6
        assert env.account.idle_s > 0.0  # the player had to wait for buffer room

    def test_buffer_cap_must_fit_segment(self):
        with pytest.raises(ConfigurationError):
            StreamEnv(make_manifest(), NetworkTrace.constant(1.0), buffer_cap_s=0.5)
