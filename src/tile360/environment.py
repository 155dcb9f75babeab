"""Trace-driven streaming environment: downloads, buffer, stalls, reward.

One environment instance plays one video against one network trace. Each
step downloads every tile chunk of the next segment at the chosen levels,
charges the download against the piecewise-constant throughput trace,
updates the playback buffer, and scores the segment with the QoE model
using the *actual* viewing probabilities and the *actual* (trace-integrated)
stall time.

Time accounting: every step consumes trace time equal to the download time
plus any idle wait for buffer room. Stalls happen inside the download (the
buffer runs dry while bytes are still arriving), so

    wall_clock = playing_download + stalled_download + idle

holds exactly, and equals the total trace time consumed.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ParameterError, ProtocolError
from .geometry import TileGrid, neighbor_pairs
from .qoe import (
    QoeBreakdown,
    QoeWeights,
    SegmentDecision,
    pair_variation,
    qoe_score,
    temporal_variation,
)

Array = np.ndarray

TRACE_FORMAT = "net-trace-v1"
MANIFEST_FORMAT = "video-manifest-v1"

DEFAULT_LEVELS_MBPS = (0.5, 1.0, 2.0, 4.0, 8.0)
DEFAULT_BUFFER_CAP_S = 6.0
DEFAULT_THROUGHPUT_PRIOR_MBPS = 1.0
DOWNLOAD_HISTORY_LEN = 5

# Trace augmentation used when replaying commuter-style traces: lift the
# floor so the lowest level is always affordable, cap so the top level is not
# always affordable.
AUGMENT_ADD_MBPS = 3.0
AUGMENT_CAP_MBPS = 8.0


# ---------------------------------------------------------------------------
# network traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkTrace:
    """Piecewise-constant throughput series.

    Sample k's throughput holds on [t_k, t_{k+1}); the trace loops after the
    final timestamp. A single-sample trace is constant forever.
    """

    timestamps: Array
    throughput_mbps: Array
    name: str = ""

    def __post_init__(self) -> None:
        t = np.asarray(self.timestamps, dtype=np.float64)
        bw = np.asarray(self.throughput_mbps, dtype=np.float64)
        if t.size == 0:
            raise ConfigurationError("a network trace needs at least one sample")
        if t.size != bw.size:
            raise ConfigurationError("trace timestamp/throughput lengths differ")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ConfigurationError("trace timestamps must be strictly increasing")
        if np.any(bw < 0) or not np.all(np.isfinite(bw)):
            raise ConfigurationError("trace throughputs must be finite and nonnegative")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "throughput_mbps", bw)

    def _playback(self) -> tuple[list[float], list[float], list[float], float, bool]:
        """Cached (starts, durations, throughputs, loop length) as plain floats,
        plus whether any throughput is positive.

        The download integrator runs hundreds of thousands of times inside
        exhaustive searches, so this avoids rebuilding arrays per call.
        """
        cached = self.__dict__.get("_playback_cache")
        if cached is None:
            if len(self.timestamps) == 1:
                durations = [1.0]
            else:
                gaps = np.diff(self.timestamps)
                durations = list(map(float, np.append(gaps, gaps.mean())))
            starts = [0.0]
            for d in durations[:-1]:
                starts.append(starts[-1] + d)
            bws = list(map(float, self.throughput_mbps))
            cached = (starts, durations, bws, sum(durations), max(bws) > 0.0)
            self.__dict__["_playback_cache"] = cached
        return cached

    @property
    def loop_duration(self) -> float:
        """Length of one playback loop; the last sample holds for the mean gap."""
        return self._playback()[3]

    def augmented(
        self, add_mbps: float = AUGMENT_ADD_MBPS, cap_mbps: float = AUGMENT_CAP_MBPS
    ) -> "NetworkTrace":
        """Shifted-and-capped copy: bw -> min(bw + add, cap)."""
        return replace(
            self, throughput_mbps=np.minimum(self.throughput_mbps + add_mbps, cap_mbps)
        )

    @classmethod
    def constant(cls, mbps: float, duration_s: float = 1.0, name: str = "") -> "NetworkTrace":
        return cls(np.array([0.0, duration_s]), np.array([mbps, mbps]), name=name)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# format={TRACE_FORMAT}\n")
            fh.write("timestamp_s,throughput_mbps\n")
            for t, bw in zip(self.timestamps, self.throughput_mbps):
                fh.write(f"{t:.6f},{bw:.6f}\n")

    @classmethod
    def from_csv(cls, path, name: str | None = None) -> "NetworkTrace":
        times, bws = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("timestamp"):
                    continue
                t, bw = line.split(",")
                times.append(float(t))
                bws.append(float(bw))
        return cls(np.array(times), np.array(bws), name=name or str(path))


def download_time(size_mbit: float, trace: NetworkTrace, cursor_s: float) -> tuple[float, float]:
    """Seconds to deliver ``size_mbit`` starting at trace position ``cursor_s``.

    Integrates the piecewise-constant throughput, looping the trace as
    needed; returns (elapsed seconds, new cursor). Intervals with zero
    throughput stall the transfer until the next interval.
    """
    if size_mbit <= 0:
        raise ParameterError("download size must be positive")
    starts, durations, bws, loop, any_positive = trace._playback()
    if not any_positive:
        raise ConfigurationError("trace has no positive-throughput interval")
    cursor = cursor_s % loop
    idx = bisect.bisect_right(starts, cursor) - 1
    elapsed = 0.0
    remaining = float(size_mbit)
    offset = cursor - starts[idx]
    n = len(durations)
    while True:
        avail_time = durations[idx] - offset
        bw = bws[idx]
        capacity = bw * avail_time
        if capacity >= remaining and bw > 0.0:
            dt = remaining / bw
            elapsed += dt
            cursor = (starts[idx] + offset + dt) % loop
            return elapsed, cursor
        remaining -= capacity
        elapsed += avail_time
        idx += 1
        if idx == n:
            idx = 0
        offset = 0.0


def download_times(
    sizes_mbit: Array, trace: NetworkTrace, cursors_s: Array
) -> tuple[Array, Array]:
    """Lane-wise ``download_time``: one independent download per lane.

    Each lane performs the scalar integrator's operations in the same order
    (``np.remainder`` for ``%``, ``searchsorted(side="right")`` for
    ``bisect_right``, then ``remaining -= capacity`` and ``elapsed += avail``
    per interval crossed), so lane k returns exactly
    ``download_time(sizes_mbit[k], trace, cursors_s[k])``. Lanes drop out as
    their download completes. For a single download the scalar function is
    much cheaper.
    """
    remaining = np.array(sizes_mbit, dtype=np.float64)
    if np.any(remaining <= 0):
        raise ParameterError("download size must be positive")
    *intervals, loop, any_positive = trace._playback()
    if not any_positive:
        raise ConfigurationError("trace has no positive-throughput interval")
    starts, durations, bws = (np.array(values) for values in intervals)
    cursor = np.remainder(np.asarray(cursors_s, dtype=np.float64), loop)
    idx = np.searchsorted(starts, cursor, side="right") - 1
    offset = cursor - starts[idx]
    elapsed = np.zeros_like(remaining)
    out_elapsed = np.empty_like(remaining)
    out_cursor = np.empty_like(remaining)
    lane = np.arange(remaining.size)
    while lane.size:
        avail_time = durations[idx] - offset
        bw = bws[idx]
        capacity = bw * avail_time
        done = (capacity >= remaining) & (bw > 0.0)
        if done.any():
            dt = remaining[done] / bw[done]
            out_elapsed[lane[done]] = elapsed[done] + dt
            out_cursor[lane[done]] = np.remainder(starts[idx[done]] + offset[done] + dt, loop)
            left = ~done
            lane, idx, remaining, elapsed, avail_time, capacity = (
                x[left] for x in (lane, idx, remaining, elapsed, avail_time, capacity)
            )
        remaining -= capacity
        elapsed += avail_time
        idx += 1
        idx[idx == starts.size] = 0
        offset = np.zeros(lane.size)
    return out_elapsed, out_cursor


def harmonic_throughput(
    history: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    prior_mbps: float = DEFAULT_THROUGHPUT_PRIOR_MBPS,
) -> float:
    """Harmonic mean of per-download average throughputs (size_mbit, seconds).

    Uses the most recent five entries; an empty history falls back to the
    configured prior.
    """
    recent = list(history)[-DOWNLOAD_HISTORY_LEN:]
    if not recent:
        return float(prior_mbps)
    rates = [size / dur for size, dur in recent]
    return len(rates) / sum(1.0 / r for r in rates)


# ---------------------------------------------------------------------------
# video manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VideoManifest:
    """Per-tile, per-level chunk inventory for one video.

    ``level_mbps`` are whole-video nominal bitrates; each tile carries an
    equal share, so ``tile_rates[i, j] = level_mbps[j] / n_tiles`` and a
    chunk's expected size is ``tile_rates[i, j] * segment_duration``.
    ``chunk_sizes`` is (segments, tiles, levels) in Mbit.
    """

    grid: TileGrid
    level_mbps: tuple[float, ...]
    segment_duration: float
    chunk_sizes: Array
    video_id: str = ""

    def __post_init__(self) -> None:
        sizes = np.asarray(self.chunk_sizes, dtype=np.float64)
        if sizes.ndim != 3 or sizes.shape[1] != self.grid.n_tiles or sizes.shape[2] != len(self.level_mbps):
            raise ConfigurationError("chunk_sizes must be (segments, tiles, levels)")
        if np.any(sizes <= 0):
            raise ConfigurationError("chunk sizes must be positive")
        if np.any(np.diff(sizes, axis=2) < 0):
            raise ConfigurationError("chunk sizes must be nondecreasing in level")
        if self.segment_duration <= 0:
            raise ConfigurationError("segment duration must be positive")
        if list(self.level_mbps) != sorted(self.level_mbps) or self.level_mbps[0] <= 0:
            raise ConfigurationError("level bitrates must be positive and ascending")
        object.__setattr__(self, "chunk_sizes", sizes)

    @property
    def n_tiles(self) -> int:
        return self.grid.n_tiles

    @property
    def n_levels(self) -> int:
        return len(self.level_mbps)

    @property
    def n_segments(self) -> int:
        return int(self.chunk_sizes.shape[0])

    @property
    def tile_rates(self) -> Array:
        """(tiles, levels) nominal per-tile bitrates in Mbps (cached)."""
        cached = self.__dict__.get("_tile_rates_cache")
        if cached is None:
            share = np.asarray(self.level_mbps, dtype=np.float64) / self.n_tiles
            cached = np.tile(share, (self.n_tiles, 1))
            self.__dict__["_tile_rates_cache"] = cached
        return cached

    def segment_bytes(self, segment: int, levels: Array) -> float:
        """Total Mbit of one segment at the given per-tile levels."""
        return float(
            self.chunk_sizes[segment, np.arange(self.n_tiles), np.asarray(levels)].sum()
        )

    @classmethod
    def synthetic(
        cls,
        grid: TileGrid,
        n_segments: int,
        segment_duration: float = 1.0,
        level_mbps: tuple[float, ...] = DEFAULT_LEVELS_MBPS,
        seed: int = 0,
        jitter_sigma: float = 0.2,
        video_id: str = "",
    ) -> "VideoManifest":
        """Synthetic chunk ladder with per-(segment, tile) VBR jitter.

        One lognormal factor with mean 1 is shared by all levels of a
        (segment, tile) pair, emulating content complexity while keeping the
        ladder monotone and the expected chunk size exactly
        ``level_mbps[j] / n_tiles * segment_duration``.
        """
        rng = np.random.default_rng(seed)
        share = np.asarray(level_mbps, dtype=np.float64) / grid.n_tiles
        base = share * segment_duration
        if jitter_sigma > 0:
            factors = rng.lognormal(
                mean=-0.5 * jitter_sigma**2,
                sigma=jitter_sigma,
                size=(n_segments, grid.n_tiles),
            )
        else:
            factors = np.ones((n_segments, grid.n_tiles))
        sizes = factors[:, :, None] * base[None, None, :]
        return cls(
            grid=grid,
            level_mbps=tuple(level_mbps),
            segment_duration=segment_duration,
            chunk_sizes=sizes,
            video_id=video_id,
        )

    def to_json(self, path) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "video_id": self.video_id,
            "grid": {"rows": self.grid.rows, "cols": self.grid.cols},
            "level_mbps": list(self.level_mbps),
            "segment_duration_s": self.segment_duration,
            "chunk_sizes_mbit": self.chunk_sizes.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "VideoManifest":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(f"{path} is not a {MANIFEST_FORMAT} file")
        if "chunk_sizes_mbit" in payload:
            sizes = np.asarray(payload["chunk_sizes_mbit"], dtype=np.float64)
            return cls(
                grid=TileGrid(payload["grid"]["rows"], payload["grid"]["cols"]),
                level_mbps=tuple(payload["level_mbps"]),
                segment_duration=payload["segment_duration_s"],
                chunk_sizes=sizes,
                video_id=payload.get("video_id", ""),
            )
        gen = payload["generator"]
        return cls.synthetic(
            grid=TileGrid(payload["grid"]["rows"], payload["grid"]["cols"]),
            n_segments=gen["n_segments"],
            segment_duration=payload["segment_duration_s"],
            level_mbps=tuple(payload["level_mbps"]),
            seed=gen["seed"],
            jitter_sigma=gen.get("jitter_sigma", 0.2),
            video_id=payload.get("video_id", ""),
        )


# ---------------------------------------------------------------------------
# the streaming environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamState:
    """Observation at the moment the player requests the next segment."""

    segment_index: int
    buffer_s: float
    download_history: tuple[tuple[float, float], ...]  # (mbit, seconds), newest last
    last_viewport_quality: float
    predicted_probs: Array | None = None

    def throughput_estimate(self, prior_mbps: float = DEFAULT_THROUGHPUT_PRIOR_MBPS) -> float:
        return harmonic_throughput(self.download_history, prior_mbps)


@dataclass(frozen=True)
class StepResult:
    reward: float
    breakdown: QoeBreakdown
    state: StreamState
    done: bool
    download_s: float = 0.0
    rebuffer_s: float = 0.0
    idle_s: float = 0.0


@dataclass
class TimeAccount:
    """Conservation ledger: wall clock equals trace time consumed."""

    playing_download_s: float = 0.0
    rebuffer_s: float = 0.0
    idle_s: float = 0.0
    trace_consumed_s: float = 0.0

    @property
    def wall_clock_s(self) -> float:
        return self.playing_download_s + self.rebuffer_s + self.idle_s


class StreamEnv:
    """One video played over one network trace with a bounded buffer."""

    def __init__(
        self,
        manifest: VideoManifest,
        trace: NetworkTrace,
        weights: QoeWeights = QoeWeights(),
        buffer_cap_s: float = DEFAULT_BUFFER_CAP_S,
        throughput_prior_mbps: float = DEFAULT_THROUGHPUT_PRIOR_MBPS,
    ) -> None:
        if buffer_cap_s < manifest.segment_duration:
            raise ConfigurationError("buffer cap must hold at least one segment")
        if float(trace.throughput_mbps.max()) <= 0:
            raise ConfigurationError("trace never has positive throughput")
        self.manifest = manifest
        self.trace = trace
        self.weights = weights
        self.buffer_cap_s = float(buffer_cap_s)
        self.throughput_prior_mbps = float(throughput_prior_mbps)
        self._pairs = neighbor_pairs(manifest.grid)
        self._started = False

    # -- state bookkeeping ---------------------------------------------------

    def reset(self, seed: int | None = None, predicted_probs: Array | None = None) -> StreamState:
        """Start a fresh episode; the trace cursor lands at a seeded offset."""
        rng = np.random.default_rng(seed)
        self._cursor = float(rng.uniform(0.0, self.trace.loop_duration))
        self._segment = 0
        self._buffer = 0.0
        self._history: list[tuple[float, float]] = []
        self._last_q1 = 0.0
        self.account = TimeAccount()
        self._started = True
        return self._observe(predicted_probs)

    def _observe(self, predicted_probs: Array | None) -> StreamState:
        return StreamState(
            segment_index=self._segment,
            buffer_s=self._buffer,
            download_history=tuple(self._history[-DOWNLOAD_HISTORY_LEN:]),
            last_viewport_quality=self._last_q1,
            predicted_probs=None if predicted_probs is None else np.asarray(predicted_probs),
        )

    def snapshot(self) -> dict:
        """Cheap copyable state for search algorithms that backtrack."""
        return {
            "cursor": self._cursor,
            "segment": self._segment,
            "buffer": self._buffer,
            "history": list(self._history),
            "last_q1": self._last_q1,
            "account": replace(self.account),
        }

    def restore(self, snap: dict) -> None:
        self._cursor = snap["cursor"]
        self._segment = snap["segment"]
        self._buffer = snap["buffer"]
        self._history = list(snap["history"])
        self._last_q1 = snap["last_q1"]
        self.account = replace(snap["account"])

    @property
    def segment_index(self) -> int:
        return self._segment

    @property
    def done(self) -> bool:
        return self._segment >= self.manifest.n_segments

    # -- dynamics --------------------------------------------------------------

    def step(
        self,
        decision: SegmentDecision,
        actual_probs: Array,
        predicted_next: Array | None = None,
    ) -> StepResult:
        """Download the next segment at the decided levels and score it."""
        if not self._started:
            raise ProtocolError("call reset() before step()")
        if self.done:
            raise ProtocolError("episode is over; reset() to start another")
        if decision.segment_index is not None and decision.segment_index != self._segment:
            raise ProtocolError(
                f"decision targets segment {decision.segment_index}, "
                f"environment expects {self._segment}"
            )
        probs = np.asarray(actual_probs, dtype=np.float64)
        if probs.shape != (self.manifest.n_tiles,):
            raise ParameterError(
                f"actual_probs has shape {probs.shape}, expected ({self.manifest.n_tiles},)"
            )

        T = self.manifest.segment_duration
        # wait for buffer room before requesting (drains at playback rate)
        idle = max(0.0, self._buffer + T - self.buffer_cap_s)
        if idle > 0.0:
            self._buffer -= idle
            self._cursor = (self._cursor + idle) % self.trace.loop_duration

        size_mbit = self.manifest.segment_bytes(self._segment, decision.levels)
        delta, self._cursor = download_time(size_mbit, self.trace, self._cursor)
        rebuffer = max(delta - self._buffer, 0.0)
        self._buffer = min(max(self._buffer - delta, 0.0) + T, self.buffer_cap_s)
        self._history.append((size_mbit, delta))
        if len(self._history) > DOWNLOAD_HISTORY_LEN:
            self._history = self._history[-DOWNLOAD_HISTORY_LEN:]

        rates = decision.chosen_rates()
        q1 = float(np.dot(probs, rates))
        q2 = temporal_variation(q1, self._last_q1)
        q3 = pair_variation(probs, rates, self._pairs)
        breakdown = qoe_score(q1, q2, q3, rebuffer, self.weights)

        self.account.playing_download_s += delta - rebuffer
        self.account.rebuffer_s += rebuffer
        self.account.idle_s += idle
        self.account.trace_consumed_s += delta + idle

        self._last_q1 = q1
        self._segment += 1
        state = self._observe(predicted_next)
        return StepResult(
            reward=breakdown.total,
            breakdown=breakdown,
            state=state,
            done=self.done,
            download_s=delta,
            rebuffer_s=rebuffer,
            idle_s=idle,
        )
