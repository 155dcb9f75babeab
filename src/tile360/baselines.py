"""Non-learned bitrate controllers: buffer-based, greedy knapsack, oracle.

The buffer-based rule maps buffer occupancy to one shared in-FoV level. The
greedy allocator treats the segment as a multiple-choice knapsack under a
byte budget and applies best-ratio single-tile upgrades. The brute-force
oracle exhaustively replays every decision sequence through the environment
and is the reference upper bound for small worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import StreamEnv, download_time
from .errors import InfeasibleError, ParameterError
from .geometry import neighbor_map
from .qoe import QoeWeights, SegmentDecision, spatial_variation, viewport_quality

Array = np.ndarray

ORACLE_GUARD = 10_000_000


@dataclass(frozen=True)
class BbConfig:
    """Reservoir/cushion thresholds (seconds) for the buffer-based rule."""

    reservoir_s: float = 1.0
    cushion_s: float = 5.0

    def __post_init__(self) -> None:
        if not (0 < self.reservoir_s < self.cushion_s):
            raise ParameterError("need 0 < reservoir < cushion")


def bb_select(
    buffer_s: float,
    ladder: Array,
    probs: Array,
    cfg: BbConfig = BbConfig(),
    segment_index: int | None = None,
) -> SegmentDecision:
    """Buffer-based selection: one ladder level shared by all in-FoV tiles.

    Below the reservoir the lowest level is used, above the cushion the
    highest; in between the level interpolates linearly (rounded down).
    Tiles with zero viewing probability always get the lowest level.
    """
    ladder = np.asarray(ladder, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    n_tiles, n_levels = ladder.shape
    if buffer_s <= cfg.reservoir_s:
        level = 0
    elif buffer_s >= cfg.cushion_s:
        level = n_levels - 1
    else:
        frac = (buffer_s - cfg.reservoir_s) / (cfg.cushion_s - cfg.reservoir_s)
        level = int(frac * (n_levels - 1))
    levels = np.where(probs > 0.0, level, 0)
    return SegmentDecision(
        levels=levels, ladder=ladder, probs=probs, segment_index=segment_index
    )


def greedy_mckp(
    ladder: Array,
    probs: Array,
    budget_mbit: float,
    weights: QoeWeights,
    neighbors: Sequence[frozenset[int]],
    chunk_sizes: Array,
    segment_index: int | None = None,
) -> SegmentDecision:
    """Greedy multiple-choice knapsack allocation under a byte budget.

    Starts from the all-lowest selection and repeatedly applies the
    single-tile upgrade (to any higher level, not just the next one) with
    the best (quality gain - weighted spatial-variation change) per extra
    Mbit that still fits, then polishes with single-tile reassignment local
    search. ``chunk_sizes`` is the (tiles, levels) cost matrix in Mbit for
    this segment.
    """
    ladder = np.asarray(ladder, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    chunk_sizes = np.asarray(chunk_sizes, dtype=np.float64)
    n_tiles, n_levels = ladder.shape
    levels = np.zeros(n_tiles, dtype=np.int64)
    spent = float(chunk_sizes[np.arange(n_tiles), levels].sum())
    if budget_mbit < spent:
        raise InfeasibleError(
            f"budget {budget_mbit:.3f} Mbit is below the all-lowest cost {spent:.3f}"
        )

    def objective(lv: Array) -> float:
        d = SegmentDecision(levels=lv, ladder=ladder, probs=probs)
        return viewport_quality(d) - weights.eta2 * spatial_variation(d, neighbors)

    score = objective(levels)
    while True:
        best = None
        for i in range(n_tiles):
            for target in range(levels[i] + 1, n_levels):
                extra = chunk_sizes[i, target] - chunk_sizes[i, levels[i]]
                if spent + extra > budget_mbit:
                    continue
                trial = levels.copy()
                trial[i] = target
                gain = objective(trial) - score
                ratio = gain / max(extra, 1e-12)
                if gain > 1e-12 and (best is None or (ratio, gain) > (best[0], best[3])):
                    best = (ratio, i, target, gain, extra)
        if best is None:
            break
        _, i, target, gain, extra = best
        levels[i] = target
        spent += extra
        score += gain
    # local search: any single-tile reassignment that fits and improves
    improved = True
    while improved:
        improved = False
        for i in range(n_tiles):
            for target in range(n_levels):
                if target == levels[i]:
                    continue
                extra = chunk_sizes[i, target] - chunk_sizes[i, levels[i]]
                if spent + extra > budget_mbit:
                    continue
                trial = levels.copy()
                trial[i] = target
                gain = objective(trial) - score
                if gain > 1e-12:
                    levels[i] = target
                    spent += extra
                    score += gain
                    improved = True
    return SegmentDecision(
        levels=levels, ladder=ladder, probs=probs, segment_index=segment_index
    )


def brute_force_oracle(
    env: StreamEnv,
    probs_sequence: Array,
    horizon: int | None = None,
    reset_seed: int | None = 0,
) -> tuple[list[Array], float]:
    """Exhaustively search all decision sequences through the environment.

    ``probs_sequence`` holds the actual per-segment viewing probabilities,
    shape (segments, tiles). Returns (best per-segment level arrays, best
    cumulative QoE). Refuses instances larger than the guard
    levels ** (tiles * horizon) > 1e7 with a size estimate. The environment
    is reset with ``reset_seed`` and left at the end of the best playthrough.

    The search precomputes each segment's per-combination byte volume and
    quality terms and walks the search tree on the small dynamic state
    (trace cursor, buffer, previous viewport quality); it is numerically
    identical to stepping the environment through every branch.
    """
    manifest = env.manifest
    horizon = manifest.n_segments if horizon is None else min(horizon, manifest.n_segments)
    n_combos = manifest.n_levels ** (manifest.n_tiles * horizon)
    if n_combos > ORACLE_GUARD:
        raise InfeasibleError(
            f"{manifest.n_levels}^({manifest.n_tiles}*{horizon}) = {n_combos:.3g} "
            f"sequences exceeds the {ORACLE_GUARD:.0e} guard"
        )
    probs_sequence = np.asarray(probs_sequence, dtype=np.float64)
    ladder = manifest.tile_rates
    combos = [np.array(c) for c in np.ndindex(*([manifest.n_levels] * manifest.n_tiles))]

    best_seq, best_value = _oracle_precomputed(env, probs_sequence, horizon, reset_seed, combos)
    # leave the environment at the end of the winning playthrough
    env.reset(seed=reset_seed)
    for depth, combo in enumerate(best_seq):
        env.step(
            SegmentDecision(
                levels=combo, ladder=ladder, probs=probs_sequence[depth], segment_index=depth
            ),
            probs_sequence[depth],
        )
    return best_seq, float(best_value)


def _oracle_precomputed(env, probs_sequence, horizon, reset_seed, combos):
    """Search on precomputed per-combo terms; same arithmetic as env.step."""
    manifest = env.manifest
    neighbors = neighbor_map(manifest.grid)
    ladder = manifest.tile_rates
    w = env.weights
    T = manifest.segment_duration
    cap = env.buffer_cap_s
    idx = np.arange(manifest.n_tiles)
    # per (segment, combo): byte volume, q1, q3 (state-independent terms)
    per_segment: list[list[tuple[float, float, float]]] = []
    for seg in range(horizon):
        rows = []
        for combo in combos:
            d = SegmentDecision(levels=combo, ladder=ladder, probs=probs_sequence[seg])
            rows.append(
                (
                    float(manifest.chunk_sizes[seg, idx, combo].sum()),
                    viewport_quality(d),
                    spatial_variation(d, neighbors),
                )
            )
        per_segment.append(rows)

    env.reset(seed=reset_seed)
    start = env.snapshot()
    best_value = -np.inf
    best_seq: list[int] = []
    trace = env.trace
    loop = trace.loop_duration

    def search(depth, cursor, buffer_s, last_q1, acc, chosen):
        nonlocal best_value, best_seq
        if depth == horizon:
            if acc > best_value:
                best_value = acc
                best_seq = chosen.copy()
            return
        for k, (size, q1, q3) in enumerate(per_segment[depth]):
            idle = buffer_s + T - cap
            if idle > 0.0:
                buf = buffer_s - idle
                cur = (cursor + idle) % loop
            else:
                buf = buffer_s
                cur = cursor
            delta, new_cursor = download_time(size, trace, cur)
            rebuf = delta - buf
            if rebuf < 0.0:
                rebuf = 0.0
            new_buf = buf - delta
            if new_buf < 0.0:
                new_buf = 0.0
            new_buf = min(new_buf + T, cap)
            reward = q1 - w.eta1 * abs(q1 - last_q1) - w.eta2 * q3 - w.eta3 * rebuf
            chosen.append(k)
            search(depth + 1, new_cursor, new_buf, q1, acc + reward, chosen)
            chosen.pop()

    search(0, start["cursor"], start["buffer"], start["last_q1"], 0.0, [])
    return [combos[k].copy() for k in best_seq], best_value
