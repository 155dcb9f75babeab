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

from .environment import StreamEnv, download_times
from .errors import InfeasibleError, ParameterError
from .geometry import neighbor_pairs, ordered_pairs
from .qoe import QoeWeights, SegmentDecision, pair_variation

Array = np.ndarray

ORACLE_GUARD = 10_000_000
# Search-tree nodes advanced together by the oracle: large enough to amortise
# numpy's per-call cost, small enough to keep the working arrays near 100 kB.
ORACLE_BLOCK = 1024


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

    Each trial is scored on plain arrays: the objective is
    ``np.dot(probs, rates) - eta2 * pair_variation(probs, rates, pairs)``
    over the ordered pairs of ``neighbors``, which equals
    ``viewport_quality`` and ``spatial_variation`` of the trial's
    ``SegmentDecision`` bit for bit, so exact ties break the same way.
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

    pairs = ordered_pairs(neighbors)
    tiles = np.arange(n_tiles)

    def objective(lv: Array) -> float:
        rates = ladder[tiles, lv]
        return float(np.dot(probs, rates)) - weights.eta2 * pair_variation(probs, rates, pairs)

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
    cumulative QoE); among equal-valued sequences the first in depth-first
    (lexicographic) order wins. Refuses instances larger than the guard
    levels ** (tiles * horizon) > 1e7 with a size estimate. The environment
    is reset with ``reset_seed`` and left at the end of the best playthrough.

    Each segment's per-combination byte volume, viewport quality and spatial
    variation do not depend on the playback state, so they are computed
    once. The search then walks the tree in blocks of at most
    ``ORACLE_BLOCK`` nodes, advancing each block one segment on the small
    dynamic state (trace cursor, buffer, previous viewport quality, summed
    QoE) with the environment's arithmetic lane by lane (``download_times``).
    A block's children are expanded in order, block after block, so leaves
    are reached in depth-first order and every value is bit-identical to
    stepping the environment through that branch.
    """
    manifest = env.manifest
    horizon = manifest.n_segments if horizon is None else min(horizon, manifest.n_segments)
    if horizon < 0:
        raise ParameterError("oracle horizon must be nonnegative")
    n_combos = manifest.n_levels ** (manifest.n_tiles * horizon)
    if n_combos > ORACLE_GUARD:
        raise InfeasibleError(
            f"{manifest.n_levels}^({manifest.n_tiles}*{horizon}) = {n_combos:.3g} "
            f"sequences exceeds the {ORACLE_GUARD:.0e} guard"
        )
    probs_sequence = np.asarray(probs_sequence, dtype=np.float64)
    ladder = manifest.tile_rates
    tiles = np.arange(manifest.n_tiles)
    pairs = neighbor_pairs(manifest.grid)
    combos = np.array(
        list(np.ndindex(*([manifest.n_levels] * manifest.n_tiles))), dtype=np.int64
    )
    # per (segment, combo): byte volume, q1, q3 (state-independent terms)
    terms = []
    for seg in range(horizon):
        probs = probs_sequence[seg]
        sizes, q1s, q3s = (np.empty(len(combos)) for _ in range(3))
        for k, combo in enumerate(combos):
            rates = ladder[tiles, combo]
            sizes[k] = manifest.chunk_sizes[seg, tiles, combo].sum()
            q1s[k] = np.dot(probs, rates)
            q3s[k] = pair_variation(probs, rates, pairs)
        terms.append((sizes, q1s, q3s))

    env.reset(seed=reset_seed)
    best_path, best_value = _search_blocks(env, terms)
    best_seq = [combos[k].copy() for k in best_path]
    # leave the environment at the end of the winning playthrough
    env.reset(seed=reset_seed)
    for depth, combo in enumerate(best_seq):
        env.step(
            SegmentDecision(
                levels=combo, ladder=ladder, probs=probs_sequence[depth], segment_index=depth
            ),
            probs_sequence[depth],
        )
    return best_seq, best_value


def _search_blocks(env: StreamEnv, terms: list[tuple[Array, Array, Array]]) -> tuple[Array, float]:
    """First maximum over every combo sequence, starting from the env's state.

    ``terms[depth]`` holds (size, q1, q3) per combo. Each pending entry is a
    range [lo, hi) of the children of a block of parent nodes, child
    ``j`` being combo ``j % n_combos`` after parent ``j // n_combos``.
    """
    if not terms:
        return np.zeros(0, dtype=np.intp), 0.0
    T = env.manifest.segment_duration
    cap = env.buffer_cap_s
    w = env.weights
    trace = env.trace
    loop = trace.loop_duration
    n_combos = terms[0][0].size
    start = env.snapshot()
    root = (
        np.array([start["cursor"]]),
        np.array([start["buffer"]]),
        np.array([start["last_q1"]]),
        np.zeros(1),
        np.zeros((1, 0), dtype=np.intp),
    )
    best_value, best_path = -np.inf, None
    pending = [(0, root, 0, n_combos)]
    while pending:
        depth, parents, lo, hi = pending.pop()
        parent, k = np.divmod(np.arange(lo, hi), n_combos)
        cursor, buffer, last_q1, acc, path = (x[parent] for x in parents)
        size, q1, q3 = (x[k] for x in terms[depth])
        idle = buffer + T - cap
        waits = idle > 0.0
        buf = np.where(waits, buffer - idle, buffer)
        cur = np.where(waits, np.remainder(cursor + idle, loop), cursor)
        delta, cursor = download_times(size, trace, cur)
        rebuf = np.maximum(delta - buf, 0.0)
        buffer = np.minimum(np.maximum(buf - delta, 0.0) + T, cap)
        acc = acc + (q1 - w.eta1 * np.abs(q1 - last_q1) - w.eta2 * q3 - w.eta3 * rebuf)
        path = np.column_stack((path, k))
        if depth + 1 < len(terms):
            n = (hi - lo) * n_combos
            children = (cursor, buffer, q1, acc, path)
            pending.extend(
                (depth + 1, children, s, min(s + ORACLE_BLOCK, n))
                for s in reversed(range(0, n, ORACLE_BLOCK))
            )
            continue
        j = int(np.argmax(acc))
        if acc[j] > best_value:
            best_value, best_path = float(acc[j]), path[j]
    return best_path, best_value
