"""Output checks of the benchmark.

None compares against a stored copy of earlier output. Each is either a
computation made here, outside the program, or a property the method must
have. Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

CONSERVATION_TOL = 1e-9
IDENTITY_TOL = 1e-12
ORACLE_TOL = 1e-9
GRADIENT_TOL = 1e-3  # acceptance criterion 1
LR_TOL = 1e-9


# ---------------------------------------------------------------------------
# agent training
# ---------------------------------------------------------------------------

def steps_match_episodes(log_rows: list[dict], episode_segments: list[int]) -> list[str]:
    """The segments of the episodes train drew must add up to its final step."""
    if not log_rows:
        return ["training wrote no log rows"]
    drawn = sum(episode_segments)
    final = log_rows[-1]["step"]
    if drawn != final:
        return [f"drawn episodes hold {drawn} segments, the log ends at step {final}"]
    return []


def rows_finite(log_rows: list[dict]) -> list[str]:
    bad = [
        (i, key)
        for i, row in enumerate(log_rows)
        for key, value in row.items()
        if not math.isfinite(value)
    ]
    return [f"non-finite log values at (row, column) {bad[:5]}"] if bad else []


def rows_reproduced(full_rows: list[dict], short_rows: list[dict]) -> list[str]:
    """A shorter run with the same config repeats the longer run's rows bit for bit."""
    if not short_rows or len(short_rows) > len(full_rows):
        return [f"short run wrote {len(short_rows)} rows, the full run {len(full_rows)}"]
    for i, (a, b) in enumerate(zip(full_rows, short_rows)):
        if a != b:
            return [f"log row {i} differs between runs of one config: {a} vs {b}"]
    return []


def learned(trained_qoe: float, untrained_qoe: float) -> list[str]:
    if not trained_qoe > untrained_qoe:
        return [f"trained greedy QoE {trained_qoe:.4f} does not exceed untrained {untrained_qoe:.4f}"]
    return []


def time_conserved(account) -> list[str]:
    gap = abs(account.wall_clock_s - account.trace_consumed_s)
    if not gap < CONSERVATION_TOL:
        return [f"wall clock and trace time consumed differ by {gap:.3e} s"]
    return []


def qoe_upper_bound(actual: np.ndarray, ladder: np.ndarray) -> float:
    """Mean over segments of sum_i p_i * (top rate of tile i)."""
    return float(np.mean(np.asarray(actual) @ np.asarray(ladder).max(axis=1)))


def under_qoe_bound(mean_qoe: float, actual: np.ndarray, ladder: np.ndarray) -> list[str]:
    bound = qoe_upper_bound(actual, ladder)
    if not mean_qoe <= bound + IDENTITY_TOL:
        return [f"mean QoE {mean_qoe:.6f} exceeds its upper bound {bound:.6f}"]
    return []


def q1_from_transitions(segments, ladder: np.ndarray, breakdowns) -> list[str]:
    """Per segment, sum of tile_prob * chosen rate equals the scored q1."""
    if len(segments) != len(breakdowns):
        return [f"{len(segments)} decided segments but {len(breakdowns)} scored ones"]
    for j, (transitions, part) in enumerate(zip(segments, breakdowns)):
        total = sum(t.state.tile_prob * ladder[t.state.tile, t.action] for t in transitions)
        if not abs(total - part.q1) < IDENTITY_TOL:
            return [f"segment {j}: per-tile quality sums to {total!r}, q1 is {part.q1!r}"]
    return []


# ---------------------------------------------------------------------------
# streaming controllers and the oracle
# ---------------------------------------------------------------------------

def stream_episode(stats: dict, account, actual: np.ndarray, ladder: np.ndarray) -> list[str]:
    """Conservation, full length, no negative stall, QoE and q1 inside their bounds."""
    problems = time_conserved(account)
    n_segments = actual.shape[0]
    if stats["segments"] != n_segments or len(stats["breakdowns"]) != n_segments:
        problems.append(f"episode played {stats['segments']} of {n_segments} segments")
    if stats["rebuffer_s"] < 0 or any(p.q4 < 0 for p in stats["breakdowns"]):
        problems.append(f"negative rebuffer {stats['rebuffer_s']}")
    problems += under_qoe_bound(stats["mean_qoe"], actual, ladder)
    low = actual @ ladder.min(axis=1)
    high = actual @ ladder.max(axis=1)
    for j, part in enumerate(stats["breakdowns"][:n_segments]):
        if not low[j] - IDENTITY_TOL <= part.q1 <= high[j] + IDENTITY_TOL:
            problems.append(f"segment {j}: q1 {part.q1} outside [{low[j]}, {high[j]}]")
            break
    return problems


def oracle_dominates(oracle_total: float, totals: dict[str, float]) -> list[str]:
    return [
        f"{name} total {total:.6f} beats the oracle's {oracle_total:.6f}"
        for name, total in totals.items()
        if total > oracle_total + ORACLE_TOL
    ]


def oracle_replayed(reported: float, replayed: float) -> list[str]:
    if not abs(reported - replayed) < ORACLE_TOL:
        return [f"oracle reports {reported!r}, replaying its sequence gives {replayed!r}"]
    return []


def oracle_repeated(first: tuple, later: tuple) -> list[str]:
    """A search repeated on the same instance gives the same (sequence, value)."""
    (seq, value), (seq_again, value_again) = first, later
    same_seq = len(seq) == len(seq_again) and all(
        np.array_equal(a, b) for a, b in zip(seq, seq_again)
    )
    if not (same_seq and value == value_again):
        return [f"a repeated oracle search gives {value_again!r}, the first gave {value!r}"]
    return []


# ---------------------------------------------------------------------------
# viewpoint prediction
# ---------------------------------------------------------------------------

def central_difference(loss, params: np.ndarray, grad: np.ndarray, coords, step=1e-5) -> list[str]:
    """Analytic gradient against central differences at the given coordinates."""
    worst = 0.0
    for k in coords:
        bumped = params.copy()
        bumped[k] += step
        up = loss(bumped)
        bumped[k] -= 2.0 * step
        down = loss(bumped)
        numeric = (up - down) / (2.0 * step)
        worst = max(worst, abs(grad[k] - numeric) / max(1e-8, abs(numeric)))
    if not worst < GRADIENT_TOL:
        return [f"gradient relative error {worst:.3e} at or above {GRADIENT_TOL}"]
    return []


def losses_fall(epoch_losses: list[float]) -> list[str]:
    if not epoch_losses or not all(math.isfinite(v) for v in epoch_losses):
        return [f"epoch losses not finite: {epoch_losses}"]
    if not epoch_losses[-1] < epoch_losses[0]:
        return [f"last epoch loss {epoch_losses[-1]:.5f} not below the first {epoch_losses[0]:.5f}"]
    return []


def lr_matches_polyfit(history: np.ndarray, horizon: int, predicted: np.ndarray) -> list[str]:
    """Least squares equals a degree-1 polyfit extrapolation clipped to [-1, 1]."""
    h = history.shape[0]
    t = np.arange(h)
    future = np.arange(h, h + horizon)
    expected = np.stack(
        [np.polyval(np.polyfit(t, history[:, d], 1), future) for d in range(2)], axis=1
    )
    expected = np.clip(expected, -1.0, 1.0)
    err = float(np.max(np.abs(expected - predicted)))
    if not err < LR_TOL:
        return [f"least-squares forecast differs from polyfit by {err:.3e}"]
    return []


def raster_probabilities(lon, lat, grid, fov, n: int = 720) -> tuple[np.ndarray, float]:
    """FoV overlap per tile from an n x n raster of the FoV rectangle.

    Returns the per-tile fractions and the error bound the raster's
    resolution allows: each tile's overlap is a product of a longitude
    count (at most two intervals across the seam, each off by at most one
    cell) and a latitude count, whose total shrinks when the poles clip it.
    """
    width, height = fov
    offsets = (np.arange(n) + 0.5) / n - 0.5
    lons = (lon + offsets * width + 180.0) % 360.0 - 180.0
    lats = lat + offsets * height
    lats = lats[(lats >= -90.0) & (lats <= 90.0)]
    cols = np.minimum(((lons + 180.0) / grid.lon_width).astype(int), grid.cols - 1)
    rows = np.minimum(((90.0 - lats) / grid.lat_height).astype(int), grid.rows - 1)
    col_share = np.bincount(cols, minlength=grid.cols) / n
    row_share = np.bincount(rows, minlength=grid.rows) / lats.size
    return np.outer(row_share, col_share).ravel(), 2.0 / n + 3.0 / lats.size


def matches_raster(lon, lat, grid, fov, probs: np.ndarray) -> list[str]:
    expected, tol = raster_probabilities(lon, lat, grid, fov)
    err = float(np.max(np.abs(expected - probs)))
    if not err <= tol:
        return [
            f"viewing probabilities at ({lon}, {lat}) on {grid.rows}x{grid.cols} differ "
            f"from the raster by {err:.4f} (resolution {tol:.4f})"
        ]
    return []


def probability_vector(p: np.ndarray) -> list[str]:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0) or not abs(float(p.sum()) - 1.0) < IDENTITY_TOL * p.size * 10:
        return [f"not a probability vector: min {p.min()}, sum {p.sum()!r}"]
    return []


def evaluation_rows(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if not 0.0 <= row["hit_rate"] <= 1.0:
            problems.append(f"hit rate {row['hit_rate']} outside [0, 1]")
        for key in ("longitude_error_deg", "latitude_error_deg"):
            if not 0.0 <= row[key] <= 180.0:
                problems.append(f"{key} {row[key]} outside [0, 180]")
        if problems:
            return problems
    return [] if rows else ["evaluation produced no rows"]


# ---------------------------------------------------------------------------
# traced counts
# ---------------------------------------------------------------------------

def count_matches(name: str, traced: int, counted: int) -> list[str]:
    if traced != counted:
        return [f"traced {name} calls {traced}, counted from the outputs {counted}"]
    return []
