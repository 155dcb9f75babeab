"""Per-segment quality-of-experience scoring for tile-based streaming.

The score combines four terms: viewport quality (probability-weighted chosen
bitrate, Mbps), temporal variation of viewport quality between consecutive
segments (Mbps), spatial variation between neighboring tiles (Mbps), and
rebuffering time (seconds):

    total = q1 - eta1 * q2 - eta2 * q3 - eta3 * q4

The same expression serves as the environment's reward and as the evaluation
metric, so its pieces are exposed individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .geometry import ordered_pairs

Array = np.ndarray

DEFAULT_WEIGHTS = (1.0, 1.0, 4.3)


@dataclass(frozen=True)
class QoeWeights:
    """Nonnegative trade-off weights (temporal, spatial, rebuffer)."""

    eta1: float = DEFAULT_WEIGHTS[0]
    eta2: float = DEFAULT_WEIGHTS[1]
    eta3: float = DEFAULT_WEIGHTS[2]

    def __post_init__(self) -> None:
        for name in ("eta1", "eta2", "eta3"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"{name} must be finite and nonnegative")


@dataclass
class SegmentDecision:
    """One segment's per-tile bitrate selection.

    ``levels[i]`` indexes into ``ladder[i, :]`` (per-tile bitrates in Mbps,
    nondecreasing along the level axis); ``probs`` are the viewing
    probabilities used to weight the quality terms. ``segment_index`` is
    optional and lets the environment detect out-of-order requests.
    """

    levels: Array
    ladder: Array
    probs: Array
    segment_index: int | None = None

    def __post_init__(self) -> None:
        self.levels = np.asarray(self.levels, dtype=np.int64)
        self.ladder = np.asarray(self.ladder, dtype=np.float64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n, m = self.ladder.shape
        if self.levels.shape != (n,) or self.probs.shape != (n,):
            raise ParameterError("levels, ladder rows, and probs must agree on tile count")
        if np.any(self.levels < 0) or np.any(self.levels >= m):
            raise ParameterError("a chosen level is outside the ladder")

    @property
    def n_tiles(self) -> int:
        return int(self.levels.size)

    def chosen_rates(self) -> Array:
        """Per-tile chosen bitrate in Mbps."""
        return self.ladder[np.arange(self.n_tiles), self.levels]

    def total_rate(self) -> float:
        return float(self.chosen_rates().sum())


@dataclass(frozen=True)
class QoeBreakdown:
    """The four component values plus their weighted combination."""

    q1: float
    q2: float
    q3: float
    q4: float
    total: float


def viewport_quality(decision: SegmentDecision) -> float:
    """Probability-weighted chosen bitrate over all tiles, in Mbps."""
    return float(np.dot(decision.probs, decision.chosen_rates()))


def temporal_variation(q1_now: float, q1_prev: float) -> float:
    """Absolute viewport-quality change; the first segment compares to 0."""
    return abs(q1_now - q1_prev)


def pair_variation(probs: Array, rates: Array, pairs: tuple[Array, Array]) -> float:
    """Spatial variation of per-tile ``rates`` over ordered neighbor ``pairs``.

    Sums p_a * p_b * |r_a - r_b| over the pairs (a[k], b[k]) and halves the
    result; with every ordered pair listed, as ``geometry.neighbor_pairs``
    does, each unordered pair counts once. The sum is sequential in pair
    order (``np.add.accumulate``, not the pairwise ``np.sum``), so it equals
    the nested loop over tiles and their neighbor sets bit for bit.
    """
    a, b = pairs
    if a.size == 0:
        return 0.0
    terms = probs[a] * probs[b] * np.abs(rates[a] - rates[b])
    return 0.5 * float(np.add.accumulate(terms)[-1])


def spatial_variation(
    decision: SegmentDecision, neighbors: Sequence[frozenset[int]]
) -> float:
    """Probability-weighted bitrate disparity between neighboring tiles.

    ``pair_variation`` of the decision's chosen rates over the ordered pairs
    of ``neighbors`` (one frozenset of neighbor tiles per tile).
    """
    return pair_variation(decision.probs, decision.chosen_rates(), ordered_pairs(neighbors))


def rebuffer_time(
    decision: SegmentDecision,
    throughput: float,
    buffer_s: float,
    segment_duration: float,
) -> float:
    """Estimated stall seconds from the nominal-bitrate download volume.

    Uses sum(chosen rate) * T / throughput - buffer, floored at zero. The
    environment computes the *actual* stall by integrating its trace; this
    nominal form is what reward shaping uses.
    """
    if throughput <= 0:
        raise ParameterError("throughput must be positive")
    if buffer_s < 0:
        raise ParameterError("buffer occupancy cannot be negative")
    download = decision.total_rate() * segment_duration / throughput
    return max(download - buffer_s, 0.0)


def qoe_score(
    q1: float,
    q2: float,
    q3: float,
    q4: float,
    weights: QoeWeights = QoeWeights(),
) -> QoeBreakdown:
    """Combine the four components into the scalar score plus breakdown."""
    total = q1 - weights.eta1 * q2 - weights.eta2 * q3 - weights.eta3 * q4
    return QoeBreakdown(q1=q1, q2=q2, q3=q3, q4=q4, total=total)
