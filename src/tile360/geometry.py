"""Angular viewpoint math on the equirectangular plane.

Conventions used throughout the package:
  * longitude in degrees, canonical range [-180, 180), wrapping on the circle,
  * latitude in degrees, [-90, 90], clamped (head pitch never wraps a pole),
  * a tile grid partitions the full plane; row 0 is the north-most row and
    column 0 starts at longitude -180, tile index = row * cols + col,
  * viewing probabilities are the fraction of the field-of-vision rectangle
    overlapping each tile, so they are nonnegative and sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError

Array = np.ndarray

DEFAULT_FOV_DEG = (100.0, 100.0)

# Clockwise from north-west; fixed layout for neighbor feature vectors.
NEIGHBOR_SLOT_OFFSETS = (
    (-1, -1),  # NW
    (-1, 0),   # N
    (-1, 1),   # NE
    (0, 1),    # E
    (1, 1),    # SE
    (1, 0),    # S
    (1, -1),   # SW
    (0, -1),   # W
)


def wrap_longitude(lon: float) -> float:
    """Map any finite longitude into [-180, 180)."""
    return float((lon + 180.0) % 360.0 - 180.0)


def clamp_latitude(lat: float) -> float:
    return float(min(90.0, max(-90.0, lat)))


def wrap_longitude_distance(a: float, b: float) -> float:
    """Shortest angular distance between two longitudes, in [0, 180]."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ParameterError("longitudes must be finite")
    d = abs(a - b) % 360.0
    return float(min(d, 360.0 - d))


@dataclass(frozen=True)
class Viewpoint:
    """Angular head position: longitude in [-180, 180), latitude in [-90, 90]."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lon) and np.isfinite(self.lat)):
            raise ParameterError("viewpoint coordinates must be finite")
        if not (-180.0 <= self.lon <= 180.0) or not (-90.0 <= self.lat <= 90.0):
            raise ParameterError(
                f"viewpoint ({self.lon}, {self.lat}) outside canonical ranges; "
                "use Viewpoint.wrapped()"
            )

    @classmethod
    def wrapped(cls, lon: float, lat: float) -> "Viewpoint":
        """Build a viewpoint from raw angles, wrapping lon and clamping lat."""
        return cls(wrap_longitude(lon), clamp_latitude(lat))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered viewpoint samples for one user on one video."""

    user_id: str
    timestamps: Array  # seconds, strictly increasing
    lons: Array        # degrees, wrapped
    lats: Array        # degrees, clamped
    sample_rate: float  # samples per second
    video_id: str = ""

    def __post_init__(self) -> None:
        t = np.asarray(self.timestamps, dtype=np.float64)
        if t.size < 1:
            raise ParameterError("trajectory needs at least one sample")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ParameterError("trajectory timestamps must be strictly increasing")
        if len(self.lons) != t.size or len(self.lats) != t.size:
            raise ParameterError("trajectory arrays must have equal length")
        if self.sample_rate <= 0:
            raise ParameterError("sample_rate must be positive")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "lons", np.asarray(self.lons, dtype=np.float64))
        object.__setattr__(self, "lats", np.asarray(self.lats, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def viewpoint_at(self, time_s: float) -> Viewpoint:
        """Sample nearest in time (no interpolation)."""
        idx = int(np.argmin(np.abs(self.timestamps - time_s)))
        return Viewpoint.wrapped(float(self.lons[idx]), float(self.lats[idx]))

    def unwrapped_lons(self) -> Array:
        """Longitude series made continuous across the +-180 seam."""
        return np.degrees(np.unwrap(np.radians(self.lons)))


@dataclass(frozen=True)
class TileGrid:
    """Uniform rows x cols tiling of the equirectangular plane."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ParameterError("grid must have at least one row and column")

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    @property
    def lon_width(self) -> float:
        return 360.0 / self.cols

    @property
    def lat_height(self) -> float:
        return 180.0 / self.rows

    def tile_index(self, row: int, col: int) -> int:
        return row * self.cols + col

    def tile_rowcol(self, tile: int) -> tuple[int, int]:
        self._check(tile)
        return divmod(tile, self.cols)

    def tile_bounds(self, tile: int) -> tuple[float, float, float, float]:
        """(lon_lo, lon_hi, lat_lo, lat_hi) of one tile; row 0 is north-most."""
        row, col = self.tile_rowcol(tile)
        lon_lo = -180.0 + col * self.lon_width
        lat_hi = 90.0 - row * self.lat_height
        return lon_lo, lon_lo + self.lon_width, lat_hi - self.lat_height, lat_hi

    def tile_of(self, vp: Viewpoint) -> int:
        col = min(int((vp.lon + 180.0) / self.lon_width), self.cols - 1)
        row = min(int((90.0 - vp.lat) / self.lat_height), self.rows - 1)
        return self.tile_index(row, col)

    def _check(self, tile: int) -> None:
        if not (0 <= tile < self.n_tiles):
            raise ParameterError(f"tile {tile} out of range for {self.rows}x{self.cols} grid")


@lru_cache(maxsize=4096)
def neighbor_slots(grid: TileGrid, tile: int) -> tuple[int | None, ...]:
    """The 8 neighbor tile indices in fixed clockwise order starting NW.

    Columns wrap across the grid's left/right edges; rows do not wrap across
    the poles (slots beyond the top/bottom row are None). With fewer than
    three columns the east/west wrap can alias to the same tile in several
    slots; with a single column it would alias to the tile itself, which is
    reported as None.
    """
    row, col = grid.tile_rowcol(tile)
    slots: list[int | None] = []
    for dr, dc in NEIGHBOR_SLOT_OFFSETS:
        r = row + dr
        if r < 0 or r >= grid.rows:
            slots.append(None)
            continue
        c = (col + dc) % grid.cols
        idx = grid.tile_index(r, c)
        slots.append(None if idx == tile else idx)
    return tuple(slots)


def one_hop_neighbors(grid: TileGrid, tile: int) -> frozenset[int]:
    """Distinct 8-connected neighbors with longitude wraparound."""
    return frozenset(s for s in neighbor_slots(grid, tile) if s is not None)


@lru_cache(maxsize=64)
def neighbor_map(grid: TileGrid) -> tuple[frozenset[int], ...]:
    """one_hop_neighbors for every tile, cached per grid."""
    return tuple(one_hop_neighbors(grid, t) for t in range(grid.n_tiles))


def ordered_pairs(neighbors: Sequence[frozenset[int]]) -> tuple[Array, Array]:
    """Index arrays (a, b) listing every ordered neighbor pair (i, u).

    Pairs run tile by tile, and within a tile in the iteration order of its
    neighbor set, so a sequential sum over them adds the same terms in the
    same order as a loop ``for i ...: for u in neighbors[i]``.
    """
    a = np.fromiter((i for i, nbrs in enumerate(neighbors) for _ in nbrs), dtype=np.intp)
    b = np.fromiter((u for nbrs in neighbors for u in nbrs), dtype=np.intp)
    return a, b


@lru_cache(maxsize=64)
def neighbor_pairs(grid: TileGrid) -> tuple[Array, Array]:
    """ordered_pairs of neighbor_map(grid), cached per grid (read-only arrays)."""
    pairs = ordered_pairs(neighbor_map(grid))
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _lon_interval_overlap(start: float, width: float, lo: float, hi: float) -> float:
    """Overlap of the circular interval [start, start+width] with [lo, hi].

    [lo, hi] is a tile extent inside [-180, 180]; the FoV interval may cross
    the seam, so it is unrolled one turn to each side.
    """
    total = 0.0
    for shift in (-360.0, 0.0, 360.0):
        a = start + shift
        total += max(0.0, min(a + width, hi) - max(a, lo))
    return total


def viewing_probabilities(
    vp: Viewpoint,
    grid: TileGrid,
    fov_width: float = DEFAULT_FOV_DEG[0],
    fov_height: float = DEFAULT_FOV_DEG[1],
) -> Array:
    """Per-tile fraction of the FoV rectangle covering each tile.

    The FoV is an axis-aligned rectangle on the equirectangular plane,
    centered at the viewpoint, wrapping in longitude and clipped at the
    poles in latitude. Probabilities are overlap area / FoV area, hence
    nonnegative with sum 1.
    """
    if not (0.0 < fov_width <= 360.0) or not (0.0 < fov_height <= 180.0):
        raise ParameterError("FoV spans must be positive and at most 360 x 180 degrees")
    lat_lo = max(-90.0, vp.lat - fov_height / 2.0)
    lat_hi = min(90.0, vp.lat + fov_height / 2.0)
    lon_width = min(fov_width, 360.0)
    lon_start = vp.lon - lon_width / 2.0
    area = lon_width * (lat_hi - lat_lo)
    if area <= 0.0:
        raise ParameterError("FoV rectangle has zero area")
    probs = np.zeros(grid.n_tiles)
    for tile in range(grid.n_tiles):
        t_lon_lo, t_lon_hi, t_lat_lo, t_lat_hi = grid.tile_bounds(tile)
        d_lon = _lon_interval_overlap(lon_start, lon_width, t_lon_lo, t_lon_hi)
        d_lat = max(0.0, min(lat_hi, t_lat_hi) - max(lat_lo, t_lat_lo))
        probs[tile] = d_lon * d_lat / area
    return probs


def hit_rate(predicted: Array, actual: Array, threshold: float = 0.0) -> float:
    """Recall of the predicted viewed-tile set against the actual one.

    A tile is "viewed" when its probability exceeds ``threshold``. Returns
    |predicted AND actual| / |actual|, and 1.0 when no tile is actually viewed.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ParameterError("probability vectors must have equal length")
    actual_set = actual > threshold
    n_actual = int(np.count_nonzero(actual_set))
    if n_actual == 0:
        return 1.0
    hits = int(np.count_nonzero((predicted > threshold) & actual_set))
    return hits / n_actual


def angular_errors(predicted: Viewpoint, actual: Viewpoint) -> tuple[float, float]:
    """(longitude error, latitude error) in degrees; longitude wraps."""
    return (
        wrap_longitude_distance(predicted.lon, actual.lon),
        abs(predicted.lat - actual.lat),
    )
