"""Angular math and tiling tests, including the Monte-Carlo overlap oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tile360.errors import ParameterError
from tile360.geometry import (
    TileGrid,
    Trajectory,
    Viewpoint,
    angular_errors,
    hit_rate,
    neighbor_slots,
    one_hop_neighbors,
    viewing_probabilities,
    wrap_longitude,
    wrap_longitude_distance,
)

lon_st = st.floats(-180.0, 180.0)


class TestWrapDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(10, 10, 0), (175, -175, 10), (-90, 90, 180), (0, 359.0 - 360.0, 1.0)],
    )
    def test_cases(self, a, b, expected):
        assert wrap_longitude_distance(a, b) == pytest.approx(expected)

    @given(lon_st, lon_st)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        d = wrap_longitude_distance(a, b)
        assert 0.0 <= d <= 180.0
        assert d == pytest.approx(wrap_longitude_distance(b, a))

    @given(lon_st, lon_st)
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal_mod_360(self, a, b):
        assert wrap_longitude_distance(a, a + 360.0) == pytest.approx(0.0, abs=1e-9)
        if abs(wrap_longitude(a) - wrap_longitude(b)) > 1e-9 and abs(
            abs(wrap_longitude(a) - wrap_longitude(b)) - 360.0
        ) > 1e-9:
            assert wrap_longitude_distance(a, b) > 0.0

    @given(lon_st, lon_st, lon_st)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = wrap_longitude_distance(a, b)
        bc = wrap_longitude_distance(b, c)
        ac = wrap_longitude_distance(a, c)
        assert ac <= ab + bc + 1e-9


class TestTileGrid:
    def test_bounds_partition_plane(self):
        grid = TileGrid(3, 3)
        total = 0.0
        for t in range(grid.n_tiles):
            lo, hi, la, lb = grid.tile_bounds(t)
            total += (hi - lo) * (lb - la)
        assert total == pytest.approx(360.0 * 180.0)

    def test_tile_of_roundtrip(self):
        grid = TileGrid(2, 4)
        for t in range(grid.n_tiles):
            lo, hi, la, lb = grid.tile_bounds(t)
            center = Viewpoint.wrapped((lo + hi) / 2, (la + lb) / 2)
            assert grid.tile_of(center) == t

    def test_invalid_grid(self):
        with pytest.raises(ParameterError):
            TileGrid(0, 3)


def _loop_viewing_probabilities(vp, grid, fov_width, fov_height):
    """Per-tile reference: overlap of the FoV rectangle with each tile's bounds."""
    lat_lo = max(-90.0, vp.lat - fov_height / 2.0)
    lat_hi = min(90.0, vp.lat + fov_height / 2.0)
    lon_width = min(fov_width, 360.0)
    lon_start = vp.lon - lon_width / 2.0
    area = lon_width * (lat_hi - lat_lo)
    probs = np.zeros(grid.n_tiles)
    for tile in range(grid.n_tiles):
        t_lon_lo, t_lon_hi, t_lat_lo, t_lat_hi = grid.tile_bounds(tile)
        d_lon = 0.0
        for shift in (-360.0, 0.0, 360.0):  # the FoV interval may cross the seam
            a = lon_start + shift
            d_lon += max(0.0, min(a + lon_width, t_lon_hi) - max(a, t_lon_lo))
        d_lat = max(0.0, min(lat_hi, t_lat_hi) - max(lat_lo, t_lat_lo))
        probs[tile] = d_lon * d_lat / area
    return probs


class TestViewingProbabilities:
    def test_fov_contained_in_one_tile(self):
        grid = TileGrid(3, 3)
        # middle tile spans lon [-60, 60], lat [-30, 30]; small FoV at its center
        probs = viewing_probabilities(Viewpoint(0.0, 0.0), grid, 40.0, 40.0)
        expected = np.zeros(9)
        expected[4] = 1.0
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_four_corner_symmetry(self):
        grid = TileGrid(2, 2)
        # FoV centered on the center cross of a 2x2 grid splits evenly
        probs = viewing_probabilities(Viewpoint(0.0, 0.0), grid, 180.0, 90.0)
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_monte_carlo_oracle(self):
        grid = TileGrid(3, 3)
        vp = Viewpoint(0.0, 0.0)
        fov_w, fov_h = 100.0, 100.0
        probs = viewing_probabilities(vp, grid, fov_w, fov_h)
        rng = np.random.default_rng(0)
        n = 1_000_000
        lons = wrap_longitude(vp.lon) + rng.uniform(-fov_w / 2, fov_w / 2, n)
        lats = vp.lat + rng.uniform(-fov_h / 2, fov_h / 2, n)
        counts = np.zeros(9)
        cols = np.minimum(((lons % 360.0 + 180.0) % 360.0 / 120.0).astype(int), 2)
        rows = np.minimum(((90.0 - lats) / 60.0).astype(int), 2)
        for r, c in zip(rows, cols):
            counts[r * 3 + c] += 1
        np.testing.assert_allclose(probs, counts / n, atol=1e-3)

    def test_monte_carlo_oracle_wrapped_and_pole_clipped(self):
        grid = TileGrid(2, 3)
        vp = Viewpoint(170.0, 70.0)  # FoV crosses the seam and pokes past the pole
        fov_w, fov_h = 120.0, 80.0
        probs = viewing_probabilities(vp, grid, fov_w, fov_h)
        rng = np.random.default_rng(1)
        n = 500_000
        lons = vp.lon + rng.uniform(-fov_w / 2, fov_w / 2, n)
        lats = vp.lat + rng.uniform(-fov_h / 2, fov_h / 2, n)
        keep = lats <= 90.0  # the rectangle is clipped at the pole
        lons, lats = lons[keep], lats[keep]
        counts = np.zeros(grid.n_tiles)
        for lon, lat in zip(lons, lats):
            counts[grid.tile_of(Viewpoint.wrapped(lon, lat))] += 1
        np.testing.assert_allclose(probs, counts / keep.sum(), atol=2e-3)

    def test_sums_to_one(self):
        grid = TileGrid(4, 5)
        rng = np.random.default_rng(2)
        for _ in range(25):
            vp = Viewpoint.wrapped(rng.uniform(-180, 180), rng.uniform(-90, 90))
            probs = viewing_probabilities(vp, grid)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0)

    def test_column_rotation_symmetry(self):
        grid = TileGrid(3, 4)
        rng = np.random.default_rng(3)
        width = grid.lon_width
        for _ in range(10):
            vp = Viewpoint.wrapped(rng.uniform(-180, 180), rng.uniform(-60, 60))
            base = viewing_probabilities(vp, grid)
            shifted = viewing_probabilities(
                Viewpoint.wrapped(vp.lon + width, vp.lat), grid
            )
            rotated = np.empty_like(base)
            for t in range(grid.n_tiles):
                row, col = grid.tile_rowcol(t)
                rotated[grid.tile_index(row, (col + 1) % grid.cols)] = base[t]
            np.testing.assert_allclose(shifted, rotated, atol=1e-9)

    def test_matches_loop_reference_on_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(400):
            grid = TileGrid(int(rng.integers(1, 9)), int(rng.integers(1, 13)))
            vp = Viewpoint(rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0))
            fov = (rng.uniform(1.0, 360.0), rng.uniform(1.0, 180.0))
            assert np.array_equal(
                viewing_probabilities(vp, grid, *fov), _loop_viewing_probabilities(vp, grid, *fov)
            )

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (5, 1), (3, 3), (6, 12)])
    @pytest.mark.parametrize(
        "lon, lat", [(-180.0, 0.0), (180.0, 12.5), (179.9, -40.0), (30.0, 90.0), (-75.0, -90.0)]
    )
    @pytest.mark.parametrize("fov", [(100.0, 100.0), (360.0, 180.0), (360.0, 30.0), (45.0, 180.0)])
    def test_matches_loop_reference_at_edges(self, rows, cols, lon, lat, fov):
        grid = TileGrid(rows, cols)
        vp = Viewpoint(lon, lat)
        assert np.array_equal(
            viewing_probabilities(vp, grid, *fov), _loop_viewing_probabilities(vp, grid, *fov)
        )

    def test_degenerate_fov_rejected(self):
        with pytest.raises(ParameterError):
            viewing_probabilities(Viewpoint(0, 0), TileGrid(3, 3), 0.0, 100.0)


class TestNeighbors:
    def test_center_tile_has_all_eight(self):
        grid = TileGrid(3, 3)
        assert one_hop_neighbors(grid, 4) == frozenset({0, 1, 2, 3, 5, 6, 7, 8})

    def test_corner_with_wrap_matches_enumeration(self):
        grid = TileGrid(3, 3)
        # enumeration oracle: all tiles whose (row within +-1 no wrap) and
        # (col within +-1 with wrap) brackets differ from (0, 0)
        expected = set()
        for t in range(9):
            r, c = divmod(t, 3)
            if t == 0:
                continue
            row_ok = abs(r - 0) <= 1
            col_ok = min(abs(c - 0), 3 - abs(c - 0)) <= 1
            if row_ok and col_ok:
                expected.add(t)
        got = one_hop_neighbors(grid, 0)
        assert got == frozenset(expected)
        assert len(got) == 5

    def test_single_tile_grid_empty(self):
        assert one_hop_neighbors(TileGrid(1, 1), 0) == frozenset()

    def test_two_column_wrap_dedupes(self):
        grid = TileGrid(1, 2)
        assert one_hop_neighbors(grid, 0) == frozenset({1})

    def test_slots_fixed_layout(self):
        grid = TileGrid(3, 3)
        slots = neighbor_slots(grid, 4)  # center: NW N NE E SE S SW W
        assert slots == (0, 1, 2, 5, 8, 7, 6, 3)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            one_hop_neighbors(TileGrid(2, 2), 9)


class TestHitRate:
    def test_identical(self):
        p = np.array([0.5, 0.5, 0.0])
        assert hit_rate(p, p) == 1.0

    def test_disjoint(self):
        assert hit_rate(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_counting(self):
        actual = np.array([0, 1, 1, 1, 1, 0], dtype=float)
        predicted = np.array([0, 0, 1, 1, 1, 1], dtype=float)
        assert hit_rate(predicted, actual) == pytest.approx(0.75)

    def test_empty_actual_set(self):
        assert hit_rate(np.array([0.2, 0.8]), np.zeros(2)) == 1.0

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=9), st.floats(0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_self_hit_rate_is_one(self, probs, threshold):
        v = np.array(probs)
        assert hit_rate(v, v, threshold) == 1.0


class TestAngularErrors:
    def test_identity(self):
        vp = Viewpoint(12.0, -4.0)
        assert angular_errors(vp, vp) == (0.0, 0.0)

    def test_wraparound(self):
        lon_err, lat_err = angular_errors(Viewpoint(179, 10), Viewpoint(-179, -10))
        assert lon_err == pytest.approx(2.0)
        assert lat_err == pytest.approx(20.0)

    def test_pole_to_pole(self):
        lon_err, lat_err = angular_errors(Viewpoint(0, 90), Viewpoint(0, -90))
        assert lon_err == 0.0
        assert lat_err == 180.0


class TestTrajectory:
    def test_strictly_increasing_required(self):
        with pytest.raises(ParameterError):
            Trajectory(
                user_id="u",
                timestamps=np.array([0.0, 0.0]),
                lons=np.zeros(2),
                lats=np.zeros(2),
                sample_rate=1.0,
            )

    def test_unwrap_across_seam(self):
        traj = Trajectory(
            user_id="u",
            timestamps=np.arange(4.0),
            lons=np.array([170.0, 179.0, -175.0, -160.0]),
            lats=np.zeros(4),
            sample_rate=1.0,
        )
        unwrapped = traj.unwrapped_lons()
        np.testing.assert_allclose(unwrapped, [170.0, 179.0, 185.0, 200.0])

    def test_viewpoint_at_picks_nearest(self):
        traj = Trajectory(
            user_id="u",
            timestamps=np.array([0.0, 1.0, 2.0]),
            lons=np.array([0.0, 10.0, 20.0]),
            lats=np.zeros(3),
            sample_rate=1.0,
        )
        assert traj.viewpoint_at(1.4).lon == 10.0
        assert traj.viewpoint_at(1.6).lon == 20.0
