"""QoE model tests: spec'd arithmetic cases plus independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tile360.errors import ParameterError
from tile360.geometry import TileGrid, neighbor_map, neighbor_pairs
from tile360.qoe import (
    QoeWeights,
    SegmentDecision,
    pair_variation,
    qoe_score,
    rebuffer_time,
    spatial_variation,
    temporal_variation,
    viewport_quality,
)


def _decision(levels, ladder, probs):
    return SegmentDecision(
        levels=np.asarray(levels), ladder=np.asarray(ladder, float), probs=np.asarray(probs, float)
    )


def loop_spatial_variation(decision, neighbors):
    """Reference: the nested loop over tiles and their neighbor sets."""
    rates = decision.chosen_rates()
    p = decision.probs
    total = 0.0
    for i in range(decision.n_tiles):
        for u in neighbors[i]:
            total += p[i] * p[u] * abs(rates[i] - rates[u])
    return 0.5 * total


def _two_tile(rates=(4.0, 1.0), probs=(0.7, 0.3)):
    ladder = np.array([[rates[0]], [rates[1]]])
    return _decision([0, 0], ladder, probs)


class TestViewportQuality:
    def test_two_term_arithmetic(self):
        assert viewport_quality(_two_tile()) == pytest.approx(3.1)

    def test_uniform_probs_identity(self):
        n = 6
        ladder = np.full((n, 1), 2.5)
        d = _decision([0] * n, ladder, np.full(n, 1 / n))
        assert viewport_quality(d) == pytest.approx(2.5)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(0)
        n, m = 9, 4
        ladder = np.sort(rng.uniform(0.2, 8.0, (n, m)), axis=1)
        probs = rng.dirichlet(np.ones(n))
        levels = rng.integers(0, m, n)
        d = _decision(levels, ladder, probs)
        expected = 0.0
        for i in range(n):
            expected += probs[i] * ladder[i, levels[i]]
        assert viewport_quality(d) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_probability_vector(self, lam):
        rng = np.random.default_rng(1)
        ladder = np.sort(rng.uniform(0.5, 8, (4, 3)), axis=1)
        levels = rng.integers(0, 3, 4)
        p1 = rng.dirichlet(np.ones(4))
        p2 = rng.dirichlet(np.ones(4))
        mix = lam * p1 + (1 - lam) * p2
        v = viewport_quality(_decision(levels, ladder, mix))
        v1 = viewport_quality(_decision(levels, ladder, p1))
        v2 = viewport_quality(_decision(levels, ladder, p2))
        assert v == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-9)


class TestTemporalVariation:
    @pytest.mark.parametrize("now,prev,expected", [(3.1, 3.1, 0.0), (3.1, 1.1, 2.0), (5.0, 0.0, 5.0)])
    def test_cases(self, now, prev, expected):
        assert temporal_variation(now, prev) == pytest.approx(expected)


class TestSpatialVariation:
    def test_uniform_selection_is_zero(self):
        grid = TileGrid(3, 3)
        ladder = np.tile(np.array([1.0, 2.0]), (9, 1))
        d = _decision([1] * 9, ladder, np.full(9, 1 / 9))
        assert spatial_variation(d, neighbor_map(grid)) == 0.0

    def test_two_tile_hand_arithmetic(self):
        # mutual neighbors, p=(0.5, 0.5), rates 4 and 1:
        # 0.5 * (0.25*3 + 0.25*3) = 0.75
        grid = TileGrid(1, 2)
        ladder = np.array([[4.0], [1.0]])
        d = _decision([0, 0], ladder, [0.5, 0.5])
        assert spatial_variation(d, neighbor_map(grid)) == pytest.approx(0.75)

    def test_matches_exhaustive_pair_oracle(self):
        rng = np.random.default_rng(2)
        grid = TileGrid(3, 3)
        neighbors = neighbor_map(grid)
        ladder = np.sort(rng.uniform(0.2, 8.0, (9, 5)), axis=1)
        probs = rng.dirichlet(np.ones(9))
        levels = rng.integers(0, 5, 9)
        d = _decision(levels, ladder, probs)
        rates = d.chosen_rates()
        expected = 0.0
        for i in range(9):
            for u in range(9):
                if u in neighbors[i] and u > i:  # each unordered pair once
                    expected += probs[i] * probs[u] * abs(rates[i] - rates[u])
        assert spatial_variation(d, neighbors) == pytest.approx(expected, abs=1e-12)

    def test_ordered_and_unordered_formulations_agree(self):
        rng = np.random.default_rng(3)
        grid = TileGrid(2, 3)
        neighbors = neighbor_map(grid)
        ladder = np.sort(rng.uniform(0.5, 6.0, (6, 3)), axis=1)
        probs = rng.dirichlet(np.ones(6))
        levels = rng.integers(0, 3, 6)
        d = _decision(levels, ladder, probs)
        rates = d.chosen_rates()
        unordered = sum(
            probs[i] * probs[u] * abs(rates[i] - rates[u])
            for i in range(6)
            for u in neighbors[i]
            if u > i
        )
        assert spatial_variation(d, neighbors) == pytest.approx(unordered, abs=1e-12)

    @pytest.mark.parametrize(
        "rows,cols", [(1, 1), (2, 1), (5, 1), (1, 2), (4, 2), (2, 4), (3, 3), (6, 12)]
    )
    @pytest.mark.parametrize("n_levels", [1, 4])
    def test_kernel_bit_equal_to_nested_loop(self, rows, cols, n_levels):
        rng = np.random.default_rng(100 * rows + 10 * cols + n_levels)
        grid = TileGrid(rows, cols)
        neighbors = neighbor_map(grid)
        n = grid.n_tiles
        for _ in range(40):
            ladder = np.sort(rng.uniform(0.1, 10.0, (n, n_levels)), axis=1)
            probs = rng.dirichlet(np.ones(n))
            probs[rng.random(n) < 0.4] = 0.0  # tiles outside the FoV
            d = _decision(rng.integers(0, n_levels, n), ladder, probs)
            expected = loop_spatial_variation(d, neighbors)
            assert spatial_variation(d, neighbors) == expected
            assert pair_variation(d.probs, d.chosen_rates(), neighbor_pairs(grid)) == expected


class TestRebufferTime:
    def test_partial_stall(self):
        d = _two_tile(rates=(2.0, 2.0), probs=(0.5, 0.5))  # total 4 Mbps
        assert rebuffer_time(d, throughput=2.0, buffer_s=1.5, segment_duration=1.0) == pytest.approx(0.5)

    def test_large_buffer_no_stall(self):
        d = _two_tile()
        assert rebuffer_time(d, 1.0, 100.0, 1.0) == 0.0

    def test_boundary_exactly_t(self):
        d = _two_tile(rates=(2.0, 2.0))  # total 4
        assert rebuffer_time(d, 4.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_nonpositive_throughput_rejected(self):
        with pytest.raises(ParameterError):
            rebuffer_time(_two_tile(), 0.0, 1.0, 1.0)


class TestQoeScore:
    def test_quality_only(self):
        b = qoe_score(3.1, 0, 0, 0, QoeWeights(1, 1, 4.3))
        assert b.total == pytest.approx(3.1)

    def test_hand_arithmetic(self):
        b = qoe_score(3.1, 2.0, 0.75, 0.5, QoeWeights(1, 1, 4.3))
        assert b.total == pytest.approx(3.1 - 2.0 - 0.75 - 2.15)

    def test_zero_weights_ignore_penalties(self):
        b = qoe_score(3.1, 99, 99, 99, QoeWeights(0, 0, 0))
        assert b.total == pytest.approx(3.1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            QoeWeights(-1, 0, 0)

    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing_in_penalties(self, q2, q3, q4):
        w = QoeWeights(1.0, 1.0, 4.3)
        base = qoe_score(3.0, q2, q3, q4, w).total
        assert qoe_score(3.0, q2 + 1, q3, q4, w).total <= base
        assert qoe_score(3.0, q2, q3 + 1, q4, w).total <= base
        assert qoe_score(3.0, q2, q3, q4 + 1, w).total <= base


class TestSegmentDecision:
    def test_level_out_of_ladder_rejected(self):
        with pytest.raises(ParameterError):
            _decision([2], np.array([[1.0, 2.0]]), [1.0])

    def test_chosen_rates(self):
        d = _decision([1, 0], np.array([[1.0, 2.0], [3.0, 4.0]]), [0.5, 0.5])
        np.testing.assert_allclose(d.chosen_rates(), [2.0, 3.0])
