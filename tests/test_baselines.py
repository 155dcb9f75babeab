"""Baseline controller tests: buffer rule, greedy knapsack, exhaustive oracle."""

import numpy as np
import pytest

from tile360.baselines import BbConfig, bb_select, brute_force_oracle, greedy_mckp
from tile360.environment import NetworkTrace, StreamEnv, VideoManifest
from tile360.errors import InfeasibleError, ParameterError
from tile360.geometry import TileGrid, neighbor_map
from tile360.qoe import QoeWeights, SegmentDecision, spatial_variation, viewport_quality


def ladder(n_tiles, levels):
    return np.tile(np.asarray(levels, float) / n_tiles, (n_tiles, 1))


def env_stepping_oracle(env, probs_sequence, reset_seed, horizon=None):
    """Reference search: replays every branch of the first ``horizon`` segments
    (default: the whole video) through env.step."""
    manifest = env.manifest
    horizon = manifest.n_segments if horizon is None else horizon
    combos = [np.array(c) for c in np.ndindex(*([manifest.n_levels] * manifest.n_tiles))]
    env.reset(seed=reset_seed)
    best_value = -np.inf
    best_seq = []

    def search(depth, acc, chosen):
        nonlocal best_value, best_seq
        if depth == horizon:
            if acc > best_value:
                best_value = acc
                best_seq = [c.copy() for c in chosen]
            return
        snap = env.snapshot()
        for combo in combos:
            decision = SegmentDecision(
                levels=combo,
                ladder=manifest.tile_rates,
                probs=probs_sequence[depth],
                segment_index=depth,
            )
            result = env.step(decision, probs_sequence[depth])
            chosen.append(combo)
            search(depth + 1, acc + result.reward, chosen)
            chosen.pop()
            env.restore(snap)

    search(0, 0.0, [])
    return best_seq, best_value


def segment_decision_greedy(ladder, probs, budget_mbit, weights, neighbors, chunk_sizes):
    """Reference greedy allocator scoring every trial through a SegmentDecision
    and the nested-loop spatial variation; returns the chosen levels."""
    n_tiles, n_levels = ladder.shape
    levels = np.zeros(n_tiles, dtype=np.int64)
    spent = float(chunk_sizes[np.arange(n_tiles), levels].sum())

    def objective(lv):
        d = SegmentDecision(levels=lv, ladder=ladder, probs=probs)
        rates = d.chosen_rates()
        q3 = 0.0
        for i in range(n_tiles):
            for u in neighbors[i]:
                q3 += probs[i] * probs[u] * abs(rates[i] - rates[u])
        return viewport_quality(d) - weights.eta2 * (0.5 * q3)

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
    return levels


class TestBbSelect:
    def test_below_reservoir_lowest(self):
        d = bb_select(0.5, ladder(2, (1, 2, 4)), np.array([0.6, 0.4]))
        assert list(d.levels) == [0, 0]

    def test_above_cushion_highest(self):
        d = bb_select(6.0, ladder(2, (1, 2, 4)), np.array([0.6, 0.4]))
        assert list(d.levels) == [2, 2]

    def test_interpolation_hand_mapping(self):
        # buffer 3, reservoir 1, cushion 5, 5 levels: (3-1)/(5-1)=0.5 -> level 2
        d = bb_select(3.0, ladder(2, (1, 2, 3, 4, 5)), np.array([0.6, 0.4]))
        assert list(d.levels) == [2, 2]

    def test_out_of_fov_lowest(self):
        d = bb_select(6.0, ladder(3, (1, 2, 4)), np.array([0.6, 0.4, 0.0]))
        assert list(d.levels) == [2, 2, 0]

    def test_monotone_in_buffer(self):
        lad = ladder(1, (1, 2, 3, 4, 5))
        probs = np.array([1.0])
        last = -1
        for buf in np.linspace(0, 8, 50):
            level = bb_select(float(buf), lad, probs).levels[0]
            assert level >= last
            last = level

    def test_invalid_config(self):
        with pytest.raises(Exception):
            BbConfig(reservoir_s=5.0, cushion_s=1.0)


class TestGreedyMckp:
    def _setup(self, n_tiles=2, levels=(1.0, 2.0, 4.0), rows=1, cols=2):
        grid = TileGrid(rows, cols)
        manifest = VideoManifest.synthetic(
            grid, 1, level_mbps=levels, seed=0, jitter_sigma=0.0
        )
        return manifest, neighbor_map(grid)

    def test_tight_budget_all_lowest(self):
        manifest, neighbors = self._setup()
        chunk = manifest.chunk_sizes[0]
        budget = float(chunk[:, 0].sum())
        d = greedy_mckp(
            manifest.tile_rates, np.array([0.6, 0.4]), budget, QoeWeights(), neighbors, chunk
        )
        assert list(d.levels) == [0, 0]

    def test_slack_budget_all_highest(self):
        manifest, neighbors = self._setup()
        chunk = manifest.chunk_sizes[0]
        d = greedy_mckp(
            manifest.tile_rates, np.array([0.6, 0.4]), 1e9, QoeWeights(), neighbors, chunk
        )
        assert list(d.levels) == [2, 2]

    def test_infeasible_budget_rejected(self):
        manifest, neighbors = self._setup()
        chunk = manifest.chunk_sizes[0]
        with pytest.raises(InfeasibleError):
            greedy_mckp(
                manifest.tile_rates, np.array([0.6, 0.4]), 0.0, QoeWeights(), neighbors, chunk
            )

    def test_never_exceeds_budget(self):
        rng = np.random.default_rng(0)
        manifest, neighbors = self._setup(levels=(0.5, 1.0, 2.0, 4.0))
        chunk = manifest.chunk_sizes[0]
        for _ in range(50):
            budget = float(rng.uniform(chunk[:, 0].sum(), chunk[:, -1].sum() * 1.2))
            probs = rng.dirichlet(np.ones(2))
            d = greedy_mckp(
                manifest.tile_rates, probs, budget, QoeWeights(), neighbors, chunk
            )
            cost = chunk[np.arange(2), d.levels].sum()
            assert cost <= budget + 1e-12

    def test_within_5pct_of_exhaustive_objective(self):
        rng = np.random.default_rng(1)
        manifest, neighbors = self._setup(levels=(1.0, 2.0, 4.0))
        chunk = manifest.chunk_sizes[0]
        w = QoeWeights()
        worst = 1.0
        for _ in range(100):
            budget = float(rng.uniform(chunk[:, 0].sum() + 0.01, chunk[:, -1].sum()))
            probs = rng.dirichlet(np.ones(2))

            def objective(levels):
                d = SegmentDecision(levels=np.array(levels), ladder=manifest.tile_rates, probs=probs)
                return viewport_quality(d) - w.eta2 * spatial_variation(d, neighbors)

            best = -np.inf
            for l0 in range(3):
                for l1 in range(3):
                    if chunk[0, l0] + chunk[1, l1] <= budget:
                        best = max(best, objective([l0, l1]))
            got = objective(
                greedy_mckp(manifest.tile_rates, probs, budget, w, neighbors, chunk).levels
            )
            if best > 0:
                worst = min(worst, got / best)
        assert worst >= 0.95

    def test_no_single_upgrade_dominates(self):
        # local optimality: no same-cost-or-cheaper single-tile change improves
        rng = np.random.default_rng(2)
        manifest, neighbors = self._setup(levels=(0.5, 1.0, 2.0, 4.0))
        chunk = manifest.chunk_sizes[0]
        w = QoeWeights()
        probs = rng.dirichlet(np.ones(2))
        budget = float(chunk[:, -1].sum() * 0.6)
        d = greedy_mckp(manifest.tile_rates, probs, budget, w, neighbors, chunk)

        def objective(levels):
            dd = SegmentDecision(levels=np.asarray(levels), ladder=manifest.tile_rates, probs=probs)
            return viewport_quality(dd) - w.eta2 * spatial_variation(dd, neighbors)

        base_cost = chunk[np.arange(2), d.levels].sum()
        base_obj = objective(d.levels)
        for i in range(2):
            trial = d.levels.copy()
            if trial[i] + 1 < 4:
                trial[i] += 1
                cost = chunk[np.arange(2), trial].sum()
                if cost <= budget:
                    # greedy stopped only because no fitting upgrade had gain > 0
                    assert objective(trial) - base_obj <= 1e-9 or cost > base_cost


    def test_levels_equal_segment_decision_reference(self):
        # chunk sizes proportional to the rates (no jitter) and probabilities
        # shared by several tiles make many trial upgrades tie exactly
        rng = np.random.default_rng(11)
        w = QoeWeights()
        for trial in range(150):
            grid = TileGrid(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            n = grid.n_tiles
            levels = tuple(np.cumsum(rng.uniform(0.2, 3.0, int(rng.integers(1, 6)))))
            manifest = VideoManifest.synthetic(
                grid, 1, level_mbps=levels, seed=trial, jitter_sigma=0.2 if trial % 3 == 0 else 0.0
            )
            chunk = manifest.chunk_sizes[0]
            probs = rng.choice([0.0, 0.1, 0.25, 0.5], size=n)
            if not probs.any():
                probs[0] = 1.0
            probs /= probs.sum()
            budget = float(rng.uniform(chunk[:, 0].sum(), chunk[:, -1].sum() * 1.1))
            args = (manifest.tile_rates, probs, budget, w, neighbor_map(grid), chunk)
            got = greedy_mckp(*args).levels
            assert got.tolist() == segment_decision_greedy(*args).tolist()


def toy_env(seed=0, segments=3, bw=3.0):
    grid = TileGrid(1, 2)
    manifest = VideoManifest.synthetic(
        grid, segments, level_mbps=(1.0, 4.0), seed=seed, jitter_sigma=0.1
    )
    env = StreamEnv(manifest, NetworkTrace.constant(bw), buffer_cap_s=4.0)
    return manifest, env


class TestBruteForceOracle:
    def test_single_segment_single_tile(self):
        grid = TileGrid(1, 1)
        manifest = VideoManifest.synthetic(grid, 1, level_mbps=(1.0, 2.0, 8.0), seed=0)
        env = StreamEnv(manifest, NetworkTrace.constant(6.0), buffer_cap_s=2.0)
        probs = np.array([[1.0]])
        seq, value = brute_force_oracle(env, probs, reset_seed=0)
        # argmax over the 3 single decisions
        best = -np.inf
        best_level = None
        for level in range(3):
            env2 = StreamEnv(manifest, NetworkTrace.constant(6.0), buffer_cap_s=2.0)
            env2.reset(seed=0)
            r = env2.step(
                SegmentDecision(
                    levels=np.array([level]), ladder=manifest.tile_rates, probs=probs[0]
                ),
                probs[0],
            )
            if r.reward > best:
                best, best_level = r.reward, level
        assert value == pytest.approx(best)
        assert seq[0][0] == best_level

    def test_zero_weights_infinite_bandwidth_all_highest(self):
        grid = TileGrid(1, 2)
        manifest = VideoManifest.synthetic(grid, 2, level_mbps=(1.0, 4.0), seed=1)
        env = StreamEnv(
            manifest, NetworkTrace.constant(1e9), weights=QoeWeights(0, 0, 0), buffer_cap_s=2.0
        )
        probs = np.tile([0.5, 0.5], (2, 1))
        seq, _ = brute_force_oracle(env, probs, reset_seed=0)
        for combo in seq:
            assert list(combo) == [1, 1]

    def test_ties_resolve_to_the_first_sequence(self):
        # tile 0 is never viewed and stalls cost nothing, so its level never
        # changes the value: the first of the tied sequences keeps it at 0.
        # 81^3 leaves span many lane blocks, so ties cross block boundaries.
        grid = TileGrid(2, 2)
        manifest = VideoManifest.synthetic(grid, 3, level_mbps=(1.0, 2.0, 4.0), seed=2)
        env = StreamEnv(
            manifest, NetworkTrace.constant(5.0), weights=QoeWeights(1.0, 1.0, 0.0)
        )
        probs = np.tile([0.0, 0.5, 0.3, 0.2], (3, 1))
        seq, _ = brute_force_oracle(env, probs, reset_seed=0)
        assert [int(combo[0]) for combo in seq] == [0, 0, 0]

    def test_empty_and_negative_horizons(self):
        _, env = toy_env()
        probs = np.tile([0.6, 0.4], (3, 1))
        assert brute_force_oracle(env, probs, horizon=0) == ([], 0.0)
        assert env.segment_index == 0
        with pytest.raises(ParameterError, match="horizon"):
            brute_force_oracle(env, probs, horizon=-1)

    def test_guard_refuses_large_instances(self):
        grid = TileGrid(3, 3)
        manifest = VideoManifest.synthetic(grid, 10, level_mbps=(1.0, 2.0, 4.0), seed=0)
        env = StreamEnv(manifest, NetworkTrace.constant(3.0))
        with pytest.raises(InfeasibleError):
            brute_force_oracle(env, np.full((10, 9), 1 / 9))

    def test_self_consistent_under_enumeration_shuffle(self):
        manifest, env = toy_env(seed=2)
        probs = np.tile([0.7, 0.3], (3, 1))
        _, v1 = brute_force_oracle(env, probs, reset_seed=5)
        env2 = StreamEnv(manifest, env.trace, buffer_cap_s=4.0)
        _, v2 = brute_force_oracle(env2, probs, reset_seed=5)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_fast_path_matches_env_stepping_reference(self):
        from tile360.synth import TraceSpec, synthesize_traces

        grid = TileGrid(2, 2)
        augmented = synthesize_traces(TraceSpec(duration_s=30.0, seed=3), 1)[0].augmented()
        stalling_bw = augmented.throughput_mbps.copy()
        stalling_bw[1::3] = 0.0  # every third interval delivers nothing
        stalling = NetworkTrace(augmented.timestamps, stalling_bw)
        # (trace, segments, horizon): whole video, then the first 2 of 3 segments
        for trace, segments, horizon in ((augmented, 2, None), (stalling, 3, 2)):
            manifest = VideoManifest.synthetic(
                grid, segments, level_mbps=(1.0, 2.0, 4.0), seed=7, jitter_sigma=0.2
            )
            probs = np.random.default_rng(4).dirichlet(np.ones(4), size=segments)
            env1 = StreamEnv(manifest, trace, buffer_cap_s=3.0)
            seq_fast, v_fast = brute_force_oracle(env1, probs, horizon=horizon, reset_seed=9)
            env2 = StreamEnv(manifest, trace, buffer_cap_s=3.0)
            seq_ref, v_ref = env_stepping_oracle(env2, probs, reset_seed=9, horizon=horizon)
            assert v_fast == v_ref
            assert [list(a) for a in seq_fast] == [list(b) for b in seq_ref]
            # the oracle leaves its env at the end of the winning playthrough
            env2.reset(seed=9)
            for depth, combo in enumerate(seq_ref):
                env2.step(
                    SegmentDecision(levels=combo, ladder=manifest.tile_rates, probs=probs[depth]),
                    probs[depth],
                )
            assert env1.segment_index == len(seq_ref)
            assert env1.snapshot() == env2.snapshot()

    def test_dominates_any_fixed_policy(self):
        manifest, env = toy_env(seed=3)
        probs = np.tile([0.6, 0.4], (3, 1))
        _, oracle_value = brute_force_oracle(env, probs, reset_seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            env2 = StreamEnv(manifest, env.trace, buffer_cap_s=4.0)
            env2.reset(seed=1)
            total = 0.0
            while not env2.done:
                d = SegmentDecision(
                    levels=rng.integers(0, 2, 2),
                    ladder=manifest.tile_rates,
                    probs=probs[env2.segment_index],
                )
                total += env2.step(d, probs[env2.segment_index]).reward
            assert oracle_value >= total - 1e-9
