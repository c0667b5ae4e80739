"""Tests for the RNG helpers and statistics utilities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import spawn_rng, stable_seed
from repro.util.stats import RunningStat, mean_confidence, speedup_curve


class TestRng:
    def test_stable_seed_is_deterministic(self):
        assert stable_seed("x", 1) == stable_seed("x", 1)
        assert stable_seed("x", 1) != stable_seed("x", 2)

    def test_spawn_rng_independent_streams(self):
        a = spawn_rng(42, "machine", 0)
        b = spawn_rng(42, "machine", 1)
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_spawn_rng_reproducible(self):
        a = spawn_rng(7, "gen")
        b = spawn_rng(7, "gen")
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))


class TestRunningStat:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(3.0, 2.0, size=100)
        stat = RunningStat()
        for x in xs:
            stat.add(float(x))
        assert stat.count == 100
        assert stat.mean == pytest.approx(float(np.mean(xs)))
        assert stat.variance == pytest.approx(float(np.var(xs, ddof=1)))
        assert stat.min == pytest.approx(float(xs.min()))
        assert stat.max == pytest.approx(float(xs.max()))

    def test_empty(self):
        stat = RunningStat()
        assert stat.mean == 0.0
        assert stat.variance == 0.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    )
    def test_merge_equals_sequential(self, left, right):
        merged_direct = RunningStat()
        for x in left + right:
            merged_direct.add(x)
        a, b = RunningStat(), RunningStat()
        for x in left:
            a.add(x)
        for x in right:
            b.add(x)
        merged = a.merge(b)
        assert merged.count == merged_direct.count
        assert merged.mean == pytest.approx(merged_direct.mean, abs=1e-6)
        assert merged.variance == pytest.approx(merged_direct.variance, rel=1e-6, abs=1e-6)


class TestStats:
    def test_mean_confidence(self):
        mean, half = mean_confidence([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half > 0

    def test_mean_confidence_degenerate(self):
        assert mean_confidence([]) == (0.0, 0.0)
        assert mean_confidence([5.0]) == (5.0, 0.0)

    def test_speedup_curve_ideal(self):
        curve = speedup_curve([1, 2, 4], [100.0, 50.0, 25.0])
        assert [pt.speedup for pt in curve] == pytest.approx([1.0, 2.0, 4.0])
        assert [pt.efficiency for pt in curve] == pytest.approx([1.0, 1.0, 1.0])

    def test_speedup_curve_without_p1(self):
        # Baseline scales the smallest-p runtime up to p=1.
        curve = speedup_curve([2, 4], [50.0, 30.0])
        assert curve[0].speedup == pytest.approx(2.0)
        assert curve[1].speedup == pytest.approx(100.0 / 30.0)

    def test_speedup_curve_sorts_input(self):
        curve = speedup_curve([4, 1], [25.0, 100.0])
        assert [pt.processors for pt in curve] == [1, 4]

    def test_speedup_curve_empty(self):
        assert speedup_curve([], []) == []

    def test_speedup_rejects_nonpositive_processors(self):
        with pytest.raises(ValueError):
            speedup_curve([0, 1], [1.0, 1.0])

    def test_zero_runtime_gives_inf(self):
        curve = speedup_curve([1, 2], [10.0, 0.0])
        assert math.isinf(curve[1].speedup)
