import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison import stats
from gadpoison.stats import permutation_test


class TestPermutationTest:
    def test_identical_samples_p_one(self):
        x = np.array([1.0, 2.0, 3.0])
        result = permutation_test(x, x.copy(), m=500, seed=1)
        assert result.t0 == 0.0
        assert result.p_value == 1.0

    def test_separated_gaussians(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 100)
        y = rng.normal(5, 1, 100)
        result = permutation_test(x, y, m=10_000, seed=2)
        assert result.p_value <= 0.001

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_rejects_non_finite(self, side, bad):
        clean, dirty = [1.0, 2.0, 3.0], [1.0, bad, 3.0]
        x, y = (dirty, clean) if side == "x" else (clean, dirty)
        with pytest.raises(ValueError, match=f"sample {side} contains NaN or inf"):
            permutation_test(x, y, m=100)

    def test_p_value_granularity(self):
        x = np.array([0.0, 1.0])
        y = np.array([10.0, 12.0])
        result = permutation_test(x, y, m=40, seed=3)
        assert result.p_value in {k / 40 for k in range(41)}

    def test_symmetric_in_samples(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0.5, 1, 25)
        a = permutation_test(x, y, m=2000, seed=7)
        b = permutation_test(y, x, m=2000, seed=7)
        assert a.t0 == pytest.approx(b.t0)
        # same pooled values, same derived stream sizes differ; p close
        assert abs(a.p_value - b.p_value) < 0.05

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 20)
        y = rng.normal(1, 1, 20)
        a = permutation_test(x, y, m=3000, seed=9)
        b = permutation_test(x + 100.0, y + 100.0, m=3000, seed=9)
        assert a.p_value == b.p_value

    def test_deterministic(self):
        x = np.arange(10.0)
        y = np.arange(5.0) + 2
        assert permutation_test(x, y, m=1000, seed=4) == permutation_test(x, y, m=1000, seed=4)

    @pytest.mark.parametrize("elements", [7, 1000])
    def test_chunk_size_keeps_result(self, monkeypatch, elements):
        rng = np.random.default_rng(5)
        x, y = rng.normal(0, 1, 30), rng.normal(0.4, 1, 20)
        whole = permutation_test(x, y, m=2000, seed=8)
        monkeypatch.setattr(stats, "CHUNK_ELEMENTS", elements)
        assert permutation_test(x, y, m=2000, seed=8) == whole

    def test_converges_to_exact_enumeration(self):
        x = np.array([0.1, 1.3, 2.9])
        y = np.array([2.0, 3.5, 4.1, 0.7])
        pooled = np.concatenate([x, y])
        t0 = abs(x.mean() - y.mean())
        # exhaustive oracle over all splits into sizes (3, 4)
        count = total = 0
        for combo in itertools.combinations(range(7), 3):
            xs = pooled[list(combo)]
            ys = pooled[[i for i in range(7) if i not in combo]]
            total += 1
            if abs(xs.mean() - ys.mean()) >= t0 - 1e-12:
                count += 1
        exact = count / total
        m = 200_000
        result = permutation_test(x, y, m=m, seed=13)
        se = math.sqrt(exact * (1 - exact) / m)
        assert abs(result.p_value - exact) <= 3 * se

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_p_in_unit_interval(self, values):
        x = np.array(values)
        result = permutation_test(x, x[::-1], m=50, seed=0)
        assert 0.0 <= result.p_value <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            permutation_test([], [1.0], m=10, seed=0)
