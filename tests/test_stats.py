import itertools
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison import stats
from gadpoison.stats import PermTestResult, permutation_test


def reference_permutation_test(x, y, m, seed):
    """The argsort permutation test that ``permutation_test`` replaced: each
    resample's first half is the values at the first len(x) positions of
    an argsort of its keys. Returns the result and every resample's t."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    t0 = abs(x.mean() - y.mean())
    pooled = np.concatenate([x, y])
    rng = stats.derive_rng(seed, "permutation_test", len(x), len(y), m)
    perms = pooled[np.argsort(rng.random((m, len(pooled))), axis=1)]
    t = np.abs(perms[:, :len(x)].mean(axis=1) - perms[:, len(x):].mean(axis=1))
    return PermTestResult(t0=float(t0), p_value=int(np.sum(t >= t0)) / m, m=m), t


class CoarseKeys:
    """A stand-in generator whose keys take only ``levels`` values, so
    most resamples tie at their cut."""

    def __init__(self, seed, levels):
        self.rng = np.random.default_rng(seed)
        self.levels = levels

    def random(self, size=None, out=None):
        keys = np.floor(self.rng.random(out.shape if out is not None else size) * self.levels) / self.levels
        if out is None:
            return keys
        out[...] = keys
        return out


integer_samples = st.lists(st.integers(-1000, 1000).map(float), min_size=1, max_size=30)


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

    # blocks of 50 values: one row, 3 rows (2000 leaves 2 over), 20 rows,
    # and more than m rows; the default is 1310 rows and a shorter block
    @pytest.mark.parametrize("elements", [7, 150, 1000, 50 * 2001])
    def test_chunk_size_keeps_result(self, monkeypatch, elements):
        rng = np.random.default_rng(5)
        x, y = rng.normal(0, 1, 30), rng.normal(0.4, 1, 20)
        coarse = patch.object(stats, "derive_rng", lambda *args: CoarseKeys(8, 3))  # most cut keys tie
        whole = permutation_test(x, y, m=2000, seed=8)
        with coarse:
            tied = permutation_test(x, y, m=2000, seed=8)
        monkeypatch.setattr(stats, "CHUNK_ELEMENTS", elements)
        assert permutation_test(x, y, m=2000, seed=8) == whole
        with coarse:
            assert permutation_test(x, y, m=2000, seed=8) == tied

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


class TestAgainstArgsortReference:
    @pytest.mark.parametrize("elements", [7, 1000, stats.CHUNK_ELEMENTS])
    @given(x=integer_samples, y=integer_samples, m=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_integer_samples_bit_identical(self, elements, x, y, m, seed):
        # a function-scoped monkeypatch fails hypothesis's health check
        with patch.object(stats, "CHUNK_ELEMENTS", elements):
            assert permutation_test(x, y, m=m, seed=seed) == reference_permutation_test(x, y, m, seed)[0]

    @given(x=st.lists(st.integers(-50, 50).map(float), min_size=2, max_size=20),
           y=st.lists(st.integers(-50, 50).map(float), min_size=2, max_size=20),
           levels=st.integers(2, 5), m=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tied_cuts_follow_the_argsort(self, x, y, levels, m, seed):
        with patch.object(stats, "derive_rng", lambda *args: CoarseKeys(seed, levels)):
            assert permutation_test(x, y, m=m, seed=0) == reference_permutation_test(x, y, m, 0)[0]

    def test_coarse_keys_tie_at_the_cut(self):
        # the property above reaches the argsort fallback
        keys = CoarseKeys(0, 3).random((200, 10))
        cut = np.partition(keys, 3, axis=1)[:, 3:4]
        assert np.any(np.sum(keys <= cut, axis=1) != 4)

    @given(x=st.lists(st.floats(-10, 10), min_size=1, max_size=40),
           y=st.lists(st.floats(-10, 10), min_size=1, max_size=40),
           m=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_other_samples_differ_only_within_rounding(self, x, y, m, seed):
        result = permutation_test(x, y, m=m, seed=seed)
        ref, t = reference_permutation_test(x, y, m, seed)
        assert result.t0 == ref.t0
        near = int(np.sum(np.abs(t - ref.t0) <= 1e-12 * (abs(ref.t0) + 1.0)))
        assert abs(round(result.p_value * m) - round(ref.p_value * m)) <= near


def test_resample_memory_is_two_chunk_buffers():
    # keys plus marks: 16 bytes per resampled value, well below 17
    rng = np.random.default_rng(0)
    x, y = rng.integers(1, 50, 3000).astype(float), rng.integers(1, 50, 3000).astype(float)
    tracemalloc.start()
    try:
        permutation_test(x, y, m=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * stats.CHUNK_ELEMENTS + 2**20


def test_default_blocks_peak_below_2_mib():
    rng = np.random.default_rng(0)
    x, y = rng.integers(1, 50, 3000).astype(float), rng.integers(1, 50, 3000).astype(float)
    tracemalloc.start()
    try:
        permutation_test(x, y, m=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
