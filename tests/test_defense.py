import tracemalloc
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from gadpoison import defense
from gadpoison.defense import fit_huber, fit_ransac, huber_loss, robust_rescore
from gadpoison.errors import DegenerateFit, NoConsensus
from gadpoison.graph import Graph, derive_rng, generate_er
from gadpoison.oddball import EgoFeatures, _line_fit, _masked_logs, ego_features, fit_ols, score_graph


def features_on_line(beta0, beta1, n_values):
    N = np.asarray(n_values, dtype=float)
    E = np.exp(beta0 + beta1 * np.log(N))
    return EgoFeatures(N=N, E=np.maximum(E, N))


def contaminated_features(seed=0, n=20, outliers=1, shift=5.0):
    rng = np.random.default_rng(seed)
    N = rng.uniform(2, 50, n)
    E = np.exp(0.0 + 1.0 * np.log(N))
    E[:outliers] = E[:outliers] * np.exp(shift)
    return EgoFeatures(N=N, E=np.maximum(E, N))


def ransac_pairs(seed, m):
    """The RANSAC_ITERS ordered pairs of distinct points that ``fit_ransac``
    draws for ``seed`` over ``m`` points, as its own stream gives them."""
    rng = derive_rng(seed, "ransac")
    i = rng.integers(m, size=defense.RANSAC_ITERS)
    j = rng.integers(m - 1, size=defense.RANSAC_ITERS)
    return i, j + (j >= i)


def reference_fit_ransac(features, seed=0):
    """The per-candidate RANSAC loop that ``fit_ransac`` replaced: each
    drawn pair's line is scored in turn, and the strict maximum of
    (consensus size, -Huber sum) is kept."""
    mask, x, y = _masked_logs(features)
    if len(np.unique(x)) < 2:
        raise DegenerateFit("need at least 2 distinct ln N values")
    tol = defense._inlier_tol(mask, x, y)
    best = None
    for i, j in zip(*ransac_pairs(seed, len(x))):
        if x[i] == x[j]:
            continue
        b1 = (y[j] - y[i]) / (x[j] - x[i])
        b0 = y[i] - b1 * x[i]
        resid = y - b0 - b1 * x
        inliers = np.abs(resid) <= tol
        size = int(inliers.sum())
        if size < 2:
            continue
        key = (size, -float(huber_loss(resid[inliers], 1.0).sum()))
        if best is None or key > best[0]:
            best = (key, inliers)
    if best is None:
        raise NoConsensus("no candidate line had at least 2 inliers")
    inliers = best[1]
    coef = _line_fit(x[inliers], y[inliers])
    if coef is None:
        raise NoConsensus("consensus set has no ln N spread")
    return defense.RegressionFit(*coef, "ransac", mask[inliers])


def ransac_outcome(fit, features, seed):
    """(beta0, beta1, fit_mask) of a fit, or the type and message it raised."""
    try:
        r = fit(features, seed)
    except (DegenerateFit, NoConsensus) as exc:
        return type(exc), str(exc)
    return r.beta0, r.beta1, r.fit_mask.tolist()


class TestFitHuber:
    def test_collinear_matches_ols(self):
        f = features_on_line(0.2, 1.3, [2, 3, 5, 9, 17])
        h = fit_huber(f)
        o = fit_ols(f)
        assert h.beta0 == pytest.approx(o.beta0, abs=1e-8)
        assert h.beta1 == pytest.approx(o.beta1, abs=1e-8)

    def test_outlier_resistance(self):
        f = contaminated_features(seed=1, n=21, outliers=1)
        h = fit_huber(f)
        o = fit_ols(f)
        assert abs(h.beta1 - 1.0) < abs(o.beta1 - 1.0)

    def test_huge_k_equals_ols(self, monkeypatch):
        monkeypatch.setattr(defense, "HUBER_K", 1e9)
        f = contaminated_features(seed=2)
        h = fit_huber(f)
        o = fit_ols(f)
        assert h.beta0 == pytest.approx(o.beta0, abs=1e-8)
        assert h.beta1 == pytest.approx(o.beta1, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(nodes=st.lists(st.tuples(st.integers(0, 40), st.floats(0.0, 300.0)), min_size=2, max_size=50))
    def test_huge_k_is_ols_exactly(self, nodes):
        N = np.array([float(d) for d, _ in nodes])
        f = EgoFeatures(N=N, E=N + np.array([t for _, t in nodes]))
        assume((N >= 1).sum() >= 2)
        # a function-scoped monkeypatch fails hypothesis's health check
        with patch.object(defense, "HUBER_K", 1e200):  # every weight min(1, k/|r|) is 1
            h = fit_huber(f)
        o = fit_ols(f)
        assert (h.beta0, h.beta1, h.degenerate) == (o.beta0, o.beta1, o.degenerate)
        assert np.array_equal(h.fit_mask, o.fit_mask)

    def test_objective_non_increasing(self):
        f = contaminated_features(seed=3)
        mask = f.N >= 1
        x, y = np.log(f.N[mask]), np.log(f.E[mask])
        k = 1.345
        start = fit_ols(f)
        beta0, beta1 = start.beta0, start.beta1
        prev = huber_loss(y - beta0 - beta1 * x, k).sum()
        for _ in range(20):
            resid = y - beta0 - beta1 * x
            w = np.minimum(1.0, k / np.maximum(np.abs(resid), 1e-12))
            sw = w.sum()
            xw, yw = (w * x).sum() / sw, (w * y).sum() / sw
            beta1 = float((w * (x - xw) * (y - yw)).sum() / (w * (x - xw) ** 2).sum())
            beta0 = float(yw - beta1 * xw)
            cur = huber_loss(y - beta0 - beta1 * x, k).sum()
            assert cur <= prev + 1e-10
            prev = cur


class TestFitRansac:
    def test_collinear_matches_ols(self, monkeypatch):
        monkeypatch.setattr(defense, "_inlier_tol", lambda *args: 1e-6)
        f = features_on_line(0.1, 1.4, [2, 3, 5, 9, 17, 33])
        r = fit_ransac(f, seed=5)
        o = fit_ols(f)
        assert r.beta0 == pytest.approx(o.beta0, abs=1e-9)
        assert r.beta1 == pytest.approx(o.beta1, abs=1e-9)
        assert len(r.fit_mask) == 6  # consensus covers every point

    def test_contamination_recovery(self, monkeypatch):
        monkeypatch.setattr(defense, "_inlier_tol", lambda *args: 0.05)
        f = contaminated_features(seed=4, n=50, outliers=10, shift=5.0)
        r = fit_ransac(f, seed=7)
        o = fit_ols(f)
        assert abs(r.beta0 - 0.0) < 0.05
        assert abs(r.beta1 - 1.0) < 0.05
        assert abs(o.beta0) + abs(o.beta1 - 1.0) > 0.2

    def test_deterministic(self):
        f = contaminated_features(seed=6, n=40, outliers=8)
        r1, r2 = fit_ransac(f, seed=11), fit_ransac(f, seed=11)
        assert (r1.beta0, r1.beta1) == (r2.beta0, r2.beta1)

    def test_consensus_within_tolerance(self, monkeypatch):
        f = contaminated_features(seed=8, n=30, outliers=5)
        tol = 0.05
        monkeypatch.setattr(defense, "_inlier_tol", lambda *args: tol)
        r = fit_ransac(f, seed=2)
        mask_all = np.flatnonzero(f.N >= 1)
        pos = np.isin(mask_all, r.fit_mask)
        x, y = np.log(f.N[mask_all][pos]), np.log(f.E[mask_all][pos])
        # the refit line can move slightly off the defining sample; allow slack
        assert np.all(np.abs(y - r.beta0 - r.beta1 * x) <= 2.5 * tol)


class TestFitRansacAgainstLoop:
    # tol None keeps the OLS band; 0 leaves most lines under 2 inliers; 1e3
    # makes every line's consensus the whole set, so the Huber sum decides
    @given(nodes=st.lists(st.tuples(st.integers(0, 6), st.floats(0.0, 40.0)), min_size=2, max_size=40),
           tol=st.sampled_from([None, 0.0, 1e-300, 0.05, 1e3]), batch=st.sampled_from([1, 7, 64, 1 << 17]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_fit_or_same_error(self, nodes, tol, batch, seed):
        N = np.array([float(d) for d, _ in nodes])  # few distinct degrees: equal-ln-N draws are common
        f = EgoFeatures(N=N, E=N + np.array([t for _, t in nodes]))
        band = nullcontext() if tol is None else patch.object(defense, "_inlier_tol", lambda *args: tol)
        with patch.object(defense, "RANSAC_BATCH", batch), band:
            assert ransac_outcome(fit_ransac, f, seed) == ransac_outcome(reference_fit_ransac, f, seed)

    def test_huber_sum_breaks_equal_consensus(self, monkeypatch):
        # two lines of five points each: a line through two points of
        # either holds its five and no other, and only the second line's
        # points lie on it exactly, so its Huber sum is the smaller
        monkeypatch.setattr(defense, "_inlier_tol", lambda *args: 0.01)
        N = np.arange(2.0, 12.0)
        noise = np.array([1e-3, -1e-3, 2e-3, -2e-3, 1e-3])
        f = EgoFeatures(N=N, E=np.exp(np.concatenate([np.log(N[:5]) + noise, 3.0 + 0.5 * np.log(N[5:])])))
        for seed in range(10):  # about half of them draw a first-line pair first
            r = fit_ransac(f, seed=seed)
            assert r.fit_mask.tolist() == [5, 6, 7, 8, 9]
            assert ransac_outcome(fit_ransac, f, seed) == ransac_outcome(reference_fit_ransac, f, seed)

    def test_every_draw_skipped(self, monkeypatch):
        # nine equal degrees and one other: with 3 draws, some seed draws
        # only equal-ln-N pairs
        monkeypatch.setattr(defense, "RANSAC_ITERS", 3)
        f = EgoFeatures(N=np.array([2.0] * 9 + [5.0]), E=np.array([3.0] * 9 + [9.0]))
        seeds = [s for s in range(50)
                 if ransac_outcome(reference_fit_ransac, f, s)[1] == "no candidate line had at least 2 inliers"]
        assert seeds
        for s in seeds:
            with pytest.raises(NoConsensus, match="no candidate line had at least 2 inliers"):
                fit_ransac(f, seed=s)

    def test_memory_bounded_by_batches(self):
        # one residual row per batch at M = 100,000; unbatched, the 200 rows
        # would hold 160 MB
        rng = np.random.default_rng(3)
        N = rng.integers(1, 200, 100_000).astype(float)
        f = EgoFeatures(N=N, E=N + rng.integers(0, 400, 100_000))
        tracemalloc.start()
        try:
            fit_ransac(f, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestRansacDraws:
    """The two-point samples: none before a fit has 2 distinct ln N values,
    then RANSAC_ITERS ordered pairs of distinct points per seed."""

    @pytest.mark.parametrize("N", [[], [0.0, 0.0], [3.0], [3.0, 3.0, 0.0, 3.0]])
    def test_fewer_than_two_ln_n_values(self, N):
        f = EgoFeatures(N=np.array(N), E=np.array(N) + 1.0)
        with pytest.raises(DegenerateFit, match="need at least 2 distinct ln N values"):
            fit_ransac(f, seed=0)

    def test_draws_distinct_pairs_repeatably(self, monkeypatch):
        drawn = []  # each fit's two index arrays; the fit shifts j in place

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                drawn.append(self.rng.integers(*args, **kwargs))
                return drawn[-1]

        monkeypatch.setattr(defense, "derive_rng", lambda *args: Recording(derive_rng(*args)))
        f = features_on_line(0.0, 1.0, [2, 3, 5])
        counts = np.zeros((3, 3), dtype=int)
        for seed in range(20):
            fit_ransac(f, seed=seed)
            i, j = drawn[-2:]
            assert i.shape == j.shape == (defense.RANSAC_ITERS,)
            assert (i != j).all() and min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) <= 2
            assert all(np.array_equal(u, v) for u, v in zip((i, j), ransac_pairs(seed, 3)))
            np.add.at(counts, (i, j), 1)
        fit_ransac(f, seed=0)
        assert np.array_equal(drawn[-2], drawn[0]) and np.array_equal(drawn[-1], drawn[1])
        # 4,000 draws spread evenly over the 6 ordered pairs, 667 expected each
        assert np.abs(counts[~np.eye(3, dtype=bool)] - 4000 / 6).max() < 100


class TestMedian:
    @given(values=st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, 1.0, 2.5])),
                           min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median_bit_for_bit(self, values):
        # odd and even lengths, ties from the sampled values, single values;
        # absolute values, as _inlier_tol passes (np.median sums a middle
        # -0.0 to 0.0)
        a = np.abs(np.array(values))
        with np.errstate(all="ignore"):
            want = np.median(a)
            got = defense._median(a.copy())
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestRobustRescore:
    def test_clean_graph_rank_agreement(self):
        g = generate_er(300, 0.05, 1)
        ols_scores = score_graph(g).scores
        for fitter in ("huber", "ransac"):
            robust = robust_rescore(g, fitter, seed=3).scores
            rho = spearmanr(ols_scores, robust).statistic
            assert rho >= 0.95, (fitter, rho)

    def test_star_all_zero(self):
        g = Graph(7, [(0, i) for i in range(1, 7)])
        assert np.allclose(robust_rescore(g, "huber").scores, 0.0, atol=1e-8)

    def test_never_negative(self):
        g = generate_er(80, 0.08, 23)
        for fitter in ("ols", "huber", "ransac"):
            assert np.all(robust_rescore(g, fitter, seed=1).scores >= 0)

    def test_unknown_fitter(self):
        g = generate_er(10, 0.3, 1)
        with pytest.raises(ValueError):
            robust_rescore(g, "theilsen")
