import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadpoison.errors import DegenerateFit, InvalidFlip, IsolatedTarget
from gadpoison.graph import EdgeFlip, FlipAction, Graph, apply_flips, generate_er
from gadpoison.oddball import (
    AnomalyReport,
    EgoFeatures,
    RegressionFit,
    _line_fit,
    anomaly_scores,
    ego_features,
    fit_ols,
    rank_top_k,
    score_graph,
    surrogate_objective,
    write_report_csv,
)
from test_graph import from_dense, plant_clique


def star(n_leaves):
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def egonet_oracle(graph):
    """Independent oracle: materialize each egonet and count nodes-1, edges."""
    N = np.zeros(graph.n)
    E = np.zeros(graph.n)
    for i in range(graph.n):
        members = sorted(set(graph.neighbors(i).tolist()) | {i})
        N[i] = len(members) - 1
        sub = graph.dense()[np.ix_(members, members)]
        E[i] = sub.sum() / 2
    return N, E


class TestEgoFeatures:
    def test_star(self):
        f = ego_features(star(4))
        assert f.N.tolist() == [4, 1, 1, 1, 1]
        assert f.E.tolist() == [4, 1, 1, 1, 1]

    def test_4_clique(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        f = ego_features(g)
        assert f.N.tolist() == [3] * 4
        assert f.E.tolist() == [6] * 4

    def test_matches_egonet_oracle(self):
        g = generate_er(30, 0.2, 17)
        f = ego_features(g)
        N, E = egonet_oracle(g)
        assert np.array_equal(f.N, N)
        assert np.array_equal(f.E, E)

    def test_e_geq_n(self):
        g = generate_er(40, 0.15, 8)
        f = ego_features(g)
        assert np.all(f.E >= f.N)


class TestFitOls:
    def test_star_line(self):
        fit = fit_ols(ego_features(star(8)))
        assert fit.beta0 == pytest.approx(0.0, abs=1e-12)
        assert fit.beta1 == pytest.approx(1.0, abs=1e-12)

    def test_exact_interpolation(self):
        N = np.array([1.0, 2.0, 4.0, 8.0])
        E = np.exp(0.3 + 1.5 * np.log(N))
        fit = fit_ols(EgoFeatures(N=N, E=E))
        assert fit.beta0 == pytest.approx(0.3, abs=1e-10)
        assert fit.beta1 == pytest.approx(1.5, abs=1e-10)

    def test_covariance_formula_oracle(self):
        g = generate_er(200, 0.05, 33)
        f = ego_features(g)
        fit = fit_ols(f)
        mask = f.N >= 1
        x, y = np.log(f.N[mask]), np.log(f.E[mask])
        slope = np.cov(x, y, bias=True)[0, 1] / np.var(x)
        intercept = y.mean() - slope * x.mean()
        assert fit.beta1 == pytest.approx(slope, abs=1e-9)
        assert fit.beta0 == pytest.approx(intercept, abs=1e-9)

    def test_residual_orthogonality(self):
        g = generate_er(100, 0.1, 3)
        f = ego_features(g)
        fit = fit_ols(f)
        x = np.log(f.N[fit.fit_mask])
        r = np.log(f.E[fit.fit_mask]) - fit.beta0 - fit.beta1 * x
        assert abs(r.sum()) < 1e-8
        assert abs((r * x).sum()) < 1e-8

    def test_degenerate_regular_graph(self):
        # 2-regular cycle: all ln N equal
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        fit = fit_ols(ego_features(g))
        assert fit.degenerate
        assert fit.beta1 == 0.0
        assert fit.beta0 == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize("n", [5, 25])
    def test_degenerate_cycle(self, n):
        # equal ln N whose rounded mean leaves a nonzero spread (n = 25)
        # must still count as degenerate, not fit a slope of 1.0
        fit = fit_ols(ego_features(Graph(n, [(i, (i + 1) % n) for i in range(n)])))
        assert fit.degenerate and fit.beta1 == 0.0

    def test_degenerate_equal_degrees_varied_edges(self):
        N = np.full(30, 3.0)
        fit = fit_ols(EgoFeatures(N=N, E=N + np.arange(30) % 3))
        assert fit.degenerate and fit.beta1 == 0.0

    def test_too_few_nodes(self):
        with pytest.raises(DegenerateFit):
            fit_ols(EgoFeatures(N=np.array([2.0, 0.0]), E=np.array([2.0, 0.0])))

    def test_isolated_nodes_excluded(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2)])  # nodes 3,4 isolated
        fit = fit_ols(ego_features(g))
        assert set(fit.fit_mask.tolist()) == {0, 1, 2}


def unweighted_line(x, y):
    """The plain least-squares line as written before weights were shared,
    undefined when all x are equal or their spread underflows."""
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0 or x.min() == x.max():
        return None
    beta1 = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    return float(y.mean() - beta1 * x.mean()), beta1


class TestLineFit:
    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 8.0),
                                     st.floats(-5.0, 12.0)), min_size=1, max_size=60))
    def test_unit_weights_give_the_unweighted_fit_bit_for_bit(self, points):
        x, y = (np.array(col) for col in zip(*points))
        expected = unweighted_line(x, y)
        assert _line_fit(x, y) == expected
        assert _line_fit(x, y, np.ones(len(x))) == expected

    def test_weights_pick_the_points(self):
        x, y = np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 3.0, 0.0, 7.0])
        # zero weight drops a point: the line through (0, 1), (1, 3), (3, 7)
        beta0, beta1 = _line_fit(x, y, np.array([1.0, 1.0, 0.0, 1.0]))
        assert beta0 == pytest.approx(1.0) and beta1 == pytest.approx(2.0)
        assert _line_fit(x, y, np.array([0.0, 0.0, 1.0, 0.0])) is None
        # the x of positive weight are all equal
        assert _line_fit(np.array([0.4, 0.4, 0.4, 9.0]), y, np.array([0.5, 1.0, 2.0, 0.0])) is None


class TestAnomalyScores:
    def test_star_all_zero(self):
        g = star(6)
        report = anomaly_scores(ego_features(g), fit_ols(ego_features(g)))
        assert np.allclose(report.scores, 0.0, atol=1e-12)

    def test_exact_fit_zero_score(self):
        f = EgoFeatures(N=np.array([3.0, 9.0]), E=np.array([3.0, 9.0]))
        fit = RegressionFit(0.0, 1.0, "ols", np.array([0, 1]))
        assert np.allclose(anomaly_scores(f, fit).scores, 0.0)

    def test_hand_computed_value(self):
        # N=3, E=6 under (beta0=0, beta1=1): Ehat=3, S = 2*ln(4)
        f = EgoFeatures(N=np.array([3.0, 1.0]), E=np.array([6.0, 1.0]))
        fit = RegressionFit(0.0, 1.0, "ols", np.array([0, 1]))
        s = anomaly_scores(f, fit).scores[0]
        assert s == pytest.approx(2.772589, abs=1e-6)

    def test_nonnegative_and_isolated_zero(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])  # node 5 isolated
        report = score_graph(g)
        assert np.all(report.scores >= 0)
        assert report.scores[5] == 0.0

    def test_relabel_invariance(self):
        g = generate_er(25, 0.25, 5)
        perm = np.random.default_rng(4).permutation(25)
        relabeled = from_dense(g.dense()[np.ix_(perm, perm)])
        s_orig = score_graph(g).scores
        s_relabeled = score_graph(relabeled).scores
        assert np.allclose(s_orig[perm], s_relabeled, atol=1e-9)


class TestSurrogate:
    def test_targets_on_line_zero(self):
        g = star(5)
        assert surrogate_objective(ego_features(g), [0, 1]) == pytest.approx(0.0, abs=1e-20)

    def test_single_target_squared_residual(self):
        # two-point exact line through (1,1) and (4,4) plus target (3,6):
        # fit over all three is no longer the identity line, so build the
        # value by the independent covariance-formula oracle
        g = generate_er(50, 0.1, 12)
        f = ego_features(g)
        targets = [0, 4, 7]
        mask = f.N >= 1
        x, y = np.log(f.N[mask]), np.log(f.E[mask])
        slope = np.cov(x, y, bias=True)[0, 1] / np.var(x)
        intercept = y.mean() - slope * x.mean()
        expected = sum(
            (f.E[t] - math.exp(intercept) * f.N[t] ** slope) ** 2 for t in targets
        )
        assert surrogate_objective(f, targets) == pytest.approx(expected, rel=1e-9)

    def test_empty_targets_warns_zero(self):
        g = star(4)
        with pytest.warns(UserWarning):
            assert surrogate_objective(ego_features(g), []) == 0.0

    def test_zero_iff_on_curve(self):
        f = EgoFeatures(N=np.array([1.0, 2.0, 4.0, 3.0]), E=np.array([1.0, 2.0, 4.0, 9.0]))
        assert surrogate_objective(f, [0, 1]) > 0  # node 3 bends the fit

    @pytest.mark.parametrize("targets, error, message", [
        ([-1, 0], ValueError, r"targets \[-1\] out of range for a graph of 6 nodes"),
        ([0, 6], ValueError, r"targets \[6\] out of range for a graph of 6 nodes"),
        ([5, 0], IsolatedTarget, r"targets \[5\] are isolated"),
    ])
    def test_bad_targets_rejected(self, targets, error, message):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])  # node 5 isolated
        with pytest.raises(error, match=message):
            surrogate_objective(ego_features(g), targets)


class TestRankTopK:
    def test_tie_break_ascending_id(self):
        report = AnomalyReport(scores=np.zeros(5), fit=None)
        assert rank_top_k(report, 3) == [0, 1, 2]

    def test_k_equals_n_permutation(self):
        g = generate_er(20, 0.3, 2)
        assert sorted(rank_top_k(score_graph(g), 20)) == list(range(20))

    def test_planted_clique_tops_ranking(self):
        g = generate_er(200, 0.02, 6)
        planted, members = plant_clique(g, 10, seed=1)
        top = rank_top_k(score_graph(planted), 10)
        assert len(set(top) & set(members)) >= 8

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            rank_top_k(AnomalyReport(scores=np.zeros(3), fit=None), 4)


def random_flips(graph, rng, count, invalid_at=None):
    """``count`` flips on random pairs, each valid against the state the
    earlier ones leave, except flip #invalid_at, which is made invalid."""
    adj = graph.dense()
    flips = []
    for k in range(count):
        i, j = sorted(rng.choice(graph.n, size=2, replace=False).tolist())
        present = bool(adj[i, j])
        if k == invalid_at:
            present = not present
        action = FlipAction.DELETE if present else FlipAction.ADD
        flips.append(EdgeFlip(i, j, action))
        adj[i, j] = adj[j, i] = 1 - adj[i, j]
    return flips


class TestEgoFeaturesWithFlips:
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 14), p=st.floats(0.0, 1.0),
           count=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_rebuilt_graph(self, seed, n, p, count):
        g = generate_er(n, p, seed)
        flips = random_flips(g, np.random.default_rng(seed), count)
        counted = ego_features(g, flips)
        rebuilt = ego_features(apply_flips(g, flips))
        assert np.array_equal(counted.N, rebuilt.N)
        assert np.array_equal(counted.E, rebuilt.E)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 10), count=st.integers(1, 8),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_invalid_flip_same_index(self, seed, n, count, data):
        g = generate_er(n, 0.4, seed)
        bad = data.draw(st.integers(0, count - 1))
        flips = random_flips(g, np.random.default_rng(seed), count, invalid_at=bad)
        with pytest.raises(InvalidFlip) as rebuilt:
            apply_flips(g, flips)
        with pytest.raises(InvalidFlip) as counted:
            ego_features(g, flips)
        assert rebuilt.value.index == counted.value.index == bad
        assert str(rebuilt.value) == str(counted.value)

    def test_pair_outside_graph(self):
        g = Graph(3, [(0, 1)])
        flips = [EdgeFlip(1, 2, FlipAction.ADD), EdgeFlip(0, 3, FlipAction.ADD)]
        for fn in (apply_flips, ego_features):
            with pytest.raises(InvalidFlip, match="#1"):
                fn(g, flips)

    def test_closing_triangle_leaves_graph_unchanged(self):
        g = Graph(3, [(0, 1), (1, 2)])
        closed = ego_features(g, [EdgeFlip(0, 2, FlipAction.ADD)])
        assert closed.E.tolist() == [3.0, 3.0, 3.0]  # N = 2, diag(A^3) = 2 per node
        assert ego_features(g).E.tolist() == [1.0, 2.0, 1.0]


def reference_write_report_csv(report, path):
    """The row-at-a-time ``csv.writer`` loop that ``write_report_csv`` replaced."""
    feats = report.features
    fitted = report.fit.predict_E(feats.N)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "N", "E", "fitted_E", "score", "fitter"])
        for i in range(len(report.scores)):
            writer.writerow(
                [i, feats.N[i], feats.E[i], f"{fitted[i]:.10g}", f"{report.scores[i]:.10g}", report.fit.fitter]
            )


def report_bytes(writer, report) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        writer(report, path)
        return path.read_bytes()


class TestWriteReportCsv:
    EXTREMES = [(1.7976931348623157e308, 5e-324, -2.2250738585072014e-308), (1e16, 1e-05, 123456789.0),
                (float("inf"), float("nan"), -0.0)]

    # (N, E, score) per node; beta0 and beta1 reach overflowing and
    # underflowing fitted_E values
    @given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20),
           beta=st.tuples(st.floats(-800, 800), st.floats(-50, 50)),
           fitter=st.sampled_from(["ols", "huber", "ransac"]))
    @example(rows=[], beta=(0.0, 1.0), fitter="ols")
    @example(rows=[(3.0, 4.0, 0.25)], beta=(0.1, 1.2), fitter="huber")
    @example(rows=EXTREMES, beta=(700.0, 1.5), fitter="ransac")
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_csv_writer(self, rows, beta, fitter):
        N, E, scores = (np.array([r[k] for r in rows], dtype=float) for k in range(3))
        report = AnomalyReport(scores, RegressionFit(*beta, fitter, np.flatnonzero(N > 0)), EgoFeatures(N=N, E=E))
        with np.errstate(all="ignore"):
            assert report_bytes(write_report_csv, report) == report_bytes(reference_write_report_csv, report)

    def test_graph_report(self):
        report = score_graph(generate_er(200, 0.05, 3))
        data = report_bytes(write_report_csv, report)
        assert data == report_bytes(reference_write_report_csv, report)
        assert data.count(b"\r\n") == 201
