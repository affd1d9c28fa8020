import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison.errors import EmptyGraph, InvalidFlip, MalformedEdgeList
from gadpoison.graph import (
    EdgeFlip,
    FlipAction,
    Graph,
    apply_flips,
    generate_ba,
    generate_er,
    load_edge_list,
    save_edge_list,
)


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return Graph(adj)


class TestLoadEdgeList:
    def test_dedup_and_self_loop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n1 1\n")
        g = load_edge_list(path)
        assert g.n == 2
        assert g.edges() == [(0, 1)]

    def test_drop_nonpositive_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 5\n0 2 -3\n")
        g = load_edge_list(path, drop_nonpositive_weights=True)
        assert g.n == 2
        assert g.num_edges() == 1

    def test_weights_kept_without_directive(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 5\n0 2 -3\n")
        g = load_edge_list(path)
        assert g.n == 3

    def test_compaction_is_ascending(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 40\n40 20\n")
        g = load_edge_list(path)
        # ids 10,20,40 -> 0,1,2
        assert set(g.edges()) == {(0, 2), (1, 2)}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nbogus\n")
        with pytest.raises(MalformedEdgeList, match=":2:"):
            load_edge_list(path)

    def test_empty_after_filtering(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n")
        with pytest.raises(EmptyGraph):
            load_edge_list(path)

    def test_round_trip(self, tmp_path):
        g = generate_er(30, 0.2, 5)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g


class TestGenerate:
    def test_er_p0_empty(self):
        assert generate_er(100, 0.0, 1).num_edges() == 0

    def test_er_p1_complete(self):
        assert generate_er(100, 1.0, 1).num_edges() == 4950

    def test_er_edge_count_near_expectation(self):
        g = generate_er(1000, 0.02, 42)
        pairs = 1000 * 999 // 2
        mean = pairs * 0.02
        sigma = np.sqrt(pairs * 0.02 * 0.98)
        assert abs(g.num_edges() - mean) <= 3 * sigma

    def test_er_deterministic(self):
        assert generate_er(200, 0.05, 9) == generate_er(200, 0.05, 9)

    def test_er_seed_changes_graph(self):
        assert generate_er(200, 0.05, 9) != generate_er(200, 0.05, 10)

    @pytest.mark.parametrize("n,m", [(50, 5), (30, 3), (20, 1)])
    def test_ba_edge_count(self, n, m):
        g = generate_ba(n, m, 7)
        assert g.num_edges() == m * (n - m) + m * (m - 1) // 2

    def test_ba_min_degree(self):
        g = generate_ba(60, 4, 3)
        assert g.degrees().min() >= 4

    def test_ba_rejects_m_ge_n(self):
        with pytest.raises(ValueError):
            generate_ba(5, 5, 0)

    def test_ba_deterministic(self):
        assert generate_ba(40, 3, 11) == generate_ba(40, 3, 11)


class TestApplyFlips:
    def test_empty_plan_identity(self):
        g = generate_er(20, 0.2, 1)
        assert apply_flips(g, []) == g

    def test_triangle_delete(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        out = apply_flips(g, [EdgeFlip(0, 1, FlipAction.DELETE)])
        assert out.num_edges() == 2
        assert not out.has_edge(0, 1)

    def test_round_trip_inverse(self):
        g = generate_er(15, 0.3, 2)
        flips = [EdgeFlip(0, 1, FlipAction.ADD if not g.has_edge(0, 1) else FlipAction.DELETE),
                 EdgeFlip(2, 5, FlipAction.ADD if not g.has_edge(2, 5) else FlipAction.DELETE)]
        poisoned = apply_flips(g, flips)
        undo = {FlipAction.ADD: FlipAction.DELETE, FlipAction.DELETE: FlipAction.ADD}
        restored = apply_flips(poisoned, [EdgeFlip(f.i, f.j, undo[f.action]) for f in reversed(flips)])
        assert restored == g

    def test_invalid_flip_reports_index(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(InvalidFlip, match="#1"):
            apply_flips(g, [EdgeFlip(1, 2, FlipAction.ADD), EdgeFlip(0, 2, FlipAction.DELETE)])

    def test_input_graph_unchanged(self):
        g = graph_from_edges(3, [(0, 1)])
        apply_flips(g, [EdgeFlip(0, 1, FlipAction.DELETE)])
        assert g.has_edge(0, 1)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_flips_preserve_invariants(self, seed):
        g = generate_er(12, 0.3, seed)
        rng = np.random.default_rng(seed)
        flips = []
        cur = g
        for _ in range(4):
            i, j = sorted(rng.choice(12, size=2, replace=False).tolist())
            action = FlipAction.DELETE if cur.has_edge(i, j) else FlipAction.ADD
            flips.append(EdgeFlip(i, j, action))
            cur = apply_flips(cur, [flips[-1]])
        adj = cur.adjacency
        assert np.array_equal(adj, adj.T)
        assert np.isin(adj, (0, 1)).all()
        assert np.all(np.diag(adj) == 0)


class TestTriangleDiagonal:
    def test_4_clique(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.triangle_diagonal().tolist() == [6, 6, 6, 6]

    def test_tree_zero(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        assert g.triangle_diagonal().tolist() == [0] * 5

    def test_matches_triple_loop_oracle(self):
        g = generate_er(50, 0.2, 21)
        A = g.adjacency
        oracle = np.zeros(50, dtype=int)
        for i in range(50):
            for j in range(50):
                for k in range(50):
                    oracle[i] += A[i, j] * A[j, k] * A[k, i]
        assert np.array_equal(g.triangle_diagonal(), oracle)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_always_even(self, seed):
        g = generate_er(15, 0.4, seed)
        assert np.all(g.triangle_diagonal() % 2 == 0)


class TestGraphValidation:
    @pytest.mark.parametrize("adj, message", [
        (np.zeros((2, 3)), "square"),
        (np.array([[0, 1], [0, 0]]), "symmetric"),
        (np.array([[1, 0], [0, 0]]), "self-loops"),
        (np.array([[0, 2], [2, 0]]), "0 or 1"),
        (np.array([[0, -1], [-1, 0]]), "0 or 1"),
        (np.array([[0.0, 0.5], [0.5, 0.0]]), "0 or 1"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "symmetric"),
    ])
    def test_rejects(self, adj, message):
        with pytest.raises(ValueError, match=message):
            Graph(adj)

    def test_accepts_bool_and_float_01(self):
        adj = np.array([[0, 1], [1, 0]])
        for dtype in (bool, float, np.uint8):
            assert Graph(adj.astype(dtype)).num_edges() == 1


class TestCachedCounts:
    def test_diagonal_cached_read_only(self):
        g = generate_er(20, 0.3, 4)
        diag = g.triangle_diagonal()
        assert g.triangle_diagonal() is diag
        assert not diag.flags.writeable
        with pytest.raises(ValueError):
            diag[0] = 1

    def test_degrees_fresh_copy(self):
        g = generate_er(20, 0.3, 4)
        d = g.degrees()
        d[0] += 5
        assert np.array_equal(g.degrees(), g.adjacency.sum(axis=1))
