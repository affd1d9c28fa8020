import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison import graph as graph_module
from gadpoison.errors import EmptyGraph, GraphTooLarge, InvalidFlip, MalformedEdgeList
from gadpoison.graph import (
    EdgeFlip,
    FlipAction,
    Graph,
    apply_flips,
    derive_rng,
    generate_ba,
    generate_er,
    load_edge_list,
    save_edge_list,
)


def from_dense(adj):
    """The graph of a symmetric 0/1 matrix with a zero diagonal."""
    return Graph(len(adj), np.argwhere(np.triu(adj, k=1)))


def has_edge(graph, i, j):
    return j in graph.neighbors(i)


def plant_clique(graph, size, seed):
    """Densify a random node subset into a clique (planted anomaly).

    Returns the new graph and the sorted member list.
    """
    if size > graph.n:
        raise ValueError("clique size exceeds node count")
    rng = derive_rng(seed, "plant_clique", size)
    members = sorted(rng.choice(graph.n, size=size, replace=False).tolist())
    clique = {(a, b) for k, a in enumerate(members) for b in members[k + 1:]}
    return Graph(graph.n, list(clique | set(graph.edges()))), members


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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 5\n1 2 {weight}\n")
        with pytest.raises(MalformedEdgeList, match=":2: weight must be a finite number") as info:
            load_edge_list(path, drop_nonpositive_weights=True)
        assert info.value.line_no == 2

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

    @pytest.mark.parametrize("n, block_bytes", [(1000, graph_module.ER_BLOCK_BYTES), (37, 8 * 37 * 5)])
    def test_er_row_blocks_equal_one_draw(self, monkeypatch, n, block_bytes):
        # blocks of 131 and 5 rows, the last one short
        monkeypatch.setattr(graph_module, "ER_BLOCK_BYTES", block_bytes)
        assert block_bytes // (8 * n) < n
        uniforms = derive_rng(3, "er", n, 0.05).random((n, n))
        assert generate_er(n, 0.05, 3) == Graph(n, np.argwhere(np.triu(uniforms < 0.05, k=1)))

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
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        out = apply_flips(g, [EdgeFlip(0, 1, FlipAction.DELETE)])
        assert out.num_edges() == 2
        assert not has_edge(out, 0, 1)

    def test_round_trip_inverse(self):
        g = generate_er(15, 0.3, 2)
        flips = [EdgeFlip(0, 1, FlipAction.ADD if not has_edge(g, 0, 1) else FlipAction.DELETE),
                 EdgeFlip(2, 5, FlipAction.ADD if not has_edge(g, 2, 5) else FlipAction.DELETE)]
        poisoned = apply_flips(g, flips)
        undo = {FlipAction.ADD: FlipAction.DELETE, FlipAction.DELETE: FlipAction.ADD}
        restored = apply_flips(poisoned, [EdgeFlip(f.i, f.j, undo[f.action]) for f in reversed(flips)])
        assert restored == g

    def test_invalid_flip_reports_index(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidFlip, match="#1"):
            apply_flips(g, [EdgeFlip(1, 2, FlipAction.ADD), EdgeFlip(0, 2, FlipAction.DELETE)])

    def test_input_graph_unchanged(self):
        g = Graph(3, [(0, 1)])
        apply_flips(g, [EdgeFlip(0, 1, FlipAction.DELETE)])
        assert has_edge(g, 0, 1)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_flips_preserve_invariants(self, seed):
        g = generate_er(12, 0.3, seed)
        rng = np.random.default_rng(seed)
        flips = []
        cur = g
        for _ in range(4):
            i, j = sorted(rng.choice(12, size=2, replace=False).tolist())
            action = FlipAction.DELETE if has_edge(cur, i, j) else FlipAction.ADD
            flips.append(EdgeFlip(i, j, action))
            cur = apply_flips(cur, [flips[-1]])
        adj = cur.dense()
        assert np.array_equal(adj, adj.T)
        assert np.isin(adj, (0, 1)).all()
        assert np.all(np.diag(adj) == 0)


class TestTriangleDiagonal:
    def test_4_clique(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.triangle_diagonal().tolist() == [6, 6, 6, 6]

    def test_tree_zero(self):
        g = Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        assert g.triangle_diagonal().tolist() == [0] * 5

    def test_matches_triple_loop_oracle(self):
        g = generate_er(50, 0.2, 21)
        A = g.dense()
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
    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 3)], "node ids must lie in [0, 3)"),
        (3, [(-1, 2)], "node ids must lie in [0, 3)"),
        (3, [(1, 1)], "self-loops are not allowed"),
        (3, [(0, 1), (0, 1)], "pair (0, 1) listed twice"),
        (3, [(0, 1), (2, 1), (1, 0)], "pair (0, 1) listed twice"),
        (3, [(0, 1, 2)], "edges must be an (m, 2) array of node-id pairs, got shape (1, 3)"),
        (3, [0, 1], "edges must be an (m, 2) array of node-id pairs, got shape (2,)"),
        (3, [(0.0, 1.0)], "node ids must be integers, got dtype float64"),
        (-5, [], "node count n must be >= 0, got -5"),
    ], ids=["out-of-range", "negative", "self-loop", "listed-twice", "listed-reversed",
            "three-columns", "flat", "float-ids", "negative-n"])
    def test_rejects(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    def test_accepts_edge_containers(self):
        edges = [(0, 1), (2, 1)]
        for container in (edges, np.array(edges, dtype=np.int32), np.array(edges, dtype=np.uint8)):
            assert Graph(3, container).edges() == [(0, 1), (1, 2)]
        for empty in ([], np.zeros((0, 2), dtype=np.int64)):
            assert Graph(3, empty).num_edges() == 0
        assert Graph(0, []).n == 0


def dense_oracle(n, edges):
    """The symmetric 0/1 adjacency matrix of an edge list."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return adj


@st.composite
def graphs_and_flips(draw):
    """A node count, an edge list (each pair once, random order and
    orientation) and a flip sequence valid against it."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]
    present = set(chosen)
    flips = []
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []:
        action = FlipAction.DELETE if (i, j) in present else FlipAction.ADD
        present ^= {(i, j)}
        flips.append(EdgeFlip(i, j, action))
    return n, edges, flips


class TestGraphAgainstDenseOracle:
    @given(case=graphs_and_flips())
    @settings(max_examples=200, deadline=None)
    def test_queries_match(self, case):
        n, edges, _ = case
        g = Graph(n, edges)
        A = dense_oracle(n, edges)
        assert np.array_equal(g.dense(), A)
        assert g.dense().dtype == np.float64
        assert np.array_equal(g.degrees(), A.sum(axis=1))
        assert np.array_equal(g.triangle_diagonal(), np.diag(A @ A @ A))
        assert g.edges() == [tuple(e) for e in np.argwhere(np.triu(A, k=1)).tolist()]
        assert g.num_edges() == len(edges)
        for i in range(n):
            assert g.neighbors(i).tolist() == np.flatnonzero(A[i]).tolist()
        assert g == Graph(n, edges[::-1]) == from_dense(A)
        assert g != Graph(n + 1, edges)
        if edges:
            assert g != Graph(n, edges[1:])

    @given(case=graphs_and_flips())
    @settings(max_examples=200, deadline=None)
    def test_apply_flips_toggles(self, case):
        n, edges, flips = case
        A = dense_oracle(n, edges)
        for f in flips:
            A[f.i, f.j] = A[f.j, f.i] = 1 - A[f.i, f.j]
        assert np.array_equal(apply_flips(Graph(n, edges), flips).dense(), A)


# one line of an edge-list file: fields drawn from valid and invalid tokens
ID_TOKENS = ["0", "1", "2", "3", "07", "12", "100", "-1", "1.5", "x"]
WEIGHT_TOKENS = ["1", "2.5", "0", "-3", "1e-3", "nan", "inf", "-inf", "w"]
LINES = st.one_of(
    st.sampled_from(["", "   ", "# comment", "  # 1 2", "#"]),
    st.tuples(st.sampled_from(ID_TOKENS), st.sampled_from(ID_TOKENS),
              st.lists(st.sampled_from(WEIGHT_TOKENS), max_size=2),
              st.sampled_from([" ", "\t", "  "])).map(lambda t: t[3].join([t[0], t[1], *t[2]])),
    st.lists(st.sampled_from(ID_TOKENS), min_size=1, max_size=1).map(" ".join),
)


def reference_parse(lines, drop_nonpositive_weights):
    """Independent reading of an edge list: ("malformed", line number),
    ("empty",) or (node count, sorted compacted edges)."""
    pairs = set()
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in (2, 3):
            return ("malformed", line_no)
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2]) if len(fields) == 3 and drop_nonpositive_weights else 1.0
        except ValueError:
            return ("malformed", line_no)
        if u < 0 or v < 0 or w in (float("inf"), float("-inf")) or w != w:
            return ("malformed", line_no)
        if w > 0 and u != v:
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        return ("empty",)
    new_id = {orig: k for k, orig in enumerate(sorted({x for p in pairs for x in p}))}
    return len(new_id), sorted((new_id[u], new_id[v]) for u, v in pairs)


class TestLoadEdgeListFuzz:
    @given(lines=st.lists(LINES, max_size=12), drop=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_parse(self, lines, drop):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "g.txt"
            path.write_text("\n".join(lines) + "\n")
            expected = reference_parse(lines, drop)
            if expected[0] == "malformed":
                with pytest.raises(MalformedEdgeList) as info:
                    load_edge_list(path, drop_nonpositive_weights=drop)
                assert info.value.line_no == expected[1]
            elif expected[0] == "empty":
                with pytest.raises(EmptyGraph):
                    load_edge_list(path, drop_nonpositive_weights=drop)
            else:
                g = load_edge_list(path, drop_nonpositive_weights=drop)
                assert (g.n, g.edges()) == expected


def line_reader(path, drop_nonpositive_weights=False) -> Graph:
    """Reference reader: ``load_edge_list`` one line at a time, a copy of
    the loop that ``graph._read_edge_lines`` runs on files outside the
    plain format."""
    pairs = set()
    ids = set()
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise MalformedEdgeList(path, line_no, f"expected 2 or 3 fields, got {len(parts)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedEdgeList(path, line_no, "node ids must be integers") from None
            if u < 0 or v < 0:
                raise MalformedEdgeList(path, line_no, "node ids must be nonnegative")
            if len(parts) == 3 and drop_nonpositive_weights:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise MalformedEdgeList(path, line_no, "weight must be numeric") from None
                if not np.isfinite(w):
                    raise MalformedEdgeList(path, line_no, "weight must be a finite number")
                if w <= 0:
                    continue
            if u == v:
                continue
            ids.update((u, v))
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        raise EmptyGraph(f"{path}: no edges after filtering")
    remap = {orig: new for new, orig in enumerate(sorted(ids))}
    return Graph(len(remap), [(remap[u], remap[v]) for u, v in pairs])


# a few ids, so that pairs repeat, reverse and loop; then tokens outside
# the plain format: signs, non-integers, ids at and past 2**63, non-ASCII
# digits and a code point that numpy's integer parser reads as a digit
PLAIN_IDS = ["0", "1", "2", "3", "07", "12", "9223372036854775807"]
OTHER_IDS = ["-1", "-0", "+2", "1.5", "x", "1_0", "9223372036854775808", "18446744073709551616",
             "\u0663", "0\U0001bca01"]
BLANKS = st.sampled_from(["", " ", "\t", "  "])
PLAIN_LINES = st.one_of(
    st.tuples(BLANKS, st.sampled_from(PLAIN_IDS), st.sampled_from([" ", "\t", " \t "]),
              st.sampled_from(PLAIN_IDS), BLANKS).map("".join),
    BLANKS,
)
ODD_LINES = st.one_of(
    st.sampled_from(["#", "# 1 2", "  #x", "0 1 # c"]),
    st.tuples(st.sampled_from(PLAIN_IDS + OTHER_IDS), st.sampled_from(OTHER_IDS)).map(" ".join),
    st.tuples(st.sampled_from(OTHER_IDS), st.sampled_from(PLAIN_IDS)).map(" ".join),
    st.tuples(st.sampled_from(PLAIN_IDS), st.sampled_from(PLAIN_IDS), st.sampled_from(WEIGHT_TOKENS))
    .map(" ".join),
    st.sampled_from(PLAIN_IDS + OTHER_IDS),
)


def edge_file(parts) -> str:
    """The plain lines with each (position, line) of the odd ones inserted,
    joined by the line end, with or without a final one."""
    plain, odd, eol, final_eol = parts
    lines = list(plain)
    for at, line in odd:
        lines.insert(at, line)
    return eol.join(lines) + (eol if final_eol and lines else "")


EDGE_FILES = st.tuples(
    st.lists(PLAIN_LINES, max_size=10),
    st.lists(st.tuples(st.integers(0, 10), ODD_LINES), max_size=2),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
).map(edge_file)


class TestLoadEdgeListParity:
    """The numpy parse and the line reader build the same graph or raise
    the same error, on every file."""

    @given(text=EDGE_FILES, drop=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_line_reader(self, text, drop):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "g.txt"
            path.write_bytes(text.encode())
            try:
                expected = line_reader(path, drop)
            except (MalformedEdgeList, EmptyGraph) as exc:
                with pytest.raises(type(exc)) as info:
                    load_edge_list(path, drop_nonpositive_weights=drop)
                assert str(info.value) == str(exc)
            else:
                g = load_edge_list(path, drop_nonpositive_weights=drop)
                assert g.n == expected.n and g == expected

    def test_plain_file_skips_line_reader(self, tmp_path, monkeypatch):
        def refuse(path, drop_nonpositive_weights):
            raise AssertionError("a plain edge list went to the line reader")

        g = generate_ba(200, 3, 2)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        monkeypatch.setattr(graph_module, "_read_edge_lines", refuse)
        assert load_edge_list(path) == g


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
        assert np.array_equal(g.degrees(), g.dense().sum(axis=1))


class TestDenseGuard:
    def test_too_large_fails_before_allocating(self):
        with pytest.raises(GraphTooLarge, match="a dense 1000000x1000000 adjacency needs 8000000000000 bytes"):
            Graph(10**6, []).dense()
