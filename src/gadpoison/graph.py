"""Undirected simple-graph core: representation, I/O, generators, edit plans."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyGraph, InvalidFlip, MalformedEdgeList


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Build a Generator from a root seed plus purpose tags.

    Each distinct (seed, tags) combination yields an independent stream, so
    all randomness in an experiment can flow from a single root seed.
    """
    material = repr((int(seed),) + tuple(tags)).encode()
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class FlipAction(Enum):
    ADD = "add"
    DELETE = "delete"


@dataclass(frozen=True)
class EdgeFlip:
    """A single edge modification on the unordered pair {i, j}, i < j."""

    i: int
    j: int
    action: FlipAction

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"flip requires 0 <= i < j, got ({self.i}, {self.j})")


class Graph:
    """Immutable undirected, unweighted, self-loop-free graph.

    Stores a dense symmetric 0/1 adjacency matrix for O(1) pair queries
    plus per-node sorted neighbor arrays for fast set intersection.
    Degrees are counted on construction and diag(A^3) on first use; both
    are kept, since the graph never changes.
    """

    __slots__ = ("n", "_adj", "_neighbors", "_degrees", "_diag3")

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("self-loops are not allowed")
        if not ((adj == 0) | (adj == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        self.n = adj.shape[0]
        self._adj = adj.astype(np.uint8)
        self._adj.setflags(write=False)
        self._neighbors = [np.flatnonzero(self._adj[i]) for i in range(self.n)]
        self._degrees = np.array([len(nbrs) for nbrs in self._neighbors], dtype=np.int64)
        self._diag3 = None

    # -- basic queries -------------------------------------------------

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only dense 0/1 adjacency matrix."""
        return self._adj

    def neighbors(self, i: int) -> np.ndarray:
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    def degrees(self) -> np.ndarray:
        """Per-node degree as a fresh int64 array."""
        return self._degrees.copy()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._adj[i, j])

    def num_edges(self) -> int:
        return int(self._adj.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        iu, ju = np.nonzero(np.triu(self._adj, k=1))
        return list(zip(iu.tolist(), ju.tolist()))

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self._adj, other._adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges()})"

    # -- derived quantities --------------------------------------------

    def triangle_diagonal(self) -> np.ndarray:
        """Per-node count of closed length-3 walks, i.e. diag(A^3).

        Equals twice the number of triangles through each node. Computed
        by neighbor-set intersection, O(sum_i d_i * d_max), on the first
        call; later calls return the same read-only int64 array.
        """
        if self._diag3 is None:
            out = np.zeros(self.n, dtype=np.int64)
            for i in range(self.n):
                nbrs = self._neighbors[i]
                if len(nbrs) < 2:
                    continue
                # paths i -> j -> k -> i: for each neighbor j, count common neighbors
                out[i] = int(self._adj[np.ix_(nbrs, nbrs)].sum())
            out.setflags(write=False)
            self._diag3 = out
        return self._diag3


def _check_flip(idx: int, flip: EdgeFlip, n: int, is_edge) -> None:
    """Raise InvalidFlip unless flip #idx fits an n-node state whose edges
    ``is_edge(i, j)`` reports."""
    if flip.j >= n:
        raise InvalidFlip(idx, f"pair ({flip.i},{flip.j}) outside a {n}-node graph")
    present = is_edge(flip.i, flip.j)
    if flip.action is FlipAction.ADD and present:
        raise InvalidFlip(idx, f"edge ({flip.i},{flip.j}) already present")
    if flip.action is FlipAction.DELETE and not present:
        raise InvalidFlip(idx, f"edge ({flip.i},{flip.j}) not present")


def apply_flips(graph: Graph, flips: list[EdgeFlip]) -> Graph:
    """Return a new graph with the flips applied in order.

    Each flip must be valid against the state produced by the preceding
    flips; raises InvalidFlip with the offending index otherwise. This
    copies and revalidates the whole n x n adjacency; when only degrees
    and diag(A^3) of the result are needed, ``flip_counts`` (and so
    ``oddball.ego_features(graph, flips)``) gets them without that.
    """
    adj = graph.adjacency.copy()
    for idx, flip in enumerate(flips):
        _check_flip(idx, flip, graph.n, lambda i, j: bool(adj[i, j]))
        adj[flip.i, flip.j] = adj[flip.j, flip.i] = flip.action is FlipAction.ADD
    return Graph(adj)


def flip_counts(graph: Graph, flips: list[EdgeFlip]) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and diag(A^3) of ``apply_flips(graph, flips)``, without building it.

    Starts from the graph's own counts and applies the flips in order,
    each against the state the preceding ones left (as in Nettack's
    incremental updates). Flipping {p, q} moves the degrees of p and q by
    1; with C the current common neighbors of p and q, it moves diag(A^3)
    by 2|C| at p and q and by 2 at each node of C. Only the neighbor sets
    of flipped endpoints are copied. Raises InvalidFlip exactly as
    apply_flips does.
    """
    degrees = graph.degrees()
    diag3 = graph.triangle_diagonal().copy()
    current: dict[int, set[int]] = {}  # neighbor sets of touched nodes, as flipped so far

    def nbrs(v: int) -> set[int]:
        if v not in current:
            current[v] = set(graph.neighbors(v).tolist())
        return current[v]

    for idx, flip in enumerate(flips):
        p, q = flip.i, flip.j
        _check_flip(idx, flip, graph.n, lambda i, j: j in nbrs(i))
        sign = 1 if flip.action is FlipAction.ADD else -1
        common = list(nbrs(p) & nbrs(q))
        degrees[[p, q]] += sign
        diag3[[p, q]] += 2 * sign * len(common)
        diag3[common] += 2 * sign
        if sign > 0:
            nbrs(p).add(q)
            nbrs(q).add(p)
        else:
            nbrs(p).discard(q)
            nbrs(q).discard(p)
    return degrees, diag3


# -- edge-list I/O -----------------------------------------------------


def load_edge_list(path, drop_nonpositive_weights: bool = False) -> Graph:
    """Read a whitespace-separated "u v" or "u v w" edge list.

    Node ids are compacted to 0..n-1 in ascending original order.
    Duplicate and reversed edges are merged, self-loops dropped. With
    ``drop_nonpositive_weights``, lines whose weight w <= 0 are removed
    and surviving weights erased.
    """
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
                if w <= 0:
                    continue
            if u == v:
                continue
            ids.update((u, v))
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        raise EmptyGraph(f"{path}: no edges after filtering")
    remap = {orig: new for new, orig in enumerate(sorted(ids))}
    adj = np.zeros((len(remap), len(remap)), dtype=np.uint8)
    for u, v in pairs:
        a, b = remap[u], remap[v]
        adj[a, b] = adj[b, a] = 1
    return Graph(adj)


def save_edge_list(graph: Graph, path) -> None:
    """Write one "u v" line per edge, u < v, ascending lexicographic."""
    with open(path, "w") as fh:
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


# -- synthetic generators ----------------------------------------------


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair present independently."""
    if not 0 <= p <= 1:
        raise ValueError(f"link probability must be in [0,1], got {p}")
    rng = derive_rng(seed, "er", n, p)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1)
    adj = (adj | adj.T).astype(np.uint8)
    return Graph(adj)


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert preferential attachment from an m-clique seed.

    Each of the n - m new nodes attaches m edges, without duplicates, to
    existing nodes chosen with probability proportional to degree.
    """
    if not 1 <= m < n:
        raise ValueError(f"require 1 <= m < n, got m={m}, n={n}")
    rng = derive_rng(seed, "ba", n, m)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[:m, :m] = 1
    np.fill_diagonal(adj, 0)
    # repeated-nodes list gives degree-proportional sampling
    repeated: list[int] = [i for i in range(m) for _ in range(max(m - 1, 1))]
    for new in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            pick = repeated[rng.integers(len(repeated))]
            chosen.add(pick)
        for node in chosen:
            adj[new, node] = adj[node, new] = 1
            repeated.append(node)
        repeated.extend([new] * m)
    return Graph(adj)


def generate(model: str, n: int, seed: int, p: float | None = None, m: int | None = None) -> Graph:
    """Dispatch on model name: "er" needs p, "ba" needs m."""
    model = model.lower()
    if model == "er":
        if p is None:
            raise ValueError("ER generation requires p")
        return generate_er(n, p, seed)
    if model == "ba":
        if m is None:
            raise ValueError("BA generation requires m")
        return generate_ba(n, m, seed)
    raise ValueError(f"unknown model {model!r}")


def plant_clique(graph: Graph, size: int, seed: int) -> tuple[Graph, list[int]]:
    """Densify a random node subset into a clique (planted anomaly).

    Returns the new graph and the sorted member list.
    """
    if size > graph.n:
        raise ValueError("clique size exceeds node count")
    rng = derive_rng(seed, "plant_clique", size)
    members = sorted(rng.choice(graph.n, size=size, replace=False).tolist())
    adj = graph.adjacency.copy()
    for a in members:
        for b in members:
            if a != b:
                adj[a, b] = 1
    return Graph(adj), members

