"""Undirected simple-graph core: O(n + m) CSR representation, I/O, generators, edit plans."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyGraph, GraphTooLarge, InvalidFlip, MalformedEdgeList


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Build a Generator from a root seed plus purpose tags.

    Each distinct (seed, tags) combination yields an independent stream, so
    all randomness in an experiment can flow from a single root seed.
    """
    material = repr((int(seed),) + tuple(tags)).encode()
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def check_dense_fits(n: int) -> None:
    """Raise GraphTooLarge when an n x n float64 matrix, 8 n^2 bytes,
    exceeds the machine's physical memory."""
    need = 8 * n * n
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise GraphTooLarge(f"a dense {n}x{n} adjacency needs {need} bytes, "
                            f"more than the {have} bytes of physical memory")


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
    """Immutable undirected, unweighted, self-loop-free graph on nodes 0..n-1,
    built from its (m, 2) edges, each unordered pair listed once, and held
    as sorted CSR rows in O(n + m) memory: node i's ascending neighbors are
    ``indices[indptr[i]:indptr[i + 1]]``. diag(A^3) is counted on first use
    and kept. Only the attacks need the dense n x n matrix, which
    ``dense()`` builds afresh on each call.
    """

    __slots__ = ("n", "indptr", "indices", "_diag3")

    def __init__(self, n: int, edges):
        e = np.asarray(edges) if len(edges) else np.zeros((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array of node-id pairs, got shape {e.shape}")
        if not np.issubdtype(e.dtype, np.integer):
            raise ValueError(f"node ids must be integers, got dtype {e.dtype}")
        if len(e) and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"node ids must lie in [0, {n})")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        # row-major keys u * n + v of both directions, sorted: a pair listed
        # twice, in either order, shows as two equal neighboring keys
        u, v = e.T.astype(np.int64)
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        dup = keys[:-1][keys[1:] == keys[:-1]]
        if len(dup):
            raise ValueError(f"pair {tuple(sorted(divmod(int(dup[0]), n)))} listed twice")
        self.n = n
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._diag3 = None

    # -- basic queries -------------------------------------------------

    def neighbors(self, i: int) -> np.ndarray:
        """Read-only ascending neighbor ids of node i."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Per-node degree as a fresh int64 array."""
        return np.diff(self.indptr)

    def num_edges(self) -> int:
        return len(self.indices) // 2

    def _rows(self) -> np.ndarray:
        """Row id of every CSR entry."""
        return np.repeat(np.arange(self.n), self.degrees())

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        rows = self._rows()
        upper = rows < self.indices
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    def dense(self) -> np.ndarray:
        """A fresh float64 0/1 n x n adjacency matrix (8 n^2 bytes)."""
        check_dense_fits(self.n)
        adj = np.zeros((self.n, self.n))
        adj[self._rows(), self.indices] = 1.0
        return adj

    def __eq__(self, other):
        return (isinstance(other, Graph) and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    # -- derived quantities --------------------------------------------

    def triangle_diagonal(self) -> np.ndarray:
        """Per-node count of closed length-3 walks, i.e. diag(A^3).

        Twice the number of triangles through each node. The first call
        orients every edge towards the endpoint of higher (degree, id) and
        closes each forward path u -> v -> w by looking up u -> w, which
        finds every triangle once; later calls return the same read-only
        int64 array.
        """
        if self._diag3 is None:
            n, rows, cols = self.n, self._rows(), self.indices
            rank = self.degrees() * n + np.arange(n)
            fwd = rank[rows] < rank[cols]
            fu, fv = rows[fwd], cols[fwd]  # forward edges, sorted by (fu, fv)
            out_ptr = np.concatenate([[0], np.cumsum(np.bincount(fu, minlength=n))])
            # paths u -> v -> w: each forward edge (u, v) times each forward edge of v
            cnt = np.diff(out_ptr)[fv]
            first = np.repeat(out_ptr[fv] - (np.cumsum(cnt) - cnt), cnt)
            pu, pv, pw = np.repeat(fu, cnt), np.repeat(fv, cnt), fv[first + np.arange(cnt.sum())]
            fkeys, pkeys = fu * n + fv, pu * n + pw  # sorted / unsorted
            closed = fkeys[np.minimum(np.searchsorted(fkeys, pkeys), len(fkeys) - 1)] == pkeys
            out = 2 * sum(np.bincount(p[closed], minlength=n) for p in (pu, pv, pw))
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
    rebuilds the whole graph from its edge set; when only degrees and
    diag(A^3) of the result are needed, ``flip_counts`` (and so
    ``oddball.ego_features(graph, flips)``) gets them without that.
    """
    edges = set(graph.edges())
    for idx, flip in enumerate(flips):
        _check_flip(idx, flip, graph.n, lambda i, j: (i, j) in edges)
        edges ^= {(flip.i, flip.j)}  # add or delete, as checked
    return Graph(graph.n, list(edges))


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
        nbrs(p).symmetric_difference_update((q,))  # add or delete, as checked
        nbrs(q).symmetric_difference_update((p,))
    return degrees, diag3


# -- edge-list I/O -----------------------------------------------------


def load_edge_list(path, drop_nonpositive_weights: bool = False) -> Graph:
    """Read a whitespace-separated "u v" or "u v w" edge list.

    Node ids are compacted to 0..n-1 in ascending original order.
    Duplicate and reversed edges are merged, self-loops dropped. With
    ``drop_nonpositive_weights``, lines whose weight w <= 0 are removed,
    a non-finite weight is malformed, and surviving weights are erased.
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


def save_edge_list(graph: Graph, path) -> None:
    """Write one "u v" line per edge, u < v, ascending lexicographic."""
    with open(path, "w") as fh:
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


# -- synthetic generators ----------------------------------------------


# bytes of uniforms generate_er draws at a time
ER_BLOCK_BYTES = 1 << 20


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair present independently."""
    if not 0 <= p <= 1:
        raise ValueError(f"link probability must be in [0,1], got {p}")
    rng = derive_rng(seed, "er", n, p)
    # the n x n uniforms of row-major order, drawn ER_BLOCK_BYTES at a time
    rows = max(1, ER_BLOCK_BYTES // (8 * max(n, 1)))
    edges = [np.zeros((0, 2), dtype=np.intp)]
    for start in range(0, n, rows):
        upper = np.argwhere(np.triu(rng.random((min(rows, n - start), n)) < p, k=start + 1))
        upper[:, 0] += start
        edges.append(upper)
    return Graph(n, np.concatenate(edges))


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert preferential attachment from an m-clique seed.

    Each of the n - m new nodes attaches m edges, without duplicates, to
    existing nodes chosen with probability proportional to degree.
    """
    if not 1 <= m < n:
        raise ValueError(f"require 1 <= m < n, got m={m}, n={n}")
    rng = derive_rng(seed, "ba", n, m)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # repeated-nodes list gives degree-proportional sampling
    repeated: list[int] = [i for i in range(m) for _ in range(max(m - 1, 1))]
    for new in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            pick = repeated[rng.integers(len(repeated))]
            chosen.add(pick)
        for node in chosen:
            edges.append((node, new))
            repeated.append(node)
        repeated.extend([new] * m)
    return Graph(n, edges)


def generate(model: str, n: int, seed: int, p: float, m: int) -> Graph:
    """Dispatch on model name: "er" uses p, "ba" uses m."""
    if model == "er":
        return generate_er(n, p, seed)
    if model == "ba":
        return generate_ba(n, m, seed)
    raise ValueError(f"unknown model {model!r}")
