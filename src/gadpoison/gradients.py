"""Differentiable surrogate objective on a relaxed adjacency.

The forward pass is the detector's own: the relaxed egonet features go
through ``oddball.fit_ols`` and the squared target residuals that
``oddball.surrogate_objective`` sums. The backward pass carries
hand-derived adjoints through every stage, including the regression
coefficients' dependence on all nodes (the bi-level coupling), and
returns one partial derivative per unordered pair, accounting for both
symmetric matrix entries.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFit, NodeVanished
from .oddball import EgoFeatures, _connected_targets, _fit_ols_logs, _target_residuals

# degree floor before taking ln; below it an attack is isolating a node
TAU_N = 1e-6


# bytes of one row block of the symmetric n x n products A @ A and A^T C A,
# which are computed by upper block rows; ``Adjacency.work`` holds two
# blocks, the left operand C A and the product with its elementwise tail.
# Of 0.5 to 16 MiB, 2 and 3 MiB gave the fastest calls at n = 1000 (2
# cores, OpenBLAS). Past n = 1024 a block keeps MIN_BLOCK_ROWS rows
# instead: blocks of fewer rows keep the BLAS less efficient, and one call
# at n = 3000 took 1,050 ms with 87-row blocks against 913 ms with 256
BLOCK_BYTES = 2 << 20
MIN_BLOCK_ROWS = 256


def _block_rows(n: int) -> int:
    """Rows per block of the symmetric products at n nodes."""
    return min(n, max(MIN_BLOCK_ROWS, BLOCK_BYTES // (8 * n)))


# -- pair vectors: one value per unordered pair {p < q} of n nodes, in
# lexicographic (np.triu_indices(n, 1)) order, n(n-1)/2 entries


def pair_index(p, q, n: int):
    """The index of each pair {p < q} of n nodes in a pair vector."""
    return p * (2 * n - p - 1) // 2 + q - p - 1


def pair_nodes(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The node ids p < q of the pairs with lexicographic indices k, as
    int64, found from the row starts p(2n - p - 1)/2."""
    k = np.asarray(k, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    starts = pair_index(rows, rows + 1, n)
    p = np.searchsorted(starts, k, side="right") - 1
    return p, k - starts[p] + p + 1


def upper_pairs(rows: np.ndarray, out: np.ndarray, k: int) -> int:
    """Copy the pairs of ``rows``, an n x n matrix's rows s:e from column s
    on, into the pair vector ``out`` from index k, a strip of rows of at
    most 64 KiB at a time; return the index after the last."""
    width = rows.shape[1]
    strip = max(1, 8192 // width)
    tri = np.less.outer(np.arange(strip), np.arange(width))  # a strip's pairs, from its diagonal
    for i in range(0, len(rows), strip):
        part = rows[i:i + strip, i:]
        part = part[tri[:len(part), :part.shape[1]]]
        out[k:k + len(part)] = part
        k += len(part)
    return k


class Adjacency:
    """A symmetric n x n adjacency A with the two counts the surrogate's
    forward pass reads, the degrees N = A.sum(1) and the square A @ A, and
    ``work``, the gradient's two flat float64 row blocks of
    ``_block_rows(n)`` x n values. No gradient call reads what an earlier
    one left in ``work``, so between calls its owner may use it as scratch.

    N is counted on construction, the square on first use, so a call
    that fails the degree checks never pays the O(n^3) product. On a 0/1
    A, ``toggle`` flips pairs and keeps both counts current in O(n) per
    pair. Their entries are integers, which float64 adds exactly in any
    order, so the kept counts equal ``A.sum(1)`` and ``A @ A`` bit for bit.
    """

    def __init__(self, A: np.ndarray):
        size = _block_rows(len(A)) * len(A)
        self.work = np.empty(size), np.empty(size)
        self._square = None  # n x n buffer, allocated on first use
        self.reset(A)

    def reset(self, A: np.ndarray) -> None:
        """Hold a new A, which may be relaxed: N is recounted now and the
        square on its next use, in the same buffer."""
        self.A = A
        self.N = A.sum(axis=1)
        self._current = False

    @property
    def square(self) -> np.ndarray:
        if not self._current:
            if self._square is None:
                self._square = np.empty(self.A.shape)
            A, S = self.A, self._square
            rows = _block_rows(len(A))
            # upper block rows, each block's strictly-lower part copied from
            # its transpose: with one block (n <= rows) this is A @ A
            for s in range(0, len(A), rows):
                e = s + rows
                np.matmul(A[s:e], A[:, s:], out=S[s:e, s:])
                S[e:, s:e] = S[s:e, e:].T
            self._current = True
        return self._square

    def set_pairs(self, values) -> None:
        """Write a pair vector into both triangles of A, row by row, and
        recount. The diagonal is left as it is."""
        A, n, k = self.A, len(self.A), 0
        for i in range(n - 1):
            A[i, i + 1:] = A[i + 1:, i] = values[k:k + n - 1 - i]
            k += n - 1 - i
        self.reset(A)

    def toggle(self, p: np.ndarray, q: np.ndarray) -> None:
        """Flip the distinct 0/1 pairs {p[k], q[k]} of a binary A.

        A current square is updated in place: with d = +1 for an add and
        -1 for a delete, each flip in turn adds d*A[q] to row and column p,
        d*A[p] to row and column q, and 1 to (p, p) and (q, q), all read
        from A before that flip. A stale one is left to its recount.
        """
        A, S = self.A, self._square
        d = 1.0 - 2.0 * A[p, q]
        if self._current:
            for a, b, s in zip(p.tolist(), q.tolist(), d.tolist()):
                da, db = s * A[a], s * A[b]
                S[a] += db
                S[b] += da
                S[:, a] += db
                S[:, b] += da
                S[a, a] += 1.0
                S[b, b] += 1.0
                A[a, b] = A[b, a] = A[a, b] + s
        else:
            A[p, q] = A[q, p] = A[p, q] + d
        np.add.at(self.N, p, d)
        np.add.at(self.N, q, d)


def surrogate_gradient(adj: Adjacency, targets, out: np.ndarray) -> float:
    """Write the exact partials of the attack objective per unordered pair
    {i, j} into ``out`` and return the objective's value.

    The objective is ``oddball.surrogate_objective`` of the relaxed
    features N = A.sum(1), E = N + diag(A^3)/2 of ``adj.A``: the sum over
    targets of squared residuals (E_t - Ehat_t)^2, with the line refitted
    by ``oddball.fit_ols`` to those features. The value equals it bit for
    bit.

    ``out`` is a float64 pair vector; entry (i, j) is dL/d(pair ij), the
    derivative when both A_ij and A_ji move together.

    The call computes in ``adj.work``. One that raises has written to
    neither ``out`` nor ``adj.work``: every check comes before the first
    write. A^T C A is computed by upper block rows, one row block of the
    symmetric gradient field at a time: its elementwise tail is applied
    to the block, whose strict-upper entries are then copied into
    ``out``, so no n x n field is held.
    """
    A, N = adj.A, adj.N
    n = A.shape[0]
    if len(targets) == 0:
        out.fill(0.0)
        return 0.0
    # every precondition depends on N alone: check them before the square
    mask = np.flatnonzero(N > 0)  # fit_ols's mask
    if len(mask) < 2:
        raise DegenerateFit("fewer than 2 non-isolated nodes")
    if np.any(N[mask] <= TAU_N):
        bad = mask[N[mask] <= TAU_N]
        raise NodeVanished(f"degree below {TAU_N} at nodes {bad.tolist()}")
    x = np.log(N[mask])
    xbar = x.mean()
    xc = x - xbar
    sxx = float(np.sum(xc**2))  # the x-spread fit_ols finds, bit for bit
    if sxx == 0.0 or x.min() == x.max():  # the test that makes fit_ols degenerate
        raise DegenerateFit("all masked ln N equal; slope undefined")
    targets = _connected_targets(N, targets)

    feats = EgoFeatures(N, N + 0.5 * np.einsum("ij,ij->i", A, adj.square))
    E = feats.E
    y = np.log(E[mask])
    fit = _fit_ols_logs(mask, x, y)  # fit_ols(feats), on the logs taken here
    Ehat_t, resid_t, value = _target_residuals(feats, fit, targets)
    beta1 = fit.beta1
    yc = y - y.mean()
    M = len(mask)

    # adjoints of the prediction: L = sum_t (E_t - Ehat_t)^2
    g_t = -2.0 * resid_t  # dL/dEhat_t
    xt = np.log(N[targets])
    dL_dbeta0 = float(g_t @ Ehat_t)
    dL_dbeta1 = float(g_t @ (Ehat_t * xt))

    # adjoints of the closed-form solve: beta1 = Sxy/Sxx, beta0 = ybar - beta1*xbar
    db1_dy = xc / sxx
    db1_dx = (yc - 2.0 * beta1 * xc) / sxx
    db0_dy = 1.0 / M - xbar * db1_dy
    db0_dx = -beta1 / M - xbar * db1_dx

    dL_dx = dL_dbeta0 * db0_dx + dL_dbeta1 * db1_dx
    dL_dy = dL_dbeta0 * db0_dy + dL_dbeta1 * db1_dy
    # direct dependence of Ehat_t on x_t
    tpos = np.searchsorted(mask, targets)
    np.add.at(dL_dx, tpos, g_t * Ehat_t * beta1)

    # back through the logarithms onto features of masked nodes
    dL_dN = np.zeros(n)
    dL_dE = np.zeros(n)
    dL_dN[mask] = dL_dx / N[mask]
    dL_dE[mask] = dL_dy / E[mask]
    np.add.at(dL_dE, targets, 2.0 * resid_t)  # direct squared-residual term

    # E_i = N_i + D_i/2 with D = diag(A^3)
    dL_dN += dL_dE
    c = 0.5 * dL_dE  # dL/dD_i

    # chain onto pair variables: N gives rank-one terms, D gives
    #   dD_i/d(pair pq) = 2*[i=p or i=q]*(A^2)_pq + 2*A_ip*A_iq
    # G = (dL_dN_p + dL_dN_q) + 2 (A^T C A)_pq + 2 (A^2)_pq (c_p + c_q), built
    # in place by upper row blocks s:e, columns s:, with the same roundings
    # per element as that expression
    S = adj.square
    L, P = adj.work
    rows = _block_rows(n)
    k = 0  # pairs written to out
    for s in range(0, n, rows):
        e = min(s + rows, n)
        ca = np.multiply(A[:, s:e], c[:, None], out=L[:n * (e - s)].reshape(n, e - s))
        g = np.matmul(ca.T, A[:, s:], out=P[:(e - s) * (n - s)].reshape(e - s, n - s))
        tmp = L[:g.size].reshape(g.shape)  # the left operand is no longer read
        g *= 2.0
        np.add(dL_dN[s:e, None], dL_dN[None, s:], out=tmp)
        g += tmp
        np.add(c[s:e, None], c[None, s:], out=tmp)
        tmp *= 2.0
        tmp *= S[s:e, s:]
        g += tmp
        k = upper_pairs(g, out, k)
    return value
