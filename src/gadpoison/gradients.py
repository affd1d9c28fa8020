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


# a batch of more than RECOUNT_AT * n^2 toggled pairs recounts the square
# with one BLAS product instead: toggling in place and recounting broke
# even at 5, 28, 71, 263 and 1365 pairs for n = 100, 200, 300, 500 and
# 1000 (2 cores, OpenBLAS), which n^2 / 1000 follows within a factor of 2
RECOUNT_AT = 1e-3

# bytes of one row block of the symmetric n x n products A @ A and A^T C A,
# which are computed by upper block rows; the gradient's scratch holds one
# block of C A and then of its elementwise tail. Of 0.5 to 16 MiB, 2 and
# 3 MiB gave the fastest calls at n = 1000 (2 cores, OpenBLAS); 8 MiB was
# faster at n = 3000, where fewer, larger blocks keep the BLAS efficient
BLOCK_BYTES = 2 << 20


def _block_rows(n: int) -> int:
    """Rows per block of the symmetric products at n nodes."""
    return min(n, max(1, BLOCK_BYTES // (8 * n)))


def _symmetric_product(out: np.ndarray, left, right: np.ndarray, then=None) -> None:
    """Fill the symmetric n x n ``out`` = L @ ``right`` by upper block rows.

    For each block s:e of ``_block_rows(n)`` rows, out[s:e, s:] =
    left(s, e) @ right[:, s:], where left(s, e) returns L[s:e]; the
    block's strictly-lower part out[e:, s:e] is then copied from its
    transpose, and then(s, e), if given, runs once rows s:e are whole.
    That computes each pair's entry once, and with one block (n <= rows)
    it is the plain product L @ right.
    """
    n = len(out)
    rows = _block_rows(n)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        np.matmul(left(s, e), right[:, s:], out=out[s:e, s:])
        out[e:, s:e] = out[s:e, e:].T
        if then is not None:
            then(s, e)


class Adjacency:
    """A symmetric n x n adjacency A with the two counts the surrogate's
    forward pass reads: the degrees N = A.sum(1) and the square A @ A.

    N is counted on construction, the square on first use, so a call
    that fails the degree checks never pays the O(n^3) product. On a 0/1
    A, ``toggle`` flips pairs and keeps both counts current in O(n) per
    pair. Their entries are integers, which float64 adds exactly in any
    order, so the kept counts equal ``A.sum(1)`` and ``A @ A`` bit for bit.
    """

    def __init__(self, A: np.ndarray):
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
            A = self.A
            _symmetric_product(self._square, lambda s, e: A[s:e], A)
            self._current = True
        return self._square

    def toggle(self, p: np.ndarray, q: np.ndarray) -> None:
        """Flip the distinct 0/1 pairs {p[k], q[k]} of a binary A.

        With d = +1 for an add and -1 for a delete, each flip in turn adds
        d*A[q] to row and column p of the square, d*A[p] to row and column
        q, and 1 to (p, p) and (q, q), all read from A before that flip.
        """
        A, S = self.A, self._square
        d = 1.0 - 2.0 * A[p, q]
        if self._current and len(p) <= RECOUNT_AT * len(A) ** 2:
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
            self._current = False  # recount on next use instead
            A[p, q] = A[q, p] = A[p, q] + d
        np.add.at(self.N, p, d)
        np.add.at(self.N, q, d)


def gradient_workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 buffers one ``surrogate_gradient`` call needs: a flat
    scratch of ``_block_rows(n)`` x n values (BLOCK_BYTES, or n x n when
    one block covers the graph) and the n x n gradient field G.

    No call reads what an earlier call left in them, so between calls a
    caller may use them as scratch (after it is done with the returned G).
    """
    return np.empty(_block_rows(n) * n), np.empty((n, n))


def surrogate_gradient(adj: Adjacency, targets, work) -> tuple[np.ndarray, float]:
    """Exact partials of the attack objective per unordered pair {i, j},
    and the objective's value.

    The objective is ``oddball.surrogate_objective`` of the relaxed
    features N = A.sum(1), E = N + diag(A^3)/2 of ``adj.A``: the sum over
    targets of squared residuals (E_t - Ehat_t)^2, with the line refitted
    by ``oddball.fit_ols`` to those features. The value equals it bit for
    bit.

    The returned field G is an n x n symmetric matrix whose (i, j) entry
    is dL/d(pair ij), the derivative when both A_ij and A_ji move
    together. Diagonal is zero.

    ``work`` is a ``gradient_workspace(n)`` to compute in. The returned G
    is its second buffer, so the next call on it overwrites G. A call
    that raises has written to neither buffer: every check comes before
    the first write. The two symmetric n x n products, the square and
    A^T C A, are computed by upper block rows, so each pair's entry is
    computed once; G's elementwise tail is applied to each row block as
    it is completed, with the same roundings per element as in one pass.
    """
    A, N = adj.A, adj.N
    n = A.shape[0]
    W, G = work
    if len(targets) == 0:
        G.fill(0.0)
        return G, 0.0
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
    # in place with the same roundings per element as that expression
    S = adj.square

    def ca_columns(s, e):  # (A^T C)[s:e], from columns s:e of C A in W
        return np.multiply(A[:, s:e], c[:, None], out=W[:n * (e - s)].reshape(n, e - s)).T

    def tail(s, e):  # rows s:e of G hold sum_i c_i A_ip A_iq; W is free again
        g, tmp = G[s:e], W[:(e - s) * n].reshape(e - s, n)
        g *= 2.0
        np.add(dL_dN[s:e, None], dL_dN[None, :], out=tmp)
        g += tmp
        np.add(c[s:e, None], c[None, :], out=tmp)
        tmp *= 2.0
        tmp *= S[s:e]
        g += tmp

    _symmetric_product(G, ca_columns, A, tail)
    np.fill_diagonal(G, 0.0)
    return G, value
