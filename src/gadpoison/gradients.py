"""Differentiable surrogate objective on a relaxed adjacency.

The forward pass mirrors the detector exactly: relaxed egonet features,
log transforms, the closed-form 2x2 least-squares solve, and the squared
target residuals. The backward pass carries hand-derived adjoints
through every stage, including the regression coefficients' dependence
on all nodes (the bi-level coupling), and returns one partial derivative
per unordered pair, accounting for both symmetric matrix entries.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFit, IsolatedTarget, NodeVanished

# degree floor before taking ln; below it an attack is isolating a node
TAU_N = 1e-6


def as_relaxed(adjacency: np.ndarray) -> np.ndarray:
    """Validate and copy a symmetric [0,1] matrix with zero diagonal."""
    A = np.array(adjacency, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("relaxed adjacency must be square")
    if not np.allclose(A, A.T):
        raise ValueError("relaxed adjacency must be symmetric")
    if np.any(np.diag(A) != 0):
        raise ValueError("relaxed adjacency must have zero diagonal")
    if A.min() < 0 or A.max() > 1:
        raise ValueError("relaxed entries must lie in [0, 1]")
    return A


def gradient_workspace(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three n x n float64 buffers one ``surrogate_gradient`` call needs.

    No call reads what an earlier call left in them, so between calls a
    caller may use them as scratch (after it is done with the returned G).
    """
    return np.empty((n, n)), np.empty((n, n)), np.empty((n, n))


def _fit_arrays(A: np.ndarray, targets, out: np.ndarray | None = None):
    """Shared forward state: features, mask, logs, OLS solve, residuals.

    ``A @ A`` is written to ``out`` when given.
    """
    n = A.shape[0]
    N = A.sum(axis=1)

    # every precondition depends on N alone: check them before the O(n^3) A @ A
    mask = np.flatnonzero(N > 0)
    if len(mask) < 2:
        raise DegenerateFit("fewer than 2 non-isolated nodes")
    if np.any(N[mask] <= TAU_N):
        bad = mask[N[mask] <= TAU_N]
        raise NodeVanished(f"degree below {TAU_N} at nodes {bad.tolist()}")
    x = np.log(N[mask])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= 0.0:
        raise DegenerateFit("all masked ln N equal; slope undefined")
    targets = np.asarray(sorted(targets), dtype=int)
    in_mask = np.isin(targets, mask)
    if not in_mask.all():
        raise IsolatedTarget(f"targets {targets[~in_mask].tolist()} are isolated")

    A2 = np.matmul(A, A, out=out)
    diag3 = np.einsum("ij,ij->i", A, A2)
    E = N + 0.5 * diag3
    y = np.log(E[mask])
    beta1 = float(xc @ (y - y.mean()) / sxx)
    beta0 = float(y.mean() - beta1 * x.mean())
    Ehat_t = np.exp(beta0 + beta1 * np.log(N[targets])) if len(targets) else np.zeros(0)
    resid_t = E[targets] - Ehat_t
    value = float(resid_t @ resid_t)
    return {
        "n": n, "N": N, "E": E, "mask": mask,
        "x": x, "y": y, "sxx": sxx, "beta0": beta0, "beta1": beta1,
        "targets": targets, "Ehat_t": Ehat_t, "resid_t": resid_t, "value": value,
    }


def surrogate_value(A: np.ndarray, targets) -> float:
    """Full forward pass of the attack objective on a relaxed adjacency."""
    if len(targets) == 0:
        return 0.0
    return _fit_arrays(A, targets)["value"]


def surrogate_gradient(A: np.ndarray, targets, return_value: bool = False, work=None):
    """Exact partials of surrogate_value per unordered pair {i, j}.

    The returned field G is an n x n symmetric matrix whose (i, j) entry
    is dL/d(pair ij), the derivative when both A_ij and A_ji move
    together. Diagonal is zero.

    ``work`` is a ``gradient_workspace(n)`` to compute in; without it the
    call allocates its own. The returned G is one of its buffers, so it
    is overwritten by the next call that is given the same workspace.
    """
    n = A.shape[0]
    A2, B, G = gradient_workspace(n) if work is None else work
    if len(targets) == 0:
        G.fill(0.0)
        return (G, 0.0) if return_value else G
    st = _fit_arrays(A, targets, out=A2)
    N, E = st["N"], st["E"]
    mask, x, y, sxx = st["mask"], st["x"], st["y"], st["sxx"]
    beta0, beta1 = st["beta0"], st["beta1"]
    targets, Ehat_t, resid_t = st["targets"], st["Ehat_t"], st["resid_t"]
    M = len(mask)

    # adjoints of the prediction: L = sum_t (E_t - Ehat_t)^2
    g_t = -2.0 * resid_t  # dL/dEhat_t
    xt = np.log(N[targets])
    dL_dbeta0 = float(g_t @ Ehat_t)
    dL_dbeta1 = float(g_t @ (Ehat_t * xt))

    # adjoints of the closed-form solve: beta1 = Sxy/Sxx, beta0 = ybar - beta1*xbar
    xc = x - x.mean()
    yc = y - y.mean()
    db1_dy = xc / sxx
    db1_dx = (yc - 2.0 * beta1 * xc) / sxx
    db0_dy = 1.0 / M - x.mean() * db1_dy
    db0_dx = -beta1 / M - x.mean() * db1_dx

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
    np.multiply(A, c[:, None], out=B)
    np.matmul(B.T, A, out=G)  # sum_i c_i A_ip A_iq, symmetric
    G *= 2.0
    np.add(dL_dN[:, None], dL_dN[None, :], out=B)
    G += B
    np.add(c[:, None], c[None, :], out=B)
    B *= 2.0
    B *= A2
    G += B
    np.fill_diagonal(G, 0.0)
    return (G, st["value"]) if return_value else G
