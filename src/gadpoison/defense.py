"""Robust re-estimation of the power-law fit: Huber IRLS and RANSAC."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFit, NoConsensus
from .graph import Graph, derive_rng
from .oddball import (AnomalyReport, EgoFeatures, RegressionFit, _fit_ols_logs, _line_fit, _masked_logs,
                      anomaly_scores, ego_features, fit_ols)

HUBER_K = 1.345  # Huber threshold on the log-residual
HUBER_ITERS = 100
HUBER_TOL = 1e-8  # IRLS stops once both coefficients move less than this
RANSAC_ITERS = 200
RANSAC_BATCH = 1 << 16  # candidate-line residuals held at once, 8 bytes each


def huber_loss(r: np.ndarray, k: float) -> np.ndarray:
    """Quadratic within |r| <= k, linear beyond."""
    r = np.abs(r)
    return np.where(r <= k, 0.5 * r**2, k * r - 0.5 * k**2)


def fit_huber(features: EgoFeatures) -> RegressionFit:
    """Huber-loss line fit by iteratively reweighted least squares.

    Starts from the OLS solution; weights are min(1, HUBER_K/|residual|).
    Stops when both coefficients move less than HUBER_TOL.
    """
    mask, x, y = _masked_logs(features)
    start = _fit_ols_logs(mask, x, y)
    if start.degenerate:
        return RegressionFit(start.beta0, start.beta1, "huber", start.fit_mask, degenerate=True)
    beta0, beta1 = start.beta0, start.beta1
    for _ in range(HUBER_ITERS):
        resid = y - beta0 - beta1 * x
        absr = np.maximum(np.abs(resid), 1e-12)
        coef = _line_fit(x, y, np.minimum(1.0, HUBER_K / absr))
        if coef is None:
            raise DegenerateFit("weighted design became singular")
        done = abs(coef[0] - beta0) < HUBER_TOL and abs(coef[1] - beta1) < HUBER_TOL
        beta0, beta1 = coef
        if done:
            break
    return RegressionFit(beta0, beta1, "huber", mask)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D array with no NaN and no -0.0
    (here absolute residuals), bit for bit, without the import of
    numpy.ma that ``np.median`` makes on its first call."""
    h = len(a) // 2
    if len(a) % 2:
        return float(np.partition(a, h)[h])
    part = np.partition(a, [h - 1, h])
    return float((part[h - 1] + part[h]) / 2.0)


def _inlier_tol(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """RANSAC's inlier band: 1.5 * median |OLS residual|, at least 1e-9."""
    start = _fit_ols_logs(mask, x, y)
    return max(1.5 * _median(np.abs(y - start.beta0 - start.beta1 * x)), 1e-9)


def fit_ransac(features: EgoFeatures, seed: int = 0) -> RegressionFit:
    """Random-sample-consensus line fit on the log-log features.

    Seeded two-point minimal samples with distinct ln N each propose a
    line; the candidate with the largest inlier consensus wins (ties by
    smaller summed Huber loss, k = 1, over its inliers, then by the
    earlier draw) and is refit by least squares on the consensus set.
    All RANSAC_ITERS samples are drawn first, as uniform ordered pairs of
    distinct points, and their consensus sizes are counted in batches of
    at most RANSAC_BATCH residuals.
    """
    mask, x, y = _masked_logs(features)
    if not len(x) or (x == x[0]).all():
        raise DegenerateFit("need at least 2 distinct ln N values")
    tol = _inlier_tol(mask, x, y)
    m = len(x)
    rng = derive_rng(seed, "ransac")
    i = rng.integers(m, size=RANSAC_ITERS)
    j = rng.integers(m - 1, size=RANSAC_ITERS)
    j += j >= i
    keep = x[i] != x[j]
    i, j = i[keep], j[keep]
    b1 = (y[j] - y[i]) / (x[j] - x[i])
    b0 = y[i] - b1 * x[i]
    size = np.empty(len(b0), dtype=np.int64)
    rows = max(1, RANSAC_BATCH // m)
    for s in range(0, len(b0), rows):
        resid = y - b0[s:s + rows, None] - b1[s:s + rows, None] * x
        size[s:s + rows] = np.count_nonzero(np.abs(resid) <= tol, axis=1)
    if not len(size) or size.max() < 2:
        raise NoConsensus("no candidate line had at least 2 inliers")
    best = None  # (huber sum, inliers) of the first smallest sum
    for c in np.flatnonzero(size == size.max()):
        resid = y - b0[c] - b1[c] * x
        inliers = np.abs(resid) <= tol
        hub = float(huber_loss(resid[inliers], 1.0).sum())
        if best is None or hub < best[0]:
            best = (hub, inliers)
    inliers = best[1]
    coef = _line_fit(x[inliers], y[inliers])
    if coef is None:
        raise NoConsensus("consensus set has no ln N spread")
    return RegressionFit(*coef, "ransac", mask[inliers])


def rescore_features(features: EgoFeatures, fitter: str, seed: int = 0) -> AnomalyReport:
    """Fit the power law on given features with "ols", "huber" or "ransac",
    then score every node against that line."""
    if fitter == "huber":
        fit = fit_huber(features)
    elif fitter == "ransac":
        # score every non-isolated node against the consensus line
        fit = fit_ransac(features, seed)
        fit = RegressionFit(fit.beta0, fit.beta1, "ransac", np.flatnonzero(features.N > 0))
    elif fitter == "ols":
        fit = fit_ols(features)
    else:
        raise ValueError(f"unknown fitter {fitter!r}")
    return anomaly_scores(features, fit)


def robust_rescore(graph: Graph, fitter: str, seed: int = 0) -> AnomalyReport:
    """Egonet features of ``graph`` -> robust fit -> deviation scores for all nodes.

    A wrapper over ``rescore_features``; to score several fitters or flip
    plans on one graph, compute ``ego_features`` once and call that.
    """
    return rescore_features(ego_features(graph), fitter, seed)
