"""OddBall egonet-feature anomaly detector and its attack surrogate.

The detector extracts per-node egonet features (N_i, E_i), fits the
power law ln E = beta0 + beta1 * ln N by least squares, and scores each
node by its deviation from the fitted line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFit, IsolatedTarget
from .graph import EdgeFlip, Graph, flip_counts


@dataclass(frozen=True)
class EgoFeatures:
    """Per-node egonet node count N (= degree) and edge count E."""

    N: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        if self.N.shape != self.E.shape:
            raise ValueError("N and E must have the same length")


@dataclass(frozen=True)
class RegressionFit:
    """Fitted log-log line ln E = beta0 + beta1 * ln N."""

    beta0: float
    beta1: float
    fitter: str  # "ols" | "huber" | "ransac"
    fit_mask: np.ndarray  # node ids used in the fit
    degenerate: bool = False

    def predict_E(self, N: np.ndarray) -> np.ndarray:
        """Fitted edge count e^{beta0} * N^{beta1}; zero degree maps to 0."""
        N = np.asarray(N, dtype=float)
        out = np.zeros_like(N)
        pos = N > 0
        out[pos] = np.exp(self.beta0) * N[pos] ** self.beta1
        return out


@dataclass(frozen=True)
class AnomalyReport:
    """Per-node anomaly scores together with the fit that produced them."""

    scores: np.ndarray
    fit: RegressionFit
    features: EgoFeatures = field(repr=False, default=None)

    def target_sum(self, targets) -> float:
        return float(self.scores[np.asarray(sorted(targets))].sum())


def ego_features(graph: Graph, flips: list[EdgeFlip] = ()) -> EgoFeatures:
    """Egonet features: N_i = degree(i), E_i = N_i + (1/2) diag(A^3)_i.

    Without flips these are the graph's own features. With flips they
    are the features of ``apply_flips(graph, flips)``, bit for bit, but
    updated from the graph's cached counts instead of rebuilding it (see
    ``flip_counts``); an invalid flip raises InvalidFlip.
    """
    degrees, diag3 = flip_counts(graph, flips)
    N = degrees.astype(float)
    E = N + 0.5 * diag3
    return EgoFeatures(N=N, E=E)


def _masked_logs(features: EgoFeatures):
    mask = np.flatnonzero(features.N > 0)
    x = np.log(features.N[mask])
    y = np.log(features.E[mask])
    return mask, x, y


def _line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
    """Closed-form weighted least-squares line y = beta0 + beta1 * x.

    Returns (beta0, beta1), or None when every x of positive weight is
    equal (tested as such: their rounded mean can leave a nonzero spread)
    or their spread underflows. Without weights every point weighs 1,
    which gives the unweighted fit bit for bit.
    """
    if w is None:
        w = np.ones_like(x)
    sw = w.sum()
    xm, ym = (w * x).sum() / sw, (w * y).sum() / sw
    sxx = float((w * (x - xm) ** 2).sum())
    xw = x[w > 0]
    if sxx == 0.0 or xw.min() == xw.max():
        return None
    beta1 = float((w * (x - xm) * (y - ym)).sum() / sxx)
    return float(ym - beta1 * xm), beta1


def fit_ols(features: EgoFeatures) -> RegressionFit:
    """Ordinary least squares of ln E on [1, ln N] over nodes with N > 0.

    On integer degrees the mask is N >= 1; a relaxed N in (0, 1) stays in
    the fit. When all masked ln N coincide the normal matrix is singular;
    the minimum-norm solution (beta1 = 0, beta0 = mean ln E) is returned
    with the degenerate flag set.
    """
    return _fit_ols_logs(*_masked_logs(features))


def _fit_ols_logs(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> RegressionFit:
    """``fit_ols`` on the masked logs ``_masked_logs`` gives, for a caller
    that already holds them."""
    if len(mask) < 2:
        raise DegenerateFit(f"need at least 2 nodes with N >= 1, have {len(mask)}")
    coef = _line_fit(x, y)
    if coef is None:
        return RegressionFit(float(y.mean()), 0.0, "ols", mask, degenerate=True)
    return RegressionFit(*coef, "ols", mask)


def anomaly_scores(features: EgoFeatures, fit: RegressionFit) -> AnomalyReport:
    """Deviation score per node; excluded (isolated) nodes score 0.

    S_i = max(E_i, Ehat_i)/min(E_i, Ehat_i) * ln(|E_i - Ehat_i| + 1)
    with Ehat_i the fitted edge count.
    """
    scores = np.zeros(len(features.N))
    mask = fit.fit_mask
    E = features.E[mask]
    Ehat = fit.predict_E(features.N[mask])
    ratio = np.maximum(E, Ehat) / np.minimum(E, Ehat)
    scores[mask] = ratio * np.log(np.abs(E - Ehat) + 1.0)
    return AnomalyReport(scores=scores, fit=fit, features=features)


def surrogate_objective(features: EgoFeatures, targets) -> float:
    """Sum over targets of squared residuals (E_i - Ehat_i)^2.

    The fit is re-derived from the given features, so moving any edge
    moves the regression line too (the bi-level coupling).
    """
    targets = sorted(targets)
    if not targets:
        warnings.warn("surrogate_objective called with an empty target set")
        return 0.0
    fit = fit_ols(features)
    return _target_residuals(features, fit, _connected_targets(features.N, targets))[2]


def _connected_targets(N: np.ndarray, targets) -> np.ndarray:
    """The targets sorted, as an int array; ValueError if any is not a
    node id, IsolatedTarget if any has N <= 0 and so lies outside the fit
    mask."""
    targets = np.asarray(sorted(targets), dtype=int)
    outside = targets[(targets < 0) | (targets >= len(N))]
    if len(outside):
        raise ValueError(f"targets {outside.tolist()} out of range for a graph of {len(N)} nodes")
    isolated = targets[~(N[targets] > 0)]
    if len(isolated):
        raise IsolatedTarget(f"targets {isolated.tolist()} are isolated")
    return targets


def _target_residuals(features: EgoFeatures, fit: RegressionFit, targets: np.ndarray):
    """At the targets: the fitted Ehat, the residuals E - Ehat, and the
    surrogate objective, the sum of their squares."""
    Ehat = fit.predict_E(features.N[targets])
    resid = features.E[targets] - Ehat
    return Ehat, resid, float(np.sum(resid**2))


def rank_top_k(report: AnomalyReport, k: int) -> list[int]:
    """Top-k node ids by descending score, ties broken by ascending id."""
    n = len(report.scores)
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    order = np.lexsort((np.arange(n), -report.scores))
    return order[:k].tolist()


def score_graph(graph: Graph) -> AnomalyReport:
    """Convenience: features -> OLS fit -> scores in one call."""
    feats = ego_features(graph)
    return anomaly_scores(feats, fit_ols(feats))


def write_report_csv(report: AnomalyReport, path) -> None:
    """CSV schema: node_id, N, E, fitted_E, score, fitter.

    The bytes are those of one ``csv.writer`` row per node: "\\r\\n" line
    ends, ``repr`` of N and E, and ``.10g`` of fitted_E and score (no
    field needs quoting). All rows are formatted, then written at once.
    """
    feats = report.features
    fitted = report.fit.predict_E(feats.N)
    fitter = report.fit.fitter
    columns = zip(feats.N.tolist(), feats.E.tolist(), fitted.tolist(), report.scores.tolist())
    rows = [f"{i},{n!r},{e!r},{f:.10g},{s:.10g},{fitter}\r\n" for i, (n, e, f, s) in enumerate(columns)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(["node_id,N,E,fitted_E,score,fitter\r\n", *rows]))
