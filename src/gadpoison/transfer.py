"""Black-box transfer evaluation: ReFeX embeddings (Henderson et al.,
KDD 2011) fed to a small feed-forward classifier, with soft-label and
AUC/F1 metrics.

``run_transfer_attack`` is the one protocol. It labels the top OddBall
scorers of the clean graph anomalous and splits the nodes, trains on the
clean embedding and takes as targets the test nodes the classifier flags,
poisons the graph against those targets with BinarizedAttack, and retrains
on the poisoned embedding with labels and split frozen from the clean run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import attacks, oddball
from .errors import EmptyTargets
from .graph import Graph, apply_flips, derive_rng


# -- recursive structural embedding --------------------------------------

BIN_FRACTION = 0.5  # top fraction of values captured by the first bin


@dataclass(frozen=True)
class RefexConfig:
    recursion_depth: int = 2
    bins: int = 4
    prune_corr: float = 0.95

    def __post_init__(self):
        if self.recursion_depth < 0 or self.bins < 1:
            raise ValueError(f"need recursion_depth >= 0 and bins >= 1, got {self.recursion_depth}, {self.bins}")
        if not 0 <= self.prune_corr <= 1:  # nan fails every comparison
            raise ValueError(f"prune_corr must be finite and in [0, 1], got {self.prune_corr}")


@dataclass(frozen=True)
class Embedding:
    """Per-node binary feature matrix of uniform width."""

    matrix: np.ndarray  # (n, width) of 0/1
    feature_names: tuple[str, ...]

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def _neighbor_aggregates(graph: Graph, column: np.ndarray):
    """Mean and sum of a node feature over each node's neighbors.

    Empty neighborhoods aggregate to 0.
    """
    sums = np.array([column[graph.neighbors(i)].sum() for i in range(graph.n)])
    deg = graph.degrees()
    return np.divide(sums, deg, out=np.zeros(graph.n), where=deg > 0), sums


def _is_redundant(candidate: np.ndarray, retained: list[np.ndarray], threshold: float) -> bool:
    if candidate.std() == 0:
        return True  # constant columns carry no information
    for col in retained:
        if col.std() == 0:
            continue
        corr = abs(np.corrcoef(candidate, col)[0, 1])
        if corr > threshold:
            return True
    return False


def _log_bin(column: np.ndarray, bins: int) -> np.ndarray:
    """Vertical logarithmic binning into one-hot indicator columns.

    With p = BIN_FRACTION, bin t captures the top fraction p*(1-p)^t of
    values by descending rank; the last bin takes the remainder. Tied
    values share a bin, so binning is monotone in the feature value.
    """
    n = len(column)
    # cumulative counts at bin boundaries
    cuts = [max(1, int(round((1.0 - (1.0 - BIN_FRACTION) ** (t + 1)) * n))) for t in range(bins - 1)]
    # a tie group takes the bin of its last descending rank, n - 1 - #(values
    # below it), so a value enters an upper bin only if the whole group fits
    last_rank = n - 1 - np.searchsorted(np.sort(column), column, side="left")
    assigned = np.searchsorted(cuts, last_rank, side="right")
    onehot = np.zeros((n, bins), dtype=np.uint8)
    onehot[np.arange(n), assigned] = 1
    return onehot


def refex_embed(graph: Graph, config: RefexConfig = RefexConfig()) -> Embedding:
    """Recursive feature extraction with correlation pruning and binning.

    Base features are [degree, egonet N, egonet E]; each recursion level
    appends neighbor means and sums of the previous level's retained
    features, dropping candidates too correlated with anything kept.
    """
    feats = oddball.ego_features(graph)
    degree = graph.degrees().astype(float)
    retained = [degree, feats.N.copy(), feats.E.copy()]
    names = ["degree", "ego_N", "ego_E"]
    prev_level = list(range(len(retained)))
    for level in range(1, config.recursion_depth + 1):
        new_level = []
        for idx in prev_level:
            means, sums = _neighbor_aggregates(graph, retained[idx])
            for agg, col in (("mean", means), ("sum", sums)):
                if _is_redundant(col, retained, config.prune_corr):
                    continue
                retained.append(col)
                names.append(f"L{level}_{agg}({names[idx]})")
                new_level.append(len(retained) - 1)
        prev_level = new_level
        if not prev_level:
            break
    blocks = [_log_bin(col, config.bins) for col in retained]
    return Embedding(matrix=np.concatenate(blocks, axis=1), feature_names=tuple(names))


# -- labeling and classification -----------------------------------------

HIDDEN = (32, 16)  # MLP hidden layer widths


@dataclass(frozen=True)
class LabeledSplit:
    labels: np.ndarray  # per-node 0/1
    train_ids: np.ndarray
    test_ids: np.ndarray


def make_labeled_split(graph: Graph, anomaly_fraction: float, test_fraction: float, seed: int) -> LabeledSplit:
    """Label the top-scoring fraction anomalous and split stratified."""
    if not 0 < anomaly_fraction < 1 or not 0 < test_fraction < 1:
        raise ValueError("fractions must be in (0, 1)")
    report = oddball.score_graph(graph)
    k = math.ceil(anomaly_fraction * graph.n)
    labels = np.zeros(graph.n, dtype=np.uint8)
    labels[oddball.rank_top_k(report, k)] = 1
    rng = derive_rng(seed, "split", anomaly_fraction, test_fraction)
    train, test = [], []
    for lbl in (0, 1):
        ids = np.flatnonzero(labels == lbl)
        perm = rng.permutation(ids)
        n_test = int(round(test_fraction * len(ids)))
        test.extend(perm[:n_test].tolist())
        train.extend(perm[n_test:].tolist())
    return LabeledSplit(labels=labels, train_ids=np.array(sorted(train)), test_ids=np.array(sorted(test)))


def _forward(weights, biases, X: np.ndarray):
    """MLP forward pass: the activations of every layer but the last (X
    first, then each ReLU output) and the sigmoid output per row."""
    acts = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    z = (acts[-1] @ weights[-1] + biases[-1]).ravel()
    return acts, 1.0 / (1.0 + np.exp(-z))


class Classifier:
    """Tiny fully-connected network trained by full-batch gradient descent."""

    def __init__(self, weights, biases):
        self.weights = weights
        self.biases = biases

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _forward(self.weights, self.biases, X.astype(float))[1]


def train_classifier(embedding: Embedding, split: LabeledSplit,
                     epochs: int = 300, lr: float = 0.01, seed: int = 0) -> Classifier:
    """Train on the train split with seeded initialization and binary
    cross-entropy; raises if the loss turns non-finite."""
    X = embedding.matrix[split.train_ids].astype(float)
    y = split.labels[split.train_ids].astype(float)
    dims = [embedding.width, *HIDDEN, 1]
    rng = derive_rng(seed, "mlp-init")
    weights = [rng.normal(0.0, math.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
               for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]

    m = len(y)
    for _ in range(epochs):
        acts, prob = _forward(weights, biases, X)
        eps = 1e-12
        loss = -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
        if not np.isfinite(loss):
            raise FloatingPointError("training aborted: non-finite loss")
        # backward
        dz = ((prob - y) / m)[:, None]
        grads_W, grads_b = [], []
        delta = dz
        for li in range(len(weights) - 1, -1, -1):
            grads_W.append(acts[li].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if li > 0:
                delta = (delta @ weights[li].T) * (acts[li] > 0)
        grads_W.reverse()
        grads_b.reverse()
        for li in range(len(weights)):
            weights[li] -= lr * grads_W[li]
            biases[li] -= lr * grads_b[li]
    return Classifier(weights, biases)


def identify_targets(classifier: Classifier, embedding: Embedding, split: LabeledSplit) -> list[int]:
    """Test nodes the classifier flags anomalous (probability >= 0.5)."""
    probs = classifier.predict_proba(embedding.matrix[split.test_ids])
    chosen = split.test_ids[probs >= 0.5]
    if len(chosen) == 0:
        raise EmptyTargets("classifier predicted no test node as anomalous")
    return sorted(int(i) for i in chosen)


# -- metrics ---------------------------------------------------------------


def auc_rank(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUC via the Mann-Whitney rank statistic with midrank tie handling."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = labels == 1
    n1, n0 = int(pos.sum()), int((~pos).sum())
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC needs both classes present")
    # a tie group over sorted positions i..j takes the midrank (i + j) / 2 + 1
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (0.5 * (ends - counts + ends - 1) + 1.0)[group]
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


def f1_score(labels: np.ndarray, probs: np.ndarray) -> float:
    pred = np.asarray(probs) >= 0.5
    labels = np.asarray(labels) == 1
    tp = int((pred & labels).sum())
    fp = int((pred & ~labels).sum())
    fn = int((~pred & labels).sum())
    if tp == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


# -- end-to-end evaluation -------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    refex: RefexConfig = RefexConfig()
    anomaly_fraction: float = 0.1
    test_fraction: float = 0.3
    epochs: int = 300
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class TransferReport:
    auc_clean: float
    f1_clean: float
    auc_poisoned: float
    f1_poisoned: float
    soft_label_sum_clean: float
    soft_label_sum_poisoned: float
    delta_b: float
    targets: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self), "targets": list(self.targets)}

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def _run_once(graph: Graph, split: LabeledSplit, config: PipelineConfig):
    emb = refex_embed(graph, config.refex)
    clf = train_classifier(emb, split, epochs=config.epochs, lr=config.lr, seed=config.seed)
    probs = clf.predict_proba(emb.matrix)
    return emb, clf, probs


def _report(split: LabeledSplit, probs0: np.ndarray, probs1: np.ndarray, targets) -> TransferReport:
    """Metrics of the clean (probs0) and poisoned (probs1) classifier outputs."""
    tgt = np.asarray(sorted(targets))
    test, y_test = split.test_ids, split.labels[split.test_ids]
    sl0, slb = float(probs0[tgt].sum()), float(probs1[tgt].sum())
    return TransferReport(
        auc_clean=auc_rank(y_test, probs0[test]),
        f1_clean=f1_score(y_test, probs0[test]),
        auc_poisoned=auc_rank(y_test, probs1[test]),
        f1_poisoned=f1_score(y_test, probs1[test]),
        soft_label_sum_clean=sl0,
        soft_label_sum_poisoned=slb,
        delta_b=(sl0 - slb) / sl0 if sl0 > 0 else math.nan,
        targets=tuple(int(t) for t in tgt),
    )


def run_transfer_attack(graph: Graph, budget: int, pipeline: PipelineConfig) -> TransferReport:
    """Full four-step protocol with the binarized attack as the poisoner;
    the clean run picks the targets and gives the clean metrics."""
    split = make_labeled_split(graph, pipeline.anomaly_fraction, pipeline.test_fraction, pipeline.seed)
    emb, clf, probs0 = _run_once(graph, split, pipeline)
    targets = identify_targets(clf, emb, split)
    if budget == 0:
        return _report(split, probs0, probs0, targets)
    config = attacks.AttackConfig(budget_max=budget, targets=tuple(targets), seed=pipeline.seed)
    plan = attacks.binarized_attack(graph, config)
    achieved = [b for b in plan.flips_by_budget if b <= budget]
    if not achieved:
        raise EmptyTargets("attack produced no flips within budget")
    poisoned = apply_flips(graph, plan.flips_by_budget[max(achieved)])
    _, _, probs1 = _run_once(poisoned, split, pipeline)
    return _report(split, probs0, probs1, targets)
