import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison.errors import EmptyTargets
from gadpoison.graph import Graph, generate_ba, generate_er
from gadpoison.transfer import (
    Classifier,
    Embedding,
    LabeledSplit,
    PipelineConfig,
    RefexConfig,
    _log_bin,
    _neighbor_aggregates,
    _report,
    _run_once,
    auc_rank,
    f1_score,
    identify_targets,
    make_labeled_split,
    refex_embed,
    train_classifier,
)
from test_graph import plant_clique


def auc_trapezoid(labels, scores):
    """AUC as the trapezoidal integral of the ROC curve: the oracle for auc_rank."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n1 = int((labels == 1).sum())
    n0 = len(labels) - n1
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC needs both classes present")
    thresholds = np.unique(scores)[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for th in thresholds:
        pred = scores >= th
        tpr.append(float((pred & (labels == 1)).sum()) / n1)
        fpr.append(float((pred & (labels == 0)).sum()) / n0)
    return sum((fpr[k + 1] - fpr[k]) * (tpr[k + 1] + tpr[k]) / 2 for k in range(len(tpr) - 1))


def auc_rank_loop(labels, scores):
    """Mann-Whitney AUC with midranks found by walking each tie group:
    the exact oracle for auc_rank."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = labels == 1
    n1, n0 = int(pos.sum()), int((~pos).sum())
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


def log_bin_loop(column, bins, p=0.5):
    """Logarithmic binning where a dict maps each value to the bin of its
    last descending rank: the exact oracle for _log_bin."""
    n = len(column)
    cuts = [max(1, int(round((1.0 - (1.0 - p) ** (t + 1)) * n))) for t in range(bins - 1)]
    order = np.argsort(-column, kind="stable")
    tentative = np.empty(n, dtype=int)
    tentative[order] = np.searchsorted(cuts, np.arange(n), side="right")
    bin_of = {}
    for idx in order:
        bin_of[column[idx]] = tentative[idx]
    assigned = np.array([bin_of[v] for v in column])
    onehot = np.zeros((n, bins), dtype=np.uint8)
    onehot[np.arange(n), assigned] = 1
    return onehot


def evaluate_transfer(clean, poisoned, config):
    """The transfer protocol with the poisoned graph given instead of
    attacked: split and targets from the clean run, classifier retrained
    on each graph."""
    split = make_labeled_split(clean, config.anomaly_fraction, config.test_fraction, config.seed)
    emb0, clf0, probs0 = _run_once(clean, split, config)
    targets = identify_targets(clf0, emb0, split)
    _, _, probs1 = _run_once(poisoned, split, config)
    return _report(split, probs0, probs1, targets)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestRefexEmbed:
    @pytest.mark.parametrize("kwargs", [dict(bins=0), dict(bins=-2), dict(recursion_depth=-1),
                                        dict(prune_corr=float("nan")), dict(prune_corr=float("inf")),
                                        dict(prune_corr=-1.0), dict(prune_corr=2.0)])
    def test_unusable_config_rejected(self, kwargs):
        if "prune_corr" in kwargs:
            message = f"prune_corr must be finite and in [0, 1], got {kwargs['prune_corr']}"
        else:
            message = "need recursion_depth >= 0 and bins >= 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            RefexConfig(**kwargs)

    def test_one_bin_embeds(self):
        emb = refex_embed(cycle(8), RefexConfig(recursion_depth=0, bins=1))
        assert emb.width == 3 and np.all(emb.matrix == 1)

    def test_regular_cycle_identical_embeddings(self):
        emb = refex_embed(cycle(8), RefexConfig(recursion_depth=0, bins=2))
        assert np.all(emb.matrix == emb.matrix[0])

    def test_star_separates_center(self):
        g = Graph(9, [(0, i) for i in range(1, 9)])
        emb = refex_embed(g, RefexConfig(recursion_depth=0, bins=2))
        assert not np.array_equal(emb.matrix[0], emb.matrix[1])

    def test_binary_entries_uniform_width(self):
        g = generate_er(40, 0.15, 2)
        emb = refex_embed(g)
        assert np.isin(emb.matrix, (0, 1)).all()
        assert emb.matrix.shape == (40, emb.width)
        assert emb.width % 4 == 0  # bins per retained feature

    def test_neighbor_aggregates_oracle(self):
        g = generate_er(30, 0.2, 4)
        col = g.degrees().astype(float)
        means, sums = _neighbor_aggregates(g, col)
        for i in range(30):
            nbrs = g.neighbors(i)
            if len(nbrs) == 0:
                assert means[i] == sums[i] == 0.0
            else:
                assert sums[i] == pytest.approx(col[nbrs].sum())
                assert means[i] == pytest.approx(col[nbrs].mean())

    def test_deterministic(self):
        g = generate_er(25, 0.2, 7)
        a = refex_embed(g)
        b = refex_embed(g)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.feature_names == b.feature_names


class TestLogBinning:
    def test_monotone_with_ties(self):
        col = np.array([5.0, 3.0, 3.0, 1.0, 9.0, 1.0])
        onehot = _log_bin(col, bins=3)
        assigned = onehot.argmax(axis=1)
        for u in range(len(col)):
            for v in range(len(col)):
                if col[u] > col[v]:
                    assert assigned[u] <= assigned[v]
                if col[u] == col[v]:
                    assert assigned[u] == assigned[v]

    def test_one_hot(self):
        col = np.arange(20.0)
        onehot = _log_bin(col, bins=4)
        assert np.all(onehot.sum(axis=1) == 1)

    def test_top_bin_holds_top_half(self):
        col = np.arange(16.0)
        onehot = _log_bin(col, bins=2)
        top = np.flatnonzero(onehot[:, 0])
        assert set(top) == set(range(8, 16))

    @given(values=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0, 7.0]), min_size=1, max_size=60),
           bins=st.integers(2, 5))
    @settings(max_examples=300, deadline=None)
    def test_equals_dict_oracle(self, values, bins):
        col = np.array(values)
        assert np.array_equal(_log_bin(col, bins), log_bin_loop(col, bins))


class TestLabeledSplit:
    def test_partition(self):
        g = generate_ba(100, 3, 5)
        split = make_labeled_split(g, 0.1, 0.3, seed=1)
        joined = sorted(split.train_ids.tolist() + split.test_ids.tolist())
        assert joined == list(range(100))

    def test_label_count(self):
        g = generate_ba(100, 3, 5)
        split = make_labeled_split(g, 0.1, 0.3, seed=1)
        assert split.labels.sum() == 10

    def test_deterministic(self):
        g = generate_ba(60, 3, 2)
        a = make_labeled_split(g, 0.1, 0.25, seed=9)
        b = make_labeled_split(g, 0.1, 0.25, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.test_ids, b.test_ids)

    def test_rejects_bad_fractions(self):
        g = generate_ba(20, 2, 1)
        with pytest.raises(ValueError):
            make_labeled_split(g, 0.0, 0.3, seed=0)


def toy_embedding_and_split(n=200, seed=0):
    """Label equals the first bit: linearly separable."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n, 8)).astype(np.uint8)
    labels = matrix[:, 0].copy()
    emb = Embedding(matrix=matrix, feature_names=tuple(f"f{i}" for i in range(8)))
    ids = rng.permutation(n)
    split = LabeledSplit(labels=labels, train_ids=np.sort(ids[: int(0.7 * n)]),
                         test_ids=np.sort(ids[int(0.7 * n):]))
    return emb, split


class TestClassifier:
    def test_separable_toy_high_accuracy(self):
        emb, split = toy_embedding_and_split()
        clf = train_classifier(emb, split, epochs=200, lr=0.5, seed=1)
        probs = clf.predict_proba(emb.matrix[split.train_ids])
        acc = np.mean((probs >= 0.5) == (split.labels[split.train_ids] == 1))
        assert acc >= 0.99

    def test_constant_labels_collapse_to_prior(self):
        emb, split = toy_embedding_and_split()
        split.labels[:] = 1
        clf = train_classifier(emb, split, epochs=300, lr=0.5, seed=2)
        probs = clf.predict_proba(emb.matrix)
        assert probs.mean() > 0.9

    def test_deterministic(self):
        emb, split = toy_embedding_and_split()
        c1 = train_classifier(emb, split, epochs=50, lr=0.1, seed=5)
        c2 = train_classifier(emb, split, epochs=50, lr=0.1, seed=5)
        for w1, w2 in zip(c1.weights, c2.weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(c1.predict_proba(emb.matrix), c2.predict_proba(emb.matrix))

    def test_predict_proba_equals_explicit_forward(self):
        emb, split = toy_embedding_and_split()
        clf = train_classifier(emb, split, epochs=20, lr=0.1, seed=6)
        assert [W.shape for W in clf.weights] == [(emb.width, 32), (32, 16), (16, 1)]
        (W1, W2, W3), (b1, b2, b3) = clf.weights, clf.biases
        X = emb.matrix.astype(float)
        h1 = np.maximum(X @ W1 + b1, 0.0)
        h2 = np.maximum(h1 @ W2 + b2, 0.0)
        expected = 1.0 / (1.0 + np.exp(-(h2 @ W3 + b3)[:, 0]))
        assert np.array_equal(clf.predict_proba(emb.matrix), expected)


class TestIdentifyTargets:
    def test_empty_when_all_below_half(self):
        emb, split = toy_embedding_and_split()
        clf = Classifier(
            weights=[np.zeros((emb.width, 1))], biases=[np.full(1, -0.5)]
        )
        with pytest.raises(EmptyTargets):
            identify_targets(clf, emb, split)

    def test_threshold_inclusive(self):
        emb, split = toy_embedding_and_split()
        clf = Classifier(weights=[np.zeros((emb.width, 1))], biases=[np.zeros(1)])
        # sigmoid(0) = 0.5 exactly: every test node qualifies
        assert identify_targets(clf, emb, split) == sorted(split.test_ids.tolist())

    def test_separable_targets_are_positive_test_nodes(self):
        emb, split = toy_embedding_and_split()
        clf = train_classifier(emb, split, epochs=300, lr=0.5, seed=3)
        targets = identify_targets(clf, emb, split)
        positives = set(split.test_ids[split.labels[split.test_ids] == 1].tolist())
        assert set(targets) == positives


class TestMetrics:
    def test_auc_implementations_agree(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 200)
        labels[0] = 0
        labels[1] = 1
        scores = rng.random(200) + 0.3 * labels
        assert auc_rank(labels, scores) == pytest.approx(auc_trapezoid(labels, scores), abs=1e-9)

    def test_auc_with_ties(self):
        labels = np.array([0, 0, 1, 1, 0, 1])
        scores = np.array([0.1, 0.5, 0.5, 0.9, 0.5, 0.2])
        assert auc_rank(labels, scores) == pytest.approx(auc_trapezoid(labels, scores), abs=1e-9)

    def test_perfect_auc(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_rank(labels, scores) == 1.0

    @given(values=st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.5, 0.5 + 1e-9, 0.9, 1.0]),
                                     st.integers(0, 1)), min_size=2, max_size=60),
           forced=st.permutations([0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_equals_midrank_loop_oracle(self, values, forced):
        scores = np.array([v for v, _ in values])
        labels = np.array([lbl for _, lbl in values])
        labels[:2] = forced  # both classes present
        assert auc_rank(labels, scores) == auc_rank_loop(labels, scores)

    def test_f1(self):
        labels = np.array([1, 1, 0, 0])
        probs = np.array([0.9, 0.2, 0.8, 0.1])
        # tp=1 fp=1 fn=1 -> f1 = 0.5
        assert f1_score(labels, probs) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def planted_graph():
    g = generate_ba(120, 3, 21)
    planted, _ = plant_clique(g, 8, seed=2)
    return planted


class TestPipelineConfig:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=-5), "epochs must be >= 1, got -5"),
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(lr=float("nan")), "lr must be finite and > 0, got nan"),
        (dict(lr=float("inf")), "lr must be finite and > 0, got inf"),
        (dict(lr=0.0), "lr must be finite and > 0, got 0.0"),
    ])
    def test_unusable_training_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**kwargs)


class TestEvaluateTransfer:
    def test_poisoned_equals_clean(self, planted_graph):
        cfg = PipelineConfig(epochs=150, lr=0.1, seed=4)
        report = evaluate_transfer(planted_graph, planted_graph, cfg)
        assert report.delta_b == pytest.approx(0.0, abs=1e-12)
        assert report.auc_clean == report.auc_poisoned
        assert report.f1_clean == report.f1_poisoned

    def test_report_round_trips_json(self, tmp_path, planted_graph):
        cfg = PipelineConfig(epochs=150, lr=0.1, seed=4)
        report = evaluate_transfer(planted_graph, planted_graph, cfg)
        path = tmp_path / "report.json"
        report.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == 1
        assert loaded["delta_b"] == report.delta_b

    def test_delta_b_scale_free(self):
        # follows from the ratio definition
        sl0, slb = 4.0, 3.0
        assert (sl0 - slb) / sl0 == ((10 * sl0) - (10 * slb)) / (10 * sl0)
