import itertools
import json
import math
import re
import tracemalloc
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison import attacks, gradients
from gadpoison.attacks import (
    ATTACKS,
    AttackConfig,
    PerturbationPlan,
    _finalize_plan,
    _GradientMemo,
    _pair_space,
    _top_pairs,
    binarized_attack,
    continuous_a,
    grad_max_search,
    tau_as,
)
from gadpoison.errors import DegenerateFit, IsolatedTarget, NodeVanished, ZeroBaseline
from gadpoison.gradients import pair_index, pair_nodes, upper_pairs
from gadpoison.graph import EdgeFlip, FlipAction, Graph, apply_flips, derive_rng, generate_ba, generate_er
from gadpoison.oddball import ego_features, rank_top_k, score_graph, surrogate_objective
from test_gradients import fresh_gradient
from test_graph import has_edge


def top_target(graph):
    return tuple(rank_top_k(score_graph(graph), 1))


def all_single_flips(graph):
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            action = FlipAction.DELETE if has_edge(graph, i, j) else FlipAction.ADD
            yield EdgeFlip(i, j, action)


def surrogate_of(graph, targets):
    return surrogate_objective(ego_features(graph), list(targets))


class TestGradMaxSearch:
    def test_single_flip_near_exhaustive_optimum(self):
        g = generate_er(10, 0.3, 3)
        targets = top_target(g)
        plan = grad_max_search(g, AttackConfig(budget_max=1, targets=targets))
        reductions = sorted(
            (surrogate_of(apply_flips(g, [f]), targets) for f in all_single_flips(g))
        )
        assert plan.surrogate_trace[1] <= reductions[2] + 1e-12  # within top-3

    def test_never_isolates_leaf_target(self):
        # target is the leaf of a star: its only edge must never be deleted
        g = Graph(6, [(0, i) for i in range(1, 6)])
        targets = (1,)
        plan = grad_max_search(
            g, AttackConfig(budget_max=3, targets=targets, allow_add=False)
        )
        for flips in plan.flips_by_budget.values():
            poisoned = apply_flips(g, flips)
            assert poisoned.degrees()[1] >= 1

    def test_no_pair_flipped_twice(self):
        g = generate_er(12, 0.3, 7)
        plan = grad_max_search(g, AttackConfig(budget_max=6, targets=top_target(g)))
        flips = plan.flips_by_budget[max(plan.flips_by_budget)]
        pairs = [(f.i, f.j) for f in flips]
        assert len(pairs) == len(set(pairs))

    def test_budget_exactness(self):
        g = generate_er(12, 0.3, 9)
        plan = grad_max_search(g, AttackConfig(budget_max=4, targets=top_target(g)))
        for b, flips in plan.flips_by_budget.items():
            assert len(flips) == b
            poisoned = apply_flips(g, flips)
            assert np.abs(g.dense() - poisoned.dense()).sum() / 2 == b

    def test_deterministic(self):
        g = generate_er(12, 0.3, 11)
        cfg = AttackConfig(budget_max=3, targets=top_target(g))
        assert grad_max_search(g, cfg).to_dict() == grad_max_search(g, cfg).to_dict()


def dense_grad_max_search(graph, config):
    """Oracle: GradMaxSearch with n x n masks rebuilt every step.

    The library works on pair vectors and freezes each flipped pair
    instead of keeping a ``modified`` matrix; both must give the same plan.
    """
    n = graph.n
    targets = list(config.targets)
    adj = graph.dense()
    degrees = graph.degrees().astype(int)
    modified = np.zeros((n, n), dtype=bool)
    flips, notes = [], []
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(config.budget_max):
        G, _ = fresh_gradient(adj, targets)
        is_edge = adj > 0.5
        # adding a non-edge needs negative gradient; deleting an edge positive
        valid = np.zeros((n, n), dtype=bool)
        if config.allow_add:
            valid |= (~is_edge) & (G < 0)
        if config.allow_delete:
            deletable = is_edge & (G > 0)
            deletable &= np.minimum(degrees[:, None], degrees[None, :]) > 1
            valid |= deletable
        valid &= ~modified
        np.fill_diagonal(valid, False)
        vals = np.where(valid[iu, ju], np.abs(G[iu, ju]), -np.inf)
        if not np.isfinite(vals.max()):
            notes.append(f"NoValidMove after {len(flips)} flips; plan truncated")
            break
        best = int(np.argmax(vals))
        p, q = int(iu[best]), int(ju[best])
        if is_edge[p, q]:
            flips.append(EdgeFlip(p, q, FlipAction.DELETE))
            adj[p, q] = adj[q, p] = 0.0
            degrees[[p, q]] -= 1
        else:
            flips.append(EdgeFlip(p, q, FlipAction.ADD))
            adj[p, q] = adj[q, p] = 1.0
            degrees[[p, q]] += 1
        modified[p, q] = modified[q, p] = True
    flips_by_budget = {b: flips[:b] for b in range(1, len(flips) + 1)}
    failed = {b: "no valid move" for b in range(len(flips) + 1, config.budget_max + 1)}
    return _finalize_plan(graph, config, "gradmax", flips_by_budget, failed, notes)


def with_leaves(graph):
    """``graph`` plus three degree-1 nodes, two hung on its top-scoring
    node and one on the runner-up."""
    top = rank_top_k(score_graph(graph), 2)
    n = graph.n + 3
    return Graph(n, graph.edges() + list(zip((top[0], top[0], top[1]), range(graph.n, n))))


GRADMAX_CASES = {
    "ba-default": (generate_ba(30, 2, 4), dict(budget_max=8)),
    "er-default": (generate_er(20, 0.2, 6), dict(budget_max=8)),
    "ba-add-only": (generate_ba(25, 2, 1), dict(budget_max=6, allow_delete=False)),
    "er-delete-only": (generate_er(18, 0.3, 2), dict(budget_max=6, allow_add=False)),
    # the best deletion by gradient would cut a degree-1 endpoint off
    "ba-leaf-endpoint": (with_leaves(generate_ba(20, 2, 2)), dict(budget_max=6, allow_add=False)),
    "er-leaf-endpoint": (with_leaves(generate_er(20, 0.2, 6)), dict(budget_max=6, allow_add=False)),
    # delete-only runs out of valid moves after 5 flips
    "ba-no-valid-move": (with_leaves(generate_ba(20, 2, 1)), dict(budget_max=6, allow_add=False)),
}


class TestGradMaxAgainstDenseOracle:
    @pytest.mark.parametrize("case", sorted(GRADMAX_CASES))
    def test_plan_equals_dense_loop(self, case):
        g, kwargs = GRADMAX_CASES[case]
        cfg = AttackConfig(targets=tuple(rank_top_k(score_graph(g), 2)), **kwargs)
        plan = grad_max_search(g, cfg)
        assert plan.to_dict() == dense_grad_max_search(g, cfg).to_dict()
        truncated = any(note.startswith("NoValidMove") for note in plan.notes)
        assert truncated == case.endswith("no-valid-move")


class TestContinuousA:
    # one block, and blocks of 7 rows, whose diagonal blocks are mirrored too
    @pytest.mark.parametrize("rows", [None, 7])
    def test_iterate_exactly_symmetric(self, rows, monkeypatch):
        # a relaxed A^T C A is not exactly symmetric in floating point, but
        # each step rebuilds the iterate from its pair vector
        g = generate_ba(40, 3, 2)
        if rows is not None:
            monkeypatch.setattr(gradients, "BLOCK_BYTES", 8 * g.n * rows)
            monkeypatch.setattr(gradients, "MIN_BLOCK_ROWS", 1)
        seen = []  # the iterate of each gradient call
        inner = gradients.surrogate_gradient

        def recorded(adj, targets, out):
            seen.append(adj.A.copy())
            return inner(adj, targets, out)

        monkeypatch.setattr(gradients, "surrogate_gradient", recorded)
        continuous_a(g, AttackConfig(budget_max=2, targets=top_target(g), iters=4, lr=0.05))
        A = seen[3]  # after 3 steps
        assert len(seen) == 4 and len(np.unique(A)) > 2  # relaxed
        assert np.array_equal(A, A.T)

    def test_zero_iterations_degenerate_lexicographic(self):
        g = generate_er(8, 0.4, 2)
        plan = continuous_a(g, AttackConfig(budget_max=2, targets=top_target(g), iters=0))
        flips = plan.flips_by_budget[2]
        assert [(f.i, f.j) for f in flips] == [(0, 1), (0, 2)]

    def test_deterministic_rerun(self):
        g = generate_er(10, 0.3, 5)
        cfg = AttackConfig(budget_max=1, targets=top_target(g), iters=400, lr=0.05)
        p1 = continuous_a(g, cfg)
        p2 = continuous_a(g, cfg)
        assert p1.to_dict() == p2.to_dict()
        assert p1.flips_by_budget[1] == p2.flips_by_budget[1]

    def test_projection_keeps_unit_box(self):
        # run the descent loop manually mirroring the attack's projection
        g = generate_er(10, 0.3, 6)
        targets = list(top_target(g))
        A = g.dense()
        for _ in range(50):
            G, _ = fresh_gradient(A, targets)
            A = np.clip(A - 0.05 * G, 0.0, 1.0)
            np.fill_diagonal(A, 0.0)
            assert A.min() >= 0.0 and A.max() <= 1.0

    def test_budget_exactness(self):
        g = generate_er(10, 0.3, 8)
        plan = continuous_a(g, AttackConfig(budget_max=3, targets=top_target(g), iters=100))
        for b, flips in plan.flips_by_budget.items():
            assert len(flips) == b


def allocating_continuous_a(graph, config):
    """Oracle: ContinuousA with a fresh iterate array per step.

    The library steps in place between two reused buffers; the previous
    iterate must still be intact when a step's objective is undefined.
    """
    n = graph.n
    targets = list(config.targets)
    A0 = graph.dense()
    frozen = np.zeros((n, n), dtype=bool)
    if not config.allow_add:
        frozen |= A0 < 0.5
    if not config.allow_delete:
        frozen |= A0 > 0.5
    A = prev = A0.copy()
    objective, notes = [], []
    for step in range(config.iters):
        try:
            G, val = fresh_gradient(A, targets)
        except (IsolatedTarget, NodeVanished, DegenerateFit) as exc:
            A = prev
            notes.append(f"stopped at iteration {step}: {exc}")
            break
        objective.append(val)
        G[frozen] = 0.0
        prev = A
        A = np.clip(A - config.lr * G, 0.0, 1.0)
        np.fill_diagonal(A, 0.0)
    if len(objective) >= 10:
        tail = objective[-max(1, len(objective) // 10):]
        if abs(tail[-1] - tail[0]) / max(abs(tail[0]), 1e-12) > 1e-4:
            notes.append("NonConvergence: objective still moving over the last 10% of iterations")
    iu, ju = np.triu_indices(n, k=1)
    diff = np.abs(A - A0)[iu, ju]
    diff[frozen[iu, ju]] = -1.0
    order = np.lexsort((ju, iu, -diff))
    flips_by_budget = {
        b: [EdgeFlip(int(iu[k]), int(ju[k]),
                     FlipAction.DELETE if A0[iu[k], ju[k]] > 0.5 else FlipAction.ADD)
            for k in order[:b]]
        for b in range(1, config.budget_max + 1)
    }
    return _finalize_plan(graph, config, "continuous", flips_by_budget, notes=notes)


CONTINUOUS_CASES = {
    "er-full-run": (generate_er(12, 0.3, 3), dict(lr=0.05, iters=100)),
    "ba-add-only": (generate_ba(15, 2, 1), dict(lr=0.2, iters=60, allow_delete=False)),
    "er-delete-only": (generate_er(12, 0.3, 9), dict(lr=0.05, iters=60, allow_add=False)),
    # these stop when a step isolates a target, after 11, 4 and 1 steps
    "ba-rollback-late": (generate_ba(14, 2, 0), dict(lr=1.0, iters=60)),
    "ba-rollback-mid": (generate_ba(15, 2, 1), dict(lr=3.0, iters=60)),
    "ba-rollback-first": (generate_ba(14, 2, 0), dict(lr=0.5, iters=60, allow_add=False)),
}


class TestContinuousAgainstAllocatingLoop:
    @pytest.mark.filterwarnings("ignore:NonConvergence")
    @pytest.mark.parametrize("case", sorted(CONTINUOUS_CASES))
    def test_plan_equals_allocating_loop(self, case):
        g, kwargs = CONTINUOUS_CASES[case]
        targets = tuple(rank_top_k(score_graph(g), 2))
        cfg = AttackConfig(budget_max=3, targets=targets, **kwargs)
        plan = continuous_a(g, cfg)
        assert plan.to_dict() == allocating_continuous_a(g, cfg).to_dict()
        stopped = any(note.startswith("stopped at iteration") for note in plan.notes)
        assert stopped == case.startswith("ba-rollback")


class TestBinarizedAttack:
    def test_huge_lambda_no_candidates(self):
        g = generate_er(10, 0.3, 4)
        cfg = AttackConfig(budget_max=2, targets=top_target(g), lambdas=(1e6,), iters=50)
        plan = binarized_attack(g, cfg)
        assert plan.flips_by_budget == {}
        assert set(plan.failed_budgets) == {1, 2}

    def test_pair_budget_near_exhaustive_optimum(self):
        g = generate_er(10, 0.3, 3)
        targets = top_target(g)
        cfg = AttackConfig(budget_max=2, targets=targets, seed=1, iters=300)
        plan = binarized_attack(g, cfg)
        base = surrogate_of(g, targets)
        best_pair = min(
            surrogate_of(apply_flips(g, [f1, f2]), targets)
            for f1, f2 in itertools.combinations(all_single_flips(g), 2)
        )
        achieved = base - plan.surrogate_trace[2]
        optimum = base - best_pair
        assert achieved >= 0.9 * optimum

    def test_flip_reconstruction_round_trip(self):
        # the poisoned adjacency from the flips equals (A0-0.5)*Z + 0.5
        g = generate_er(10, 0.3, 5)
        cfg = AttackConfig(budget_max=2, targets=top_target(g), iters=200)
        plan = binarized_attack(g, cfg)
        for b, flips in plan.flips_by_budget.items():
            A0 = g.dense()
            Z = np.ones_like(A0)
            for f in flips:
                Z[f.i, f.j] = Z[f.j, f.i] = -1
            reconstructed = (A0 - 0.5) * Z + 0.5
            assert np.array_equal(reconstructed, apply_flips(g, flips).dense())

    def test_deterministic(self):
        g = generate_er(10, 0.3, 6)
        cfg = AttackConfig(budget_max=2, targets=top_target(g), seed=3, iters=150)
        assert binarized_attack(g, cfg).to_dict() == binarized_attack(g, cfg).to_dict()

    def test_budget_exactness(self):
        g = generate_er(12, 0.3, 13)
        cfg = AttackConfig(budget_max=3, targets=top_target(g), iters=200)
        plan = binarized_attack(g, cfg)
        for b, flips in plan.flips_by_budget.items():
            assert len(flips) == b
            diff = np.abs(
                g.dense() - apply_flips(g, flips).dense()
            ).sum() / 2
            assert diff == b

    def test_candidate_pool_shrinks_with_budget(self):
        # every achieved budget gets a concrete, finite evaluation
        g = generate_er(12, 0.3, 10)
        cfg = AttackConfig(budget_max=4, targets=top_target(g), iters=200)
        plan = binarized_attack(g, cfg)
        achieved = sorted(plan.flips_by_budget)
        # evaluated traces exist for all achieved budgets
        for b in achieved:
            assert math.isfinite(plan.surrogate_trace[b])


def dense_binarized_attack(graph, config):
    """Oracle: BinarizedAttack on a symmetric n x n soft matrix.

    Every step rebuilds the flipped adjacency with ``np.where``, calls the
    surrogate gradient and gathers the whole upper triangle for the
    snapshot. The library keeps one entry per pair, toggles only the
    pairs whose flip state changed and reuses the gradient while the
    pattern holds; both must give the same plan.
    """
    n = graph.n
    targets = list(config.targets)
    A0 = graph.dense()
    sign_flip = 1.0 - 2.0 * A0
    iu, ju = np.triu_indices(n, k=1)
    frozen = np.zeros((n, n), dtype=bool)
    if not config.allow_add:
        frozen |= A0 < 0.5
    if not config.allow_delete:
        frozen |= A0 > 0.5
    B = config.budget_max
    snapshots = []  # (surrogate, flip count, [(p, q), ...] by soft value descending)
    for lam in config.lambdas:
        rng = derive_rng(config.seed, "binarized", repr(float(lam)))
        init = 0.25 + rng.uniform(0.0, 0.05, size=(n, n))
        zdot = np.triu(init, k=1)
        zdot = zdot + zdot.T
        zdot[frozen] = 0.0
        np.fill_diagonal(zdot, 0.0)
        for step in range(config.iters + 1):
            A = np.where(zdot >= 0.5, 1.0 - A0, A0)
            try:
                G, surr = fresh_gradient(A, targets)
            except (IsolatedTarget, DegenerateFit, NodeVanished):
                G, surr = np.zeros((n, n)), math.inf
            soft = zdot[iu, ju]
            flipped = np.flatnonzero(soft >= 0.5)
            sub = flipped[np.lexsort((ju[flipped], iu[flipped], -soft[flipped]))][:B]
            snapshots.append((surr, len(flipped), [(int(iu[k]), int(ju[k])) for k in sub]))
            if step == config.iters:
                break
            grad = G * sign_flip + lam * np.sign(zdot)
            grad[frozen] = 0.0
            zdot = np.clip(zdot - config.lr * grad, 0.0, 1.0)
            np.fill_diagonal(zdot, 0.0)

    flips_by_budget, failed = {}, {}
    for b in range(1, B + 1):
        usable = [s for s in snapshots if math.isfinite(s[0])]
        pool = [s for s in usable if s[1] == b] or [s for s in usable if s[1] >= b]
        if not pool:
            failed[b] = f"no snapshot reached {b} flipped entries"
            continue
        best = min(pool, key=lambda s: s[0])  # first of equal minima, as the library
        flips_by_budget[b] = [
            EdgeFlip(p, q, FlipAction.DELETE if A0[p, q] > 0.5 else FlipAction.ADD)
            for p, q in best[2][:b]
        ]
    return _finalize_plan(graph, config, "binarized", flips_by_budget, failed)


ORACLE_CASES = {
    "er-default-lambdas": (generate_er(12, 0.3, 3), dict(lr=0.02, iters=120)),
    "er-two-lambdas": (generate_er(14, 0.25, 5), dict(lr=0.01, iters=150, lambdas=(1e-4, 1e-2))),
    "ba-add-only": (generate_ba(15, 2, 1), dict(lr=0.02, iters=100, allow_delete=False)),
    "er-delete-only": (generate_er(12, 0.3, 9), dict(lr=0.02, iters=100, allow_add=False)),
    # a large step saturates many soft values at 1, so the top-B tie-break decides
    "ba-saturating": (generate_ba(15, 2, 1), dict(lr=0.5, iters=30, lambdas=(1e-4,))),
    # delete-only patterns here isolate a target, so a kept failure is reused
    "ba-isolating": (generate_ba(14, 2, 0), dict(lr=0.05, iters=100, lambdas=(1e-3,),
                                                 allow_add=False)),
    "er-isolating": (generate_er(12, 0.25, 4), dict(lr=0.02, iters=100, lambdas=(1e-3,),
                                                    allow_add=False, seed=4)),
    # a held pattern repeats its surrogate while the soft order changes, so
    # the first of equal minima decides which top-b order is truncated
    "ba-first-of-ties": (generate_ba(15, 2, 1), dict(lr=0.1, iters=80, lambdas=(1e-3,))),
    # past n = 31 a pattern change of a pair or two toggles in place
    "ba-toggling": (generate_ba(60, 2, 1), dict(lr=0.002, iters=150, lambdas=(1e-4, 1e-2))),
    "er-toggling": (generate_er(50, 0.1, 3), dict(lr=0.002, iters=150)),
}


def oracle_case(name):
    g, kwargs = ORACLE_CASES[name]
    targets = tuple(rank_top_k(score_graph(g), 2))
    return g, AttackConfig(budget_max=3, targets=targets, **kwargs)


class TestBinarizedAgainstDenseOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_plan_equals_dense_loop(self, case):
        g, cfg = oracle_case(case)
        assert binarized_attack(g, cfg).to_dict() == dense_binarized_attack(g, cfg).to_dict()

    # blocks of 3 rows: the z-step runs in 3 chunks of the soft values,
    # with frozen pairs in each
    @pytest.mark.parametrize("case", ["ba-add-only", "ba-isolating"])
    def test_plan_equals_dense_loop_in_small_blocks(self, case, monkeypatch):
        g, cfg = oracle_case(case)
        monkeypatch.setattr(gradients, "BLOCK_BYTES", 8 * g.n * 3)
        monkeypatch.setattr(gradients, "MIN_BLOCK_ROWS", 1)
        assert binarized_attack(g, cfg).to_dict() == dense_binarized_attack(g, cfg).to_dict()

    @pytest.mark.parametrize("case", ["ba-toggling", "er-toggling"])
    def test_pattern_changes_toggle_up_to_the_crossover_and_rewrite_past_it(
            self, case, monkeypatch):
        g, cfg = oracle_case(case)
        toggled, rewritten = [], []  # pairs changed per toggle and per set_pairs
        toggle, set_pairs = gradients.Adjacency.toggle, gradients.Adjacency.set_pairs

        def counted_toggle(adj, p, q):
            toggled.append(len(p))
            toggle(adj, p, q)

        def counted_set_pairs(adj, values):
            rewritten.append(int(np.count_nonzero(adj.A[np.triu_indices(g.n, 1)] != values)))
            set_pairs(adj, values)

        monkeypatch.setattr(gradients.Adjacency, "toggle", counted_toggle)
        monkeypatch.setattr(gradients.Adjacency, "set_pairs", counted_set_pairs)
        binarized_attack(g, cfg)
        crossover = attacks.RECOUNT_AT * g.n ** 2
        assert sum(k > 0 for k in toggled) >= 10 and rewritten
        assert max(toggled) <= crossover < min(rewritten)

    # ba-add-only runs the four default lambdas over 25 distinct patterns;
    # a 4096-byte bound holds four of its 105-pair gradients, so it evicts
    @pytest.mark.parametrize("case, limit", [
        ("er-two-lambdas", None), ("ba-isolating", None),
        ("ba-add-only", None), ("ba-add-only", 4096),
    ])
    def test_one_gradient_per_distinct_consecutive_pattern_the_memo_misses(
            self, case, limit, monkeypatch):
        g, cfg = oracle_case(case)
        if limit is not None:
            monkeypatch.setattr(attacks, "MEMO_BYTES", limit)
        calls = []  # (adjacency bytes, raised nothing) per surrogate_gradient call
        inner = gradients.surrogate_gradient

        def counted(adj, targets, out):
            try:
                value = inner(adj, targets, out)
            except (IsolatedTarget, DegenerateFit, NodeVanished):
                calls.append((adj.A.tobytes(), False))
                raise
            calls.append((adj.A.tobytes(), True))
            return value

        monkeypatch.setattr(gradients, "surrogate_gradient", counted)
        dense_binarized_attack(g, cfg)
        steps = cfg.iters + 1
        assert len(calls) == steps * len(cfg.lambdas)
        # collapse runs of the same adjacency within each lambda-run
        collapsed = []
        for start in range(0, len(calls), steps):
            run = calls[start:start + steps]
            collapsed += [c for k, c in enumerate(run) if k == 0 or c[0] != run[k - 1][0]]
        expected, evictions = lru_replay(collapsed, g, attacks.MEMO_BYTES)
        calls.clear()
        binarized_attack(g, cfg)
        assert calls == expected
        assert len(calls) < steps * len(cfg.lambdas)
        if case == "ba-isolating":
            assert not all(ok for _, ok in calls)
        if limit is not None:
            assert evictions > 0
            assert len({c[0] for c in calls}) < len(calls)  # an evicted pattern came back
            return
        assert evictions == 0
        if case == "ba-add-only":
            # every lambda-run starts on the clean graph; only the first computes it
            clean = g.dense().tobytes()
            assert sum(c[0] == clean for c in collapsed) >= len(cfg.lambdas)
            assert sum(c[0] == clean for c in calls) == 1


def lru_replay(collapsed, graph, limit):
    """Reference memo: the calls that remain when the collapsed adjacency
    sequence runs through an LRU of ``limit`` bytes, and its evictions.

    An entry costs 8 bytes per pair of the graph when the gradient exists,
    else one bit per pair, rounded up to whole bytes (its key).
    """
    n = graph.n
    pairs = n * (n - 1) // 2
    memo, used, remaining, evictions = OrderedDict(), 0, [], 0
    for adj_bytes, ok in collapsed:
        if adj_bytes in memo:
            memo.move_to_end(adj_bytes)
            continue
        remaining.append((adj_bytes, ok))
        size = 8 * pairs if ok else -(-pairs // 8)
        if size > limit:
            continue
        while used + size > limit:
            used -= memo.popitem(last=False)[1]
            evictions += 1
        memo[adj_bytes] = size
        used += size
    return remaining, evictions


class TestGradientMemo:
    def test_entries_read_only(self):
        memo = _GradientMemo(1 << 10)
        gsp = np.arange(4.0)
        memo.put(b"k", gsp, 1.5)
        stored, surr = memo.get(b"k")
        assert stored is gsp and surr == 1.5
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 9.0

    def test_least_recent_evicted_first_within_the_bound(self):
        memo = _GradientMemo(3 * 32)  # three entries of 4 floats, keys not charged
        keys = [bytes(8 * [k]) for k in range(4)]
        for k in keys[:3]:
            memo.put(k, np.zeros(4), 0.0)
        memo.get(keys[0])  # keys[1] is now the least recent
        memo.put(keys[3], np.zeros(4), 0.0)
        assert list(memo.entries) == [keys[2], keys[0], keys[3]]
        assert memo.used == 3 * 32

    def test_oversized_entry_never_stored(self):
        memo = _GradientMemo(100)
        memo.put(b"small", None, math.inf)
        memo.put(b"big", np.zeros(20), 0.0)  # 160 bytes; its key is not charged
        assert memo.get(b"big") is None
        assert memo.get(b"small") == (None, math.inf)
        assert memo.used == 5


@st.composite
def soft_pattern(draw):
    # soft values on a coarse grid with many at exactly 1.0, as after
    # clipping, or all equal, as when every flipped value saturates
    values = st.one_of(st.just(1.0), st.integers(50, 60).map(lambda k: k / 100))
    size = draw(st.integers(1, 40))
    if draw(st.booleans()):
        z = np.full(size, draw(values))
    else:
        z = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    flipped = np.flatnonzero(z >= 0.5)
    picked = draw(st.lists(st.sampled_from(flipped.tolist()), unique=True)) if len(flipped) else []
    return z, np.array(sorted(picked), dtype=np.intp), draw(st.integers(0, 45))


class TestTopPairs:
    @settings(max_examples=300, deadline=None)
    @given(soft_pattern())
    def test_partition_equals_stable_argsort(self, case):
        z, flipped, B = case
        expected = flipped[np.argsort(-z[flipped], kind="stable")[:B]]
        assert np.array_equal(_top_pairs(flipped, z, B), expected)

    @settings(max_examples=300, deadline=None)
    @given(soft_pattern(), st.integers(1, 8))
    def test_scan_in_blocks_of_few_entries(self, case, entries):
        z, flipped, B = case
        expected = flipped[np.argsort(-z[flipped], kind="stable")[:B]]
        with mock.patch.object(attacks, "Z_BLOCK_BYTES", 8 * entries):
            assert np.array_equal(_top_pairs(flipped, z, B), expected)

    def test_ties_at_the_cut_keep_index_order(self):
        z = np.array([1.0, 0.7, 1.0, 1.0, 0.9, 1.0])
        flipped = np.arange(6)
        assert _top_pairs(flipped, z, 3).tolist() == [0, 2, 3]
        assert _top_pairs(flipped, z, 5).tolist() == [0, 2, 3, 5, 4]
        assert _top_pairs(flipped, z, 9).tolist() == [0, 2, 3, 5, 4, 1]

    @pytest.mark.parametrize("B, expected", [(0, []), (4, [1, 2, 4, 5]), (6, [1, 2, 4, 5, 6, 8]),
                                             (9, [1, 2, 4, 5, 6, 8])])
    def test_all_tied(self, B, expected):
        flipped = np.array([1, 2, 4, 5, 6, 8])
        assert _top_pairs(flipped, np.ones(9), B).tolist() == expected


class TestPairAddressing:
    # upper_pairs' strips hold 8192 // n rows: at n = 97 one full strip and a
    # partial one, at n = 300 eleven full ones and a partial one
    @pytest.mark.parametrize("n", [1, 2, 9, 40, 97, 300])
    def test_mask_lists_pairs_in_triu_order(self, n):
        """upper_pairs gathers and set_pairs writes pair vectors in
        np.triu_indices order, whole or by blocks of rows, binary or relaxed."""
        g = generate_er(n, 0.3, n)
        iu = np.triu_indices(n, 1)
        a0, _, _ = _pair_space(g, AttackConfig(budget_max=1, targets=(0,)))
        assert np.array_equal(a0, g.dense()[iu])
        rng = np.random.default_rng(n)
        for M in (rng.random((n, n)), (rng.random((n, n)) < 0.3).astype(float)):
            pairs = np.empty(len(iu[0]))
            assert upper_pairs(M, pairs, 0) == len(pairs)
            assert np.array_equal(pairs, M[iu])
            k, pairs[:] = 0, np.nan
            for s in range(0, n, 40):  # the gradient's gather, by row blocks s:s+40
                k = upper_pairs(M[s:s + 40, s:], pairs, k)
            assert k == len(pairs) and np.array_equal(pairs, M[iu])
            adj = gradients.Adjacency(g.dense())
            adj.set_pairs(M[iu])
            assert np.array_equal(adj.A[iu], M[iu]) and np.array_equal(adj.A, adj.A.T)
            assert np.array_equal(np.diag(adj.A), np.zeros(n))
            assert np.array_equal(adj.N, adj.A.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60))
    def test_index_to_nodes_round_trips(self, n):
        k = np.arange(n * (n - 1) // 2)
        p, q = pair_nodes(k, n)
        iu, ju = np.triu_indices(n, 1)
        assert np.array_equal(p, iu) and np.array_equal(q, ju)
        assert np.array_equal(pair_index(p, q, n), k)

    def test_index_near_2_31_round_trips(self):
        # p (2n - p - 1) reaches 2^32 here, past int32
        n = 65_536
        k = np.array([0, 2**31 - 2**20 - 1, n * (n - 1) // 2 - 1])
        p, q = pair_nodes(k, n)
        assert [p[-1], q[-1]] == [n - 2, n - 1]
        assert np.all(p < q) and np.all(q < n)
        assert [a * (2 * n - a - 1) // 2 + b - a - 1 for a, b in zip(p.tolist(), q.tolist())] == k.tolist()
        assert np.array_equal(pair_index(p, q, n), k)


class TestPeakMemory:
    """Under tracemalloc, each attack on BA(600, 5) peaks below its design
    plus 10 %: two n x n float64 matrices (the adjacency and its square),
    the workspace's two row blocks, and the bytes per pair each attack
    lists below."""

    n = 600
    # per pair: a0, sign_p and frozen_p (3 bytes) plus, for
    #   gradmax: movable, the gain vector, valid and ~valid;
    #   continuous: the iterate's two pair vectors;
    #   binarized: z, gsp, three flip patterns, their comparison, at most
    #   every pair flipped as indices, and the memo key, packed to a bit a
    #   pair (1 byte here); plus the memo itself, MEMO_BYTES
    CASES = {
        "gradmax": ("gradmax", dict(budget_max=5), 3 + 1 + 8 + 1 + 1),
        "continuous": ("continuous", dict(budget_max=5, iters=3, lr=1e-4), 3 + 8 + 8),
        "binarized": ("binarized", dict(budget_max=5, iters=5), 3 + 8 + 8 + 3 + 1 + 8 + 1),
        # steps of 100 drive the soft values to 0 or 1
        "binarized-saturating": ("binarized", dict(budget_max=5, iters=5, lr=100.0),
                                 3 + 8 + 8 + 3 + 1 + 8 + 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_peak_within_design(self, case, monkeypatch):
        attack, kwargs, per_pair = self.CASES[case]
        n = self.n
        g = generate_ba(n, 5, 0)
        cfg = AttackConfig(targets=tuple(rank_top_k(score_graph(g), 5)), lambdas=(1e-3,), **kwargs)
        blocks = 2 * 8 * gradients._block_rows(n) * n
        assert blocks // 2 < 8 * n * n  # tighter than an n x n G and one block
        design = 2 * 8 * n * n + blocks + per_pair * n * (n - 1) // 2
        if attack == "binarized":
            design += attacks.MEMO_BYTES
        tracemalloc.start()
        try:
            ATTACKS[attack](g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * design
        if case == "binarized-saturating":
            tied = []  # flipped soft values at 1.0 each time the top pairs are taken
            inner = attacks._top_pairs

            def counted(flipped, z, B):
                tied.append(int(np.sum(z[flipped] == 1.0)))
                return inner(flipped, z, B)

            monkeypatch.setattr(attacks, "_top_pairs", counted)
            ATTACKS[attack](g, cfg)
            assert max(tied) > n * (n - 1) // 20  # a tenth of the pairs tie at 1.0


class TestConfigValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("iters", -1, "iters must be >= 0, got -1"),
        ("lr", 0.0, "lr must be finite and > 0, got 0.0"),
        ("lr", -0.5, "lr must be finite and > 0, got -0.5"),
        ("lr", float("nan"), "lr must be finite and > 0, got nan"),
        ("lr", float("inf"), "lr must be finite and > 0, got inf"),
        ("lambdas", (1e-3, -1e-4), "every lambda must be finite and >= 0, got [0.001, -0.0001]"),
        ("lambdas", (float("nan"),), "every lambda must be finite and >= 0, got [nan]"),
        ("lambdas", (float("inf"),), "every lambda must be finite and >= 0, got [inf]"),
    ])
    def test_unusable_hyperparameters_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttackConfig(budget_max=1, targets=(0,), **{field: value})

    def test_zero_iterations_and_zero_lambda_accepted(self):
        AttackConfig(budget_max=1, targets=(0,), iters=0, lambdas=(0.0,))


class TestTargetValidation:
    def test_repeated_ids_rejected(self):
        with pytest.raises(ValueError, match=r"target ids \[1, 3\] repeat"):
            AttackConfig(budget_max=1, targets=(3, 1, 3, 2, 1))

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_ids_outside_the_graph_named(self, attack):
        g = generate_er(12, 0.3, 1)
        cfg = AttackConfig(budget_max=1, targets=(-1, 2, 12, 70), iters=5)
        with pytest.raises(ValueError, match=r"^targets \[-1, 12, 70\] out of range for a graph of 12 nodes$"):
            ATTACKS[attack](g, cfg)


class TestTauAs:
    def test_identity_zero(self):
        g = generate_er(15, 0.3, 1)
        r = score_graph(g)
        assert tau_as(r, r, list(top_target(g))) == pytest.approx(0.0)

    def test_full_reduction_one(self):
        g = generate_er(15, 0.3, 1)
        r = score_graph(g)
        t = list(top_target(g))
        zeroed = score_graph(g)
        zeroed.scores[t] = 0.0
        assert tau_as(r, zeroed, t) == pytest.approx(1.0)

    def test_reference_values(self):
        # 8.4 -> 0.29 gives 0.9655
        g = Graph(2, [(0, 1)])
        r0 = score_graph(g)
        r0.scores[0] = 8.4
        r1 = score_graph(g)
        r1.scores[0] = 0.29
        assert tau_as(r0, r1, [0]) == pytest.approx(0.9655, abs=1e-4)

    def test_zero_baseline(self):
        g = Graph(3, [(0, 1), (1, 2)])
        r = score_graph(g)
        r.scores[:] = 0.0
        with pytest.raises(ZeroBaseline):
            tau_as(r, r, [0])


class TestPlanSerialization:
    def test_json_round_trip(self, tmp_path):
        g = generate_er(10, 0.3, 2)
        plan = grad_max_search(g, AttackConfig(budget_max=2, targets=top_target(g)))
        path = tmp_path / "plan.json"
        plan.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == 1
        assert loaded["attack"] == "gradmax"
        assert loaded["tau_trace"] == plan.tau_trace

    def test_dict_round_trip(self, tmp_path):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
        # delete-only runs out of moves after one flip: budgets 2, 3 fail with NaN traces
        plan = grad_max_search(g, AttackConfig(budget_max=3, targets=(0,), allow_add=False))
        assert plan.flips_by_budget and plan.failed_budgets and plan.notes
        path = tmp_path / "plan.json"
        plan.save_json(path)
        loaded = json.loads(path.read_text())
        restored = PerturbationPlan.from_dict(loaded)
        assert restored.flips_by_budget == plan.flips_by_budget
        assert restored.failed_budgets == plan.failed_budgets
        assert restored.to_dict() == loaded

    def test_from_minimal_dict(self):
        plan = PerturbationPlan.from_dict({
            "schema_version": 1, "targets": [3, 1],
            "flips_by_budget": {"2": [{"i": 0, "j": 1, "action": "add"},
                                      {"i": 1, "j": 3, "action": "delete"}],
                                "1": [{"i": 0, "j": 1, "action": "add"}]},
        })
        assert plan.targets == (3, 1)
        assert plan.budget_max == 2
        assert plan.flips_by_budget[2] == [EdgeFlip(0, 1, FlipAction.ADD),
                                           EdgeFlip(1, 3, FlipAction.DELETE)]
        assert plan.score_trace == plan.tau_trace == plan.notes == []
        assert plan.failed_budgets == {}

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema_version"):
            PerturbationPlan.from_dict({"targets": [0], "flips_by_budget": {}})

    def test_csv_schema(self, tmp_path):
        g = generate_er(10, 0.3, 2)
        plan = grad_max_search(g, AttackConfig(budget_max=1, targets=top_target(g)))
        path = tmp_path / "trace.csv"
        plan.save_csv(path, num_edges=g.num_edges())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "budget,attack_power,S_T,tau_as"
        assert len(lines) == 3  # header + budgets 0..1
