import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadpoison import gradients
from gadpoison.attacks import (
    AttackConfig,
    PerturbationPlan,
    _finalize_plan,
    _top_pairs,
    binarized_attack,
    continuous_a,
    grad_max_search,
    tau_as,
)
from gadpoison.errors import DegenerateFit, IsolatedTarget, NodeVanished, ZeroBaseline
from gadpoison.graph import EdgeFlip, FlipAction, apply_flips, derive_rng, generate_ba, generate_er
from gadpoison.oddball import ego_features, rank_top_k, score_graph, surrogate_objective
from test_graph import graph_from_edges


def top_target(graph):
    return tuple(rank_top_k(score_graph(graph), 1))


def all_single_flips(graph):
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            action = FlipAction.DELETE if graph.has_edge(i, j) else FlipAction.ADD
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
        g = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        targets = (1,)
        plan = grad_max_search(
            g, AttackConfig(budget_max=3, targets=targets, allow_add=False)
        )
        for flips in plan.flips_by_budget.values():
            poisoned = apply_flips(g, flips)
            assert poisoned.degree(1) >= 1

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
            assert np.abs(g.adjacency.astype(int) - poisoned.adjacency.astype(int)).sum() / 2 == b

    def test_deterministic(self):
        g = generate_er(12, 0.3, 11)
        cfg = AttackConfig(budget_max=3, targets=top_target(g))
        assert grad_max_search(g, cfg).to_dict() == grad_max_search(g, cfg).to_dict()


class TestContinuousA:
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
        from gadpoison import gradients

        g = generate_er(10, 0.3, 6)
        targets = list(top_target(g))
        A = g.adjacency.astype(float)
        for _ in range(50):
            G = gradients.surrogate_gradient(A, targets)
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
    A0 = graph.adjacency.astype(float)
    frozen = np.zeros((n, n), dtype=bool)
    if not config.allow_add:
        frozen |= A0 < 0.5
    if not config.allow_delete:
        frozen |= A0 > 0.5
    A = prev = A0.copy()
    objective, notes = [], []
    for step in range(config.iters):
        try:
            G, val = gradients.surrogate_gradient(A, targets, return_value=True)
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
            A0 = g.adjacency.astype(float)
            Z = np.ones_like(A0)
            for f in flips:
                Z[f.i, f.j] = Z[f.j, f.i] = -1
            reconstructed = (A0 - 0.5) * Z + 0.5
            assert np.array_equal(reconstructed, apply_flips(g, flips).adjacency)

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
                g.adjacency.astype(int) - apply_flips(g, flips).adjacency.astype(int)
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
    A0 = graph.adjacency.astype(float)
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
                G, surr = gradients.surrogate_gradient(A, targets, return_value=True)
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

    @pytest.mark.parametrize("case", ["er-two-lambdas", "ba-isolating"])
    def test_one_gradient_per_distinct_consecutive_pattern(self, case, monkeypatch):
        g, cfg = oracle_case(case)
        calls = []  # (adjacency bytes, raised nothing) per surrogate_gradient call
        inner = gradients.surrogate_gradient

        def counted(A, targets, **kwargs):
            try:
                out = inner(A, targets, **kwargs)
            except (IsolatedTarget, DegenerateFit, NodeVanished):
                calls.append((A.tobytes(), False))
                raise
            calls.append((A.tobytes(), True))
            return out

        monkeypatch.setattr(gradients, "surrogate_gradient", counted)
        dense_binarized_attack(g, cfg)
        steps = cfg.iters + 1
        assert len(calls) == steps * len(cfg.lambdas)
        # collapse runs of the same adjacency within each lambda-run
        expected = []
        for start in range(0, len(calls), steps):
            run = calls[start:start + steps]
            expected += [c for k, c in enumerate(run) if k == 0 or c[0] != run[k - 1][0]]
        calls.clear()
        binarized_attack(g, cfg)
        assert calls == expected
        assert len(calls) < steps * len(cfg.lambdas)
        if case == "ba-isolating":
            assert not all(ok for _, ok in calls)


@st.composite
def soft_pattern(draw):
    # soft values on a coarse grid with many at exactly 1.0, as after clipping
    values = st.one_of(st.just(1.0), st.integers(50, 60).map(lambda k: k / 100))
    z = np.array(draw(st.lists(values, min_size=1, max_size=40)))
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

    def test_ties_at_the_cut_keep_index_order(self):
        z = np.array([1.0, 0.7, 1.0, 1.0, 0.9, 1.0])
        flipped = np.arange(6)
        assert _top_pairs(flipped, z, 3).tolist() == [0, 2, 3]
        assert _top_pairs(flipped, z, 5).tolist() == [0, 2, 3, 5, 4]
        assert _top_pairs(flipped, z, 9).tolist() == [0, 2, 3, 5, 4, 1]


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
        g = graph_from_edges(2, [(0, 1)])
        r0 = score_graph(g)
        r0.scores[0] = 8.4
        r1 = score_graph(g)
        r1.scores[0] = 0.29
        assert tau_as(r0, r1, [0]) == pytest.approx(0.9655, abs=1e-4)

    def test_zero_baseline(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
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
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
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
