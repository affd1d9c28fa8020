"""Structural poisoning attacks against the egonet-power-law detector.

Three attacks share a common output shape: an ordered flip list per
budget b = 1..B plus true-score / surrogate / decreasing-percentage
traces. GradMaxSearch flips greedily by largest feasible gradient;
ContinuousA relaxes the adjacency, runs projected gradient descent and
rounds the largest deviations; BinarizedAttack optimizes a soft decision
vector over node pairs with straight-through gradients through a hard
binarization, evaluating the objective on the discrete graph every
iteration.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import gradients, oddball
from .errors import DegenerateFit, IsolatedTarget, NodeVanished, ZeroBaseline
from .graph import EdgeFlip, FlipAction, Graph, derive_rng

DEFAULT_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class AttackConfig:
    budget_max: int
    targets: tuple[int, ...]
    seed: int = 0
    lr: float = 0.01
    iters: int = 500
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    allow_add: bool = True
    allow_delete: bool = True

    def __post_init__(self):
        if self.budget_max < 0:
            raise ValueError("budget_max must be >= 0")
        if not self.targets:
            raise ValueError("target set must be nonempty")
        if not (self.allow_add or self.allow_delete):
            raise ValueError("at least one of allow_add/allow_delete required")


@dataclass
class PerturbationPlan:
    """Attack output: per-budget flip lists plus evaluation traces.

    Trace index b holds the value after the budget-b plan is applied;
    index 0 is the clean-graph baseline (tau_trace[0] = 0). Budgets that
    could not be resolved appear in failed_budgets and carry NaN traces.
    """

    attack: str
    budget_max: int
    targets: tuple[int, ...]
    flips_by_budget: dict[int, list[EdgeFlip]]
    score_trace: list[float]
    surrogate_trace: list[float]
    tau_trace: list[float]
    failed_budgets: dict[int, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "attack": self.attack,
            "budget_max": self.budget_max,
            "targets": list(self.targets),
            "flips_by_budget": {
                str(b): [{"i": f.i, "j": f.j, "action": f.action.value} for f in flips]
                for b, flips in self.flips_by_budget.items()
            },
            "score_trace": self.score_trace,
            "surrogate_trace": self.surrogate_trace,
            "tau_trace": self.tau_trace,
            "failed_budgets": {str(b): r for b, r in self.failed_budgets.items()},
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationPlan":
        """Inverse of ``to_dict``. Only ``schema_version``, ``targets`` and
        ``flips_by_budget`` are required; absent traces default to empty."""
        if data.get("schema_version") != 1:
            raise ValueError(f"unsupported plan schema_version {data.get('schema_version')!r}")
        flips_by_budget = {
            int(b): [EdgeFlip(f["i"], f["j"], FlipAction(f["action"])) for f in flips]
            for b, flips in data["flips_by_budget"].items()
        }
        return cls(
            attack=data.get("attack", ""),
            budget_max=data.get("budget_max", max(flips_by_budget, default=0)),
            targets=tuple(data["targets"]),
            flips_by_budget=flips_by_budget,
            score_trace=list(data.get("score_trace", [])),
            surrogate_trace=list(data.get("surrogate_trace", [])),
            tau_trace=list(data.get("tau_trace", [])),
            failed_budgets={int(b): r for b, r in data.get("failed_budgets", {}).items()},
            notes=list(data.get("notes", [])),
        )

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def save_csv(self, path, num_edges: int | None = None) -> None:
        """Per-budget rows: budget, attack_power, S_T, tau_as."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["budget", "attack_power", "S_T", "tau_as"])
            for b in range(len(self.score_trace)):
                power = b / num_edges if num_edges else ""
                writer.writerow([b, power, self.score_trace[b], self.tau_trace[b]])


def tau_as(clean: oddball.AnomalyReport, poisoned: oddball.AnomalyReport, targets) -> float:
    """Decreasing percentage of the targets' true anomaly-score sum."""
    s0 = clean.target_sum(targets)
    if s0 == 0.0:
        raise ZeroBaseline("clean target score sum is zero")
    return (s0 - poisoned.target_sum(targets)) / s0


def _finalize_plan(graph: Graph, config: AttackConfig, attack: str,
                   flips_by_budget: dict[int, list[EdgeFlip]],
                   failed: dict[int, str] | None = None,
                   notes: list[str] | None = None) -> PerturbationPlan:
    """Evaluate true scores, surrogates and tau_as for every budget."""
    targets = list(config.targets)
    clean_feats = oddball.ego_features(graph)
    s0 = oddball.anomaly_scores(clean_feats, oddball.fit_ols(clean_feats)).target_sum(targets)
    surr0 = oddball.surrogate_objective(clean_feats, targets)
    B = config.budget_max
    score_trace = [s0] + [math.nan] * B
    surr_trace = [surr0] + [math.nan] * B
    tau_trace = [0.0] + [math.nan] * B
    failed = dict(failed or {})
    flips_by_budget = dict(flips_by_budget)
    for b, flips in sorted(flips_by_budget.items()):
        feats = oddball.ego_features(graph, flips)
        isolated = [t for t in targets if feats.N[t] == 0]
        if isolated:
            failed[b] = f"plan isolates target nodes {isolated}; budget rejected"
            del flips_by_budget[b]
            continue
        report = oddball.anomaly_scores(feats, oddball.fit_ols(feats))
        score_trace[b] = report.target_sum(targets)
        surr_trace[b] = oddball.surrogate_objective(feats, targets)
        tau_trace[b] = (s0 - score_trace[b]) / s0 if s0 != 0 else math.nan
    return PerturbationPlan(
        attack=attack, budget_max=B, targets=tuple(targets),
        flips_by_budget=flips_by_budget, score_trace=score_trace,
        surrogate_trace=surr_trace, tau_trace=tau_trace,
        failed_budgets=failed, notes=notes or [],
    )


# -- GradMaxSearch -------------------------------------------------------


def grad_max_search(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Greedy flip of the feasible pair with largest gradient magnitude.

    Per iteration the gradient field is computed on the current binary
    graph; pairs are invalidated when their gradient sign does not
    justify the only feasible move, when they were already modified, or
    when deleting would isolate an endpoint. Ties break lexicographic.
    """
    n = graph.n
    targets = list(config.targets)
    adj = graph.adjacency.astype(float)
    degrees = graph.degrees().astype(int)
    modified = np.zeros((n, n), dtype=bool)
    flips: list[EdgeFlip] = []
    notes: list[str] = []
    iu, ju = np.triu_indices(n, k=1)

    for _ in range(config.budget_max):
        G = gradients.surrogate_gradient(adj, targets)
        is_edge = adj > 0.5
        # adding a non-edge needs negative gradient; deleting an edge positive
        valid = np.zeros((n, n), dtype=bool)
        if config.allow_add:
            valid |= (~is_edge) & (G < 0)
        if config.allow_delete:
            deletable = is_edge & (G > 0)
            endpoint_deg = np.minimum(degrees[:, None], degrees[None, :])
            deletable &= endpoint_deg > 1  # never create singleton nodes
            valid |= deletable
        valid &= ~modified
        np.fill_diagonal(valid, False)

        vals = np.where(valid[iu, ju], np.abs(G[iu, ju]), -np.inf)
        if not np.isfinite(vals.max()):
            notes.append(f"NoValidMove after {len(flips)} flips; plan truncated")
            break
        best = int(np.argmax(vals))  # argmax returns first max: lexicographic
        p, q = int(iu[best]), int(ju[best])
        if is_edge[p, q]:
            flips.append(EdgeFlip(p, q, FlipAction.DELETE))
            adj[p, q] = adj[q, p] = 0.0
            degrees[p] -= 1
            degrees[q] -= 1
        else:
            flips.append(EdgeFlip(p, q, FlipAction.ADD))
            adj[p, q] = adj[q, p] = 1.0
            degrees[p] += 1
            degrees[q] += 1
        modified[p, q] = modified[q, p] = True

    flips_by_budget = {b: flips[:b] for b in range(1, len(flips) + 1)}
    failed = {b: "no valid move" for b in range(len(flips) + 1, config.budget_max + 1)}
    return _finalize_plan(graph, config, "gradmax", flips_by_budget, failed, notes)


# -- ContinuousA ---------------------------------------------------------


def continuous_a(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Projected gradient descent on the fully relaxed adjacency.

    After config.iters steps, pairs are ranked by |relaxed - original|
    descending (ties lexicographic) and the top b become the budget-b
    flips.
    """
    n = graph.n
    targets = list(config.targets)
    A0 = graph.adjacency.astype(float)
    A = A0.copy()
    frozen = np.zeros((n, n), dtype=bool)
    if not config.allow_add:
        frozen |= A0 < 0.5
    if not config.allow_delete:
        frozen |= A0 > 0.5
    objective = []
    notes = []
    prev = A
    for step in range(config.iters):
        try:
            G, val = gradients.surrogate_gradient(A, targets, return_value=True)
        except (IsolatedTarget, NodeVanished, DegenerateFit) as exc:
            # the relaxed objective is undefined past this iterate; keep the
            # last valid point rather than silently repairing the descent
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
        base = max(abs(tail[0]), 1e-12)
        if abs(tail[-1] - tail[0]) / base > 1e-4:
            msg = "NonConvergence: objective still moving over the last 10% of iterations"
            warnings.warn(msg)
            notes.append(msg)

    iu, ju = np.triu_indices(n, k=1)
    diff = np.abs(A - A0)[iu, ju]
    diff[frozen[iu, ju]] = -1.0
    order = np.lexsort((ju, iu, -diff))  # descending diff, ties lexicographic
    flips_by_budget: dict[int, list[EdgeFlip]] = {}
    for b in range(1, config.budget_max + 1):
        flips = []
        for k in order[:b]:
            p, q = int(iu[k]), int(ju[k])
            action = FlipAction.DELETE if A0[p, q] > 0.5 else FlipAction.ADD
            flips.append(EdgeFlip(p, q, action))
        flips_by_budget[b] = flips
    return _finalize_plan(graph, config, "continuous", flips_by_budget, notes=notes)


# -- BinarizedAttack -----------------------------------------------------


@dataclass
class _Snapshot:
    lam: float
    step: int
    surrogate: float
    flip_count: int
    top: np.ndarray  # pair indices of the top-B flipped entries, soft value descending


def binarized_attack(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Straight-through optimization of paired soft/discrete flip variables.

    For each penalty weight lambda, a soft vector z in [0,1] with one entry
    per unordered pair (lexicographic ``np.triu_indices`` order) is run
    through projected gradient descent; every forward pass binarizes z
    into the discrete flip pattern and evaluates surrogate + lambda *
    ||z||_1 on the flipped 0/1 adjacency. That adjacency is kept across
    steps and only the pairs that entered or left the pattern are toggled.
    While the pattern holds, the adjacency is the same, so the surrogate
    gradient (or the failure it raised) is reused instead of recomputed.
    Extraction scans all snapshots across all lambdas: for budget b, the
    snapshot of minimum surrogate among those with exactly b flipped
    entries supplies the flips; if no snapshot hit b exactly, the best one
    with more than b flipped entries is truncated to its top-b soft values.
    """
    if not config.lambdas:
        raise ValueError("BinarizedAttack requires a nonempty lambda set")
    n = graph.n
    targets = list(config.targets)
    A0 = graph.adjacency.astype(float)
    iu, ju = np.triu_indices(n, k=1)
    a0 = A0[iu, ju]
    sign_p = 1.0 - 2.0 * a0  # dA/dz through the straight-through estimator
    frozen_p = np.zeros(len(a0), dtype=bool)
    if not config.allow_add:
        frozen_p |= a0 < 0.5
    if not config.allow_delete:
        frozen_p |= a0 > 0.5

    B = config.budget_max
    snapshots: list[_Snapshot] = []

    def pair_gradient(A: np.ndarray) -> tuple[np.ndarray | None, float]:
        # the n x n field is dropped on return, so at most one is alive
        try:
            G, surr = gradients.surrogate_gradient(A, targets, return_value=True)
        except (IsolatedTarget, DegenerateFit, NodeVanished):
            # flip pattern isolated a target; mark the snapshot unusable
            # and let the penalty pull the soft variables back down
            return None, math.inf
        return G[iu, ju] * sign_p, surr

    for lam in config.lambdas:
        rng = derive_rng(config.seed, "binarized", repr(float(lam)))
        z = (0.25 + rng.uniform(0.0, 0.05, size=(n, n)))[iu, ju]
        z[frozen_p] = 0.0
        A = A0.copy()
        pattern = np.zeros(0, dtype=np.intp)
        gsp, surr = pair_gradient(A)
        for step in range(config.iters + 1):
            flipped = np.flatnonzero(z >= 0.5)
            if not np.array_equal(flipped, pattern):
                changed = np.setxor1d(pattern, flipped, assume_unique=True)
                p, q = iu[changed], ju[changed]
                A[p, q] = A[q, p] = 1.0 - A[p, q]
                pattern = flipped
                gsp, surr = pair_gradient(A)
            top = flipped[np.argsort(-z[flipped], kind="stable")[:B]]
            snapshots.append(_Snapshot(lam, step, surr, len(flipped), top))
            if step == config.iters:
                break
            grad = lam * np.sign(z) if gsp is None else gsp + lam * np.sign(z)
            grad[frozen_p] = 0.0
            z = np.clip(z - config.lr * grad, 0.0, 1.0)

    flips_by_budget: dict[int, list[EdgeFlip]] = {}
    failed: dict[int, str] = {}
    for b in range(1, B + 1):
        # prefer snapshots whose flipped set has exactly b entries: their
        # recorded surrogate is the true value of the extracted plan; fall
        # back to larger flipped sets truncated to their top-b soft values
        best: _Snapshot | None = None
        for snap in snapshots:
            if snap.flip_count == b and math.isfinite(snap.surrogate):
                if best is None or snap.surrogate < best.surrogate:
                    best = snap
        if best is None:
            for snap in snapshots:
                if snap.flip_count >= b and math.isfinite(snap.surrogate):
                    if best is None or snap.surrogate < best.surrogate:
                        best = snap
        if best is None:
            failed[b] = f"no snapshot reached {b} flipped entries"
            continue
        flips = []
        for k in best.top[:b]:
            p, q = int(iu[k]), int(ju[k])
            action = FlipAction.DELETE if A0[p, q] > 0.5 else FlipAction.ADD
            flips.append(EdgeFlip(p, q, action))
        flips_by_budget[b] = flips
    return _finalize_plan(graph, config, "binarized", flips_by_budget, failed)


ATTACKS = {
    "gradmax": grad_max_search,
    "continuous": continuous_a,
    "binarized": binarized_attack,
}
