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
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import gradients, oddball
from .errors import DegenerateFit, IsolatedTarget, NodeVanished, ZeroBaseline
from .graph import EdgeFlip, FlipAction, Graph, check_dense_fits, derive_rng

DEFAULT_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1)
# bytes of remembered gradients, and of failed patterns' keys, that one
# BinarizedAttack call may hold; past n = 725 a pair vector exceeds it
MEMO_BYTES = 2 << 20
# bytes of soft values BinarizedAttack scans for its top pairs at a time
Z_BLOCK_BYTES = 1 << 20
# a pattern change of more than RECOUNT_AT * n^2 pairs rewrites every pair
# and recounts the square with one blocked product instead of toggling:
# toggling in place and recounting broke even at 5, 28, 71, 263 and 1365
# pairs for n = 100, 200, 300, 500 and 1000 (2 cores, OpenBLAS), which
# n^2 / 1000 follows within a factor of 2
RECOUNT_AT = 1e-3


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
        _check_distinct(self.targets)
        if not (self.allow_add or self.allow_delete):
            raise ValueError("at least one of allow_add/allow_delete required")
        if self.iters < 0:
            raise ValueError(f"iters must be >= 0, got {self.iters}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambdas):
            raise ValueError(f"every lambda must be finite and >= 0, got {list(self.lambdas)}")


def _check_distinct(targets) -> None:
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise ValueError(f"target ids {repeated} repeat")


def _not_ints(values) -> list:
    # bool is an int subclass, but true/false in a plan are not node ids
    return [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]


def check_targets(targets, n: int, name: str = "targets") -> None:
    """Reject target ids that are not integers, that repeat or that are
    not nodes of an n-node graph; ``name`` labels the ids out of range."""
    not_int = _not_ints(targets)
    if not_int:
        raise ValueError(f"target ids {not_int} are not integers")
    _check_distinct(targets)
    outside = [t for t in targets if not 0 <= t < n]
    if outside:
        raise ValueError(f"{name} {outside} out of range for a graph of {n} nodes")


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
        ``flips_by_budget`` are required; absent traces default to empty.
        Rejects empty targets, budget keys that are not integers >= 1 or
        that name one budget twice, and flip ids that are not integers."""
        if data.get("schema_version") != 1:
            raise ValueError(f"unsupported plan schema_version {data.get('schema_version')!r}")
        if not data["targets"]:
            raise ValueError("target set must be nonempty")
        if not isinstance(data["flips_by_budget"], dict):
            raise ValueError("flips_by_budget must be an object mapping budgets to flip lists")
        flips_by_budget = {}
        for key, flips in data["flips_by_budget"].items():
            try:
                b = int(key)
            except ValueError:
                b = 0
            if b < 1:
                raise ValueError(f"flips_by_budget key {key!r} is not an integer >= 1")
            if b in flips_by_budget:
                raise ValueError(f"flips_by_budget keys name budget {b} twice")
            not_int = _not_ints([f[c] for f in flips for c in ("i", "j")])
            if not_int:
                raise ValueError(f"flips_by_budget[{key!r}] flip ids {not_int} are not integers")
            flips_by_budget[b] = [EdgeFlip(f["i"], f["j"], FlipAction(f["action"])) for f in flips]
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

    def save_csv(self, path, num_edges: int) -> None:
        """Per-budget rows: budget, attack_power, S_T, tau_as."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["budget", "attack_power", "S_T", "tau_as"])
            for b in range(len(self.score_trace)):
                writer.writerow([b, b / num_edges, self.score_trace[b], self.tau_trace[b]])


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


# -- the pair space shared by the attacks ------------------------------


def _pair_space(graph: Graph, config: AttackConfig):
    """The pair vectors ``a0, sign_p, frozen_p`` of ``graph``, in the
    order of ``gradients.pair_index``: per unordered pair, the clean 0/1
    adjacency value a0, the sign dA/d(flip) of the pair's only move (+1
    adds, -1 deletes) and whether the config forbids that move, as uint8,
    int8 and bool, 3 bytes a pair.
    """
    check_targets(config.targets, graph.n)
    check_dense_fits(graph.n)  # every attack goes dense: fail before the pair vectors
    n = graph.n
    a0 = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    u, v = np.array(graph.edges(), dtype=np.int64).reshape(-1, 2).T
    a0[gradients.pair_index(u, v, n)] = 1
    frozen_p = np.zeros(len(a0), dtype=bool)
    if not config.allow_add:
        frozen_p |= a0 == 0
    if not config.allow_delete:
        frozen_p |= a0 == 1
    return a0, 1 - 2 * a0.astype(np.int8), frozen_p


def _pair_flips(pair_idx, a0: np.ndarray, n: int) -> list[EdgeFlip]:
    """The flips of the given pairs, in the given order, each away from
    the pair's clean state a0."""
    p, q = gradients.pair_nodes(pair_idx, n)
    return [EdgeFlip(i, j, FlipAction.DELETE if a0[k] else FlipAction.ADD)
            for i, j, k in zip(p.tolist(), q.tolist(), pair_idx)]


# -- GradMaxSearch -------------------------------------------------------


def grad_max_search(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Greedy flip of the feasible pair with largest gradient magnitude.

    Per iteration the gradient field is computed on the current binary
    graph; pairs are invalidated when their gradient sign does not
    justify the only feasible move, when they were already modified, or
    when deleting would isolate an endpoint. Ties break lexicographic.
    """
    n = graph.n
    # a flipped pair stops being movable; pairs flip at most once, so a0
    # stays the current state of every open pair
    a0, sign_p, frozen = _pair_space(graph, config)
    movable = ~frozen
    edges = np.flatnonzero(a0)  # the clean edges, the only deletions
    eu, ev = gradients.pair_nodes(edges, n)
    adj = gradients.Adjacency(graph.dense())
    chosen: list[int] = []
    notes: list[str] = []
    gain = np.empty(len(a0))

    for _ in range(config.budget_max):
        gradients.surrogate_gradient(adj, config.targets, gain)
        # the first-order decrease of a pair's flip: adding a non-edge
        # needs a negative gradient, deleting an edge a positive one
        gain *= sign_p
        np.negative(gain, out=gain)
        valid = gain > 0
        valid &= movable
        leaf = adj.N <= 1
        if leaf.any():  # never create singleton nodes
            valid[edges[leaf[eu] | leaf[ev]]] = False
        gain[~valid] = -np.inf
        best = int(np.argmax(gain))  # argmax returns first max: lexicographic
        if not np.isfinite(gain[best]):
            notes.append(f"NoValidMove after {len(chosen)} flips; plan truncated")
            break
        del valid  # freed before the next step's
        adj.toggle(*gradients.pair_nodes([best], n))
        movable[best] = False
        chosen.append(best)

    flips = _pair_flips(chosen, a0, n)
    flips_by_budget = {b: flips[:b] for b in range(1, len(flips) + 1)}
    failed = {b: "no valid move" for b in range(len(flips) + 1, config.budget_max + 1)}
    return _finalize_plan(graph, config, "gradmax", flips_by_budget, failed, notes)


# -- ContinuousA ---------------------------------------------------------


def _descend(A: np.ndarray, a: np.ndarray, frozen: np.ndarray | None,
             config: AttackConfig):
    """ContinuousA's projected gradient steps from A, whose buffer the
    descent takes over, and its pair vector a; ``frozen`` masks the pairs
    that stay put, or is None.

    The iterate's pairs live in two pair vectors that take turns with the
    gradient, and each step rewrites both triangles of A from them, so A
    stays exactly symmetric. Returns the pairs of the last iterate whose
    objective is defined, the objective history and a note if the descent
    stopped early.
    """
    objective, notes = [], []
    g = a.copy()  # the iterate before a: a rollback from the first step keeps a
    adj = gradients.Adjacency(A)
    for step in range(config.iters):
        try:
            val = gradients.surrogate_gradient(adj, config.targets, g)
        except (IsolatedTarget, NodeVanished, DegenerateFit) as exc:
            # the relaxed objective is undefined past this iterate; keep the
            # last valid point rather than silently repairing the descent.
            # A call that raises writes nothing, so g still holds it
            a = g
            notes.append(f"stopped at iteration {step}: {exc}")
            break
        objective.append(val)
        if frozen is not None:
            g[frozen] = 0.0
        g *= config.lr
        np.subtract(a, g, out=g)
        np.clip(g, 0.0, 1.0, out=g)
        a, g = g, a
        adj.set_pairs(a)
    return a, objective, notes


def continuous_a(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Projected gradient descent on the fully relaxed adjacency.

    After config.iters steps, the movable pairs are ranked by
    |relaxed - original| descending (ties lexicographic) and the top b
    become the budget-b flips; budgets past the movable pairs fail.
    """
    n = graph.n
    a0, fp = _pair_space(graph, config)[::2]  # the signs are not needed, nor held
    diff, objective, notes = _descend(graph.dense(), a0.astype(float), fp if fp.any() else None, config)

    if len(objective) >= 10:
        tail = objective[-max(1, len(objective) // 10):]
        base = max(abs(tail[0]), 1e-12)
        if abs(tail[-1] - tail[0]) / base > 1e-4:
            msg = "NonConvergence: objective still moving over the last 10% of iterations"
            warnings.warn(msg)
            notes.append(msg)

    diff -= a0
    np.abs(diff, out=diff)
    diff[fp] = -1.0  # frozen pairs sort last, past the cut
    order = np.argsort(-diff, kind="stable")  # descending diff, ties lexicographic
    flips = _pair_flips(order[:min(config.budget_max, len(fp) - int(fp.sum()))], a0, n)
    flips_by_budget = {b: flips[:b] for b in range(1, len(flips) + 1)}
    failed = {b: "no movable pair left" for b in range(len(flips) + 1, config.budget_max + 1)}
    return _finalize_plan(graph, config, "continuous", flips_by_budget, failed, notes)


# -- BinarizedAttack -----------------------------------------------------


class _GradientMemo:
    """Byte-bounded LRU map from a flip pattern's packed bits to its (gsp,
    surrogate), where gsp is None for a pattern whose objective failed.

    An entry costs its gsp's bytes, or its key's when the pattern failed.
    Storing evicts the least recently used entries until the new one fits;
    one larger than the bound is never stored. Stored gsp arrays are
    read-only.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.entries: OrderedDict[bytes, tuple[np.ndarray | None, float]] = OrderedDict()

    @staticmethod
    def _size(key: bytes, gsp: np.ndarray | None) -> int:
        return len(key) if gsp is None else gsp.nbytes

    def get(self, key: bytes) -> tuple[np.ndarray | None, float] | None:
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def put(self, key: bytes, gsp: np.ndarray | None, surr: float) -> None:
        size = self._size(key, gsp)
        if size > self.limit:
            return
        while self.used + size > self.limit:
            old_key, (old_gsp, _) = self.entries.popitem(last=False)
            self.used -= self._size(old_key, old_gsp)
        if gsp is not None:
            gsp.flags.writeable = False
        self.entries[key] = (gsp, surr)
        self.used += size


def _top_pairs(flipped: np.ndarray, z: np.ndarray, B: int) -> np.ndarray:
    """``flipped[np.argsort(-z[flipped], kind="stable")[:B]]``, sorting only
    the entries above the B-th largest soft value: the first entries equal
    to it follow them in index order, as a stable sort leaves them.

    One gather of the flipped soft values is held, to find that value by
    an in-place partition; the entries above it and the ties are then
    picked Z_BLOCK_BYTES of soft values at a time, at most B of each.
    """
    zf = z[flipped]
    if not 0 < B < len(zf):
        return flipped[np.argsort(-zf, kind="stable")[:B]]
    zf.partition(len(zf) - B)
    kth = zf[len(zf) - B]
    del zf
    above, ties = [], []
    room = B  # at most B - |above| ties are taken, and |above| < B
    step = Z_BLOCK_BYTES // 8
    for start in range(0, len(flipped), step):
        part = flipped[start:start + step]
        zp = z[part]
        above.append(part[zp > kth])
        room -= len(above[-1])
        if room > 0:
            ties.append(part[zp == kth][:room])
            room -= len(ties[-1])
    above = np.concatenate(above)
    above = above[np.argsort(-z[above], kind="stable")]
    return np.concatenate((above, *ties))[:B]


def binarized_attack(graph: Graph, config: AttackConfig) -> PerturbationPlan:
    """Straight-through optimization of paired soft/discrete flip variables.

    For each penalty weight lambda, a soft vector z in [0,1] with one entry
    per unordered pair (in ``gradients.pair_index`` order) is run
    through projected gradient descent; every forward pass binarizes z
    into the discrete flip pattern and evaluates surrogate + lambda *
    ||z||_1 on the flipped 0/1 adjacency. The same adjacency gives the
    same surrogate gradient (or the same failure), so it is computed only
    when the pattern changes to one that a memo of MEMO_BYTES, shared by
    all lambdas, does not hold. Only then is the adjacency, with its
    counts, moved to the pattern: by toggling the pairs that differ, or,
    past RECOUNT_AT * n^2 of them, by rewriting every pair and recounting.
    Every step is a snapshot, across all lambdas in order: for budget b,
    the first snapshot of minimum finite surrogate among those with exactly
    b flipped entries supplies the flips; if no snapshot hit b exactly, the
    best one with more than b flipped entries is truncated to its top-b
    soft values. Both choices are tracked as the steps run, and a step's
    top-B pairs are computed only when it becomes the best for some b.
    """
    if not config.lambdas:
        raise ValueError("BinarizedAttack requires a nonempty lambda set")
    n = graph.n
    # sign_p is dA/dz through the straight-through estimator
    a0, sign_p, frozen_p = _pair_space(graph, config)
    any_frozen = frozen_p.any()
    B = config.budget_max
    # index b: best surrogate so far with exactly / at least b flipped
    # entries, and that snapshot's top-B pair indices, soft value descending
    exact_surr, least_surr = np.full(B + 1, np.inf), np.full(B + 1, np.inf)
    exact_top: list[np.ndarray | None] = [None] * (B + 1)
    least_top: list[np.ndarray | None] = [None] * (B + 1)
    memo = _GradientMemo(MEMO_BYTES)

    def pattern_gradient(pattern: np.ndarray) -> tuple[np.ndarray | None, float]:
        key = np.packbits(pattern).tobytes()  # n(n-1)/16 bytes, one key per pattern
        entry = memo.get(key)
        if entry is None:
            np.not_equal(pattern, shown, out=shown)  # the pairs adj must toggle
            if np.count_nonzero(shown) > RECOUNT_AT * n * n:
                # recounting gives the counts toggling would: they are integers
                adj.set_pairs(a0 ^ pattern)
            else:
                adj.toggle(*gradients.pair_nodes(np.flatnonzero(shown), n))
            np.copyto(shown, pattern)
            gsp = np.empty(len(pattern))
            try:
                surr = gradients.surrogate_gradient(adj, config.targets, gsp)
            except (IsolatedTarget, DegenerateFit, NodeVanished):
                # flip pattern isolated a target; mark the snapshot unusable
                # and let the penalty pull the soft variables back down
                entry = None, math.inf
            else:
                gsp *= sign_p
                entry = gsp, surr
            memo.put(key, *entry)
        return entry

    for lam in config.lambdas:
        adj = grad = None  # free the last run's buffers before this run's
        rng = derive_rng(config.seed, "binarized", repr(float(lam)))
        z = np.empty(len(a0))
        gradients.upper_pairs(rng.uniform(0.0, 0.05, size=(n, n)), z, 0)
        z += 0.25
        z[frozen_p] = 0.0
        adj = gradients.Adjacency(graph.dense())
        grad = adj.work[0]  # the z-step's scratch between gradient calls
        # the flip pattern of this step, of the last step and of adj
        on, pattern, shown = (np.zeros(len(z), dtype=bool) for _ in range(3))
        flipped = np.flatnonzero(pattern)
        gsp, surr = pattern_gradient(pattern)
        for step in range(config.iters + 1):
            np.greater_equal(z, 0.5, out=on)
            if not np.array_equal(on, pattern):
                on, pattern = pattern, on
                flipped = np.flatnonzero(pattern)
                gsp = None  # freed before the next pattern's is computed
                gsp, surr = pattern_gradient(pattern)
            count = len(flipped)
            if math.isfinite(surr):
                # strict < keeps the first of equal minima
                better = 1 + np.flatnonzero(surr < least_surr[1:min(count, B) + 1])
                exact = 0 < count <= B and surr < exact_surr[count]
                if len(better) or exact:
                    top = _top_pairs(flipped, z, B)
                    for b in better:
                        least_surr[b], least_top[b] = surr, top
                    if exact:
                        exact_surr[count], exact_top[count] = surr, top
            if step == config.iters:
                break
            # grad = gsp + lam * sign(z), zeroed where frozen; z -= lr * grad
            # in [0, 1], a block of adj.work at a time. z is never negative,
            # so sign(z) is [z > 0]
            for k in range(0, len(z), len(grad)):
                zk, gk = z[k:k + len(grad)], grad[:len(z) - k]
                np.greater(zk, 0.0, out=gk)
                gk *= lam
                if gsp is not None:
                    gk += gsp[k:k + len(gk)]
                if any_frozen:
                    gk[frozen_p[k:k + len(gk)]] = 0.0
                gk *= config.lr
                np.subtract(zk, gk, out=zk)
                np.clip(zk, 0.0, 1.0, out=zk)

    flips_by_budget: dict[int, list[EdgeFlip]] = {}
    failed: dict[int, str] = {}
    for b in range(1, B + 1):
        # prefer snapshots whose flipped set has exactly b entries: their
        # recorded surrogate is the true value of the extracted plan; fall
        # back to larger flipped sets truncated to their top-b soft values
        top = exact_top[b] if exact_top[b] is not None else least_top[b]
        if top is None:
            failed[b] = f"no snapshot reached {b} flipped entries"
            continue
        flips_by_budget[b] = _pair_flips(top[:b], a0, n)
    return _finalize_plan(graph, config, "binarized", flips_by_budget, failed)


ATTACKS = {
    "gradmax": grad_max_search,
    "continuous": continuous_a,
    "binarized": binarized_attack,
}
