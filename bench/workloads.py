"""Seeded inputs and command sequences for the three benchmark workloads.

Inputs are generated here, independently of the package under test, so a
change to the package cannot change what the benchmark feeds it. Each
workload is a list of CLI invocations run one after another (a closed
loop with one client); only the files written by ``make_inputs`` and the
``--seed`` flag reach the program.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Edge = tuple[int, int]


@dataclass
class Command:
    """One CLI invocation and what the correctness gate checks on it."""

    sub: str                 # subcommand name, e.g. "attack"
    argv: list[str]          # arguments after the program name
    outputs: list[str]       # files it must write, relative to the output dir
    graph: str | None = None  # input graph key; plans and reports are checked against it
    label: str = ""          # short unique name within the sequence

    def __post_init__(self):
        self.label = self.label or self.sub


@dataclass
class Inputs:
    """Files written in set-up plus the edge sets the checks need."""

    paths: dict[str, Path] = field(default_factory=dict)
    edges: dict[str, set[Edge]] = field(default_factory=dict)
    nodes: dict[str, int] = field(default_factory=dict)


def rng_for(seed: int, *tags: str) -> np.random.Generator:
    """Independent stream per (seed, purpose) pair."""
    entropy = [seed] + [zlib.crc32(t.encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> set[Edge]:
    """Preferential attachment from an m-clique: each new node links to m
    distinct existing nodes drawn with probability proportional to degree."""
    edges = {(i, j) for i in range(m) for j in range(i + 1, m)}
    repeated = [i for i in range(m) for _ in range(max(m - 1, 1))]
    for new in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        for node in sorted(chosen):
            edges.add((node, new))
            repeated.append(node)
        repeated.extend([new] * m)
    return edges


def plant_clique(n: int, edges: set[Edge], size: int, rng: np.random.Generator) -> set[Edge]:
    members = sorted(rng.choice(n, size=size, replace=False).tolist())
    return edges | {(a, b) for k, a in enumerate(members) for b in members[k + 1:]}


def write_edges(path: Path, edges: set[Edge]) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))


def neighbor_sets(n: int, edges: set[Edge]) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def oddball_reference(n: int, edges: set[Edge]):
    """Reference OddBall: (N, E, score) per node, from neighbour sets.

    E_i = N_i + triangles through i; the power law ln E = b0 + b1 ln N is
    fitted by least squares over nodes with N >= 1.
    """
    nbrs = neighbor_sets(n, edges)
    N = np.array([len(s) for s in nbrs], dtype=float)
    E = N.copy()
    for u, v in edges:
        common = len(nbrs[u] & nbrs[v])
        E[u] += 0.5 * common
        E[v] += 0.5 * common
    mask = N >= 1
    x, y = np.log(N[mask]), np.log(E[mask])
    b1 = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    b0 = float(y.mean() - b1 * x.mean())
    ehat = np.exp(b0) * N[mask] ** b1
    score = np.zeros(n)
    score[mask] = np.maximum(E[mask], ehat) / np.minimum(E[mask], ehat) * np.log(np.abs(E[mask] - ehat) + 1.0)
    return N, E, score


def random_plan(n: int, edges: set[Edge], targets: list[int], budget: int,
                rng: np.random.Generator) -> list[dict]:
    """Flips that each touch a target, valid in order, isolating no node."""
    nbrs = neighbor_sets(n, edges)
    used: set[Edge] = set()
    flips = []
    for k in range(budget):
        t = targets[k % len(targets)]
        deletable = [v for v in sorted(nbrs[t])
                     if len(nbrs[v]) > 1 and (min(t, v), max(t, v)) not in used]
        if deletable and len(nbrs[t]) > 1 and rng.random() < 0.5:
            v = deletable[int(rng.integers(len(deletable)))]
            action = "delete"
        else:
            while True:
                v = int(rng.integers(n))
                if v != t and v not in nbrs[t] and (min(t, v), max(t, v)) not in used:
                    break
            action = "add"
        pair = (min(t, v), max(t, v))
        used.add(pair)
        if action == "add":
            nbrs[t].add(v)
            nbrs[v].add(t)
        else:
            nbrs[t].discard(v)
            nbrs[v].discard(t)
        flips.append({"i": pair[0], "j": pair[1], "action": action})
    return flips


def _add_input(inputs: Inputs, d: Path, key: str, n: int, edges: set[Edge]) -> None:
    path = d / f"{key}.txt"
    write_edges(path, edges)
    inputs.paths[key] = path
    inputs.edges[key] = edges
    inputs.nodes[key] = n


# -- poison-ba1000 ------------------------------------------------------


def _inputs_poison_ba1000(d: Path, seed: int) -> Inputs:
    inputs = Inputs()
    _add_input(inputs, d, "graph", 1000, barabasi_albert(1000, 5, rng_for(seed, "ba1000")))
    return inputs


def _commands_poison_ba1000(inputs: Inputs, out: Path, seed: int) -> list[Command]:
    g = str(inputs.paths["graph"])
    common = ["--input", g, "--budget", "10", "--targets-count", "5", "--top-k", "50",
              "--seed", str(seed)]
    plan_outputs = ["plan_rep0.json", "trace_rep0.csv", "summary.csv"]
    extra = {
        "gradmax": [],
        "binarized": ["--iters", "50", "--lam", "0.001"],
        # an explicit small step keeps ContinuousA running all 50 iterations
        "continuous": ["--iters", "50", "--lr", "0.0001"],
    }
    cmds = [Command("score", ["score", "--input", g, "--out", str(out / "score.csv")],
                    ["score.csv"], graph="graph")]
    for attack, flags in extra.items():
        cmds.append(Command(
            "attack", ["attack", *common, "--attack", attack, *flags, "--out", str(out / attack)],
            [f"{attack}/{f}" for f in plan_outputs], graph="graph", label=f"attack.{attack}"))
    cmds.append(Command(
        "defend", ["defend", "--input", g, "--plan", str(out / "binarized" / "plan_rep0.json"),
                   "--seed", str(seed), "--out", str(out / "defend.csv")],
        ["defend.csv"], graph="graph"))
    return cmds


# -- poison-ba200-long --------------------------------------------------


def _inputs_poison_ba200_long(d: Path, seed: int) -> Inputs:
    inputs = Inputs()
    _add_input(inputs, d, "graph", 200, barabasi_albert(200, 5, rng_for(seed, "ba200")))
    base = barabasi_albert(300, 3, rng_for(seed, "ba300"))
    _add_input(inputs, d, "clique", 300, plant_clique(300, base, 10, rng_for(seed, "clique")))
    return inputs


def _commands_poison_ba200_long(inputs: Inputs, out: Path, seed: int) -> list[Command]:
    return [
        Command("attack", ["attack", "--input", str(inputs.paths["graph"]), "--attack", "binarized",
                           "--budget", "19", "--targets-count", "5", "--top-k", "20",
                           "--iters", "1000", "--lr", "0.00025", "--lam", "0.0001",
                           "--seed", str(seed), "--out", str(out / "binarized")],
                [f"binarized/{f}" for f in ("plan_rep0.json", "trace_rep0.csv", "summary.csv")],
                graph="graph", label="attack.binarized"),
        Command("transfer", ["transfer", "--input", str(inputs.paths["clique"]), "--budget", "18",
                             "--lr", "0.3", "--seed", str(seed), "--out", str(out / "transfer.json")],
                ["transfer.json"]),
    ]


# -- detect-ba3000 ------------------------------------------------------


def _inputs_detect_ba3000(d: Path, seed: int) -> Inputs:
    n = 3000
    edges = barabasi_albert(n, 5, rng_for(seed, "ba3000"))
    inputs = Inputs()
    _add_input(inputs, d, "clean", n, edges)
    _, _, score = oddball_reference(n, edges)
    top50 = np.lexsort((np.arange(n), -score))[:50]
    rng = rng_for(seed, "plan")
    targets = sorted(int(t) for t in rng.choice(top50, size=5, replace=False))
    flips = random_plan(n, edges, targets, 20, rng)
    poisoned = set(edges)
    for f in flips:
        pair = (f["i"], f["j"])
        if f["action"] == "add":
            poisoned.add(pair)
        else:
            poisoned.discard(pair)
    _add_input(inputs, d, "poisoned", n, poisoned)
    plan = {
        "schema_version": 1,
        "attack": "seeded-random",
        "budget_max": len(flips),
        "targets": targets,
        "flips_by_budget": {str(b): flips[:b] for b in range(1, len(flips) + 1)},
    }
    inputs.paths["plan"] = d / "plan.json"
    inputs.paths["plan"].write_text(json.dumps(plan, indent=2))
    return inputs


def _commands_detect_ba3000(inputs: Inputs, out: Path, seed: int) -> list[Command]:
    clean, poisoned = str(out / "clean.csv"), str(out / "poisoned.csv")
    return [
        Command("score", ["score", "--input", str(inputs.paths["clean"]), "--out", clean],
                ["clean.csv"], graph="clean", label="score.clean"),
        Command("score", ["score", "--input", str(inputs.paths["poisoned"]), "--out", poisoned],
                ["poisoned.csv"], graph="poisoned", label="score.poisoned"),
        Command("defend", ["defend", "--input", str(inputs.paths["clean"]),
                           "--plan", str(inputs.paths["plan"]), "--seed", str(seed),
                           "--out", str(out / "defend.csv")],
                ["defend.csv"], graph="clean"),
        Command("permtest", ["permtest", clean, poisoned, "--column", "N", "--m", "5000",
                             "--seed", str(seed)], []),
    ]


WORKLOADS = {
    "poison-ba1000": (_inputs_poison_ba1000, _commands_poison_ba1000),
    "poison-ba200-long": (_inputs_poison_ba200_long, _commands_poison_ba200_long),
    "detect-ba3000": (_inputs_detect_ba3000, _commands_detect_ba3000),
}
