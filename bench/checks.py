"""Correctness gate run on each command's outputs, outside the timed region.

A command fails when it exits non-zero, an expected output is missing, a
JSON output lacks ``schema_version``, a plan's flips do not apply in order
to the input graph, an achieved budget has a non-finite tau_as, a score
report disagrees with the reference OddBall, a p-value falls outside
[0, 1], or its output bytes differ from an earlier repetition of the same
seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import Command, Inputs, oddball_reference

PERMTEST_LINE = re.compile(r"t0=(\S+) p=(\S+) m=(\d+)")


def check_plan(plan: dict, edges: set[tuple[int, int]], n: int) -> str | None:
    """Every budget's flips must apply in order and carry a finite tau_as."""
    for b, flips in plan["flips_by_budget"].items():
        current = set(edges)
        for k, f in enumerate(flips):
            i, j = f["i"], f["j"]
            if not 0 <= i < j < n:
                return f"budget {b} flip #{k}: bad pair ({i},{j})"
            if f["action"] == "add":
                if (i, j) in current:
                    return f"budget {b} flip #{k}: adds existing edge ({i},{j})"
                current.add((i, j))
            elif f["action"] == "delete":
                if (i, j) not in current:
                    return f"budget {b} flip #{k}: deletes absent edge ({i},{j})"
                current.discard((i, j))
            else:
                return f"budget {b} flip #{k}: unknown action {f['action']!r}"
        tau = plan["tau_trace"][int(b)]
        if tau is None or not math.isfinite(tau):
            return f"budget {b} achieved with non-finite tau_as {tau}"
    return None


def check_report(path: Path, edges: set[tuple[int, int]], n: int) -> str | None:
    """Score report rows must match the reference features and scores."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n:
        return f"{path.name}: {len(rows)} rows for {n} nodes"
    N, E, score = oddball_reference(n, edges)
    got = np.array([[float(r["N"]), float(r["E"]), float(r["score"])] for r in rows])
    if not (np.array_equal(got[:, 0], N) and np.array_equal(got[:, 1], E)):
        return f"{path.name}: egonet features differ from the reference"
    if not np.allclose(got[:, 2], score, rtol=1e-6, atol=1e-9):
        worst = int(np.argmax(np.abs(got[:, 2] - score)))
        return f"{path.name}: node {worst} score {got[worst, 2]} != reference {score[worst]}"
    return None


def last_finite(path: Path, column: str) -> float | None:
    """Value of ``column`` in the last row where it is finite."""
    with open(path, newline="") as fh:
        values = [float(r[column]) for r in csv.DictReader(fh)]
    finite = [v for v in values if math.isfinite(v)]
    return finite[-1] if finite else None


def check_command(cmd: Command, out: Path, code: int, stdout: str,
                  inputs: Inputs) -> tuple[str | None, dict[str, float]]:
    """Return (failure reason or None, quality values read from the outputs)."""
    quality: dict[str, float] = {}
    if code != 0:
        return f"exit code {code}", quality
    for name in cmd.outputs:
        path = out / name
        if not path.is_file():
            return f"missing output {name}", quality
        if path.suffix == ".json" and "schema_version" not in json.loads(path.read_text()):
            return f"{name} lacks schema_version", quality
    edges = inputs.edges.get(cmd.graph) if cmd.graph else None
    n = inputs.nodes.get(cmd.graph, 0)
    for name in cmd.outputs:
        path = out / name
        if name.endswith("plan_rep0.json"):
            reason = check_plan(json.loads(path.read_text()), edges, n)
            if reason:
                return f"{name}: {reason}", quality
        elif name.endswith("summary.csv"):
            tau = last_finite(path, "mean_tau_as")
            if tau is not None:
                quality[f"tau_as.{cmd.label.split('.')[-1]}"] = tau
        elif name == "defend.csv":
            tau = last_finite(path, "tau_ransac")
            if tau is not None:
                quality["tau_as.ransac"] = tau
        elif name == "transfer.json":
            quality["delta_b"] = json.loads(path.read_text())["delta_b"]
        elif cmd.sub == "score":
            reason = check_report(path, edges, n)
            if reason:
                return reason, quality
    if cmd.sub == "permtest":
        match = PERMTEST_LINE.search(stdout)
        if not match:
            return f"no p-value in output {stdout!r}", quality
        p = float(match.group(2))
        if not 0.0 <= p <= 1.0:
            return f"p-value {p} outside [0, 1]", quality
        quality["permtest.p_value"] = p
    return None, quality


def output_digest(cmd: Command, out: Path, stdout: str) -> str:
    """Hash of every output file plus, for permtest, its printed result."""
    h = hashlib.sha256()
    for name in cmd.outputs:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    if cmd.sub == "permtest":
        h.update(stdout.encode())
    return h.hexdigest()
