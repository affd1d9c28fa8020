"""Traced run of one command sequence in a single process.

Usage: python3 bench/traced.py SEQUENCE.json RESULT.json

SEQUENCE.json is a list of {"argv": [...], "stdout": path, "stderr": path}.
The script imports ``gadpoison.cli`` (timed as ``import_s``), wraps the
public functions of every package module listed in SPANS, then calls
``gadpoison.cli.main(argv)`` for each entry in order. Spans (name, start,
end, parent) stay in memory and are written to RESULT.json at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# span name -> (module, attribute path) of the function it times
SPANS = {
    "graph.load_edge_list": ("graph", "load_edge_list"),
    "graph.Graph": ("graph", "Graph.__init__"),
    "graph.apply_flips": ("graph", "apply_flips"),
    "graph.triangle_diagonal": ("graph", "Graph.triangle_diagonal"),
    "oddball.ego_features": ("oddball", "ego_features"),
    "oddball.fit_ols": ("oddball", "fit_ols"),
    "oddball.score_graph": ("oddball", "score_graph"),
    "oddball.surrogate_objective": ("oddball", "surrogate_objective"),
    "gradients.surrogate_gradient": ("gradients", "surrogate_gradient"),
    "attacks.grad_max_search": ("attacks", "grad_max_search"),
    "attacks.binarized_attack": ("attacks", "binarized_attack"),
    "attacks.continuous_a": ("attacks", "continuous_a"),
    "defense.fit_huber": ("defense", "fit_huber"),
    "defense.fit_ransac": ("defense", "fit_ransac"),
    "defense.robust_rescore": ("defense", "robust_rescore"),
    "stats.permutation_test": ("stats", "permutation_test"),
    "transfer.refex_embed": ("transfer", "refex_embed"),
    "transfer.train_classifier": ("transfer", "train_classifier"),
    "transfer.make_labeled_split": ("transfer", "make_labeled_split"),
}


class Tracer:
    """In-memory spans, exception counts and result notes for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.failed: dict[str, int] = {}
        self.plans: list[list[int]] = []    # [achieved budgets, budget_max] per attack call
        self.resamples: list[int] = []      # m per permutation test

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failed[name] = self.failed.get(name, 0) + 1
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
        if name.startswith("attacks."):
            self.plans.append([len(result.flips_by_budget), result.budget_max])
        elif name == "stats.permutation_test":
            self.resamples.append(result.m)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, package: str) -> None:
        """Replace each target everywhere the package holds a reference to it:
        the defining module, names re-bound by ``from .x import y``, and
        module-level dicts such as the attack registry."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for name, (module, path) in SPANS.items():
            owner = sys.modules[f"{package}.{module}"]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            setattr(owner, attr, traced)
            if parents:
                continue  # methods are reached only through their class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = traced


def main() -> int:
    sequence_path, result_path = sys.argv[1:3]
    with open(sequence_path) as fh:
        sequence = json.load(fh)
    start = time.perf_counter()
    import gadpoison.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install("gadpoison")
    codes = []
    for item in sequence:
        argv = item["argv"]
        with open(item["stdout"], "w") as out, open(item["stderr"], "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        codes.append(code)
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "codes": codes, "spans": tracer.spans,
                   "failed": tracer.failed, "plans": tracer.plans,
                   "resamples": tracer.resamples}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
