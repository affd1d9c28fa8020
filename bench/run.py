"""gadpoison benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from --seed (repeated SETUP_REPEATS
times; ``setup_s`` is the median). The load model is a closed loop with one
client: each CLI command runs as a child process (``python3 -m gadpoison.cli``
with ``src`` on PYTHONPATH) and starts only after the previous one exits.
One untimed warm-up repetition fills caches (and compiles the package's
bytecode); then the sequence repeats until --seconds have passed, at least
MIN_REPS times. Every repetition, the warm-up included, goes through the
correctness gate in ``checks.py`` outside the timed region, and its output
bytes must equal the warm-up's.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 runs the sequence in a single process under ``traced.py`` for
--seconds after the warm-up, then once more untraced (for peak memory per
subcommand and the overhead baseline), and reports the per-layer metrics.

Human-readable lines (every metric with its unit, quality values, the
machine record) come first; the last line of standard output is the JSON
result. BLAS threading is left at its default and recorded, not pinned.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import check_command, output_digest
from workloads import WORKLOADS, Command

SETUP_REPEATS = 5     # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 0.5
MIN_REPS = 2          # timed repetitions per run, at least
DEADLINE_S = 170.0    # stop launching work and kill stragglers after this
SUBCOMMANDS = ("score", "attack", "defend", "transfer", "permtest")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
# name -> unit; "s" is inclusive span time, "self_s" excludes child spans
PER_LAYER = {
    "graph.load_edge_list.s": "s",
    "graph.Graph.calls": "count",
    "graph.Graph.s": "s",
    "graph.apply_flips.calls": "count",
    "graph.apply_flips.s": "s",
    "graph.triangle_diagonal.calls": "count",
    "graph.triangle_diagonal.s": "s",
    "oddball.ego_features.calls": "count",
    "oddball.ego_features.s": "s",
    "oddball.fit_ols.s": "s",
    "oddball.score_graph.s": "s",
    "oddball.surrogate_objective.s": "s",
    "gradients.surrogate_gradient.calls": "count",
    "gradients.surrogate_gradient.s": "s",
    "gradients.surrogate_gradient.ms.p50": "ms",
    "gradients.surrogate_gradient.ms.p99": "ms",
    "gradients.surrogate_gradient.failed": "count",
    "attacks.grad_max_search.self_s": "s",
    "attacks.binarized_attack.self_s": "s",
    "attacks.continuous_a.self_s": "s",
    "attacks.budgets_achieved_ratio": "ratio",
    "defense.fit_huber.s": "s",
    "defense.fit_ransac.s": "s",
    "defense.robust_rescore.s": "s",
    "stats.permutation_test.s": "s",
    "stats.permutation_test.resamples_per_s": "1/s",
    "transfer.refex_embed.s": "s",
    "transfer.train_classifier.s": "s",
    "transfer.make_labeled_split.s": "s",
    "cli.import_s": "s",
    **{f"cli.{sub}.self_s": "s" for sub in SUBCOMMANDS},
    **{f"cli.{sub}.peak_rss_mib": "MiB" for sub in SUBCOMMANDS},
    "trace.overhead_s": "s",
}
# counters a later change may rest a claim on; they must repeat exactly
EXACT_COUNTS = ("gradients.surrogate_gradient.calls", "graph.Graph.calls",
                "graph.apply_flips.calls", "graph.triangle_diagonal.calls",
                "oddball.ego_features.calls")


class Run:
    """State of one benchmark invocation: where it works, what it saw."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.seed = seed
        self.deadline = deadline
        self.make_inputs, self.make_commands = WORKLOADS[workload]
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.inputs = None
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_outputs = 0
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall seconds, peak RSS MiB)."""
        with open(stdout, "w") as out, open(stderr, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup(self, repeats: int, min_s: float) -> list[float]:
        times: list[float] = []
        while len(times) < repeats or sum(times) < min_s:
            shutil.rmtree(self.work / "inputs", ignore_errors=True)
            (self.work / "inputs").mkdir(parents=True)
            start = time.perf_counter()
            self.inputs = self.make_inputs(self.work / "inputs", self.seed)
            times.append(time.perf_counter() - start)
        return times

    def commands(self, out: Path) -> list[Command]:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return self.make_commands(self.inputs, out, self.seed)

    def check(self, cmd: Command, out: Path, code: int) -> None:
        """Correctness gate for one executed command (outside timing)."""
        self.attempted += 1
        stdout = (out / f"{cmd.label}.stdout").read_text()
        reason, quality = check_command(cmd, out, code, stdout, self.inputs)
        if reason is None:
            digest = output_digest(cmd, out, stdout)
            first = self.digests.setdefault(cmd.label, digest)
            if digest != first:
                reason = "output bytes differ from the first repetition"
        if reason is not None:
            err = (out / f"{cmd.label}.stderr").read_text().strip().splitlines()
            self.failures.append(f"{cmd.label}: {reason}" + (f" ({err[-1]})" if err else ""))
            # a command that exits with an error is failed; one that exits 0
            # with wrong or unstable output makes the run incorrect
            self.wrong_outputs += code == 0
        self.quality.update(quality)

    def sequence(self, out: Path) -> dict:
        """Untraced sequence, one child per command."""
        cmds = self.commands(out)
        rep = {"wall_s": 0.0, "sub_s": {}, "sub_rss": {}}
        start = time.perf_counter()
        results = []
        for cmd in cmds:
            argv = [sys.executable, "-m", "gadpoison.cli", *cmd.argv]
            code, wall, rss = self.spawn(argv, out / f"{cmd.label}.stdout", out / f"{cmd.label}.stderr")
            results.append((cmd, code))
            rep["sub_s"][cmd.sub] = rep["sub_s"].get(cmd.sub, 0.0) + wall
            rep["sub_rss"][cmd.sub] = max(rep["sub_rss"].get(cmd.sub, 0.0), rss)
        rep["wall_s"] = time.perf_counter() - start
        for cmd, code in results:
            self.check(cmd, out, code)
        return rep

    def traced_sequence(self, out: Path) -> dict:
        """The same sequence in one process under traced.py."""
        cmds = self.commands(out)
        seq = [{"argv": c.argv, "stdout": str(out / f"{c.label}.stdout"),
                "stderr": str(out / f"{c.label}.stderr")} for c in cmds]
        (out / "sequence.json").write_text(json.dumps(seq))
        argv = [sys.executable, str(Path(__file__).with_name("traced.py")),
                str(out / "sequence.json"), str(out / "trace.json")]
        code, wall, _ = self.spawn(argv, out / "traced.stdout", out / "traced.stderr")
        trace = json.loads((out / "trace.json").read_text()) if code == 0 else None
        codes = trace["codes"] if trace else [code or 1] * len(cmds)
        for cmd, c in zip(cmds, codes):
            self.check(cmd, out, c)
        return {"wall_s": wall, "trace": trace}

    def measure(self, seconds: float, step) -> list:
        """Call ``step(k)`` until ``seconds`` pass (at least MIN_REPS times)."""
        reps, durations = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            reps.append(step(len(reps)))
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            next_end = elapsed + statistics.median(durations)
            if len(reps) >= MIN_REPS and next_end > seconds:
                break
            if time.monotonic() + statistics.median(durations) > self.deadline:
                break
        return reps


# -- metrics -------------------------------------------------------------


def span_stats(trace: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, durations."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for k, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_time[k]
        if name == "gradients.surrogate_gradient":
            s["ms"].append(1000.0 * (end - start))
    return stats


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced repetitions) and count mismatches."""
    runs = [(span_stats(r["trace"]), r["trace"]) for r in traced if r["trace"]]
    if not runs:
        return {name: 0.0 for name in PER_LAYER}, ["no traced repetition completed"]

    def per_rep(fn):
        return statistics.median(fn(st, tr) for st, tr in runs)

    def field(name, key):
        return lambda st, tr: st.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s"):
            m[metric] = per_rep(field(head, key))
    grad_ms = [ms for st, _ in runs for ms in st.get("gradients.surrogate_gradient", {}).get("ms", [])]
    m["gradients.surrogate_gradient.ms.p50"] = float(np.percentile(grad_ms, 50)) if grad_ms else 0.0
    m["gradients.surrogate_gradient.ms.p99"] = float(np.percentile(grad_ms, 99)) if grad_ms else 0.0
    m["gradients.surrogate_gradient.failed"] = per_rep(
        lambda st, tr: tr["failed"].get("gradients.surrogate_gradient", 0))
    plans = runs[0][1]["plans"]
    budgets = sum(b for _, b in plans)
    m["attacks.budgets_achieved_ratio"] = sum(a for a, _ in plans) / budgets if budgets else 0.0
    m["stats.permutation_test.resamples_per_s"] = per_rep(
        lambda st, tr: sum(tr["resamples"]) / st["stats.permutation_test"]["s"] if tr["resamples"] else 0.0)
    m["cli.import_s"] = per_rep(lambda st, tr: tr["import_s"])
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.peak_rss_mib"] = statistics.median(r["sub_rss"].get(sub, 0.0) for r in untraced)
    m["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in untraced))

    mismatches = []
    for name in EXACT_COUNTS:
        counts = {field(name.rpartition(".")[0], "calls")(st, tr) for st, tr in runs}
        if len(counts) > 1:
            mismatches.append(f"{name} differs between traced repetitions: {sorted(counts)}")
    return {name: float(m[name]) for name in PER_LAYER}, mismatches


def machine_record() -> dict:
    """Facts about the host that the timings depend on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_at_start": os.getloadavg(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use (None if not found)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def emit(metrics: dict, units: dict, problems: list[str], run: Run) -> None:
    """Print every metric by name, then the JSON result as the last line."""
    for problem in run.failures + problems:
        print(f"failed: {problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": run.wrong_outputs == 0 and not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "gadpoison" / "cli.py").is_file():
        print(f"error: {root} holds no src/gadpoison; run from the repository root", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_record()))
    run = Run(root, args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace == 0:
            emit(*timed(run, args.seconds), run)
        else:
            emit(*traced(run, args.seconds), run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return 0


def timed(run: Run, seconds: float) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics from untraced repetitions of the sequence."""
    setup_times = run.setup(SETUP_REPEATS, SETUP_MIN_S)
    run.sequence(run.work / "warmup")
    reps = run.measure(seconds, lambda k: run.sequence(run.work / f"rep{k}"))
    print(f"samples: {len(reps)} repetitions, {len(setup_times)} set-ups; wall_s per repetition: "
          + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    for sub in sorted(reps[0]["sub_s"]):
        print(f"metric {sub}_s = {statistics.median(r['sub_s'][sub] for r in reps):.6g} s")
    print(f"metric failed_ratio = {len(run.failures) / run.attempted:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} commands)")
    for name, value in sorted(run.quality.items()):
        print(f"metric {name} = {value:.6g} ratio")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mib": statistics.median(max(r["sub_rss"].values()) for r in reps),
    }
    return metrics, END_TO_END, []


def traced(run: Run, seconds: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from traced repetitions, followed by one untraced
    repetition that supplies peak memory and the overhead baseline."""
    run.setup(1, 0.0)
    run.sequence(run.work / "warmup")
    traced_reps = run.measure(seconds, lambda k: run.traced_sequence(run.work / f"traced{k}"))
    untraced_reps = [run.sequence(run.work / "rep0")]
    metrics, mismatches = layer_metrics(traced_reps, untraced_reps)
    print(f"samples: {len(traced_reps)} traced and {len(untraced_reps)} untraced repetitions; "
          "gradient latency percentiles pool every traced call")
    print("note: trace.overhead_s is one traced process minus one process per command, "
          "so it is net of the start-up the traced process saves")
    return metrics, PER_LAYER, mismatches


if __name__ == "__main__":
    raise SystemExit(main())
