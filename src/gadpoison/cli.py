"""Reproducible experiment runner.

Subcommands: generate, score, attack, defend, transfer, permtest.
A flat JSON config file may supply any flag's value; explicit CLI flags
take precedence. All randomness derives from the single --seed.

Run as a program (``python -m gadpoison.cli``, or the ``gadpoison``
script through ``gadpoison.__main__``), each subcommand imports only the
modules it runs: ``score`` loads ``graph`` and ``oddball``, and
``permtest`` adds only ``stats``. Imported as a module, this file loads
every subcommand's module at once (see the end of the file).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import oddball
from .graph import Graph, derive_rng, generate, load_edge_list, save_edge_list

# the --attack choices, so that parsing needs no attacks import; a test
# checks that they equal sorted(attacks.ATTACKS)
ATTACK_NAMES = ("binarized", "continuous", "gradmax")


def _load_graph(args) -> Graph:
    if args.input:
        return load_edge_list(args.input, drop_nonpositive_weights=args.drop_nonpositive)
    if args.gen:
        return generate(args.gen, n=args.n, seed=args.seed, p=args.p, m=args.m)
    raise SystemExit("exactly one of --input or --gen is required")


def _add_input_flags(sub):
    sub.add_argument("--input", help="edge-list file path")
    sub.add_argument("--gen", choices=["er", "ba"], help="synthetic generator")
    sub.add_argument("--n", type=int, default=1000, help="node count for --gen")
    sub.add_argument("--p", type=float, default=0.02, help="ER link probability")
    sub.add_argument("--m", type=int, default=5, help="BA attachment edges")
    sub.add_argument("--drop-nonpositive", action="store_true",
                     help="drop weighted lines with w <= 0 when loading")
    sub.add_argument("--seed", type=int, default=0)


def _select_targets(graph: Graph, args, rep: int) -> list[int]:
    from . import attacks

    if args.targets:
        try:
            targets = sorted(int(t) for t in args.targets.split(","))
        except ValueError:
            raise SystemExit(f"--targets {args.targets!r} is not a comma-separated list of integers") from None
        attacks.check_targets(targets, graph.n, name="--targets")
        return targets
    report = oddball.score_graph(graph)
    top = oddball.rank_top_k(report, args.top_k)
    rng = derive_rng(args.seed, "target-draw", rep)
    picked = rng.choice(len(top), size=args.targets_count, replace=False)
    return sorted(top[i] for i in picked)


def _attack_config(args, targets) -> attacks.AttackConfig:
    from . import attacks

    return attacks.AttackConfig(
        budget_max=args.budget,
        targets=tuple(targets),
        seed=args.seed,
        lr=args.lr,
        iters=args.iters,
        lambdas=tuple(args.lam) if args.lam else attacks.DEFAULT_LAMBDAS,
        allow_add=not args.delete_only,
        allow_delete=not args.add_only,
    )


def cmd_generate(args) -> int:
    graph = _load_graph(args)
    save_edge_list(graph, args.out)
    print(f"wrote {graph.n} nodes, {graph.num_edges()} edges to {args.out}")
    return 0


def cmd_score(args) -> int:
    graph = _load_graph(args)
    report = oddball.score_graph(graph)
    oddball.write_report_csv(report, args.out)
    print(f"scored {graph.n} nodes -> {args.out}")
    return 0


def cmd_attack(args) -> int:
    from . import attacks

    for flag, value in (("--reps", args.reps), ("--targets-count", args.targets_count)):
        if value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")
    if not args.targets and args.targets_count > args.top_k:
        raise SystemExit(f"--targets-count {args.targets_count} exceeds --top-k {args.top_k}")
    graph = _load_graph(args)
    # every config is validated (repeated target ids, ...) before any output
    configs = [_attack_config(args, _select_targets(graph, args, rep)) for rep in range(args.reps)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    num_edges = graph.num_edges()
    attack_fn = attacks.ATTACKS[args.attack]
    tau_rows: dict[int, list[float]] = {}
    for rep, config in enumerate(configs):
        plan = attack_fn(graph, config)
        plan.save_json(out_dir / f"plan_rep{rep}.json")
        plan.save_csv(out_dir / f"trace_rep{rep}.csv", num_edges=num_edges)
        for b, tau in enumerate(plan.tau_trace):
            tau_rows.setdefault(b, []).append(tau)
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "attack_power", "mean_tau_as"])
        for b in sorted(tau_rows):
            vals = [v for v in tau_rows[b] if not np.isnan(v)]
            mean = float(np.mean(vals)) if vals else float("nan")
            writer.writerow([b, b / num_edges, mean])
    print(f"wrote {args.reps} plan(s) and summary to {out_dir}")
    return 0


def cmd_defend(args) -> int:
    from . import attacks, defense

    graph = _load_graph(args)
    with open(args.plan) as fh:
        plan = attacks.PerturbationPlan.from_dict(json.load(fh))
    attacks.check_targets(plan.targets, graph.n)
    fitters = ("ols", "huber", "ransac")
    clean_feats = oddball.ego_features(graph)
    clean_reports = [defense.rescore_features(clean_feats, name, args.seed) for name in fitters]
    rows = [(0, 0.0, 0.0, 0.0)]
    for b, flips in sorted(plan.flips_by_budget.items()):
        feats = oddball.ego_features(graph, flips)
        taus = [attacks.tau_as(clean, defense.rescore_features(feats, name, args.seed), plan.targets)
                for clean, name in zip(clean_reports, fitters)]
        rows.append((b, *taus))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "tau_ols", "tau_huber", "tau_ransac"])
        writer.writerows(rows)
    print(f"wrote defense comparison to {args.out}")
    return 0


def cmd_transfer(args) -> int:
    from . import transfer

    graph = _load_graph(args)
    pipeline = transfer.PipelineConfig(
        refex=transfer.RefexConfig(recursion_depth=args.depth, bins=args.bins,
                                   prune_corr=args.prune_corr),
        anomaly_fraction=args.anomaly_fraction,
        test_fraction=args.test_fraction,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    report = transfer.run_transfer_attack(graph, args.budget, pipeline)
    report.save_json(args.out)
    print(f"delta_b={report.delta_b:.4f} auc {report.auc_clean:.3f}->{report.auc_poisoned:.3f} -> {args.out}")
    return 0


def _read_column(path: str, column: str | None) -> np.ndarray:
    """Read a single-column numeric file, or a score-report CSV column."""
    with open(path) as fh:
        first = fh.readline()
    if "," in first and any(c.isalpha() for c in first):
        if column is None:
            raise SystemExit(f"{path} is a CSV report; pass --column N or --column E")
        header = next(csv.reader([first]))
        if column not in header:
            raise SystemExit(f"{path}: no column {column!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a report without rows reads as empty
            return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(column),
                              ndmin=1, comments=None, quotechar='"')
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise SystemExit(f"{path}:{line_no}: not a number: {line!r}") from None
    return np.array(values)


def cmd_permtest(args) -> int:
    from . import stats

    x = _read_column(args.file_x, args.column)
    y = _read_column(args.file_y, args.column)
    result = stats.permutation_test(x, y, m=args.m, seed=args.seed)
    print(f"t0={result.t0:.6g} p={result.p_value:.6g} m={result.m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # flags match only in full: the config merge below reads full spellings
    parser = argparse.ArgumentParser(prog="gadpoison", allow_abbrev=False,
                                     description="egonet anomaly detection and structural poisoning toolkit")
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", allow_abbrev=False, help="write a synthetic graph as an edge list")
    _add_input_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("score", allow_abbrev=False, help="write the per-node anomaly report CSV")
    _add_input_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("attack", allow_abbrev=False, help="run a poisoning attack sweep")
    _add_input_flags(p)
    p.add_argument("--attack", choices=ATTACK_NAMES, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--targets", help="explicit comma-separated target ids")
    p.add_argument("--targets-count", type=int, default=10)
    p.add_argument("--top-k", type=int, default=50)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--lam", type=float, action="append", help="LASSO weight (repeatable)")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--add-only", action="store_true")
    p.add_argument("--delete-only", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_attack)

    p = subs.add_parser("defend", allow_abbrev=False, help="compare OLS/Huber/RANSAC rescoring on a plan")
    _add_input_flags(p)
    p.add_argument("--plan", required=True, help="plan JSON from the attack command")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_defend)

    p = subs.add_parser("transfer", allow_abbrev=False, help="black-box transfer attack evaluation")
    _add_input_flags(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--bins", type=int, default=4)
    p.add_argument("--prune-corr", type=float, default=0.95)
    p.add_argument("--anomaly-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transfer)

    p = subs.add_parser("permtest", allow_abbrev=False, help="two-sample permutation test")
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.add_argument("--column", choices=["N", "E", "score"], help="column when inputs are report CSVs")
    p.add_argument("--m", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_permtest)
    return parser


def _given(flag: str, argv: list[str]) -> bool:
    """Whether argv sets ``flag`` as ``--flag [value]`` or ``--flag=value``."""
    return any(tok == flag or tok.startswith(flag + "=") for tok in argv)


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend config-file values as defaults; explicit flags still win."""
    idx = next((k for k, tok in enumerate(argv)
                if tok == "--config" or tok.startswith("--config=")), None)
    if idx is None:
        return argv
    if argv[idx] == "--config":
        if idx + 1 == len(argv):
            parser.error("--config needs a JSON file path")
        cfg_path = argv[idx + 1]
        rest = argv[:idx] + argv[idx + 2:]
    else:
        cfg_path = argv[idx].split("=", 1)[1]
        rest = argv[:idx] + argv[idx + 1:]
    try:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {cfg_path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {cfg_path}: expected a JSON object of flag values")
    injected = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if _given(flag, rest):
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            injected.extend(f"{flag}={v}" for v in value)
        else:
            injected.append(f"{flag}={value}")
    # injected defaults go right after the subcommand
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return rest + injected


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            print(f"error: {exc.code}", file=sys.stderr)
            return 1
        raise
    except Exception as exc:  # surface toolkit errors as nonzero exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
else:
    # code that wraps the package's functions by module, as bench/traced.py
    # does, looks every module up in sys.modules right after importing this one
    from . import attacks, defense, stats, transfer  # noqa: F401
