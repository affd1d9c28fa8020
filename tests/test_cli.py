"""End-to-end checks of the command-line runner."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadpoison
from gadpoison import attacks
from gadpoison.cli import ATTACK_NAMES, _apply_config_file, _read_column, build_parser, main
from gadpoison.graph import Graph, generate_ba
from gadpoison.oddball import rank_top_k, score_graph


def write_star(path, leaves=6):
    lines = [f"0 {i}" for i in range(1, leaves + 1)]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGenerate:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "er.txt"
        rc = main(["generate", "--gen", "er", "--n", "50", "--p", "0.1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "wrote 50 nodes" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            u, v = map(int, line.split())
            assert u < v

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "--gen", "ba", "--n", "40", "--m", "2", "--seed", "3", "--out", str(a)])
        main(["generate", "--gen", "ba", "--n", "40", "--m", "2", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sub", ["generate", "score"])
    def test_negative_node_count_fails_before_output(self, tmp_path, capsys, sub):
        out = tmp_path / "out.txt"
        rc = main([sub, "--gen", "er", "--n", "-5", "--out", str(out)])
        assert rc == 1
        assert "error: node count n must be >= 0, got -5\n" in capsys.readouterr().err
        assert not out.exists()


class TestScore:
    def test_star_scores_all_zero(self, tmp_path):
        edges = write_star(tmp_path / "star.txt")
        out = tmp_path / "report.csv"
        assert main(["score", "--input", str(edges), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert all(float(r["score"]) == pytest.approx(0.0, abs=1e-9) for r in rows)

    def test_report_header(self, tmp_path):
        out = tmp_path / "report.csv"
        main(["score", "--gen", "er", "--n", "30", "--p", "0.2", "--seed", "1", "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "node_id,N,E,fitted_E,score,fitter"

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        rc = main(["score", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_malformed_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot an edge\n")
        rc = main(["score", "--input", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAttack:
    def run_sweep(self, tmp_path, attack, extra=()):
        out_dir = tmp_path / attack
        rc = main(["attack", "--gen", "er", "--n", "30", "--p", "0.15", "--seed", "5",
                   "--attack", attack, "--budget", "3",
                   "--targets-count", "3", "--top-k", "10",
                   *extra, "--out", str(out_dir)])
        assert rc == 0
        return out_dir

    def test_gradmax_outputs(self, tmp_path):
        out_dir = self.run_sweep(tmp_path, "gradmax")
        plan = json.loads((out_dir / "plan_rep0.json").read_text())
        assert plan["schema_version"] == 1
        assert plan["attack"] == "gradmax"
        assert set(plan["flips_by_budget"]) <= {"1", "2", "3"}
        trace = (out_dir / "trace_rep0.csv").read_text().splitlines()
        assert trace[0] == "budget,attack_power,S_T,tau_as"
        assert len(trace) == 5  # header + budgets 0..3
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "budget,attack_power,mean_tau_as"

    def test_binarized_runs(self, tmp_path):
        out_dir = self.run_sweep(tmp_path, "binarized",
                                 extra=("--iters", "60", "--lam", "0.001"))
        plan = json.loads((out_dir / "plan_rep0.json").read_text())
        assert plan["budget_max"] == 3

    def test_deterministic_summary(self, tmp_path):
        d1 = self.run_sweep(tmp_path / "r1", "gradmax")
        d2 = self.run_sweep(tmp_path / "r2", "gradmax")
        assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()

    def test_target_out_of_range_fails(self, tmp_path, capsys):
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--seed", "5",
                   "--attack", "gradmax", "--budget", "1", "--targets", "4,5000",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--targets [5000] out of range for a graph of 30 nodes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("attack", ["gradmax", "continuous", "binarized"])
    def test_graph_too_large_for_dense_fails(self, tmp_path, capsys, monkeypatch, attack):
        monkeypatch.setattr("gadpoison.cli._load_graph", lambda args: Graph(10**6, []))
        rc = main(["attack", "--input", "unused.txt", "--attack", attack, "--budget", "1",
                   "--targets", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "needs 8000000000000 bytes, more than the" in capsys.readouterr().err

    def test_repeated_targets_fail(self, tmp_path, capsys):
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--seed", "5",
                   "--attack", "gradmax", "--budget", "1", "--targets", "3,7,3",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "target ids [3] repeat" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_nonpositive_reps_fail_before_output(self, tmp_path, capsys, reps):
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--attack", "gradmax",
                   "--budget", "1", "--reps", reps, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: --reps must be >= 1, got {reps}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_attack_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--gen", "ba", "--attack", "nettack", "--budget", "1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert ("argument --attack: invalid choice: 'nettack' (choose from "
                "'binarized', 'continuous', 'gradmax')") in capsys.readouterr().err

    def test_targets_count_above_top_k_fails(self, tmp_path, capsys):
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--attack", "gradmax",
                   "--budget", "1", "--targets-count", "30", "--top-k", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--targets-count 30 exceeds --top-k 20" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--iters", "-3"), "iters must be >= 0, got -3"),
        (("--lr", "-0.5"), "lr must be finite and > 0, got -0.5"),
        (("--lr", "inf"), "lr must be finite and > 0, got inf"),
        (("--lam", "nan"), "every lambda must be finite and >= 0, got [nan]"),
        (("--lam", "0.1", "--lam", "-1"), "every lambda must be finite and >= 0, got [0.1, -1.0]"),
        (("--targets", "1,2,"), "--targets '1,2,' is not a comma-separated list of integers"),
        (("--targets", "1,x"), "--targets '1,x' is not a comma-separated list of integers"),
        (("--targets-count", "-2"), "--targets-count must be >= 1, got -2"),
    ])
    def test_unusable_flags_fail_before_output(self, tmp_path, capsys, flags, message):
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--attack", "continuous",
                   "--budget", "3", "--targets-count", "3", "--top-k", "8", *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_explicit_targets(self, tmp_path):
        out_dir = tmp_path / "explicit"
        rc = main(["attack", "--gen", "ba", "--n", "30", "--m", "2", "--seed", "5",
                   "--attack", "gradmax", "--budget", "2",
                   "--targets", "4,2", "--out", str(out_dir)])
        assert rc == 0
        plan = json.loads((out_dir / "plan_rep0.json").read_text())
        assert plan["targets"] == [2, 4]


class TestDefend:
    def test_header_and_rows(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        main(["generate", "--gen", "er", "--n", "40", "--p", "0.15", "--seed", "9",
              "--out", str(graph_file)])
        attack_dir = tmp_path / "atk"
        main(["attack", "--input", str(graph_file), "--seed", "9",
              "--attack", "gradmax", "--budget", "2", "--targets-count", "3",
              "--top-k", "8", "--out", str(attack_dir)])
        out = tmp_path / "defense.csv"
        rc = main(["defend", "--input", str(graph_file), "--seed", "9",
                   "--plan", str(attack_dir / "plan_rep0.json"), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "budget,tau_ols,tau_huber,tau_ransac"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(float(v) == 0.0 for v in first[1:])


    @pytest.mark.parametrize("targets, message", [
        ([-1, 7], "targets [-1] out of range for a graph of 60 nodes"),
        ([4, 600], "targets [600] out of range for a graph of 60 nodes"),
        ([4, 4, 7], "target ids [4] repeat"),
        ([1.5, 3], "target ids [1.5] are not integers"),
        ([True, 3, False], "target ids [True, False] are not integers"),
    ])
    def test_bad_plan_targets_fail_before_output(self, tmp_path, capsys, targets, message):
        self.assert_plan_fails_before_output(tmp_path, capsys, {"targets": targets}, message)

    @pytest.mark.parametrize("fields, message", [
        (dict(flips_by_budget={"0": []}), "flips_by_budget key '0' is not an integer >= 1"),
        (dict(flips_by_budget={"-2": []}), "flips_by_budget key '-2' is not an integer >= 1"),
        (dict(flips_by_budget={"1": [], "01": []}), "flips_by_budget keys name budget 1 twice"),
        (dict(targets=[]), "target set must be nonempty"),
        (dict(flips_by_budget={"1": [{"i": 0, "j": 5.5, "action": "add"}]}),
         "flips_by_budget['1'] flip ids [5.5] are not integers"),
        (dict(flips_by_budget=[1, 2]), "flips_by_budget must be an object mapping budgets to flip lists"),
    ])
    def test_malformed_plan_fails_before_output(self, tmp_path, capsys, fields, message):
        self.assert_plan_fails_before_output(tmp_path, capsys, fields, message)

    @staticmethod
    def assert_plan_fails_before_output(tmp_path, capsys, fields, message):
        plan = {"schema_version": 1, "targets": [4], "flips_by_budget": {}, **fields}
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        out = tmp_path / "defense.csv"
        rc = main(["defend", "--gen", "ba", "--n", "60", "--m", "3", "--plan", str(plan_file),
                   "--out", str(out)])
        assert rc == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_plan_reports_flip(self, tmp_path, capsys):
        graph_file = write_star(tmp_path / "star.txt")
        plan = {"schema_version": 1, "targets": [0],
                "flips_by_budget": {"1": [{"i": 1, "j": 2, "action": "add"},
                                          {"i": 1, "j": 2, "action": "add"}]}}
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        rc = main(["defend", "--input", str(graph_file), "--plan", str(plan_file),
                   "--out", str(tmp_path / "defense.csv")])
        assert rc == 1
        assert "flip #1: edge (1,2) already present" in capsys.readouterr().err


class TestDetectionStaysSparse:
    """Scoring and defending hold O(n + m); only the attacks build n x n."""

    def test_score_and_defend_never_build_dense(self, tmp_path, monkeypatch):
        g = generate_ba(60, 3, 1)
        add = next(j for j in range(1, 60) if j not in g.neighbors(0))
        (u, v), = g.edges()[:1]
        flips = [{"i": u, "j": v, "action": "delete"}, {"i": 0, "j": add, "action": "add"}]
        plan = {"schema_version": 1, "targets": rank_top_k(score_graph(g), 2),
                "flips_by_budget": {"1": flips[:1], "2": flips}}
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))

        def refuse(self):
            raise AssertionError("detection built a dense n x n matrix")

        monkeypatch.setattr(Graph, "dense", refuse)
        source = ["--gen", "ba", "--n", "60", "--m", "3", "--seed", "1"]
        assert main(["score", *source, "--out", str(tmp_path / "report.csv")]) == 0
        assert main(["defend", *source, "--plan", str(plan_file),
                     "--out", str(tmp_path / "defense.csv")]) == 0
        assert len((tmp_path / "defense.csv").read_text().splitlines()) == 4

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, gadpoison.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert run_python(code).strip() == "[]"


def run_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` by a fresh interpreter
    that imports this checkout's package."""
    src = str(Path(gadpoison.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


# the names gadpoison/__init__.py re-exported when it imported every
# submodule eagerly, by defining module
PACKAGE_EXPORTS = {
    "attacks": ["AttackConfig", "PerturbationPlan", "binarized_attack", "continuous_a",
                "grad_max_search", "tau_as"],
    "defense": ["fit_huber", "fit_ransac", "rescore_features", "robust_rescore"],
    "graph": ["EdgeFlip", "FlipAction", "Graph", "apply_flips", "derive_rng", "generate",
              "generate_ba", "generate_er", "load_edge_list", "save_edge_list"],
    "oddball": ["AnomalyReport", "EgoFeatures", "RegressionFit", "anomaly_scores", "ego_features",
                "fit_ols", "rank_top_k", "score_graph", "surrogate_objective", "write_report_csv"],
    "stats": ["PermTestResult", "permutation_test"],
    "transfer": ["Embedding", "LabeledSplit", "PipelineConfig", "RefexConfig", "TransferReport",
                 "identify_targets", "make_labeled_split", "refex_embed", "run_transfer_attack",
                 "train_classifier"],
}


class TestStartup:
    """A CLI process imports only the modules its subcommand runs."""

    # run `gadpoison ARGS` as the installed script does, which runs gadpoison.cli
    # as `python -m gadpoison.cli ARGS` would; then list the package's loaded modules
    RUN_CLI = ("import sys\n"
               "from gadpoison.__main__ import main\n"
               "sys.argv = ['gadpoison', *sys.argv[1:]]\n"
               "try:\n"
               "    main()\n"
               "except SystemExit as exc:\n"
               "    assert exc.code == 0, exc.code\n"
               "print(' '.join(sorted(m for m in sys.modules if m.startswith('gadpoison'))))\n")
    DETECTION = ["gadpoison", "gadpoison.__main__", "gadpoison.errors", "gadpoison.graph",
                 "gadpoison.oddball"]

    def test_score_and_permtest_skip_attack_modules(self, tmp_path):
        report = str(tmp_path / "report.csv")
        out = run_python(self.RUN_CLI, "score", "--gen", "ba", "--n", "50", "--m", "3", "--out", report)
        loaded = out.splitlines()[-1].split()
        assert loaded == self.DETECTION
        out = run_python(self.RUN_CLI, "permtest", report, report, "--column", "N", "--m", "10")
        loaded = out.splitlines()[-1].split()
        assert loaded == [*self.DETECTION, "gadpoison.stats"]
        for module in ("attacks", "gradients", "transfer", "defense"):
            assert f"gadpoison.{module}" not in loaded

    def test_defend_leaves_numpy_ma_out(self, tmp_path):
        # np.median imports numpy.ma; RANSAC's inlier band takes its median without it
        g = generate_ba(60, 3, 1)
        (u, v), = g.edges()[:1]
        plan = {"schema_version": 1, "targets": [0, 1],
                "flips_by_budget": {"1": [{"i": int(u), "j": int(v), "action": "delete"}]}}
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        code = self.RUN_CLI + "print('numpy.ma' in sys.modules)\n"
        out = run_python(code, "defend", "--gen", "ba", "--n", "60", "--m", "3", "--seed", "1",
                         "--plan", str(plan_file), "--out", str(tmp_path / "defense.csv"))
        assert "gadpoison.defense" in out.splitlines()[-2].split()
        assert out.splitlines()[-1] == "False"

    def test_package_exports_resolve_on_access(self):
        code = ("import importlib, json, sys\n"
                "import gadpoison\n"
                "print(sorted(m for m in sys.modules if m.startswith('gadpoison.')))\n"
                "for module, names in json.loads(sys.argv[1]).items():\n"
                "    for name in names:\n"
                "        exec(f'from gadpoison import {name} as value')\n"
                "        assert value is getattr(importlib.import_module(f'gadpoison.{module}'), name), name\n"
                "print(gadpoison.__version__)\n")
        assert run_python(code, json.dumps(PACKAGE_EXPORTS)).splitlines() == ["[]", "0.1.0"]
        assert sorted(gadpoison.__all__) == sorted(n for names in PACKAGE_EXPORTS.values() for n in names)

    def test_attack_choices_match_registry(self):
        assert ATTACK_NAMES == tuple(sorted(attacks.ATTACKS))


class TestGolden:
    """Fixed-seed outputs must stay byte-identical across refactors."""

    DIGESTS = {
        "atk/plan_rep0.json": "b367697197b2181a8da16a44b2c79535350f8fcca64bab5ca2686c0b356b18d8",
        "atk/trace_rep0.csv": "fb88877b7aa4213ce23f4e17d24d904aca4852d3f78749431fce8e75c5d8ad19",
        "atk/summary.csv": "87591024433a49e17869d09a72275e7bae17f7516935802f56395082bb6ba4eb",
        "defense.csv": "8d0619ca548691f40e5e74fbf3136d6e6fb8455cfd109ed52ea0ae2dc61ba4c0",
    }

    def test_gradmax_and_defend_digests(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ba", "--n", "60", "--m", "3", "--seed", "3",
                     "--out", str(graph_file)]) == 0
        assert main(["attack", "--input", str(graph_file), "--seed", "3", "--attack", "gradmax",
                     "--budget", "4", "--targets-count", "3", "--top-k", "10",
                     "--out", str(tmp_path / "atk")]) == 0
        assert main(["defend", "--input", str(graph_file), "--seed", "3",
                     "--plan", str(tmp_path / "atk" / "plan_rep0.json"),
                     "--out", str(tmp_path / "defense.csv")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS


    BINARIZED_DIGESTS = {
        "plan_rep0.json": "6421cf691af6cd82be031ee76876400f70709047f30239c7b5fe130a022d1a5f",
        "trace_rep0.csv": "2c02751aec760c6334781f60d7d79e3cbae51c5c91fdee52f92f558ede2059ec",
        "summary.csv": "e44ad540c47f0d4a0b01a99ab7b021332cd6c36842c41d8f631ac79ab9cfb3a5",
    }

    def test_binarized_digests(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ba", "--n", "60", "--m", "3", "--seed", "3",
                     "--out", str(graph_file)]) == 0
        assert main(["attack", "--input", str(graph_file), "--seed", "3", "--attack", "binarized",
                     "--budget", "4", "--targets-count", "3", "--top-k", "10",
                     "--iters", "150", "--lr", "0.002", "--lam", "0.0001", "--lam", "0.01",
                     "--out", str(tmp_path / "atk")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "atk" / name).read_bytes()).hexdigest()
                   for name in self.BINARIZED_DIGESTS}
        assert digests == self.BINARIZED_DIGESTS


    CONTINUOUS_DIGESTS = {
        "plan_rep0.json": "f0ce824d41a1a88517b116c687f6f011a6ed956b9667993fe82345ee69bc2fb6",
        "trace_rep0.csv": "fd1498b149c1ee7c5c0704b9f27fa49bb59f5cc2a223b5a99f97b47074d37c8a",
        "summary.csv": "5ccf2d5b4e4d492c64ed49226e9d089915e5f1cb21917a9583b317ccfe6fa816",
    }

    def test_continuous_digests(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ba", "--n", "60", "--m", "3", "--seed", "3",
                     "--out", str(graph_file)]) == 0
        # 200 steps at this rate run to the end (the plan notes NonConvergence)
        with pytest.warns(UserWarning, match="NonConvergence"):
            assert main(["attack", "--input", str(graph_file), "--seed", "3", "--attack", "continuous",
                         "--budget", "4", "--targets-count", "3", "--top-k", "10",
                         "--iters", "200", "--lr", "0.002", "--out", str(tmp_path / "atk")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "atk" / name).read_bytes()).hexdigest()
                   for name in self.CONTINUOUS_DIGESTS}
        assert digests == self.CONTINUOUS_DIGESTS

    def test_transfer_digest(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ba", "--n", "60", "--m", "3", "--seed", "3",
                     "--out", str(graph_file)]) == 0
        out = tmp_path / "transfer.json"
        assert main(["transfer", "--input", str(graph_file), "--seed", "4", "--budget", "3",
                     "--epochs", "150", "--lr", "0.1", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "6ed406c3e1f97ec20dc1fa6c4d361a4b5053e03319e7658c6809bb61654b9770"


class TestTransfer:
    def test_zero_budget_zero_delta(self, tmp_path):
        out = tmp_path / "transfer.json"
        rc = main(["transfer", "--gen", "ba", "--n", "120", "--m", "3", "--seed", "4",
                   "--budget", "0", "--epochs", "150", "--lr", "0.1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["delta_b"] == pytest.approx(0.0, abs=1e-12)
        assert report["auc_clean"] == report["auc_poisoned"]

    @pytest.mark.parametrize("flags, message", [
        (("--bins", "0"), "need recursion_depth >= 0 and bins >= 1, got 2, 0"),
        (("--depth", "-1"), "need recursion_depth >= 0 and bins >= 1, got -1, 4"),
        (("--prune-corr", "nan"), "prune_corr must be finite and in [0, 1], got nan"),
        (("--prune-corr", "-1"), "prune_corr must be finite and in [0, 1], got -1.0"),
        (("--prune-corr", "2"), "prune_corr must be finite and in [0, 1], got 2.0"),
    ])
    def test_unusable_embedding_fails_before_output(self, tmp_path, capsys, flags, message):
        out = tmp_path / "transfer.json"
        rc = main(["transfer", "--gen", "ba", "--n", "60", "--m", "3", "--budget", "2", *flags,
                   "--out", str(out)])
        assert rc == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--epochs", "-5"), "epochs must be >= 1, got -5"),
        (("--epochs", "0"), "epochs must be >= 1, got 0"),
        (("--lr", "nan"), "lr must be finite and > 0, got nan"),
        (("--lr", "0"), "lr must be finite and > 0, got 0.0"),
    ])
    def test_unusable_training_fails_before_output(self, tmp_path, capsys, flags, message):
        out = tmp_path / "transfer.json"
        rc = main(["transfer", "--gen", "ba", "--n", "60", "--m", "3", "--budget", "2", *flags,
                   "--out", str(out)])
        assert rc == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestPermtest:
    def test_identical_files_p_one(self, tmp_path, capsys):
        f = tmp_path / "x.txt"
        f.write_text("\n".join(str(v) for v in [1.0, 2.0, 3.0, 4.0]))
        rc = main(["permtest", str(f), str(f), "--m", "500"])
        assert rc == 0
        assert "p=1" in capsys.readouterr().out

    def test_report_csv_column(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["score", "--gen", "er", "--n", "60", "--p", "0.1", "--seed", "1", "--out", str(r1)])
        main(["score", "--gen", "er", "--n", "60", "--p", "0.1", "--seed", "2", "--out", str(r2)])
        rc = main(["permtest", str(r1), str(r2), "--column", "N", "--m", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t0=" in out and "p=" in out

    def test_csv_without_column_fails(self, tmp_path, capsys):
        r1 = tmp_path / "r1.csv"
        main(["score", "--gen", "er", "--n", "40", "--p", "0.1", "--seed", "1", "--out", str(r1)])
        rc = main(["permtest", str(r1), str(r1), "--m", "100"])
        assert rc == 1

    def test_non_numeric_line_fails(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1.0\noops\n")
        assert main(["permtest", str(f), str(f), "--m", "100"]) == 1

    def test_report_column_matches_csv_rows(self, tmp_path):
        report = tmp_path / "r.csv"
        main(["score", "--gen", "ba", "--n", "80", "--m", "3", "--seed", "4", "--out", str(report)])
        with open(report) as fh:
            rows = list(csv.DictReader(fh))
        for column in ("N", "E", "score"):
            values = _read_column(str(report), column)
            assert values.dtype == np.float64
            assert values.tolist() == [float(row[column]) for row in rows]

    @pytest.mark.parametrize("column, message", [
        (None, " is a CSV report; pass --column N or --column E"),
        ("score", ": no column 'score'"),
    ])
    def test_report_column_messages(self, tmp_path, capsys, column, message):
        report = tmp_path / "r.csv"
        report.write_text("node_id,N,E\n0,1,1\n1,2,3\n")
        flags = ["--column", column] if column else []
        assert main(["permtest", str(report), str(report), "--m", "10", *flags]) == 1
        assert capsys.readouterr().err == f"error: {report}{message}\n"

    def test_nan_value_fails(self, tmp_path, capsys):
        x, y = tmp_path / "x.txt", tmp_path / "y.txt"
        x.write_text("1.0\n2.0\n")
        y.write_text("1.0\nnan\n")
        assert main(["permtest", str(x), str(y), "--m", "100"]) == 1
        assert "sample y contains NaN or inf" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "er", "n": 40, "p": 0.1, "seed": 11}))
        out = tmp_path / "report.csv"
        rc = main(["--config", str(cfg), "score", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 41

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "er", "n": 40, "p": 0.1, "seed": 11}))
        out = tmp_path / "report.csv"
        main(["--config", str(cfg), "score", "--n", "25", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 26

    def test_trailing_config_without_value_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--gen", "er", "--out", str(tmp_path / "r.csv"), "--config"])
        assert exc.value.code == 2
        assert "--config needs a JSON file path" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_unreadable_config_fails(self, tmp_path, capsys, content, reason):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "score", "--gen", "er", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--config {cfg}: " in err and reason in err

    def test_equals_form_config_is_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "er", "n": 40, "p": 0.1, "seed": 11}))
        out = tmp_path / "report.csv"
        assert main([f"--config={cfg}", "score", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 41

    def test_equals_form_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": [0.1], "n": 40}))
        parser = build_parser()
        argv = ["--config", str(cfg), "attack", "--gen", "er", "--attack", "binarized",
                "--budget", "1", "--out", "x", "--lam=0.5", "--n=25"]
        args = parser.parse_args(_apply_config_file(parser, argv))
        assert args.lam == [0.5]
        assert args.n == 25

    def test_abbreviated_config_flag_rejected(self, tmp_path, capsys):
        # argparse would expand --conf to --config, which the merge never reads;
        # the space form fails on the path read as the subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "er", "n": 40}))
        out = tmp_path / "report.csv"
        for argv, reason in (([f"--conf={cfg}", "score", "--out", str(out)], "unrecognized arguments"),
                             (["--conf", str(cfg), "score", "--out", str(out)], "invalid choice")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--la", "0.5"], ["--la=0.5"]])
    def test_abbreviated_flag_does_not_extend_config_list(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": [0.1]}))
        argv = ["--config", str(cfg), "attack", "--gen", "er", "--attack", "binarized",
                "--budget", "1", "--out", str(tmp_path / "x"), *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --la" in capsys.readouterr().err


# attack flags with their argparse dest, a value strategy and the parser default
MERGE_FLAGS = {
    "seed": (st.integers(0, 99), 0),
    "n": (st.integers(5, 500), 1000),
    "lr": (st.floats(1e-4, 1.0), 0.01),
    "iters": (st.integers(0, 900), 500),
    "lam": (st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3), None),
    "top_k": (st.integers(1, 60), 50),
    "add_only": (st.booleans(), False),
}


@st.composite
def merge_case(draw):
    keys = sorted(MERGE_FLAGS)
    config = {k: draw(MERGE_FLAGS[k][0]) for k in draw(st.sets(st.sampled_from(keys)))}
    explicit = {k: draw(MERGE_FLAGS[k][0]) for k in draw(st.sets(st.sampled_from(keys)))}
    equals_form = {k: draw(st.booleans()) for k in explicit}
    return config, explicit, equals_form, draw(st.booleans())


class TestConfigMerge:
    @settings(max_examples=60, deadline=None)
    @given(merge_case())
    def test_explicit_flags_win_config_fills_the_rest(self, case):
        config, explicit, equals_form, config_equals = case
        tokens = []
        for key, value in explicit.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                tokens += [flag] if value else []
                continue
            for v in value if isinstance(value, list) else [value]:
                tokens += [f"{flag}={v!r}"] if equals_form[key] else [flag, repr(v)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            head = [f"--config={cfg}"] if config_equals else ["--config", str(cfg)]
            argv = head + ["attack", "--gen", "er", "--attack", "gradmax", "--budget", "1",
                           *tokens, "--out", "x"]
            parser = build_parser()
            args = parser.parse_args(_apply_config_file(parser, argv))
        for key, (_, default) in MERGE_FLAGS.items():
            # an explicit False store_true flag is simply absent from argv
            if key in explicit and explicit[key] is not False:
                expected = explicit[key]
            else:
                expected = config.get(key, default)
            assert getattr(args, key) == expected, key
