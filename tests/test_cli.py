"""End-to-end CLI tests through subprocess: verbs, exit codes, golden files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calib import load_model, load_problem, load_solution, save_problem

from conftest import small_problem

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = DATA / "golden_problem.json"
GOLDEN_ARGS = [
    "--seed", "1", "--classifiers", "2", "--positives", "3", "--negatives", "6",
    "--dims", "4", "--noise", "0.3", "--hardness", "0.34", "--hardness-scale", "0.6",
]
GOLDEN_LOSS = 3
GOLDEN_THRESHOLDS = (-0.003940885462975628, 0.6517463410832167)


def run(*argv, env_log="quiet"):
    # A minimal environment keeps an inherited CALIB_LOG out of the child;
    # PYTHONPATH puts this checkout's src first, ahead of any installed calib.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "calib", *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "CALIB_LOG": env_log, "PYTHONPATH": pythonpath},
    )


def test_usage_errors_exit_1():
    for argv in [
        (),
        ("frobnicate",),
        ("solve",),  # missing problem/--out
        ("evaluate", "a", "b"),  # missing --metric
    ]:
        res = run(*argv)
        assert res.returncode == 1, argv
        assert "usage: calib" in res.stderr, argv


def test_help_exits_0():
    res = run("--help")
    assert res.returncode == 0
    for verb in ("generate", "solve", "oracle", "calibrate", "evaluate", "bench"):
        assert verb in res.stdout


def test_generate_reproduces_golden_bytes(tmp_path):
    out = tmp_path / "p.json"
    res = run("generate", *GOLDEN_ARGS, "--out", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_generate_writes_test_split(tmp_path):
    out, test_out = tmp_path / "train.json", tmp_path / "test.json"
    res = run("generate", *GOLDEN_ARGS, "--test-out", str(test_out), "--out", str(out))
    assert res.returncode == 0
    held_out = load_problem(test_out)
    assert held_out.metadata["split"] == "test"
    assert held_out.num_positives == 3


def test_solve_golden(tmp_path):
    out = tmp_path / "sol.json"
    res = run("solve", str(GOLDEN), "--out", str(out))
    assert res.returncode == 0
    sol = load_solution(out)
    assert sol.loss == GOLDEN_LOSS
    assert sol.optimal and not sol.fallback
    assert sol.config.thresholds == GOLDEN_THRESHOLDS
    assert sol.assignment == [1, 0, 0]


def test_solve_trace_prints_incumbents(tmp_path):
    out = tmp_path / "sol.json"
    res = run("solve", str(GOLDEN), "--trace", "--out", str(out))
    assert res.returncode == 0
    assert "incumbent ms=" in res.stderr
    assert "loss=3" in res.stderr


def test_solve_expired_budget_exits_3(tmp_path):
    out = tmp_path / "sol.json"
    res = run(
        "solve", str(GOLDEN), "--mode", "anytime",
        "--budget-ms", "1e-4", "--out", str(out),
    )
    assert res.returncode == 3
    sol = load_solution(out)
    assert sol.fallback and not sol.optimal


def test_solve_node_budget_truncates(tmp_path):
    prob_path = tmp_path / "p.json"
    save_problem(small_problem(5), prob_path)  # first-descent leaf suboptimal
    out = tmp_path / "sol.json"
    res = run(
        "solve", str(prob_path), "--mode", "anytime",
        "--node-budget", "1", "--out", str(out),
    )
    assert res.returncode == 3
    assert load_solution(out).loss == 9


def test_solve_ablation_flags_preserve_loss(tmp_path):
    outs = []
    for i, flags in enumerate(
        [[], ["--no-prune-bound", "--no-prune-equiv"],
         ["--no-depth-reduce", "--random-order", "--order-seed", "7"]]
    ):
        out = tmp_path / f"sol{i}.json"
        assert run("solve", str(GOLDEN), *flags, "--out", str(out)).returncode == 0
        outs.append(load_solution(out).loss)
    assert outs == [GOLDEN_LOSS] * 3


def test_oracle_golden(tmp_path):
    out = tmp_path / "oracle_sol.json"
    res = run("oracle", str(GOLDEN), "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["loss"] == GOLDEN_LOSS
    assert tuple(doc["thresholds"]) == GOLDEN_THRESHOLDS
    assert doc["enumerated"] == 12
    sol = load_solution(out)
    assert sol.loss == GOLDEN_LOSS and sol.optimal


def test_oracle_cap_exits_4():
    res = run("oracle", str(GOLDEN), "--cap", "5")
    assert res.returncode == 4
    assert "calib oracle" in res.stderr


def test_missing_file_exits_2(tmp_path):
    res = run("solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "s.json"))
    assert res.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("solve", str(bad), "--out", str(tmp_path / "s.json"))
    assert res.returncode == 2


def malformed_case(tmp_path, kind):
    """argv reading one file of the given kind with a field of the wrong type."""
    bad = tmp_path / f"bad_{kind}.json"
    if kind == "problem":
        doc = json.loads(GOLDEN.read_text())
        doc["positive_ids"] = 5
        argv = ["solve", str(bad), "--out", str(tmp_path / "s.json")]
    elif kind == "solution":
        doc = {"thresholds": list(GOLDEN_THRESHOLDS), "loss": GOLDEN_LOSS,
               "assignment": [1, 0, 0], "optimal": True, "stats": [1]}
        argv = ["calibrate", str(GOLDEN), "--method", "joint-thresholds",
                "--solution", str(bad), "--out", str(tmp_path / "m.json")]
    else:
        doc = {"version": 1, "method": "affine", "num_classifiers": 2,
               "classifiers": [5, {"kind": "affine", "a": 1.0, "b": 0.0}]}
        argv = ["evaluate", str(bad), str(GOLDEN), "--metric", "ap"]
    bad.write_text(json.dumps(doc))
    return argv


@pytest.mark.parametrize("kind", ["problem", "solution", "model"])
def test_malformed_field_exits_2(tmp_path, kind):
    res = run(*malformed_case(tmp_path, kind))
    assert res.returncode == 2
    assert "ParseError" in res.stderr
    assert "Traceback" not in res.stderr


def solve_golden(tmp_path):
    sol = tmp_path / "sol.json"
    assert run("solve", str(GOLDEN), "--out", str(sol)).returncode == 0
    return sol


@pytest.mark.parametrize(
    "method", ["independent-sigmoid", "isotonic", "affine", "joint-sigmoid",
               "joint-thresholds"]
)
def test_calibrate_all_methods(tmp_path, method):
    model_path = tmp_path / "model.json"
    argv = ["calibrate", str(GOLDEN), "--method", method, "--out", str(model_path)]
    if method.startswith("joint"):
        argv += ["--solution", str(solve_golden(tmp_path))]
    assert run(*argv).returncode == 0
    model = load_model(model_path)
    assert model.num_classifiers == 2


def test_calibrate_joint_without_solution_exits_1(tmp_path):
    res = run(
        "calibrate", str(GOLDEN), "--method", "joint-sigmoid",
        "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 1
    assert "--solution" in res.stderr


def test_calibrate_unknown_method_exits_1(tmp_path):
    res = run(
        "calibrate", str(GOLDEN), "--method", "platt",
        "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 1
    assert "usage: calib" in res.stderr
    assert "invalid choice" in res.stderr


def test_evaluate_metrics_and_csv(tmp_path):
    sol = solve_golden(tmp_path)
    model_path = tmp_path / "model.json"
    res = run("calibrate", str(GOLDEN), "--method", "joint-thresholds",
              "--solution", str(sol), "--out", str(model_path))
    assert res.returncode == 0

    res = run("evaluate", str(model_path), str(GOLDEN), "--metric", "ap")
    assert res.returncode == 0
    name, value = res.stdout.split()
    assert name == "ap" and 0.0 <= float(value) <= 1.0

    csv_path = tmp_path / "curve.csv"
    res = run(
        "evaluate", str(model_path), str(GOLDEN),
        "--metric", "fp-at-recall", "--recall", "1.0", "--csv", str(csv_path),
    )
    assert res.returncode == 0
    lines = dict(l.split() for l in res.stdout.strip().splitlines())
    # the joint margin point reproduces the training loss at full recall
    assert lines["fp"] == str(GOLDEN_LOSS)
    assert float(lines["tau"]) == 0.0
    assert float(lines["recall"]) == 1.0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "score", "label", "precision", "recall"]
    assert len(rows) == 1 + 3 + 6  # header + positives + negatives


def test_evaluate_bad_recall_exits_2(tmp_path):
    model_path = tmp_path / "model.json"
    res = run("calibrate", str(GOLDEN), "--method", "affine", "--out", str(model_path))
    assert res.returncode == 0
    res = run(
        "evaluate", str(model_path), str(GOLDEN),
        "--metric", "fp-at-recall", "--recall", "1.7",
    )
    assert res.returncode == 2
    assert "target recall 1.7 outside [0, 1]" in res.stderr


def test_bench_writes_ablation_grid(tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({
        "seeds": [1, 2],
        "classifiers": 3,
        "positives": 5,
        "negatives": 20,
        "noise": 0.25,
    }))
    res = run("bench", str(spec), "--out-dir", str(tmp_path), env_log="info")
    assert res.returncode == 0
    with open(tmp_path / "bench_nodes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 6 ablations x 2 seeds
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], set()).add(row["loss"])
        assert row["optimal"] == "True"
    # every ablation finds the same optimum on each seed
    assert all(len(losses) == 1 for losses in by_seed.values())
    all_on = {r["seed"]: int(r["nodes_visited"]) for r in rows if r["config"] == "all-on"}
    all_off = {r["seed"]: int(r["nodes_visited"]) for r in rows if r["config"] == "all-off"}
    assert all(all_on[s] <= all_off[s] for s in all_on)
    curves = (tmp_path / "bench_incumbents.csv").read_text().splitlines()
    assert curves[0] == "config,seed,elapsed_ms,loss"
    assert len(curves) > 1


@pytest.mark.parametrize("spec", [
    {"seeds": [1], "ablations": [{"name": "typo", "enable_prune_bond": False}]},
    {"seeds": [1], "classifers": 3},
], ids=["unknown-ablation-flag", "unknown-key"])
def test_bench_bad_spec_exits_2(tmp_path, spec):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(spec))
    res = run("bench", str(path), "--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert "InvalidSpec" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "bench_nodes.csv").exists()


def test_quiet_log_level_suppresses_info(tmp_path):
    out = tmp_path / "sol.json"
    quiet = run("solve", str(GOLDEN), "--out", str(out), env_log="quiet")
    assert quiet.stderr == ""
    noisy = run("solve", str(GOLDEN), "--out", str(out), env_log="info")
    assert "loss=3" in noisy.stderr
