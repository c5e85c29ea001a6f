"""End-to-end CLI tests through subprocess: verbs, exit codes, golden files."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calib import (
    GenerateSpec,
    Problem,
    generate,
    load_model,
    load_problem,
    load_solution,
    save_problem,
)
from calib import cli
from calib.oracle import GRID_CAP

from conftest import NOT_RFC_8259, small_problem

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
GOLDEN = DATA / "golden_problem.json"
GOLDEN_ARGS = [
    "--seed", "1", "--classifiers", "2", "--positives", "3", "--negatives", "6",
    "--dims", "4", "--noise", "0.3", "--hardness", "0.34", "--hardness-scale", "0.6",
]
GOLDEN_LOSS = 3
GOLDEN_THRESHOLDS = (-0.003940885462975628, 0.6517463410832167)


def child_env(env_log="quiet"):
    # A minimal environment keeps an inherited CALIB_LOG out of the child;
    # PYTHONPATH puts this checkout's src first, ahead of any installed calib.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {"PATH": "/usr/bin:/bin", "CALIB_LOG": env_log, "PYTHONPATH": pythonpath}


def run(*argv, env_log="quiet"):
    return subprocess.run(
        [sys.executable, "-m", "calib", *argv],
        capture_output=True,
        text=True,
        env=child_env(env_log),
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


def readme_cli_quick_start():
    """The first fenced bash block under the README's "Quick start (CLI)"."""
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)\n", 1)[1]
    return section.split("```bash\n", 1)[1].split("\n```", 1)[0]


def test_readme_cli_quick_start_runs(tmp_path):
    shim = f'calib() {{ {shlex.quote(sys.executable)} -m calib "$@"; }}\n'
    res = subprocess.run(["bash", "-e", "-c", shim + readme_cli_quick_start()],
                         cwd=tmp_path, capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr


def test_generate_reproduces_golden_bytes(tmp_path):
    out = tmp_path / "p.json"
    res = run("generate", *GOLDEN_ARGS, "--out", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_generate_defaults_are_the_specs(tmp_path):
    out, ref = tmp_path / "p.json", tmp_path / "ref.json"
    res = run("generate", "--seed", "1", "--classifiers", "2", "--positives", "3",
              "--negatives", "6", "--out", str(out))
    assert res.returncode == 0
    save_problem(generate(GenerateSpec(1, 2, 3, 6))[0], ref)
    assert out.read_bytes() == ref.read_bytes()


def test_generate_to_directory_exits_2(tmp_path):
    out = tmp_path / "dir"
    out.mkdir()
    res = run("generate", *GOLDEN_ARGS, "--out", str(out))
    assert res.returncode == 2
    assert "IoError" in res.stderr
    assert "Traceback" not in res.stderr
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


SMALL_ARGS = ["--seed", "1", "--classifiers", "2", "--positives", "2", "--negatives", "3"]


@pytest.mark.parametrize("split", ["5e-324", "1e-300"])
def test_generate_split_too_small_for_an_array_exits_2(tmp_path, split):
    res = run("generate", *SMALL_ARGS, "--split", split, "--out", str(tmp_path / "p.json"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and "InvalidSpec" in res.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, message", [
    ("--spread", "nan", "spread must be finite, got nan"),
    ("--noise", "inf", "noise must be finite, got inf"),
    ("--hardness-scale", "-inf", "hardness_scale must be finite, got -inf"),
    ("--spread", "1e308", "spread 1e+308 would overflow the float64 scores"),
])
def test_generate_non_finite_or_overflowing_float_exits_2(tmp_path, option, value, message):
    res = run("generate", *SMALL_ARGS, option, value, "--out", str(tmp_path / "p.json"))
    assert res.returncode == 2
    # One line, no numpy RuntimeWarning ahead of it.
    assert res.stderr == f"calib generate: InvalidSpec: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # --split 1e-12 asks for 14.6 TiB; a stand-in raises as numpy would.
    def generate(spec):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "generate", generate)
    code = cli.main(["generate", *SMALL_ARGS, "--split", "1e-12",
                     "--out", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "calib generate: out of memory: Unable to allocate 14.6 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


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
    assert sol.config == GOLDEN_THRESHOLDS
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
    # Local search improves the first-descent leaf (loss 9) to the optimum,
    # which one node cannot prove.
    assert load_solution(out).loss == 8


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


def test_solve_order_seed_needs_random_order(tmp_path):
    out = tmp_path / "sol.json"
    res = run("solve", str(GOLDEN), "--order-seed", "7", "--out", str(out))
    assert res.returncode == 1
    assert "--order-seed needs --random-order" in res.stderr
    assert not out.exists()
    # --random-order alone shuffles with seed 0.
    stats = []
    for seed in ([], ["--order-seed", "0"]):
        assert run("solve", str(GOLDEN), "--random-order", *seed,
                   "--out", str(out)).returncode == 0
        stats.append(load_solution(out).stats.nodes_visited)
    assert stats[0] == stats[1]


@pytest.mark.parametrize("budget", [
    ("--budget-ms", "0"),
    ("--budget-ms", "-5"),
    ("--budget-ms", "nan"),
    ("--node-budget", "0"),
], ids=["zero-ms", "negative-ms", "nan-ms", "zero-nodes"])
def test_solve_bad_budget_exits_2(tmp_path, budget):
    out = tmp_path / "sol.json"
    res = run("solve", str(GOLDEN), *budget, "--out", str(out))
    assert res.returncode == 2
    assert "InvalidSpec" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


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


def test_oracle_cap_defaults_to_grid_cap():
    args = cli._build_parser().parse_args(["oracle", str(GOLDEN)])
    assert args.cap == GRID_CAP


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_oracle_bad_cap_exits_2(cap):
    res = run("oracle", str(GOLDEN), "--cap", cap)
    assert res.returncode == 2
    assert "ValidationError: cap must be at least 1" in res.stderr
    assert "Traceback" not in res.stderr


def test_missing_file_exits_2(tmp_path):
    res = run("solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "s.json"))
    assert res.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("solve", str(bad), "--out", str(tmp_path / "s.json"))
    assert res.returncode == 2


def not_utf8_argv(tmp_path, verb):
    """argv for verb reading a file that is not valid UTF-8."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"version": 1, "x": "\xff"}')
    return {
        "solve": ["solve", str(bad), "--out", str(tmp_path / "s.json")],
        "calibrate": ["calibrate", str(GOLDEN), "--method", "joint-thresholds",
                      "--solution", str(bad), "--out", str(tmp_path / "m.json")],
        "evaluate": ["evaluate", str(bad), str(GOLDEN), "--metric", "ap"],
        "bench": ["bench", str(bad), "--out-dir", str(tmp_path)],
    }[verb]


@pytest.mark.parametrize("verb", ["solve", "calibrate", "evaluate", "bench"])
def test_file_not_utf8_exits_2(tmp_path, verb):
    res = run(*not_utf8_argv(tmp_path, verb))
    assert res.returncode == 2
    assert f"calib {verb}: ParseError:" in res.stderr and "not valid UTF-8" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("case", NOT_RFC_8259)
def test_solve_file_outside_json_dialect_exits_2(tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_text(NOT_RFC_8259[case][0], encoding="utf-8")
    res = run("solve", str(bad), "--out", str(tmp_path / "s.json"))
    assert res.returncode == 2
    [line] = res.stderr.splitlines()
    assert line.startswith("calib solve: ParseError: ")
    assert not (tmp_path / "s.json").exists()


AFFINE = {"kind": "affine", "a": 1.0, "b": 0.0}
ISOTONIC = {"kind": "isotonic", "breakpoints": [0.0, 1.0], "values": [0.25, 0.5]}

# Per case: the kind of file and the fields that replace a valid one's.
MALFORMED = {
    "problem": ("problem", {"positive_ids": 5}),
    "problem-number-id": ("problem", {"positive_ids": ["a", 1, "c"]}),
    "problem-null-id": ("problem", {"positive_ids": ["a", "b", None]}),
    "problem-bool-id": ("problem", {"negative_ids": [True, "b", "c", "d", "e", "f"]}),
    "problem-bool-version": ("problem", {"version": True}),
    "problem-bool-count": ("problem", {"num_classifiers": True, "positive_scores": [[0.5]],
                                       "negative_scores": [[0.1]]}),
    "solution": ("solution", {"stats": [1]}),
    "solution-string-threshold": ("solution", {"thresholds": ["-0.5", 0.6]}),
    "solution-bool-threshold": ("solution", {"thresholds": [-0.5, True]}),
    "solution-string-loss": ("solution", {"loss": "3"}),
    "solution-string-optimal": ("solution", {"optimal": "no"}),
    "solution-bool-stat": ("solution", {"stats": {"nodes_visited": True}}),
    "model": ("model", {"classifiers": [5, AFFINE]}),
    "model-string-param": ("model", {"classifiers": [{**AFFINE, "a": "2"}, AFFINE]}),
    "model-bool-param": ("model", {"classifiers": [{**AFFINE, "b": True}, AFFINE]}),
    "model-bool-isotonic-value": ("model", {
        "method": "isotonic",
        "classifiers": [{**ISOTONIC, "values": [0.25, True]}, ISOTONIC],
    }),
}


def malformed_case(tmp_path, case):
    """argv reading one file with a field of the wrong type (see MALFORMED)."""
    kind, fields = MALFORMED[case]
    bad = tmp_path / f"bad_{kind}.json"
    if kind == "problem":
        doc = json.loads(GOLDEN.read_text())
        argv = ["solve", str(bad), "--out", str(tmp_path / "s.json")]
    elif kind == "solution":
        doc = {"thresholds": list(GOLDEN_THRESHOLDS), "loss": GOLDEN_LOSS,
               "assignment": [1, 0, 0], "optimal": True}
        argv = ["calibrate", str(GOLDEN), "--method", "joint-thresholds",
                "--solution", str(bad), "--out", str(tmp_path / "m.json")]
    else:
        doc = {"version": 1, "method": "affine", "num_classifiers": 2}
        argv = ["evaluate", str(bad), str(GOLDEN), "--metric", "ap"]
    bad.write_text(json.dumps({**doc, **fields}))
    return argv


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_field_exits_2(tmp_path, case):
    res = run(*malformed_case(tmp_path, case))
    assert res.returncode == 2
    assert "ParseError" in res.stderr
    assert "Traceback" not in res.stderr


def write_model(tmp_path, method, maps):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"version": 1, "method": method,
                                "num_classifiers": len(maps), "classifiers": maps}))
    return path


@pytest.mark.parametrize("breakpoints, values", [
    ([0.1, 0.2], [0.5]),
    ([], []),
    ([0.2, 0.1], [0.0, 1.0]),
], ids=["length-mismatch", "empty", "unsorted"])
def test_evaluate_malformed_isotonic_map_exits_2(tmp_path, breakpoints, values):
    good = {"kind": "isotonic", "breakpoints": [0.0], "values": [0.5]}
    bad = {"kind": "isotonic", "breakpoints": breakpoints, "values": values}
    model = write_model(tmp_path, "isotonic", [bad, good])
    res = run("evaluate", str(model), str(GOLDEN), "--metric", "ap")
    assert res.returncode == 2
    assert "ParseError" in res.stderr and "isotonic" in res.stderr
    assert "Traceback" not in res.stderr


def test_evaluate_maps_that_do_not_fit_method_exits_2(tmp_path):
    sigmoid = {"kind": "sigmoid", "a": -1.0, "b": 0.0}
    model = write_model(tmp_path, "joint-thresholds", [sigmoid, sigmoid])
    res = run("evaluate", str(model), str(GOLDEN), "--metric", "fp-at-recall")
    assert res.returncode == 2
    assert "ParseError" in res.stderr and "SigmoidParams" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


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


@pytest.mark.parametrize("method,option,value,name", [
    ("independent-sigmoid", "--cutoff", "nan", "cutoff"),
], ids=["nan-cutoff"])
def test_calibrate_bad_argument_exits_2(tmp_path, method, option, value, name):
    out = tmp_path / "m.json"
    res = run("calibrate", str(GOLDEN), "--method", method, option, value, "--out", str(out))
    assert res.returncode == 2
    assert f"ValidationError: {name}" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_calibrate_has_no_sampling_options(tmp_path):
    out = tmp_path / "m.json"
    for option in ("--sample-count", "--seed"):
        res = run("calibrate", str(GOLDEN), "--method", "affine", option, "5",
                  "--out", str(out))
        assert res.returncode == 1, option
        assert "unrecognized arguments" in res.stderr
        assert not out.exists()


def test_calibrate_affine_overflowing_moments_exits_2(tmp_path):
    big = float(np.finfo(np.float64).max)
    prob = tmp_path / "p.json"
    save_problem(Problem(np.array([[1e200]]), np.array([[big, big, 0.0]])), prob)
    out = tmp_path / "m.json"
    res = run("calibrate", str(prob), "--method", "affine", "--out", str(out))
    assert res.returncode == 2
    assert "DegenerateVariance: classifier 0" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_calibrate_scores_near_the_float_limit_print_no_warning(tmp_path):
    # Squaring these scores overflows inside the sigmoid fit, which then
    # fails with one error line: no warning, no traceback, no model.
    prob = tmp_path / "p.json"
    save_problem(Problem(np.array([[7.250000000000002e+16, 3.5e-323]]),
                         np.array([[1.0000000000000002e+16, 1.7976931348623157e+308]])), prob)
    out = tmp_path / "m.json"
    res = run("calibrate", str(prob), "--method", "independent-sigmoid", "--out", str(out),
              env_log="info")
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "DegenerateVariance: classifier 0" in res.stderr
    assert not out.exists()


def test_calibrate_infinite_cutoff_keeps_every_sample(tmp_path):
    out = tmp_path / "m.json"
    argv = ["calibrate", str(GOLDEN), "--method", "independent-sigmoid", "--cutoff=-inf"]
    assert run(*argv, "--out", str(out)).returncode == 0
    assert load_model(out).degenerate == ()


@pytest.mark.parametrize("cutoff", ["-inf", "-1e-3", "-1E2"])
def test_calibrate_negative_float_is_a_value(tmp_path, cutoff):
    out = tmp_path / "m.json"
    argv = ["calibrate", str(GOLDEN), "--method", "independent-sigmoid", "--cutoff", cutoff]
    res = run(*argv, "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert load_model(out).num_classifiers == 2


def test_generate_negative_float_reaches_validation(tmp_path):
    res = run("generate", *GOLDEN_ARGS, "--spread", "-1e-3", "--out", str(tmp_path / "p.json"))
    assert res.returncode == 2
    assert "InvalidSpec" in res.stderr


@pytest.mark.parametrize("pos, neg, code, loss", [
    (1.0, 0.9999999999999999, 0, 0),
    (1.6e308, 1.5e308, 0, 0),
    (1e17, 2e17, 0, 1),
    (-1.7976931348623157e308, 0.0, 2, None),
], ids=["adjacent", "overflow", "absorbed-floor", "lowest-float"])
def test_solve_extreme_scores(tmp_path, pos, neg, code, loss):
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    save_problem(Problem(np.array([[pos]]), np.array([[neg]])), problem)
    res = run("solve", str(problem), "--out", str(out))
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code == 2:
        assert "ValidationError" in res.stderr and not out.exists()
    else:
        assert load_solution(out).loss == loss
        assert "Infinity" not in out.read_text()


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


@pytest.mark.parametrize("spec, named", [
    ({"seeds": [1], "ablations": [{"name": "all-on"}]}, "key(s) ablations;"),
    ({"seeds": [1], "classifers": 3}, "key(s) classifers;"),
    ({"seeds": ["a"]}, "seed must be an integer"),
    ({"seeds": [1.5]}, "seed must be an integer"),
    ({"seeds": [True]}, "seed must be an integer"),
    ({"seeds": [1], "classifiers": 2.5}, "num_classifiers must be an integer"),
    ({"seeds": [1], "noise": True}, "noise must be a number, got True"),
    ({"seeds": [1], "budget_ms": True}, "budget_ms must be a number, got True"),
    ({"seeds": [1, True]}, "seed must be an integer, got True"),
    ({"seeds": 1}, "seeds is not an array"),
], ids=["ablations-key", "unknown-key", "string-seed", "float-seed",
        "bool-seed", "float-size", "bool-noise", "bool-budget", "bool-seed-in-list",
        "scalar-seeds"])
def test_bench_bad_spec_exits_2(tmp_path, spec, named):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(spec))
    res = run("bench", str(path), "--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert "InvalidSpec" in res.stderr and named in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "bench_nodes.csv").exists()


def test_quiet_log_level_suppresses_info(tmp_path):
    out = tmp_path / "sol.json"
    quiet = run("solve", str(GOLDEN), "--out", str(out), env_log="quiet")
    assert quiet.stderr == ""
    noisy = run("solve", str(GOLDEN), "--out", str(out), env_log="info")
    assert "loss=3" in noisy.stderr
