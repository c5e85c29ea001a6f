"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORT_STEP = {"anytime-e100": "compare_s", "fuzz-small": "oracle_s"}


def _bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = unit
            float(value)
    expected = dict(declared, failed_frac="ratio", solve_s="s")
    if workload in REPORT_STEP:
        expected[REPORT_STEP[workload]] = "s"
    assert printed == expected

    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    assert set(env["threads"].values()) == {"1"}
    assert env["workload_seeds"] and env["nproc"] >= 1 and env["numpy"] and env["python"]


def test_wrong_expected_loss_is_counted_as_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    workload = workloads.make("exact-e30", seed=0, tiny=True)
    workload.expected[2] += 1
    bench = run.Run(workload, seconds=0.05)
    bench.execute()
    passes = len(bench.passes)
    assert bench.attempted == 3 * passes and bench.failed == passes
    assert "expected 24" in bench.passes[0][1].errors[0]


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench(tmp_path, "exact-e30", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_map_covers_every_per_layer_metric():
    e2e = {m["name"] for m in SPEC["end_to_end"]} | set(LAYERS["report_only"])
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYERS["layers"]) == layer
    workloads = set(WORKLOADS) | {"*"}
    for pairs in LAYERS["layers"].values():
        for metric, workload in pairs:
            assert metric in e2e and workload in workloads
    for prediction in LAYERS["no_change"]:
        for metric, workload in prediction["unchanged"]:
            assert metric in e2e | layer | {"*"} and workload in workloads
