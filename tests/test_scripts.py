"""The experiment scripts run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--classifiers", "4", "--positives", "6", "--negatives", "30", "--dims", "4",
        "--budget-ms", "200"]
# script name -> (extra argv, a line of its summary)
SCRIPTS = {
    "anytime_curve.py": ([], "budget sweep:"),
    "method_comparison.py": (["--seeds", "2"], "median fp"),
}


def test_every_script_is_exercised():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_prints_summary(script):
    argv, header = SCRIPTS[script]
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *TINY, *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )
    assert res.returncode == 0, res.stderr
    assert header in res.stdout
