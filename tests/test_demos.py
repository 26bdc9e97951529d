"""Each demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# what a demo's output must name besides running: the four results of the paper
NAMED = {
    "quadratic_points": (
        "theorem-mordell-weil", "theorem-odd-torsors",
        "theorem-quadratic-points", "theorem-determinantal",
    ),
}


def test_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    for name in NAMED.get(demo.stem, ()):
        assert name in result.stdout
