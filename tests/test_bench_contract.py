"""The benchmark's traced pass and micro-timings still find every target
they measure.

`perfbench/tracer.py` wraps functions of the package by name and reports a
per-layer metric as missing when its target was renamed or not reached in
the run.  One traced full report, in a fresh process as the benchmark runs
it, must print the golden report and leave no metric missing.
`perfbench/micro.py` times the hot layers (CycNum mul and inv among them)
and lists a metric as missing when its code is gone; one run must time
all four.  The benchmark's own suite, `perfbench/test_perfbench.py`,
imports layer functions of the package and must pass as well.  This reads
`perfbench/` and changes nothing there; the suite writes only under its
git-ignored `perfbench/work/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = Path(__file__).parent / "golden" / "full_report.txt"


def test_traced_full_report_misses_no_metric(tmp_path, monkeypatch):
    record_path = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(record_path), "--"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN.read_text(encoding="utf-8")

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    record = json.loads(record_path.read_text(encoding="utf-8"))
    metrics, missing = tracer.per_layer([record])
    assert missing == []
    assert set(metrics) == set(tracer.PER_LAYER) | {"valuations.expand_cache_hit_ratio"}


def test_micro_timings_miss_no_metric(tmp_path):
    result_path = tmp_path / "micro.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "micro.py"), "1", str(result_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    timings = json.loads(result_path.read_text(encoding="utf-8"))
    assert timings["missing"] == []
    assert all(value > 0 for value, _unit in timings["metrics"].values())
    assert set(timings["metrics"]) == {
        "cyclotomic.mul_ns",
        "cyclotomic.inv_us",
        "valuations.expand_branch_p17_ms",
        "mordell_weil.sweep_ms",
    }


def test_the_benchmark_suite_passes(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "test_perfbench.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
