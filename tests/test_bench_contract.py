"""The benchmark's traced pass still finds every target it measures.

`perfbench/tracer.py` wraps functions of the package by name and reports a
per-layer metric as missing when its target was renamed or not reached in
the run.  One traced full report, in a fresh process as the benchmark runs
it, must print the golden report and leave no metric missing.  This reads
`perfbench/` and changes nothing there.
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
