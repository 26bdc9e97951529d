"""The output corpora.  In `tests/golden/outputs.sha256` every request of
the CLI, text and JSON, clean and under each fault fixture, has the exit
code and the stdout and stderr hashes committed.  In
`tests/golden/faults.sha256` each of the 724 valid one-constant
corruptions of `checks.fault_space` has the exit code and the hashes of
the full text and JSON reports under it; every line must exit 1, and a
seeded tenth of them is re-run here.  `tools/outputs.py` rewrites
both files and names the lines that changed; a deliberate change of
output regenerates them."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quartic_twist import checks
from quartic_twist.checks import fault_space, load_fault

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def outputs():
    """`tools/outputs.py`, imported by path."""
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_request_matches_the_corpus(outputs):
    committed = outputs.read()
    requests = outputs.requests()
    assert list(committed) == [" ".join(("quartic-twist", *argv)) for argv in requests]
    changed = [argv for argv in requests
               if outputs.run(argv) != committed[" ".join(("quartic-twist", *argv))]]
    assert changed == []


def test_corpus_covers_each_request_kind(outputs):
    requests = outputs.requests()
    fixtures = sorted((ROOT / "tests" / "fixtures").glob("fault_*.json"))
    # (full report, --list, 8 sections, 104 checks) x (text, json) x (clean + fixtures)
    assert len(requests) == (2 + 8 + 104) * 2 * (1 + len(fixtures))
    assert len(set(requests)) == len(requests)


@pytest.mark.parametrize("argv", [
    ("--fault", "tests/fixtures/fault_certificate.json"),
    ("--section", "brauer", "--format", "json"),
])
def test_a_fresh_process_matches_the_corpus(outputs, argv):
    """One request per format in a new interpreter, so the in-process
    runs and the CLI cannot drift apart."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    process = subprocess.run([sys.executable, "-m", "quartic_twist", *argv],
                             capture_output=True, env=env, cwd=ROOT)
    committed = outputs.read()[" ".join(("quartic-twist", *argv))]
    assert outputs.line(argv, process.returncode, process.stdout, process.stderr) == committed


def test_fault_corpus_covers_every_corruption(outputs, tmp_path):
    """A corrupted run must produce at least one FAIL: every line of the
    fault corpus exits 1, and its payloads are `fault_space`'s, in table
    order, each accepted by the loader as a file."""
    committed = outputs.read(outputs.FAULT_CORPUS)
    lines = outputs.FAULT_CORPUS.read_text(encoding="utf-8").splitlines()
    payloads = [p for target in checks._TABLES for p in fault_space(target)]
    assert outputs.fault_payloads() == payloads
    assert list(committed) == list(map(outputs.payload_text, payloads))
    assert len(lines) == len(committed) == 724
    assert [text.split(" ", 1)[0] for text in lines] == ["1"] * len(lines)
    counts = Counter(p["target"] for p in payloads)
    assert counts == {"dictionary": 192, "matrix": 172, "certificate": 248,
                      "shift": 48, "class": 64}
    path = tmp_path / "fault.json"
    for payload in payloads:
        path.write_text(json.dumps(payload), encoding="utf-8")
        fault = load_fault(str(path))
        assert (fault.target, fault.delta) == (payload["target"], payload["delta"])


def test_a_seeded_tenth_of_the_corruptions_matches_the_corpus(outputs):
    committed = outputs.read(outputs.FAULT_CORPUS)
    payloads = outputs.fault_payloads()
    sample = random.Random(4).sample(payloads, len(payloads) // 10)
    changed = [p for p in sample if outputs.run_fault(p) != committed[outputs.payload_text(p)]]
    assert changed == []
