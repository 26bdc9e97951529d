"""The output corpus `tests/golden/outputs.sha256`: every request of the
CLI, text and JSON, clean and under each fault fixture, has the exit code
and the stdout and stderr hashes committed there.  `tools/outputs.py`
rewrites the file and names the requests that changed; a deliberate
change of output regenerates it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
