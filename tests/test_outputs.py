"""The output corpora.  In `tests/golden/outputs.sha256` every request of
the CLI, text and JSON, clean and under each fault fixture, has the exit
code and the stdout and stderr hashes committed.  In
`tests/golden/faults.sha256` each of 724 valid one-constant corruptions
has the exit code and the hashes of the full text and JSON reports under
it; a seeded tenth of them is re-run here.  `tools/outputs.py` rewrites
both files and names the lines that changed; a deliberate change of
output regenerates them."""

import importlib.util
import os
import random
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


def test_fault_corpus_covers_every_corruption(outputs, bench_faults):
    payloads = outputs.fault_payloads()
    assert list(outputs.read(outputs.FAULT_CORPUS)) == list(map(outputs.payload_text, payloads))
    assert len({outputs.payload_text(p) for p in payloads}) == len(payloads) == 724
    bench = [fault for target in bench_faults.TARGETS for fault in bench_faults.SPACES[target]]
    assert payloads[:552] == bench
    targets = [p["target"] for p in payloads[552:]]
    assert targets == ["dictionary"] * 60 + ["shift"] * 48 + ["class"] * 64
    # the dictionary corruptions the benchmark leaves out: an odd delta in
    # e_1..e_5 of an entry whose cusp an automorphism sends into e_6's support
    assert all(p["entry"] in bench_faults.E6_IMAGE_ENTRIES and p["index"] < 5 and p["delta"] % 2
               for p in payloads[552:612])


def test_a_seeded_tenth_of_the_corruptions_matches_the_corpus(outputs):
    committed = outputs.read(outputs.FAULT_CORPUS)
    payloads = outputs.fault_payloads()
    sample = random.Random(4).sample(payloads, len(payloads) // 10)
    changed = [p for p in sample if outputs.run_fault(p) != committed[outputs.payload_text(p)]]
    assert changed == []
