"""A request imports the seven modules its static tables read, and
beyond them only the layers its cone reads.

Each request runs the package's `__main__` in a fresh process, as
`python -m quartic_twist ARGS` does, and then writes the names in
`sys.modules` to stderr.  Every request imports `BASE`: the CLI, the
registry and the five modules whose names, constants and labels the
static tables read.  The layers of the Galois module (the dictionary,
the action matrices, the fixed and image submodules, the torsor
searches) read no valuation, certificate or Brauer code, so a request
whose cone stays inside them imports nothing beyond `BASE`, and only
the fault reader and the JSON renderer import `json`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the layers every request imports: the registry and what its tables read
BASE = {"cli", "checks", "theorems", "cyclotomic", "curve", "divisors", "mordell_weil"}
EVERY_LAYER = BASE | {"valuations", "certificates", "brauer", "json"}

# request -> the layers it imports, `json` counted as one
CONES = {
    "--list": BASE,
    "--check dict-alpha0": BASE,
    "--section galois": BASE,
    "--check theorem-odd-torsors": BASE,
    "--check brauer-cocycle": BASE | {"brauer", "valuations", "certificates"},
    "--fault tests/fixtures/fault_matrix.json --check matrix-s3": BASE | {"json"},
    "--format json": EVERY_LAYER,
}

# run `python -m quartic_twist ARGS`, then list every module imported
PROBE = """
import runpy, sys
sys.argv[0] = "quartic-twist"
try:
    runpy.run_module("quartic_twist", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\nmodules: " + " ".join(sys.modules))
"""


@pytest.fixture(scope="module")
def imported() -> dict[str, set[str]]:
    """request -> every module its process imported; the requests run side
    by side."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    processes = {
        request: subprocess.Popen(
            [sys.executable, "-c", PROBE, *request.split()],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        for request in CONES
    }
    modules = {}
    for request, process in processes.items():
        _, err = process.communicate()
        assert process.returncode == 0 or "--fault" in request, err
        modules[request] = set(err.rpartition("modules: ")[2].split())
    return modules


@pytest.mark.parametrize("request_args", CONES)
def test_request_imports_only_its_cone(imported, request_args):
    modules = imported[request_args]
    layers = {m.removeprefix("quartic_twist.") for m in modules if m.startswith("quartic_twist.")}
    assert layers | ({"json"} & modules) == CONES[request_args]


# what each cost a cold process more than the job it did here: dataclasses
# decorated a class per record type, argparse (with gettext and locale)
# read five options, and fractions (with decimal and numbers) hashed and
# printed rationals that the field keeps as integers
HEAVY_STDLIB = ("dataclasses", "argparse", "gettext", "locale", "fractions", "decimal", "numbers")


@pytest.mark.parametrize("request_args", CONES)
def test_request_leaves_heavy_stdlib_out(imported, request_args):
    assert set(HEAVY_STDLIB) & imported[request_args] == set()
