"""The package exports exactly the names its callers import from it, and
imports each of them, and each submodule, on first access."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import quartic_twist

ROOT = Path(__file__).resolve().parent.parent


def _imported_from_package() -> set[str]:
    """The names that `from quartic_twist import ...` statements in the
    demos, the tests and perfbench/ bring in, submodules left out."""
    names = set()
    for directory in ("demos", "tests", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "quartic_twist":
                    names.update(alias.name for alias in node.names if node.level == 0)
    return {
        name for name in names
        if not isinstance(getattr(quartic_twist, name, None), types.ModuleType)
    }


def test_exports_are_what_callers_import():
    assert sorted(quartic_twist.__all__) == sorted(_imported_from_package())


def test_every_export_resolves():
    for name in quartic_twist.__all__:
        assert getattr(quartic_twist, name) is not None, name


# in a fresh process: what `import quartic_twist` loads, then whether each
# export and each submodule resolves and an unknown name raises
_FIRST_ACCESS = """
import json, sys, types
import quartic_twist
loaded = [m for m in sys.modules if m.startswith("quartic_twist.")]
missing = [n for n in quartic_twist.__all__ if getattr(quartic_twist, n, None) is None]
modules = [n for n in sys.argv[1:]
           if not isinstance(getattr(quartic_twist, n, None), types.ModuleType)]
try:
    quartic_twist.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
listed = set(quartic_twist.__all__) <= set(dir(quartic_twist))
print(json.dumps([loaded, missing, modules, unknown, listed]))
"""


def test_names_are_imported_on_first_access():
    src = ROOT / "src"
    submodules = sorted(
        p.stem for p in (src / "quartic_twist").glob("*.py") if not p.stem.startswith("__")
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_ACCESS, *submodules],
        capture_output=True, text=True, check=True, env=env,
    )
    loaded, missing, modules, unknown, listed = json.loads(result.stdout)
    assert loaded == []
    assert missing == [] and modules == []
    assert unknown == "AttributeError"
    assert listed
