"""The package exports exactly the names its callers import from it."""

import ast
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
