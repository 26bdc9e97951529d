"""Each printed constant is written once: a label that states a constant
is rendered from the clean constant, so no fault moves it, a section
builder reads a constant only through its run, and the certificate forms
are one table that the benchmark's fault generator agrees with."""

import ast
import json
import random
import re
from pathlib import Path

from quartic_twist import checks
from quartic_twist.certificates import certificate_forms
from quartic_twist.checks import build_report, load_fault

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = (
    "fault_dictionary.json", "fault_matrix.json", "fault_certificate.json",
    "fault_shift.json", "fault_class.json",
)


def _rows(fault=None) -> list[tuple[str, str, str]]:
    return [(r.check_id, r.header, r.label) for r in build_report(fault=fault).checks]


def test_a_fault_moves_no_label(bench_faults, tmp_path):
    clean = _rows()
    paths = [FIXTURES / name for name in FIXTURE_NAMES]
    rng = random.Random(12)
    for target in sorted(bench_faults.SPACES):
        for n, payload in enumerate(rng.sample(bench_faults.SPACES[target], 3)):
            paths.append(tmp_path / f"{target}-{n}.json")
            paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    for path in paths:
        assert _rows(load_fault(str(path))) == clean, path.read_text(encoding="utf-8")


def test_forms_table_matches_the_fault_generator(bench_faults):
    degrees = [(key, form.degree) for key, form in certificate_forms().items()]
    assert degrees == list(bench_faults.CERTIFICATE_FORMS.items())


def _names(node: ast.AST) -> list[str]:
    """Every name a node reads, as a variable, an attribute or an import."""
    return [
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]


def test_builders_read_the_tables_only_through_the_run():
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    builders = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and re.fullmatch(r"_\w+_records", node.name)
    ]
    assert len(builders) == len(checks.SECTIONS)
    tables = {"CUSP_DICTIONARY", "PRINTED_SHIFTS", "_CLASSES", "certificate_forms",
              "PRINTED_MATRICES"}
    for builder in builders:
        read = [n for n in _names(builder) if n in tables or n.startswith("CLASS_")]
        if builder.name == "_galois_records":
            # the `action-*` label states the clean column and the detail reports it
            expected = [
                name for node in ast.walk(builder)
                if isinstance(node, ast.Assign) and _names(node.targets[0]) == ["expected"]
                for name in _names(node.value)
            ]
            assert read == ["PRINTED_MATRICES"] and "PRINTED_MATRICES" in expected
            continue
        assert read == [], builder.name


def _is_string_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_string_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_fault_target_is_compared_with_a_literal():
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names_target = any("target" in _names(o) for o in operands)
            assert not (names_target and any(map(_is_string_literal, operands))), (
                ast.unparse(node)
            )
