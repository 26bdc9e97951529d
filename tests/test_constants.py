"""Each printed constant is written once: a label that states a constant
is rendered from the clean constant, so no fault moves it, a verdict or
a fact reads a constant only through its run, and the benchmark's
fault generator draws from the program's one fault space."""

import ast
import inspect
import json
import random
from functools import partial
from pathlib import Path

import pytest

from quartic_twist import brauer, certificates, checks, mordell_weil
from quartic_twist.checks import build_report, fault_space, load_fault, parse_fault

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = (
    "fault_dictionary.json", "fault_matrix.json", "fault_certificate.json",
    "fault_shift.json", "fault_class.json",
)


def _rows(fault=None) -> list[tuple[str, str, str]]:
    """The rows of a full report."""
    return [(r.check_id, r.header, r.label) for r in build_report(fault=fault).checks]


def test_a_fault_moves_no_label(tmp_path):
    clean = _rows()
    paths = [FIXTURES / name for name in FIXTURE_NAMES]
    rng = random.Random(12)
    for target in sorted(checks._TABLES):
        for n, payload in enumerate(rng.sample(fault_space(target), 3)):
            paths.append(tmp_path / f"{target}-{n}.json")
            paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    for path in paths:
        assert _rows(load_fault(str(path))) == clean, path.read_text(encoding="utf-8")


def test_the_benchmark_draws_from_the_fault_space(bench_faults):
    # each benchmark space is an ordered subsequence of `fault_space`, the
    # whole of it for the matrices and the certificate forms
    for target in bench_faults.TARGETS:
        space = iter(fault_space(target))
        assert all(payload in space for payload in bench_faults.SPACES[target]), target
    for target in ("matrix", "certificate"):
        assert bench_faults.SPACES[target] == fault_space(target)
    # the dictionary corruptions it leaves out: an odd delta in e_1..e_5 of
    # an entry whose cusp an automorphism sends into e_6's support
    left_out = [p for p in fault_space("dictionary") if p not in bench_faults.SPACES["dictionary"]]
    assert len(left_out) == 60 and left_out == [
        p for p in fault_space("dictionary")
        if p["entry"] in bench_faults.E6_IMAGE_ENTRIES and p["index"] < 5 and p["delta"] % 2
    ]


def test_the_fault_space_drops_only_what_the_loader_rejects():
    # of every candidate, only the 20 odd deltas in column 6, rows 1-5, of
    # an action matrix are invalid: they send e_6 outside the 2-torsion
    dropped = []
    for target, table in checks._TABLES.items():
        space = fault_space(target)
        candidates = [{"target": target, **dict(zip(table.fields, key)), "delta": delta}
                      for key, delta in table.candidates()]
        dropped += [payload for payload in candidates if payload not in space]
    assert len(dropped) == 20
    for payload in dropped:
        assert (payload["target"], payload["col"], payload["delta"] % 2) == ("matrix", 5, 1)
        assert payload["row"] < 5
        with pytest.raises(ValueError, match="2-torsion"):
            parse_fault(payload)


def _names(node: ast.AST) -> list[str]:
    """Every name a node reads, as a variable, an attribute or an import."""
    return [
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]


def test_verdicts_read_the_tables_only_through_the_run():
    # every function and lambda of the registry outside `_TABLES`, which
    # holds the clean tables; the labels of the rows, rendered at import
    # from the clean constants, are expressions outside any function
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    (table_node,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and _names(node.targets[0]) == ["_TABLES"]
    ]
    inside_tables = set(map(id, ast.walk(table_node)))
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and id(node) not in inside_tables
    ]
    # the walk reaches the verdict of every row
    lines = {node.lineno for node in functions}
    for rows in checks.SECTION_ROWS.values():
        for check_id, _, _, verdict in rows:
            while isinstance(verdict, partial):
                verdict = verdict.func
            assert verdict.__code__.co_firstlineno in lines, check_id
    tables = {"CUSP_DICTIONARY", "PRINTED_SHIFTS", "CLASSES", "certificate_forms",
              "certificate_table", "PRINTED_MATRICES"}
    for function in functions:
        read = [n for n in _names(function) if n in tables or n.startswith("CLASS_")]
        assert read == [], ast.unparse(function)[:200]


# the layer functions that read a table a fault may corrupt, each handed
# the run's copy by a verdict or a fact
LAYER_READERS = (
    mordell_weil.class_of,
    mordell_weil.cusp_class,
    mordell_weil.derive_action_matrix,
    certificates.check_certificates,
    certificates.bitangent_checks,
    certificates.cusp_relation_certificates,
    brauer.verify_e_identities,
    brauer.cocycle_tau_tau,
    brauer.cocycle_table,
)


def test_layers_have_no_clean_table_to_fall_back_on():
    # a default would be a second path to the clean constant, which the
    # name check above cannot see
    for function in LAYER_READERS:
        defaults = [
            name for name, parameter in inspect.signature(function).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        ]
        assert defaults == [], function.__qualname__


def test_an_ill_defined_dictionary_fails_only_the_rows_that_read_it():
    # an odd delta in e_1 of alpha_0 derives no map on M for either
    # automorphism: the action and matrix rows fail with the reason, the
    # permutation and lift rows, which read no dictionary, still hold
    fault = parse_fault({"target": "dictionary", "entry": "alpha0", "index": 0, "delta": 3})
    records = build_report(section="galois", fault=fault).checks
    status = {r.check_id: r.status for r in records}
    assert list(status) == [row[0] for row in checks.SECTION_ROWS["galois"]]
    reads = [r for r in records if r.check_id.startswith(("action-", "matrix-"))]
    rest = [r for r in records if r not in reads]
    assert len(reads) == 14 and len(rest) == 26
    assert all(r.status == checks.STATUS_FAIL and set(r.detail) == {"error"} for r in reads)
    assert all(r.status == checks.STATUS_OK for r in rest)
    assert {r.check_id.split("-")[0] for r in rest} == {"perm", "lift"}


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


def test_certificate_rows_name_the_table_in_order():
    from quartic_twist.certificates import (
        BITANGENTS, E_IDENTITIES, RELATIONS, certificate_table,
    )

    names = [*BITANGENTS, *RELATIONS, *E_IDENTITIES]
    assert list(checks._CERTIFICATE_ROWS) == list(certificate_table()) == names
    # each row is verified by the selection whose layer tuple holds its name
    layers = (
        (checks._bitangent_checks, BITANGENTS),
        (checks._relation_checks, RELATIONS),
        (checks._e_checks, E_IDENTITIES),
    )
    for name, (selection, _, _) in checks._CERTIFICATE_ROWS.items():
        assert [s for s, held in layers if name in held] == [selection], name


def test_u_tau_is_one_constant_for_both_records():
    # a run whose u_tau is scaled by 2: its divisor, so brauer-e-plus, holds,
    # and the cocycle reads the same row, so it moves to -4
    data = checks._RunData()
    table = dict(data.table("certificate"))
    row = table["E+sigma3(E)"]
    table["E+sigma3(E)"] = row._replace(numerator=2 * row.numerator)
    data.tables["certificate"] = table
    assert data.record("brauer-e-plus").status == "OK"
    cocycle = data.record("brauer-cocycle")
    assert cocycle.status == "FAIL" and cocycle.detail == {"value": "-4"}
