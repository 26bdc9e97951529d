"""A request is answered from its dependency cone: ids come from static
tables, and a single check builds only the sections it needs."""

import json
import random
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from quartic_twist import certificates, checks, theorems
from quartic_twist.checks import build_report, list_check_ids, load_fault, run_single

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = (
    "fault_dictionary.json", "fault_matrix.json", "fault_certificate.json",
    "fault_shift.json", "fault_class.json",
)


def _built_sections(monkeypatch) -> list[str]:
    built = []
    builders = checks._SECTION_BUILDERS

    def counted(section, builder):
        def build(data):
            built.append(section)
            return builder(data)

        return build

    monkeypatch.setattr(
        checks, "_SECTION_BUILDERS", tuple((s, counted(s, fn)) for s, fn in builders)
    )
    return built


def test_ids_come_from_the_tables_in_report_order(monkeypatch):
    built = _built_sections(monkeypatch)
    ids = list_check_ids()
    assert built == []
    assert ids == [record.check_id for record in build_report().checks]
    assert len(ids) == 104


def test_single_check_builds_only_its_cone(monkeypatch):
    built = _built_sections(monkeypatch)

    def no_certificates(*args, **kwargs):
        raise AssertionError("brauer-cocycle ran the bitangent certificates")

    monkeypatch.setattr(certificates, "bitangent_checks", no_certificates)
    with pytest.raises(ValueError, match="unknown check id"):
        run_single("no-such-check")
    assert built == []
    report = run_single("brauer-cocycle")
    assert [r.check_id for r in report.checks] == ["brauer-cocycle"]
    assert built == ["brauer"]


_COMMON_CONE = {"bitangents", "dictionary", "fixed", "brauer"}
_THEOREM_CONES = {
    "theorem-odd-torsors": {"galois", "fixed", "torsor"},
    "theorem-mordell-weil": _COMMON_CONE,
    "theorem-quadratic-points": _COMMON_CONE | {"quadratic"},
    "theorem-determinantal": _COMMON_CONE | {"quadratic"},
}


@pytest.mark.parametrize("check_id", _THEOREM_CONES)
def test_each_theorem_builds_only_its_own_cone(monkeypatch, check_id):
    built = _built_sections(monkeypatch)
    report = run_single(check_id)
    assert [r.check_id for r in report.checks] == [check_id]
    assert sorted(built) == sorted(_THEOREM_CONES[check_id])


def test_full_report_builds_each_section_once(monkeypatch):
    built = _built_sections(monkeypatch)
    build_report()
    assert built == list(checks.SECTIONS)


def test_sections_are_named_once_in_canonical_order():
    assert checks.SECTIONS == tuple(checks.SECTION_ROWS)
    assert tuple(section for section, _ in checks._SECTION_BUILDERS) == checks.SECTIONS


def test_theorem_that_raises_leaves_one_builder_record(monkeypatch):
    monkeypatch.setattr(theorems, "DEPENDENCIES", {})
    section = build_report(section="theorems").checks
    assert [(r.check_id, r.status) for r in section] == [("theorems-builder", "FAIL")]
    # the first theorem in canonical order is the one that raised
    assert section[0].detail == {"error": "'certificates'"}
    for check_id in _THEOREM_CONES:
        (record,) = run_single(check_id).checks
        assert record._replace(detail=None) == section[0]._replace(detail=None)


def test_single_checks_equal_the_full_report():
    for record in build_report().checks:
        assert run_single(record.check_id).checks == (record,)


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_single_checks_equal_the_faulted_report(fixture):
    fault = load_fault(str(FIXTURES / fixture))
    records = build_report(fault=fault).checks
    chosen = [r for r in records if r.status == "FAIL" or r.check_id.startswith("theorem-")]
    assert any(r.status == "FAIL" for r in chosen)
    for record in chosen:
        assert run_single(record.check_id, fault=fault).checks == (record,)


def _table_patterns() -> set[str]:
    patterns = {p for t in theorems.THEOREMS for c in t.constituents for p in c.records}
    return patterns | {p for names in theorems.DEPENDENCIES.values() for p in names}


def test_id_patterns_match_as_fnmatch_does():
    patterns = _table_patterns()
    assert any(p.endswith("*") for p in patterns)
    ids = list_check_ids() + ["", "bitangent", "fixed", "theorems-builder", "relation-"]
    for pattern in patterns:
        matches = checks._id_matcher((pattern,))
        for check_id in ids:
            assert matches(check_id) == fnmatchcase(check_id, pattern), (pattern, check_id)
    every = checks._id_matcher(patterns)
    assert [i for i in ids if every(i)] == [
        i for i in ids if any(fnmatchcase(i, p) for p in patterns)
    ]


@pytest.mark.parametrize("pattern", ["*-s3", "torsor-*-s3", "fixed-**", "a?", "dict-[ab]*"])
def test_other_wildcards_are_rejected(pattern):
    with pytest.raises(ValueError):
        checks._id_matcher((pattern,))


def test_theorem_cones_equal_the_faulted_report(bench_faults, tmp_path):
    rng = random.Random(11)
    spaces = bench_faults.SPACES
    path = tmp_path / "fault.json"
    for target in sorted(spaces):
        for payload in rng.sample(spaces[target], 3):
            path.write_text(json.dumps(payload), encoding="utf-8")
            fault = load_fault(str(path))
            records = build_report(fault=fault).checks
            assert any(r.status == "FAIL" for r in records), payload
            for record in records:
                if record.check_id.startswith("theorem-"):
                    assert run_single(record.check_id, fault=fault).checks == (record,), payload
