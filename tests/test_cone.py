"""A request is answered from its dependency cone: ids come from static
tables, a single check evaluates only its own record and the facts it
reads, and a theorem only the records it names."""

import json
import random
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from quartic_twist import certificates, checks, mordell_weil, theorems
from quartic_twist.checks import build_report, fault_space, list_check_ids, load_fault, run_single

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = (
    "fault_dictionary.json", "fault_matrix.json", "fault_certificate.json",
    "fault_shift.json", "fault_class.json",
)


def _evaluated(monkeypatch) -> list[str]:
    """The ids of the records a run evaluates, in order, counted through
    the per-section view of evaluation that the benchmark's tracer wraps."""
    evaluated = []

    def counted(evaluate):
        def count(run, row):
            evaluated.append(row[0])
            return evaluate(run, row)

        return count

    monkeypatch.setattr(checks, "_SECTION_BUILDERS", tuple(
        (section, counted(evaluate)) for section, evaluate in checks._SECTION_BUILDERS
    ))
    return evaluated


def _calls(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_ids_come_from_the_tables_in_report_order(monkeypatch):
    evaluated = _evaluated(monkeypatch)
    ids = list_check_ids()
    assert evaluated == []
    assert ids == [record.check_id for record in build_report().checks]
    assert len(ids) == 104


def test_single_check_builds_only_its_cone(monkeypatch):
    evaluated = _evaluated(monkeypatch)
    verified = _calls(monkeypatch, certificates, "verify_certificate")
    with pytest.raises(ValueError, match="unknown check id"):
        run_single("no-such-check")
    assert evaluated == []
    report = run_single("brauer-cocycle")
    assert [(r.check_id, r.status) for r in report.checks] == [("brauer-cocycle", "OK")]
    assert evaluated == ["brauer-cocycle"]
    assert verified == [0]


def test_a_data_check_computes_only_the_facts_it_reads(monkeypatch):
    verified = _calls(monkeypatch, certificates, "verify_certificate")
    permuted = _calls(monkeypatch, checks, "cusp_permutation")
    derived = _calls(monkeypatch, checks, "derive_action_matrix")
    # the class of a cusp support reads no certificate, though its detail names one
    assert run_single("coords-d1-d0").checks[0].status == "OK"
    assert verified == [0]
    assert run_single("perm-s3-a0").checks[0].status == "OK"
    assert (permuted, derived) == ([1], [0])
    mordell_weil.image_table.cache_clear()
    assert run_single("shift-s5").checks[0].status == "OK"
    tables = mordell_weil.image_table.cache_info()
    assert tables.hits + tables.misses == 0


def _cone(check_id: str) -> set[str]:
    """A theorem and the records its constituents and `depends_on` name,
    with the cone of each theorem among them."""
    (theorem,) = [t for t in theorems.THEOREMS if t.check_id == check_id]
    patterns = [p for c in theorem.constituents for p in c.records]
    patterns += [p for name in theorem.depends_on for p in theorems.DEPENDENCIES[name]]
    named = [i for i in list_check_ids() if any(fnmatchcase(i, p) for p in patterns)]
    return {check_id}.union(*(_cone(i) if i.startswith("theorem-") else {i} for i in named))


_THEOREM_CONES = {t.check_id: _cone(t.check_id) for t in theorems.THEOREMS}


@pytest.mark.parametrize("check_id", _THEOREM_CONES)
def test_each_theorem_builds_only_its_own_cone(monkeypatch, check_id):
    evaluated = _evaluated(monkeypatch)
    report = run_single(check_id)
    assert [r.check_id for r in report.checks] == [check_id]
    assert sorted(evaluated) == sorted(_THEOREM_CONES[check_id])
    assert len(evaluated) == _CONE_SIZES[check_id]


# the torsor theorem: its 6 torsor rows, matrix-s3 and matrix-s5, the 3
# shifts and itself, and none of the 38 other rows of the galois section
_CONE_SIZES = {
    "theorem-mordell-weil": 44, "theorem-odd-torsors": 12,
    "theorem-quadratic-points": 50, "theorem-determinantal": 51,
}


def test_full_report_builds_each_section_once(monkeypatch):
    evaluated = _evaluated(monkeypatch)
    derived = _calls(monkeypatch, checks, "derive_action_matrix")
    certified = _calls(monkeypatch, certificates, "bitangent_checks")
    build_report()
    assert evaluated == list_check_ids()
    assert (derived, certified) == ([2], [1])


def test_sections_are_named_once_in_canonical_order():
    assert checks.SECTIONS == tuple(checks.SECTION_ROWS)
    assert tuple(section for section, _ in checks._SECTION_BUILDERS) == checks.SECTIONS


def test_a_theorem_that_raises_fails_its_own_record(monkeypatch):
    # with no dependency table each theorem raises on the first name its
    # `depends_on` lists, and fails under its own id, header and label
    clean = build_report(section="theorems").checks
    monkeypatch.setattr(theorems, "DEPENDENCIES", {})
    section = build_report(section="theorems").checks
    assert len(section) == len(clean) == 4
    for record, before in zip(section, clean):
        (theorem,) = [t for t in theorems.THEOREMS if t.check_id == record.check_id]
        assert record == before._replace(
            status="FAIL", detail={"error": repr(theorem.depends_on[0])}
        )
        assert run_single(record.check_id).checks == (record,)


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


def test_every_table_pattern_names_a_check():
    patterns = _table_patterns()
    assert len(patterns) == 30
    for pattern in patterns:
        assert any(map(checks._id_matcher((pattern,)), list_check_ids())), pattern


def test_a_pattern_that_names_no_check_fails_its_theorem(monkeypatch):
    # a typo of `torsor-s3s5` in the theorem table must not leave the
    # theorem resting on no record: it fails its own record, and only that
    clean = build_report(section="theorems").checks
    assert theorems.DEPENDENCIES["torsor-searches"] == ("torsor-*",)
    monkeypatch.setitem(theorems.DEPENDENCIES, "torsor-searches", ("torsor-s35",))
    (record,) = run_single("theorem-odd-torsors").checks
    (before,) = [r for r in clean if r.check_id == "theorem-odd-torsors"]
    assert record == before._replace(
        status="FAIL", detail={"error": "id pattern 'torsor-s35' names no check"}
    )
    section = build_report(section="theorems").checks
    assert section == tuple(record if r.check_id == record.check_id else r for r in clean)


def test_theorem_cones_equal_the_faulted_report(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "fault.json"
    for target in sorted(checks._TABLES):
        for payload in rng.sample(fault_space(target), 3):
            path.write_text(json.dumps(payload), encoding="utf-8")
            fault = load_fault(str(path))
            records = build_report(fault=fault).checks
            assert any(r.status == "FAIL" for r in records), payload
            for record in records:
                if record.check_id.startswith("theorem-"):
                    assert run_single(record.check_id, fault=fault).checks == (record,), payload
