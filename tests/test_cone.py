"""A request is answered from its dependency cone: ids come from static
tables, and a single check builds only the sections it needs."""

from pathlib import Path

import pytest

from quartic_twist import checks
from quartic_twist.checks import build_report, list_check_ids, load_fault, run_single

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("fault_dictionary.json", "fault_matrix.json", "fault_certificate.json")


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

    monkeypatch.setattr(checks, "bitangent_checks", no_certificates)
    with pytest.raises(ValueError, match="unknown check id"):
        run_single("no-such-check")
    assert built == []
    report = run_single("brauer-cocycle")
    assert [r.check_id for r in report.checks] == ["brauer-cocycle"]
    assert built == ["brauer"]


def test_theorems_build_their_sections_first_in_canonical_order(monkeypatch):
    built = _built_sections(monkeypatch)
    run_single("theorem-odd-torsors")
    assert built == list(checks.SECTIONS)


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
