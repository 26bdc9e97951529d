"""Assembled theorem records: the `theorems` section of a run, read clean
through the `verify_*` views and corrupted through fault fixtures."""

import json
import random
from pathlib import Path

from quartic_twist.checks import build_report, load_fault
from quartic_twist.mordell_weil import MODULI, PRINTED_SHIFTS
from quartic_twist.theorems import (
    THEOREMS,
    certificate_suite_passes,
    quadratic_point_pairs,
    verify_degree_two_classes_and_quadratic_points,
    verify_mordell_weil_structure,
    verify_no_determinantal_representation,
    verify_odd_degree_torsors,
)

FIXTURES = Path(__file__).parent / "fixtures"

VIEWS = (
    verify_mordell_weil_structure,
    verify_odd_degree_torsors,
    verify_degree_two_classes_and_quadratic_points,
    verify_no_determinantal_representation,
)


def _failures(record) -> list[str]:
    return [c["id"] for c in record.detail["constituents"] if not c["passed"]]


def _theorems_under(fixture: str) -> dict:
    """The theorem records of a run with the fault fixture applied."""
    fault = load_fault(str(FIXTURES / fixture))
    report = build_report(section="theorems", fault=fault)
    return {record.check_id: record for record in report.checks}


def test_certificate_suite():
    assert certificate_suite_passes()


def test_mordell_weil_structure():
    record = verify_mordell_weil_structure()
    assert record.status == "OK", _failures(record)
    assert len(record.detail["constituents"]) == 4
    # the verdict rests on exactly these computations
    assert record.detail["depends_on"] == [
        "certificates", "fixed-submodule", "brauer-cocycle", "dictionary"
    ]
    assert record.detail["assumptions"]


def test_odd_degree_torsors():
    record = verify_odd_degree_torsors()
    assert record.status == "OK", _failures(record)
    ids = [c["id"] for c in record.detail["constituents"]]
    assert ids == [
        "image-s5",
        "image-congruence",
        "torsor-sigma_5",
        "torsor-sigma_3",
        "torsor-sigma_3-sigma_5",
        "torsor-identity-control",
    ]


def test_degree_two_classes():
    record = verify_degree_two_classes_and_quadratic_points()
    assert record.status == "OK", _failures(record)
    assert len(record.detail["assumptions"]) == 2


def test_quadratic_point_pairs():
    pairs = quadratic_point_pairs()
    assert len(pairs) == 4
    assert {name for name, _, _ in pairs} == {"D0", "D1", "D2", "D3"}
    for _, pair_sum, target in pairs:
        assert pair_sum == target


def test_no_determinantal_representation():
    record = verify_no_determinantal_representation()
    assert record.status == "OK", _failures(record)
    assert record.detail["constituents"][-1]["id"] == "pic2-all-effective"


def test_fictitious_fifth_class_fails():
    # s3[0][0] += 1 moves the degree-2 classes out of a group of order 4
    records = _theorems_under("fault_matrix.json")
    quadratic = records["theorem-quadratic-points"]
    assert quadratic.status == "FAIL"
    assert "pic2-distinct" in _failures(quadratic)

    ldr = records["theorem-determinantal"]
    assert ldr.status == "FAIL"
    assert "pic2-all-effective" in _failures(ldr)


def test_reports_deterministic():
    assert verify_odd_degree_torsors() == verify_odd_degree_torsors()


def test_reports_use_the_matrices_passed_in():
    # the same corrupted s3 reaches the fixed submodule of the theorem
    record = _theorems_under("fault_matrix.json")["theorem-mordell-weil"]
    assert record.status == "FAIL"
    assert "fixed-submodule" in _failures(record)


def test_certificate_verdict_passed_in():
    record = _theorems_under("fault_certificate.json")["theorem-mordell-weil"]
    assert _failures(record) == ["certificates"]
    assert verify_mordell_weil_structure().status == "OK"


def test_views_are_the_clean_report_records():
    clean = {record.check_id: record for record in build_report().checks}
    records = [view() for view in VIEWS]
    assert [record.check_id for record in records] == [t.check_id for t in THEOREMS]
    for record in records:
        assert record == clean[record.check_id]


def _corruptions(target: str, names) -> list[dict]:
    """Every single-coordinate corruption of a table of classes, as the
    payloads of fault files."""
    return [
        {"target": target, target: name, "index": index, "delta": delta}
        for name in names
        for index, modulus in enumerate(MODULI)
        for delta in range(1, modulus)
    ]


def test_every_shift_and_class_corruption_reaches_the_theorems(tmp_path):
    # the torsor searches read the shifts, and every theorem but the torsor
    # theorem reads the classes [D_i - D_0] and [E]
    shifts = _corruptions("shift", PRINTED_SHIFTS)
    classes = _corruptions("class", ("D1-D0", "D2-D0", "D3-D0", "E"))
    assert (len(shifts), len(classes)) == (48, 64)
    every = {t.check_id for t in THEOREMS}
    expected = [every] * 48 + [every - {"theorem-odd-torsors"}] * 16
    path = tmp_path / "fault.json"
    for payload, failing in zip(shifts + random.Random(17).sample(classes, 16), expected):
        path.write_text(json.dumps(payload), encoding="utf-8")
        report = build_report(section="theorems", fault=load_fault(str(path)))
        assert {r.check_id for r in report.checks if r.status == "FAIL"} == failing, payload
