"""Assembled theorem reports."""

from quartic_twist.mordell_weil import PRINTED_S3, PRINTED_S5, ActionMatrix, ModElement
from quartic_twist.theorems import (
    certificate_suite_passes,
    quadratic_point_pairs,
    verify_degree_two_classes_and_quadratic_points,
    verify_mordell_weil_structure,
    verify_no_determinantal_representation,
    verify_odd_degree_torsors,
)


def test_certificate_suite():
    assert certificate_suite_passes()


def test_mordell_weil_structure():
    report = verify_mordell_weil_structure()
    assert report.verdict, report.failures()
    assert len(report.constituents) == 4
    # the verdict rests on exactly these computations
    assert report.depends_on == (
        "certificates", "fixed-submodule", "brauer-cocycle", "dictionary"
    )
    assert report.assumptions


def test_odd_degree_torsors():
    report = verify_odd_degree_torsors()
    assert report.verdict, report.failures()
    ids = [c.check_id for c in report.constituents]
    assert ids == [
        "image-s5",
        "image-congruence",
        "torsor-sigma_5",
        "torsor-sigma_3",
        "torsor-sigma_3-sigma_5",
        "torsor-identity-control",
    ]


def test_degree_two_classes():
    report = verify_degree_two_classes_and_quadratic_points()
    assert report.verdict, report.failures()
    assert len(report.assumptions) == 2


def test_quadratic_point_pairs():
    pairs = quadratic_point_pairs()
    assert len(pairs) == 4
    assert {name for name, _, _ in pairs} == {"D0", "D1", "D2", "D3"}
    for _, pair_sum, target in pairs:
        assert pair_sum == target


def test_no_determinantal_representation():
    report = verify_no_determinantal_representation()
    assert report.verdict, report.failures()
    assert report.constituents[-1].check_id == "pic2-all-effective"


def test_fictitious_fifth_class_fails():
    ghost = ModElement((1, 0, 0, 0, 0, 0))
    report = verify_degree_two_classes_and_quadratic_points(extra_class=ghost)
    assert not report.verdict
    assert "pic2-distinct" in report.failures()

    ldr = verify_no_determinantal_representation(extra_class=ghost)
    assert not ldr.verdict
    assert "pic2-all-effective" in ldr.failures()


def test_reports_deterministic():
    a = verify_odd_degree_torsors()
    b = verify_odd_degree_torsors()
    assert a == b


def test_reports_use_the_matrices_passed_in():
    rows = [list(row) for row in PRINTED_S3.rows]
    rows[0][0] += 1
    s3 = ActionMatrix(rows)
    report = verify_mordell_weil_structure(s3, PRINTED_S5, certificates_passed=True)
    assert not report.verdict
    assert "fixed-submodule" in report.failures()
    assert verify_odd_degree_torsors(PRINTED_S3, PRINTED_S5) == verify_odd_degree_torsors()


def test_certificate_verdict_passed_in():
    report = verify_mordell_weil_structure(certificates_passed=False)
    assert report.failures() == ("certificates",)
    assert verify_mordell_weil_structure(certificates_passed=True).verdict
