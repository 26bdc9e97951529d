"""A deterministic guard on the arithmetic one full report costs.

Field multiplications and curve evaluations are counted rather than
timed, so the guard does not depend on the host: a return of the
per-order composition loop in `expand_branch` (about 74,000
multiplications per report) fails it, and so does testing a point on the
curve again (a report uses 16 distinct points; re-testing them at every
use costs about 250 evaluations).
"""

from quartic_twist import curve, valuations
from quartic_twist.checks import build_report, list_check_ids
from quartic_twist.curve import HomogPoly
from quartic_twist.cyclotomic import CycNum

MULTIPLICATION_BUDGET = 30_000
# the distinct points one report tests against the curve equation
CURVE_EVALUATIONS = 16


def _count_multiplications(monkeypatch) -> list[int]:
    calls = [0]
    multiply = CycNum.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    monkeypatch.setattr(CycNum, "__rmul__", counted)
    return calls


def test_full_report_multiplication_budget(monkeypatch):
    calls = _count_multiplications(monkeypatch)
    valuations._EXPANSION_CACHE.clear()
    report = build_report()
    assert report.exit_code == 0
    assert calls[0] <= MULTIPLICATION_BUDGET, calls[0]


def test_listing_ids_does_no_arithmetic(monkeypatch):
    calls = _count_multiplications(monkeypatch)
    assert len(list_check_ids()) == 104
    assert calls[0] == 0


def test_each_point_is_tested_on_the_curve_once(monkeypatch):
    calls = [0]
    evaluate = HomogPoly.evaluate

    def counted(self, point):
        if self is curve.CURVE:
            calls[0] += 1
        return evaluate(self, point)

    monkeypatch.setattr(HomogPoly, "evaluate", counted)
    monkeypatch.setattr(curve, "_ON_CURVE", set())
    valuations._EXPANSION_CACHE.clear()
    build_report()
    assert calls[0] == len(curve._ON_CURVE) <= CURVE_EVALUATIONS, calls[0]
