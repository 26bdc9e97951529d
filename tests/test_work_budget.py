"""A deterministic guard on the arithmetic one full report costs.

Field multiplications are counted rather than timed, so the guard does
not depend on the host: a return of the per-order composition loop in
`expand_branch` (about 74,000 multiplications per report) fails it.
"""

from quartic_twist import valuations
from quartic_twist.checks import build_report
from quartic_twist.cyclotomic import CycNum

MULTIPLICATION_BUDGET = 30_000


def test_full_report_multiplication_budget(monkeypatch):
    calls = [0]
    multiply = CycNum.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    monkeypatch.setattr(CycNum, "__rmul__", counted)
    valuations._EXPANSION_CACHE.clear()
    report = build_report()
    assert report.exit_code == 0
    assert calls[0] <= MULTIPLICATION_BUDGET, calls[0]
