"""A deterministic guard on the arithmetic one full report costs.

Field multiplications, row-series products, inversions, curve
evaluations and element constructions are counted rather than timed, so
the guard does not depend on the host.  A cold report makes 691
CycNum multiplications, 449 of which have a factor exactly 1 and return
the other factor at once (42 of the 691 are in the 6 of its 19
inversions that invert an irrational element, 7 each; the 13 rational
ones make none; 35 solve the branches: one slope per point and one
product per nonzero solved coefficient), and 612 products of row series
in `valuations`: 1,303 counted operations against a budget of 3,000.
Solving the branches on CycNum beside the power tables made 1,187
multiplications (702 of them by 1) and 470 row-series products; a power
table per expansion with valuations by precision doubling, 1,451 (773
by 1) and 424.  Solving each precision of an expansion from order 0
again (2,824 multiplications and 157 inversions: 4,347 operations with
inverses by the norm), composing along a branch on CycNum series (7,169
multiplications per report), or the per-order composition loop in
`expand_branch` (about 74,000), fails it, and so does testing a point
on the curve again (a report uses 16 distinct points; re-testing them at
every use costs about 250 evaluations).  A report builds no partial
derivative of the curve's form: building them per expansion (102 builds
per report) fails the guard too.

A cold report builds 14 branches, one per point it expands, each
holding the point's one power table (48 tables, one per expansion, with
precision doubling), and solves, tables and gates each branch no further
than the largest v + 1 of the valuations v that read it: 9 orders at
most (14 with doubling).  It inverts 19 field elements: F_dep(P) once at each of
the 14 points expanded beyond precision 1, and 5 divisions in the Brauer
cocycle, which is computed once.  Inverting per precision and
normalizing the Galois images of normalized points again costs 157.  It
constructs 268 elements of the divisor-class module through the
reducing constructor, 22 of them reading the six basis divisors from the
cusp dictionary; the 2048 of the enumeration are built from coordinates
already reduced (2,304 before).
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quartic_twist import curve, mordell_weil, valuations
from quartic_twist.checks import build_report, list_check_ids, run_single
from quartic_twist.curve import CATALOG, HomogPoly, X, Y, Z
from quartic_twist.cyclotomic import CycNum, rational, zeta

# CycNum multiplications plus row-series products per cold report
MULTIPLICATION_BUDGET = 3_000
# CycNum inversions per cold report
INVERSION_BUDGET = 30
# ModElement constructions through the reducing constructor per cold report
ELEMENT_CONSTRUCTION_BUDGET = 400
# the distinct points one report tests against the curve equation
CURVE_EVALUATIONS = 16


def _count_multiplications(monkeypatch) -> list[int]:
    """One counter for field multiplications and row-series products."""
    calls = [0]
    multiply = CycNum.__mul__
    series_mul = valuations._series_mul

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    def counted_series(a, b, order, start=0):
        calls[0] += 1
        return series_mul(a, b, order, start)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    monkeypatch.setattr(CycNum, "__rmul__", counted)
    monkeypatch.setattr(valuations, "_series_mul", counted_series)
    return calls


def test_full_report_multiplication_budget(monkeypatch):
    calls = _count_multiplications(monkeypatch)
    valuations._EXPANSION_CACHE.clear()
    report = build_report()
    assert report.exit_code == 0
    assert calls[0] <= MULTIPLICATION_BUDGET, calls[0]


def _counted(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cold_report():
    """A full report with the expansion and element caches emptied."""
    valuations._EXPANSION_CACHE.clear()
    mordell_weil._elements.cache_clear()
    mordell_weil.image_table.cache_clear()
    report = build_report()
    assert report.exit_code == 0


def test_full_report_inversion_budget(monkeypatch):
    calls = _counted(monkeypatch, CycNum, "inv")
    _cold_report()
    assert calls[0] <= INVERSION_BUDGET, calls[0]


def test_full_report_element_construction_budget(monkeypatch):
    calls = _counted(monkeypatch, mordell_weil.ModElement, "__init__")
    _cold_report()
    assert calls[0] <= ELEMENT_CONSTRUCTION_BUDGET, calls[0]


def test_rational_inverse_makes_no_multiplication(monkeypatch):
    calls = _count_multiplications(monkeypatch)
    for q in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-12, 5), Fraction(-1, 4)):
        assert rational(q).inv() == rational(1 / q)
    assert calls[0] == 0


def test_odd_torsor_theorem_expands_no_branch(monkeypatch):
    calls = _counted(monkeypatch, valuations, "expand_branch")
    valuations._EXPANSION_CACHE.clear()
    (record,) = run_single("theorem-odd-torsors").checks
    assert record.status == "OK"
    assert calls[0] == 0


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


def test_report_builds_no_partial_derivative(monkeypatch):
    calls = [0]
    partial = HomogPoly.partial

    def counted(self, axis):
        calls[0] += 1
        return partial(self, axis)

    monkeypatch.setattr(HomogPoly, "partial", counted)
    valuations._EXPANSION_CACHE.clear()
    build_report()
    assert calls[0] == 0


def test_every_precision_of_a_point_reads_one_power_table(monkeypatch):
    built = _counted(monkeypatch, valuations._Branch, "__init__")
    point = CATALOG["T21"]
    valuations._EXPANSION_CACHE.clear()
    expansions = [valuations.expand_branch(point, precision) for precision in (4, 9, 2)]
    z8 = zeta(8)
    for form in (X + Y + Z, X ** 2 - z8 * Y * Z, (X - Z) ** 3):
        for expansion in expansions:
            valuations.compose(form, expansion, expansion.precision)
            valuations.compose_with_branch(form, expansion, 2)
    assert built[0] == 1
    assert list(valuations._EXPANSION_CACHE) == [point]
    valuations._EXPANSION_CACHE.clear()
    valuations.expand_branch(point, 4)
    assert built[0] == 2


def test_no_point_is_solved_past_the_orders_its_valuations_read(monkeypatch):
    # each valuation v < bound reads the coefficients 0..v, one that
    # exceeds the bound reads 0..bound-1
    reads: dict = {}
    valuation = valuations.valuation

    def recorded(form, point, bound):
        v = bound
        try:
            v = valuation(form, point, bound)
            return v
        finally:
            reads[point] = max(reads.get(point, 0), min(v + 1, bound))

    monkeypatch.setattr(valuations, "valuation", recorded)
    _cold_report()
    cache = valuations._EXPANSION_CACHE
    assert set(cache) == set(reads) and len(cache) == 14
    for point, need in reads.items():
        _, tabled, _, solved = cache[point]._state
        assert len(solved) == tabled == need, point


def test_import_leaves_dataclasses_out():
    # importing dataclasses and decorating a class per record type cost more
    # than a tenth of a cold process
    src = str(Path(curve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys, quartic_twist; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"
