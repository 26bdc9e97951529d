"""A deterministic guard on the arithmetic one full report costs.

Field multiplications, row-series products, inversions, curve
evaluations, element constructions and new branch states are counted
rather than timed, so the guard does not depend on the host.  A cold report makes 384
CycNum multiplications, 183 of which have a factor exactly 1 and return
the other factor at once (42 of the 384 are in the 6 of its 19
inversions that invert an irrational element, 7 each; the 13 rational
ones make none; 35 solve the branches: one slope per point and one
product per nonzero solved coefficient; 2, each by 1, reduce the
cocycle's two forms modulo the curve as products of forms, one per
monomial divisible by X^4; 27 raise zeta_8 to the 11 powers the report
takes, by square-and-multiply from the base), and 509 products of row
series in `valuations`, 158 of them empty: 893 counted operations
against a budget of 3,000.  Multiplying the monomials below X^4 by
(X^4)^0, the constant form 1, made 386 multiplications (185 by 1).
Powers of field elements squared up from 1, with one squaring past the
top bit, made 408 multiplications (196 by 1), and powers of forms
multiplied up from the constant form 1 made 427 (215 by 1).
Evaluating a form with a power list per axis and every variable raised,
even to the power 0 or at the value 1, made 667 multiplications (431 by
1), and multiplying the parameter axis's power table again at every new
order, although the k-th power of p_0 + t ends at t^k, 612 row-series
products.  Solving the branches on CycNum beside the power tables made
1,187 multiplications (702 of them by 1) and 470 row-series products; a
power table per expansion with valuations by precision doubling, 1,451
(773 by 1) and 424.  Solving each precision of an expansion from order 0
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
most (14 with doubling).  It grows a new state of a branch 95 times,
and 222 more requests find the state already grown.  It inverts 19
field elements: F_dep(P) once at each of the 14 points expanded beyond
precision 1, and 5 divisions in the Brauer cocycle, which is computed
once.  Inverting per precision and normalizing the Galois images of
normalized points again costs 157.  It constructs 26 elements of the
divisor-class module through the reducing constructor: the two columns
of each `action-*` row and the two images of the `dict-orbit-*` rows.
Every other element is computed on its code, the 2048 of the
enumeration among them; when an element kept its coordinates and
reduced every sum and multiple through the constructor, a report built
244 (2,304 when the enumeration reduced its elements too, and 280 when
each `action-*` row formed its columns twice).  Every divisor goes through
the one constructor, which tests its support on the curve: a cold report
builds 180 divisors, 98 of them sums, differences and multiples, and
still evaluates the curve at 16 points, since a point already tested is
one cache lookup.  Before, a second constructor built 106 such results
unchecked, of 195 divisors; taking the classes `coords-*` and the
divisor of `e-support` from the table of cusp supports builds 14 fewer.

Work whose result a report throws away is pinned at what the report
keeps.  A report runs with the cyclic garbage collector paused: it frees
no cycle, and the 14 collections a cold process made (5 while the layers
imported, 9 in `main`) freed 0 objects.  Nor does a cold process pay the
interpreter's collection at shutdown, which `gc.disable()` does not stop
and `gc.callbacks` does not see: its entry freezes the heap, about 19,400
objects, when the answer is written.  The point catalog is written
normalized, so importing `curve` inverts nothing (10 inversions before).
A text report formats 25 field elements, the 24 coordinates of the 8
quadratic points and the cocycle value; naming a point formats it only
when it has no catalog name (226 before).  And a report builds 6 image
tables: s_3 s_5 = s_5 s_3 is tested by composing the tables of s_3 and
s_5, not by a table of each product (8 before), and 2M is read off the
codes, not off a table of doubling (7 before).
"""

import gc
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quartic_twist import brauer, cli, curve, mordell_weil, valuations
from quartic_twist.checks import build_report, list_check_ids, run_single
from quartic_twist.curve import CATALOG, HomogPoly, X, Y, Z
from quartic_twist.cyclotomic import CycNum, rational, zeta

# CycNum multiplications plus row-series products per cold report
MULTIPLICATION_BUDGET = 3_000
# row-series products per cold report that return no coefficient
EMPTY_PRODUCTS = 158
# CycNum inversions per cold report
INVERSION_BUDGET = 30
# ModElement constructions through the reducing constructor per cold report
ELEMENT_CONSTRUCTION_BUDGET = 400
# CycNum multiplications per cold report inside `brauer.reduce_mod_curve`
REDUCTION_MULTIPLICATIONS = 2
# branch states grown anew per cold report
GROWN_STATES = 95
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


def test_full_report_makes_few_empty_row_products(monkeypatch):
    # 158 products of row series whose coefficients at the orders asked for
    # are all 0: powers of dependent series whose new coefficients are 0, and
    # compositions at orders below a product's lowest term
    empty = [0]
    series_mul = valuations._series_mul

    def counted(a, b, order, start=0):
        product = series_mul(a, b, order, start)
        empty[0] += not product
        return product

    monkeypatch.setattr(valuations, "_series_mul", counted)
    valuations._EXPANSION_CACHE.clear()
    build_report()
    assert empty[0] <= EMPTY_PRODUCTS, empty[0]


def _counted(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cold_report():
    """A full report with the expansion cache and image tables emptied."""
    valuations._EXPANSION_CACHE.clear()
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


def test_reduction_modulo_the_curve_multiplies_only_divisible_monomials(monkeypatch):
    # a monomial below X^4 is its own normal form: multiplying it by
    # (X^4)^0, the constant form 1, made 4 in all
    calls = _count_multiplications(monkeypatch)
    reduce_mod_curve = brauer.reduce_mod_curve
    inside = [0]

    def counted(form):
        before = calls[0]
        try:
            return reduce_mod_curve(form)
        finally:
            inside[0] += calls[0] - before

    monkeypatch.setattr(brauer, "reduce_mod_curve", counted)
    _cold_report()
    assert inside[0] == REDUCTION_MULTIPLICATIONS, inside[0]


def test_full_report_grows_each_branch_state_once(monkeypatch):
    # a request the state already holds returns it unchanged; growing a
    # state the branch already holds, or not publishing a grown one, builds
    # more
    grown = [0]
    grow = valuations._Branch._grown

    def counted(self, state, *args):
        new = grow(self, state, *args)
        grown[0] += new is not state
        return new

    monkeypatch.setattr(valuations._Branch, "_grown", counted)
    _cold_report()
    assert grown[0] == GROWN_STATES, grown[0]


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


def _run_python(code: str) -> subprocess.CompletedProcess:
    """`python -c code` in a fresh process that imports this checkout."""
    src = str(Path(curve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )


def test_import_leaves_dataclasses_out():
    # importing dataclasses and decorating a class per record type cost more
    # than a tenth of a cold process
    code = "import sys, quartic_twist; print('dataclasses' in sys.modules)"
    assert _run_python(code).stdout.strip() == "False"


def test_report_through_main_collects_nothing_and_restores_the_collector(capsys):
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.callbacks.append(record)
    try:
        for setting in (True, False):
            (gc.enable if setting else gc.disable)()
            valuations._EXPANSION_CACHE.clear()
            mordell_weil.image_table.cache_clear()
            assert cli.main([]) == 0
            assert gc.isenabled() is setting
            # only the process entry freezes: a caller keeps a collectable heap
            assert gc.get_freeze_count() == frozen
    finally:
        gc.callbacks.remove(record)
        (gc.enable if enabled else gc.disable)()
    capsys.readouterr()
    assert started == []


# run `python -m quartic_twist`, counting the collections from the start of
# its `__main__` until `run` returns, and what `run` leaves for the
# interpreter's shutdown collection, which `gc.callbacks` does not report:
# the tracked objects outside the permanent generation
_COLLECTIONS_PROBE = """
import gc, runpy, sys
import quartic_twist
started = []
gc.callbacks.append(lambda phase, info: phase == "start" and started.append(info))
sys.argv[0] = "quartic-twist"
try:
    runpy.run_module("quartic_twist", run_name="__main__", alter_sys=True)
finally:
    live = len(gc.get_objects())
    sys.stderr.write(f"{len(started)} {gc.get_freeze_count()} {live}")
"""


def _frozen_exit(stderr: str) -> None:
    collections, frozen, live = map(int, stderr.split())
    assert collections == 0
    assert frozen > 10_000
    assert live < 1_000


def test_a_cold_process_collects_nothing():
    _frozen_exit(_run_python(_COLLECTIONS_PROBE).stderr)


def _console_script() -> str:
    """The `module:function` of the `quartic-twist` line of
    `[project.scripts]` in pyproject.toml."""
    table = None
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and line.partition("=")[0].strip() == "quartic-twist":
            return line.partition("=")[2].strip().strip('"')
    raise AssertionError("pyproject.toml names no quartic-twist script")


def test_console_script_writes_the_report_and_exits_frozen():
    module, _, function = _console_script().partition(":")
    code = f"""
import gc, importlib, sys
started = []
gc.callbacks.append(lambda phase, info: phase == "start" and started.append(info))
sys.argv[:] = ["quartic-twist"]
status = getattr(importlib.import_module({module!r}), {function!r})()
live = len(gc.get_objects())
sys.stderr.write(f"{{len(started)}} {{gc.get_freeze_count()}} {{live}}")
sys.exit(status)
"""
    result = _run_python(code)
    golden = Path(__file__).parent / "golden" / "full_report.txt"
    assert result.stdout == golden.read_text(encoding="utf-8")
    _frozen_exit(result.stderr)


def test_importing_the_catalog_inverts_nothing():
    code = """
from quartic_twist import cyclotomic
calls = []
inverse = cyclotomic.CycNum.inv
cyclotomic.CycNum.inv = lambda self: calls.append(self) or inverse(self)
import quartic_twist.curve
print(len(calls))
"""
    assert _run_python(code).stdout == "0\n"


def test_text_report_formats_25_field_elements(monkeypatch, capsys):
    calls = _counted(monkeypatch, CycNum, "__str__")
    valuations._EXPANSION_CACHE.clear()
    mordell_weil.image_table.cache_clear()
    assert cli.main([]) == 0
    capsys.readouterr()
    assert calls[0] == 25


def test_report_builds_six_image_tables():
    _cold_report()
    assert mordell_weil.image_table.cache_info().misses == 6
