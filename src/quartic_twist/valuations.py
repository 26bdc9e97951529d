"""Local valuations on the quartic via power-series branch expansions.

At a smooth point the curve is locally the graph of one affine coordinate
over the other; that dependent coordinate is solved order by order as a
truncated power series in the local parameter t.  The vanishing order of
a form G at the point is the t-order of G composed with the expansion.

Because a degree-m form meets the quartic with total intersection number
4m, a support set together with point valuations summing to 4m certifies
the complete principal divisor of G: no zeros were missed.  That is the
completeness criterion used by `verify_certificate` to check divisor
identities of the shape  claimed = div(G) - div(H)  exactly, without any
general linear-equivalence machinery; G and H are one form each.

Cost model.  A series along a branch is a list of integer rows over one
positive denominator: for each nonzero t^n coefficient, in ascending n,
the pair (n, row) where the row lists the nonzero (power, numerator)
pairs of its 8 power-basis numerators.  Each row is scanned for its
nonzero numerators once, when it is made, not at every product that
reads it.  One loop, `_accumulate`, multiplies row series: it sums the
unreduced products of every pair of rows that lands on one output
coefficient.  `_series_mul` reduces each such coefficient of two series
once, by `cyclotomic.reduce_product`, and `compose` reads each term of a
form through the same loop, its coefficient being a series of one row;
neither takes a gcd or builds a CycNum.

One branch per point, in one arithmetic.  A point's `_Branch`, kept in
`_EXPANSION_CACHE` (so clearing it drops the branch), picks the chart,
parameter and dependent axes, holds their coordinates scaled by a common
denominator D, the powers of the latter two as row series, and the
dependent coefficients v_n they were tabled from; it also solves them.
On a sum of pure powers F_a(P) = d c_a P_a^(d-1) vanishes exactly where
P_a does, so the dependent axis is read off the coordinates.  Each new
order n grows the table by row-series products at t^n with v_n = 0,
reads v_n off the curve composed with it (see `_Branch.solve`), grows
the table again with v_n and gates it: the curve composed with it must
vanish at t^n, which certifies v_n however it was solved.  So all
precisions of a point cost O(d p^2) row products to the highest p asked
for; the powers of the parameter axis, (p_0 + t)^k, are complete once
tabled past t^k and are not multiplied again.  The table grows by
copy-on-write, only by the orders and powers a request adds.  An
expansion is a plain value, a truncation of its branch's series, and
every composition reads the branch it truncates.

`compose` substitutes the table into a form of degree m from a start
order: every monomial has denominator D^m, so after scaling the
coefficients to their common denominator L the whole result is over
D^m L.  Each of its coefficients is summed unreduced and reduced once by
`reduce_product`; the result lists the 8 numerators of each coefficient,
or None when it is 0.  The reduced vector is canonical and the
denominator positive, so a coefficient vanishes exactly when its entry
is None, and it is tested for zero without building a field element.
`valuation` reads coefficient n at precision n + 1, once each, and stops
at the first nonzero one, so no point is solved, tabled or gated past
the largest v + 1 (at most the bound) of the valuations that read it.
Only what a caller reads is normalised to CycNum: the coefficients
`compose_with_branch` returns and the solved v_n.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from typing import Optional, Sequence

from .cyclotomic import CycNum, ZERO, reduce_product
from .curve import CURVE, HomogPoly, ProjPoint, on_curve
from .divisors import Divisor

Series = tuple[CycNum, ...]
# the nonzero (power, numerator) pairs of one nonzero coefficient
Row = list[tuple[int, int]]
# (n, row) for each nonzero coefficient of t^n, n ascending, over one denominator
RowSeries = list[tuple[int, Row]]
# the 8 power-basis numerators of each coefficient, None for 0
Coefficients = list[Optional[tuple[int, ...]]]


class OrderBoundExceeded(ArithmeticError):
    """A form vanished at a point to at least the requested bound.

    With the standard bound 4*deg(G) + 1 this exceeds the total
    intersection number of G with the quartic, which forces the curve
    polynomial to divide G.
    """


def _series_mul(a: RowSeries, b: RowSeries, order: int, start: int = 0) -> RowSeries:
    """Coefficients start..order-1 of the product of two row series, over
    the product of their denominators."""
    acc: list[Optional[list[int]]] = [None] * order
    _accumulate(acc, a, b, start)
    return [(n, [(p, v) for p, v in enumerate(nums) if v])
            for n, nums in enumerate(map(_reduced, acc)) if nums]


def _accumulate(acc: list[Optional[list[int]]], a: RowSeries, b: RowSeries, start: int) -> None:
    """Add to acc the unreduced products of every pair of rows of two row
    series that lands on an order start..len(acc)-1; acc[n] holds the
    product vector of d^0..d^14 at t^n, made on first use."""
    order = len(acc)
    for i, xs in a:
        if i >= order:
            break
        for j, ys in b:
            n = i + j
            if n >= order:
                break
            if n < start:
                continue
            s = acc[n]
            if s is None:
                s = acc[n] = [0] * 15
            for p, x in xs:
                for q, y in ys:
                    s[p + q] += x * y


def _reduced(s: Optional[list[int]]) -> Optional[tuple[int, ...]]:
    """The numerators of an accumulated product vector of d^0..d^14, or
    None when it is 0."""
    if s is None:
        return None
    nums = reduce_product(s)
    return nums if any(nums) else None


def _row(c: CycNum, den: int) -> Row:
    """The nonzero numerators of c over a multiple of its denominator."""
    scale = den // c.den
    return [(p, n * scale) for p, n in enumerate(c.nums) if n]


BranchExpansion = namedtuple("BranchExpansion",
                             "center chart parameter dependent series precision")
BranchExpansion.__doc__ = """Truncated local parametrization of the curve at a
smooth point, the center (a ProjPoint).

The chart coordinate is the normalization coordinate (value 1); the
parameter coordinate runs as t around its value at the center; the
series (a tuple of CycNum) gives the dependent coordinate to the stated
precision, i.e. the curve equation composed with the parametrization
vanishes mod t^precision.  The chart, parameter and dependent axes and
the precision are ints.  It is a plain value: `compose` reads the branch
at the center, of which the series must be a prefix.
"""


class _Branch:
    """The branch of the curve at one smooth point: its axes, the inverse
    of its slope and the state (den, order, powers, series) it solves,
    tables and composes.  powers[axis][k] is the row series of
    (den * coordinate)^k, k = 0..degree, of the parameter and dependent
    axes to the order, den being the common denominator of the rows (the
    chart coordinate is the constant den); the series lists the dependent
    coefficients they were tabled from.

    The state is replaced whole (copy-on-write), so a reader sees a
    consistent one, a duplicate extension publishes an equal one and a
    late shorter one a truncation, which the next reader extends again.
    When den grows by a factor f, the rows of each k-th power are rescaled
    by f^k.
    """

    __slots__ = ("chart", "parameter", "dependent", "p0", "_slope_inv", "_state")

    def __init__(self, point: ProjPoint):
        if not on_curve(point):
            raise ValueError(f"{point} is not on the curve")
        coords = point.coords
        chart = next(i for i, c in enumerate(coords) if c)
        first, second = [axis for axis in range(3) if axis != chart]
        # on a sum of pure powers F_a(P) vanishes exactly where P_a does
        parameter, dependent = (first, second) if coords[second] else (second, first)
        if not coords[dependent]:
            # by Euler's relation the chart's partial vanishes too
            raise ValueError(f"curve is singular at {point}")
        self.chart, self.parameter, self.dependent = chart, parameter, dependent
        self.p0 = coords[parameter]
        self._slope_inv: Optional[CycNum] = None
        powers: list[tuple[RowSeries, ...]] = [(), (), ()]
        powers[parameter] = powers[dependent] = ([(0, [(0, 1)])], [])
        self._state = self._grown((1, 0, powers, ()), (coords[dependent],), 1, 1)

    def _grown(self, state: tuple, series: Series, order: int, degree: int) -> tuple:
        """The state grown from the series, whose prefix is the one tabled,
        to at least the order and the degree, or the state itself when it
        holds both; nothing is published."""
        den, reached, powers, tabled = state
        if reached >= order and len(powers[self.dependent]) > degree:
            return state
        order = max(order, reached)
        new = series[reached:order]
        grown = lcm(den, self.p0.den, *(c.den for c in new))
        factor, den = grown // den, grown
        param = [(n, row) for n, row in ((0, _row(self.p0, den)), (1, [(0, den)]))
                 if reached <= n < order and row]
        dependent = [(n, _row(c, den)) for n, c in enumerate(new, reached) if c]
        powers = list(powers)
        for axis, rows in ((self.parameter, param), (self.dependent, dependent)):
            old = powers[axis]
            if factor > 1:
                old = [[(n, [(p, x * factor ** k) for p, x in row]) for n, row in power]
                       for k, power in enumerate(old)]
            table = [old[0], old[1] + rows]
            for k in range(2, max(degree + 1, len(old))):
                kept, start = (old[k], reached) if k < len(old) else ([], 0)
                # the product adds the orders start..order-1, and (p_0 + t)^k
                # has no term past t^k, nor below it when p_0 = 0
                if start < order and (
                    axis != self.parameter or (start <= k and (k < order or bool(self.p0)))
                ):
                    kept = kept + _series_mul(table[-1], table[1], order, start)
                table.append(kept)
            powers[axis] = tuple(table)
        return den, order, powers, tabled + new

    def solve(self, precision: int) -> tuple:
        """The state solved to at least the precision, solving only the
        orders that one snapshot of the state has not reached.

        With F = sum of c_a * (coordinate a)^d, the chart coordinate 1 and
        the parameter p_0 + t, [t^n] F is linear in v_n with slope
        F_dep(P) = d * c_dep * v_0^(d-1), inverted once per point with
        v_0^(d-1) read from the table: v_n is minus the residual [t^n] F
        of the table grown with v_n = 0, over F_dep(P).  The table is then
        grown again from the series with v_n and gated: the curve composed
        with it must vanish at t^n (with a zero residual the first table
        already is that one).  Only the whole gated state is published.
        """
        state = self._state
        if state[1] >= precision:
            return state
        degree = CURVE.degree
        den, reached, powers, _ = state = self._grown(state, (), 0, degree)
        inverse = self._slope_inv
        if inverse is None:
            if not all(max(e) == degree for e in CURVE.terms):
                raise AssertionError("expand_branch needs a curve of pure powers")
            c_dep = next(c for e, c in CURVE.terms.items() if e[self.dependent] == degree)
            row = dict(powers[self.dependent][degree - 1][0][1])  # (den * v_0)^(d-1)
            slope = CycNum._raw([degree * row.get(p, 0) for p in range(8)], den ** (degree - 1))
            inverse = self._slope_inv = (c_dep * slope).inv()
        for n in range(reached, precision):
            grown = self._grown(state, state[3] + (ZERO,), n + 1, degree)
            (residual,), residual_den = self.composed(CURVE, grown, n + 1, n)
            if residual:
                vn = CycNum._raw([-x for x in residual], residual_den) * inverse
                grown = self._grown(state, state[3] + (vn,), n + 1, degree)
                if self.composed(CURVE, grown, n + 1, n)[0][0]:
                    raise AssertionError("branch expansion failed to satisfy the curve equation")
            state = grown
        self._state = state
        return state

    def composed(
        self, form: HomogPoly, state: tuple, order: int, start: int
    ) -> tuple[Coefficients, int]:
        """The numerators of the coefficients of t^start..t^(order-1) of
        the form along a state of the table, and their one positive
        denominator."""
        den, _, powers, _ = state
        parameter, dependent = self.parameter, self.dependent
        chart = 3 - parameter - dependent
        common = lcm(*(c.den for c in form.terms.values()))
        acc: list[Optional[list[int]]] = [None] * order
        for exponents, c in form.terms.items():
            i, j, k = exponents[chart], exponents[parameter], exponents[dependent]
            if j and k:
                term = _series_mul(powers[parameter][j], powers[dependent][k], order, start)
            else:
                term = powers[dependent][k] if k else powers[parameter][j]
            # c over the common denominator, times the chart coordinate's
            # constant den to the power i, as a series with one row at t^0
            _accumulate(acc, [(0, _row(c, common * den ** i))], term, start)
        return [_reduced(s) for s in acc[start:]], den ** form.degree * common


_EXPANSION_CACHE: dict[ProjPoint, _Branch] = {}


def _branch(point: ProjPoint) -> _Branch:
    """The point's branch, from the cache or built and cached."""
    return _EXPANSION_CACHE.get(point) or _EXPANSION_CACHE.setdefault(point, _Branch(point))


def expand_branch(point: ProjPoint, precision: int) -> BranchExpansion:
    """Expand the curve at a smooth point to the given precision: the
    point's branch, solved and gated only by the orders that no earlier
    request reached, truncated to the precision."""
    if precision < 1:
        raise ValueError("precision must be positive")
    branch = _branch(point)
    series = branch.solve(precision)[3][:precision]
    return BranchExpansion(point, branch.chart, branch.parameter, branch.dependent,
                           series, precision)


def compose(
    form: HomogPoly, expansion: BranchExpansion, order: int, start: int = 0
) -> tuple[Coefficients, int]:
    """Substitute the expansion into a form: the numerators of the
    coefficients of t^start..t^(order-1) of the result and their one
    positive denominator.  The expansion must truncate its center's
    branch, whose state grown to the form's degree is published."""
    if order > expansion.precision:
        raise ValueError("requested order exceeds the expansion precision")
    branch = _branch(expansion.center)
    state = branch.solve(expansion.precision)
    if (expansion.series != state[3][:expansion.precision]
            or expansion[1:4] != (branch.chart, branch.parameter, branch.dependent)):
        raise ValueError(f"the expansion is not the branch at {expansion.center}")
    grown = branch._grown(state, (), order, form.degree)
    if grown is not state:
        branch._state = grown
    return branch.composed(form, grown, order, start)


def compose_with_branch(form: HomogPoly, expansion: BranchExpansion, order: int) -> Series:
    """The coefficients of the form along the branch, as field elements."""
    rows, den = compose(form, expansion, order)
    return tuple(ZERO if row is None else CycNum._raw(row, den) for row in rows)


def valuation(form: HomogPoly, point: ProjPoint, bound: int) -> int:
    """Vanishing order of a form at a curve point, certified to be < bound.

    Raises OrderBoundExceeded if every coefficient below the bound
    vanishes; callers pass bound = 4*deg(form) + 1, so that error means
    the curve polynomial divides the form.  Coefficient n is read at
    precision n + 1, once each, up to the first nonzero one.
    """
    if not form:
        raise ValueError("valuation of the zero form")
    for n in range(bound):
        rows, _ = compose(form, expand_branch(point, n + 1), n + 1, n)
        if rows[0]:
            return n
    raise OrderBoundExceeded(f"form vanishes to order >= {bound} at {point}")


def principal_divisor_on_support(
    form: HomogPoly, support: Sequence[ProjPoint]
) -> tuple[Divisor, bool]:
    """Divisor of a form restricted to a support set, with a completeness
    flag: True when the valuations add up to 4*deg(form), i.e. when the
    returned divisor is all of div(form) on the curve."""
    if len(set(support)) != len(support):
        raise ValueError("support points must be pairwise distinct")
    bound = 4 * form.degree + 1
    coeffs = {}
    for point in support:
        v = valuation(form, point, bound)
        if v:
            coeffs[point] = v
    divisor = Divisor(coeffs)
    return divisor, divisor.degree() == 4 * form.degree


LedgerRow = namedtuple("LedgerRow", "point numerator_order denominator_order claimed")
LedgerRow.__doc__ = """One support point (a ProjPoint) of a certificate and the
orders (ints) of the numerator, of the denominator and of the claimed
divisor there."""

CertificateCheck = namedtuple(
    "CertificateCheck", "ledger numerator_complete denominator_complete passed reason"
)
CertificateCheck.__doc__ = """Outcome of checking  claimed = div(numerator) -
div(denominator): the ledger as a tuple of LedgerRow, one per support
point, whether each form's divisor is complete on the support and whether
the certificate passed (bools), and the reason it failed (a str, empty
when it passed)."""


def verify_certificate(
    claimed: Divisor,
    numerator: HomogPoly,
    denominator: Optional[HomogPoly],
    support: Sequence[ProjPoint],
) -> CertificateCheck:
    """Check a principal-divisor certificate exactly.

    The numerator G and the denominator H are one form each, H being None
    when it is the constant 1, whose divisor is 0 and complete.  Any
    degrees with deg(claimed) = 4 (deg G - deg H) are accepted.  The
    certificate passes when both forms have Bezout-complete divisors over
    the support and their difference equals the claimed divisor pointwise
    (in particular it vanishes off the claimed support).
    """
    support = tuple(support)
    degree = numerator.degree - (0 if denominator is None else denominator.degree)
    if claimed.degree() != 4 * degree:
        raise ValueError("the claimed degree is not 4 (deg numerator - deg denominator)")
    support_set = set(support)
    for point in claimed.support():
        if point not in support_set:
            raise ValueError(f"claimed support point {point} missing from support")

    div_num, num_complete = principal_divisor_on_support(numerator, support)
    div_den, den_complete = (
        (Divisor.zero(), True) if denominator is None
        else principal_divisor_on_support(denominator, support)
    )
    ledger = tuple(
        LedgerRow(point, div_num.coefficient(point), div_den.coefficient(point),
                  claimed.coefficient(point))
        for point in support
    )
    if not (num_complete and den_complete):
        reason = "support does not exhaust the divisor of one of the forms"
    elif div_num - div_den != claimed:
        reason = "div(numerator) - div(denominator) differs from the claimed divisor"
    else:
        reason = ""
    return CertificateCheck(ledger, num_complete, den_complete, not reason, reason)
