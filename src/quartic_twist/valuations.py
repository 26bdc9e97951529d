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
general linear-equivalence machinery.

Cost model.  The curve is a sum of pure powers a X^d + b Y^d + c Z^d, so
`expand_branch` keeps the coefficient lists of the powers 1..d of the
dependent series and extends each by one O(n) convolution per order n;
the new coefficient is linear in what those lists give, so the whole
expansion to precision p costs O(d p^2) field products.  It then composes
the curve with the finished expansion once, at the full precision, and
raises unless every coefficient vanishes: that composition is the gate
that certifies the series, independently of how it was solved.
`valuation` asks only for the precision it needs: it composes with
expansions of precision 1, 2, 4, 8, ... (capped at bound + 1) and stops
at the first nonzero coefficient, so a form that does not vanish at the
point costs one precision-1 expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .cyclotomic import CycNum, ONE, ZERO
from .curve import CURVE, HomogPoly, ProjPoint, curve_is_smooth_at, on_curve
from .divisors import Divisor

Series = tuple[CycNum, ...]


class OrderBoundExceeded(ArithmeticError):
    """A form vanished at a point to at least the requested bound.

    With the standard bound 4*deg(G) + 1 this exceeds the total
    intersection number of G with the quartic, which forces the curve
    polynomial to divide G.
    """


def _ser_add(a: Series, b: Series) -> Series:
    return tuple((x + y if x else y) if y else x for x, y in zip(a, b))


def _ser_mul(a: Series, b: Series, order: int) -> Series:
    out = [ZERO] * order
    for i, ai in enumerate(a):
        if i >= order:
            break
        if ai:
            top = order - i
            for j, bj in enumerate(b[:top]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _ser_scale(c: CycNum, a: Series) -> Series:
    return tuple(c * x if x else ZERO for x in a)


def _ser_const(c: CycNum, order: int) -> Series:
    return (c,) + (ZERO,) * (order - 1)


@dataclass(frozen=True)
class BranchExpansion:
    """Truncated local parametrization of the curve at a smooth point.

    The chart coordinate is the normalization coordinate (value 1); the
    parameter coordinate runs as t around its value at the center; the
    series gives the dependent coordinate to the stated precision, i.e.
    the curve equation composed with the parametrization vanishes
    mod t^precision.
    """

    center: ProjPoint
    chart: int
    parameter: int
    dependent: int
    series: Series
    precision: int

    def coordinate_series(self, order: int) -> tuple[Series, Series, Series]:
        """Series for (X, Y, Z) along the branch, truncated at the order."""
        if order > self.precision:
            raise ValueError("requested order exceeds the expansion precision")
        coords: list[Series] = [()] * 3
        coords[self.chart] = _ser_const(ONE, order)
        param_start = self.center.coords[self.parameter]
        param = [ZERO] * order
        param[0] = param_start
        if order > 1:
            param[1] = ONE
        coords[self.parameter] = tuple(param)
        dep = list(self.series[:order])
        dep += [ZERO] * (order - len(dep))
        coords[self.dependent] = tuple(dep)
        return tuple(coords)


_EXPANSION_CACHE: dict[tuple[ProjPoint, int], BranchExpansion] = {}


def expand_branch(point: ProjPoint, precision: int) -> BranchExpansion:
    """Expand the curve at a smooth point to the given precision.

    Cached per (point, precision); entries are immutable, so concurrent
    reads and duplicate inserts are harmless.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    cached = _EXPANSION_CACHE.get((point, precision))
    if cached is not None:
        return cached
    if not on_curve(point):
        raise ValueError(f"{point} is not on the curve")
    if not curve_is_smooth_at(point):
        raise ValueError(f"curve is singular at {point}")

    chart = next(i for i, c in enumerate(point.coords) if c)
    first, second = [axis for axis in range(3) if axis != chart]
    partial_second = CURVE.partial(second).evaluate(point)
    if partial_second:
        parameter, dependent = first, second
        dep_partial = partial_second
    else:
        # smoothness and Euler's relation force the other partial nonzero
        parameter, dependent = second, first
        dep_partial = CURVE.partial(first).evaluate(point)

    series = [point.coords[dependent]]
    if precision > 1:
        series = _solve_dependent(point, parameter, dependent, dep_partial, precision)
    expansion = BranchExpansion(
        center=point,
        chart=chart,
        parameter=parameter,
        dependent=dependent,
        series=tuple(series),
        precision=precision,
    )
    check = compose_with_branch(CURVE, expansion, precision)
    if any(check):
        raise AssertionError("branch expansion failed to satisfy the curve equation")
    _EXPANSION_CACHE[(point, precision)] = expansion
    return expansion


def _solve_dependent(
    point: ProjPoint,
    parameter: int,
    dependent: int,
    dep_partial: CycNum,
    precision: int,
) -> list[CycNum]:
    """Coefficients v_0..v_(precision-1) of the dependent coordinate.

    With F = sum of c_a * (coordinate a)^d, the chart coordinate is 1, the
    parameter is p_0 + t, and [t^n] F is linear in v_n:
        [t^n] F = c_dep * [t^n] (v_<n)^d + c_par * [t^n] (p_0 + t)^d
                  + F_dep(P) * v_n,
    where v_<n is the series truncated below t^n.  `powers[k]` holds the
    coefficients of v^k; its entry at order n is first computed with
    v_n = 0 (one convolution) and then corrected by k * v_0^(k-1) * v_n.
    """
    degree = CURVE.degree
    if not all(max(e) == degree for e in CURVE.terms):
        raise AssertionError("expand_branch needs a curve of pure powers")
    coeff = [ZERO] * 3
    for e, c in CURVE.terms.items():
        coeff[e.index(degree)] = c
    c_dep = coeff[dependent]
    p0 = point.coords[parameter]
    # [t^n] c_par * (p_0 + t)^d, nonzero only for n <= d
    param_terms = [coeff[parameter] * comb(degree, n) * p0 ** (degree - n)
                   for n in range(degree + 1)]
    dep_partial_inv = dep_partial.inv()

    v = [point.coords[dependent]]
    powers: list[list[CycNum]] = [[ONE], [v[0]]]
    for k in range(2, degree + 1):
        powers.append([powers[k - 1][0] * v[0]])
    slopes = [ZERO] + [k * powers[k - 1][0] for k in range(1, degree + 1)]
    for n in range(1, precision):
        powers[1].append(ZERO)
        for k in range(2, degree + 1):
            lower = powers[k - 1]
            acc = ZERO
            for j in range(n):
                if v[j] and lower[n - j]:
                    acc = acc + lower[n - j] * v[j]
            powers[k].append(acc)
        residual = c_dep * powers[degree][n]
        if n <= degree:
            residual = residual + param_terms[n]
        vn = -(residual * dep_partial_inv)
        v.append(vn)
        if vn:
            for k in range(1, degree + 1):
                powers[k][n] = powers[k][n] + slopes[k] * vn
    return v


def compose(form: HomogPoly, coords: tuple[Series, Series, Series], order: int) -> Series:
    """Substitute coordinate series into a form, truncating at the order."""
    max_exp = [0, 0, 0]
    for e in form.terms:
        for axis in range(3):
            max_exp[axis] = max(max_exp[axis], e[axis])
    powers: list[list[Series]] = []
    for axis in range(3):
        row = [_ser_const(ONE, order)]
        for _ in range(max_exp[axis]):
            row.append(_ser_mul(row[-1], coords[axis], order))
        powers.append(row)
    total = (ZERO,) * order
    for exponents, c in form.terms.items():
        # factors with exponent 0 are the constant 1 and are skipped
        factors = [powers[axis][e] for axis, e in enumerate(exponents) if e]
        term = factors[0] if factors else powers[0][0]
        for factor in factors[1:]:
            term = _ser_mul(term, factor, order)
        total = _ser_add(total, _ser_scale(c, term))
    return total


def compose_with_branch(form: HomogPoly, expansion: BranchExpansion, order: int) -> Series:
    return compose(form, expansion.coordinate_series(order), order)


def valuation(form: HomogPoly, point: ProjPoint, bound: int) -> int:
    """Vanishing order of a form at a curve point, certified to be < bound.

    Raises OrderBoundExceeded if every coefficient below the bound
    vanishes; callers pass bound = 4*deg(form) + 1, so that error means
    the curve polynomial divides the form.  The expansion precision grows
    by doubling from 1 and stops at the first nonzero coefficient.
    """
    if not form:
        raise ValueError("valuation of the zero form")
    precision = 1
    while True:
        order = min(precision, bound + 1)
        series = compose_with_branch(form, expand_branch(point, order), order)
        for n in range(min(order, bound)):
            if series[n]:
                return n
        if order == bound + 1:
            raise OrderBoundExceeded(
                f"form vanishes to order >= {bound} at {point}"
            )
        precision *= 2


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


@dataclass(frozen=True)
class LedgerRow:
    point: ProjPoint
    numerator_order: int
    denominator_order: int
    claimed: int


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of checking  claimed = div(numerator) - div(denominator)."""

    claimed: Divisor
    numerator: HomogPoly
    denominator: HomogPoly
    support: tuple[ProjPoint, ...]
    ledger: tuple[LedgerRow, ...]
    numerator_complete: bool
    denominator_complete: bool
    passed: bool
    reason: str = ""


def verify_certificate(
    claimed: Divisor,
    numerator: HomogPoly,
    denominator: HomogPoly,
    support: Sequence[ProjPoint],
) -> CertificateCheck:
    """Check a principal-divisor certificate exactly.

    The certificate passes when both forms have Bezout-complete divisors
    over the support and their difference equals the claimed divisor
    pointwise (in particular it vanishes off the claimed support).
    """
    if numerator.degree != denominator.degree:
        raise ValueError("numerator and denominator degrees differ")
    support = tuple(support)
    support_set = set(support)
    for point in claimed.support():
        if point not in support_set:
            raise ValueError(f"claimed support point {point} missing from support")

    div_num, num_complete = principal_divisor_on_support(numerator, support)
    div_den, den_complete = principal_divisor_on_support(denominator, support)
    ledger = tuple(
        LedgerRow(
            point=point,
            numerator_order=div_num.coefficient(point),
            denominator_order=div_den.coefficient(point),
            claimed=claimed.coefficient(point),
        )
        for point in support
    )
    if not (num_complete and den_complete):
        return CertificateCheck(
            claimed, numerator, denominator, support, ledger,
            num_complete, den_complete, False,
            "support does not exhaust the divisor of one of the forms",
        )
    if div_num - div_den != claimed:
        return CertificateCheck(
            claimed, numerator, denominator, support, ledger,
            num_complete, den_complete, False,
            "div(numerator) - div(denominator) differs from the claimed divisor",
        )
    return CertificateCheck(
        claimed, numerator, denominator, support, ledger, True, True, True
    )
