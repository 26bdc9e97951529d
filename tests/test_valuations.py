"""Branch expansions, valuations, Bezout completeness, and the concrete
certificate suite."""

import random

import pytest

from quartic_twist.certificates import (
    BITANGENT_LINES,
    MINUS_SQRT2,
    Perturbation,
    bitangent_checks,
    cusp_relation_certificates,
    cusp_representative,
    e_divisor_equality,
    verify_principal_divisor,
)
from quartic_twist import valuations
from quartic_twist.brauer import verify_e_identities
from quartic_twist.cyclotomic import SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, TAU, d_power, rational, zeta
from quartic_twist.curve import CATALOG, CURVE, HomogPoly, X, Y, Z, catalog
from quartic_twist.divisors import Divisor, named_divisor
from quartic_twist.valuations import (
    BranchExpansion,
    OrderBoundExceeded,
    compose_with_branch,
    expand_branch,
    principal_divisor_on_support,
    valuation,
    verify_certificate,
)

z8 = zeta(8)
z3 = zeta(3)


def test_minus_sqrt2_squares_to_two():
    assert MINUS_SQRT2 * MINUS_SQRT2 == rational(2)
    assert TAU(MINUS_SQRT2) == MINUS_SQRT2  # real number


def test_expansion_at_b0():
    b0 = catalog("B0")
    exp = expand_branch(b0, 5)
    assert exp.chart == 0 and exp.parameter == 1 and exp.dependent == 2
    assert exp.series[0] == z8 ** 7
    assert exp.series[1] == 0 and exp.series[2] == 0 and exp.series[3] == 0
    # oracle: implicit differentiation of 1 + y^4 + z^4 = 0 at (0, z0)
    # gives the leading correction  -1/(4 z0^3) * y^4
    z0 = z8 ** 7
    assert exp.series[4] == -(4 * z0 ** 3).inv()
    assert exp.series[4] == (d_power(1) - d_power(5)) * rational(1) / 4


def test_expansion_at_tangency_point():
    exp = expand_branch(catalog("T00"), 5)
    assert exp.chart == 0
    assert exp.parameter == 1  # t = y - zeta_3
    assert exp.dependent == 2
    assert exp.series[0] == z3 ** 2


def test_expansion_residual_vanishes_everywhere():
    for name, point in CATALOG.items():
        exp = expand_branch(point, 7)
        residual = compose_with_branch(CURVE, exp, 7)
        assert not any(residual), name


def test_expansion_off_curve_rejected():
    from quartic_twist.curve import ProjPoint

    with pytest.raises(ValueError):
        expand_branch(ProjPoint(1, 0, 0), 5)


def test_valuation_examples():
    assert valuation(X + Y + Z, catalog("T00"), 9) == 2
    assert valuation(X + Y + Z, catalog("T01"), 9) == 2
    assert valuation(X - z8 * Z, catalog("B0"), 9) == 4
    assert valuation(X, catalog("A0"), 9) == 1
    assert valuation(Y, catalog("B0"), 9) == 1
    assert valuation(Z, catalog("C0"), 9) == 1


def test_line_z_meets_four_c_points_simply():
    support = [catalog(f"C{i}") for i in range(4)]
    divisor, complete = principal_divisor_on_support(Z, support)
    assert complete
    assert all(divisor.coefficient(p) == 1 for p in support)


def test_divisor_of_y():
    support = [catalog(f"B{i}") for i in range(4)]
    divisor, complete = principal_divisor_on_support(Y, support)
    assert complete
    assert all(divisor.coefficient(p) == 1 for p in support)


def test_valuation_of_curve_polynomial_overflows():
    with pytest.raises(OrderBoundExceeded):
        valuation(CURVE, catalog("B0"), 17)


def test_valuation_rejects_zero_form():
    from quartic_twist.curve import HomogPoly

    with pytest.raises(ValueError):
        valuation(HomogPoly.zero(1), catalog("B0"), 5)


def test_bitangent_checks_pass():
    for name, check in bitangent_checks():
        assert check.complete, name
        assert check.passed, name
    # the contact orders themselves: 2 at each tangency point
    line = BITANGENT_LINES["L0"]
    _, check = bitangent_checks()[0]
    assert check.orders == (2, 2)


def test_conic_orders_are_simple():
    _, check = bitangent_checks()[4]
    assert check.orders == (1,) * 8


def test_incomplete_support_detected():
    check = verify_principal_divisor(
        2 * Divisor.point(catalog("T00")), BITANGENT_LINES["L0"], [catalog("T00")]
    )
    assert not check.complete and not check.passed
    assert check.orders == (2,)


def test_cusp_relation_certificates_pass():
    for name, check in cusp_relation_certificates():
        assert check.passed, (name, check.reason)
        assert check.numerator_complete and check.denominator_complete


def test_cusp_relation_ledger_d1():
    name, check = cusp_relation_certificates()[0]
    rows = {row.point: row for row in check.ledger}
    b0 = rows[catalog("B0")]
    assert b0.numerator_order == 4 and b0.denominator_order == 0
    t10 = rows[catalog("T10")]
    assert t10.numerator_order == 2 and t10.denominator_order == 1
    t00 = rows[catalog("T00")]
    assert t00.numerator_order == 0 and t00.denominator_order == 1
    b1 = rows[catalog("B1")]
    assert b1.numerator_order == 0 and b1.denominator_order == 2


def test_negative_control_without_cusp_correction():
    # dropping the cusp-supported part must fail pointwise at B0, B1, B2
    name, good = cusp_relation_certificates()[0]
    wrong_claim = named_divisor("D1") - named_divisor("D0")
    check = verify_certificate(
        wrong_claim, good.numerator, good.denominator, good.support
    )
    assert not check.passed
    assert check.numerator_complete and check.denominator_complete


def test_perturbed_certificate_fails():
    perturb = Perturbation("D1-D0", "numerator", (2, 0, 0), 1)
    results = dict(cusp_relation_certificates(perturb))
    assert not results["D1-D0"].passed
    assert results["D2-D0"].passed and results["D3-D0"].passed


def test_certificate_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_certificate(Divisor.zero(), X, X ** 2, [catalog("B0")])


def test_certificate_requires_claimed_support():
    with pytest.raises(ValueError):
        verify_certificate(
            Divisor.point(catalog("B0")) - Divisor.point(catalog("B1")),
            X - z8 * Z,
            X - z8 ** 3 * Z,
            [catalog("B0")],
        )


def test_e_divisor_equality():
    assert e_divisor_equality()


def test_cusp_representatives_have_degree_zero():
    for name in ("D1-D0", "D2-D0", "D3-D0"):
        assert cusp_representative(name).degree() == 0


CERT_FORMS = None


def _certificate_forms():
    global CERT_FORMS
    if CERT_FORMS is None:
        forms = list(BITANGENT_LINES.values())
        forms.append(X ** 2 + Y ** 2 + Z ** 2)
        forms.extend([X - z8 ** k * Z for k in (1, 3, 5, 7)])
        forms.append(Y)
        for _, check in cusp_relation_certificates():
            forms.append(check.numerator)
            forms.append(check.denominator)
        CERT_FORMS = forms
    return CERT_FORMS


def test_bezout_exactness_of_certificate_forms():
    """Every form used in a certificate has valuation sum 4*deg over the
    full catalog of named points."""
    support = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for form in _certificate_forms():
        divisor, complete = principal_divisor_on_support(form, support)
        assert complete, form


def test_valuation_additivity_random():
    rng = random.Random(7117)
    forms = _certificate_forms()
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for _ in range(150):
        g = rng.choice(forms)
        h = rng.choice(forms)
        point = rng.choice(points)
        product = g * h
        bound = 4 * product.degree + 1
        assert valuation(product, point, bound) == valuation(
            g, point, bound
        ) + valuation(h, point, bound)


def test_galois_equivariance_of_valuations():
    lifts = (SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, TAU)
    for _, check in cusp_relation_certificates():
        for form in (check.numerator, check.denominator):
            bound = 4 * form.degree + 1
            for point in check.support:
                v = valuation(form, point, bound)
                for sigma in lifts:
                    assert (
                        valuation(form.galois(sigma), point.galois(sigma), bound) == v
                    )


def test_principal_divisor_propagates_overflow():
    with pytest.raises(OrderBoundExceeded):
        principal_divisor_on_support(CURVE, [catalog("B0")])


def test_certificate_support_off_curve_rejected():
    from quartic_twist.curve import ProjPoint

    with pytest.raises(ValueError):
        principal_divisor_on_support(X, [ProjPoint(1, 0, 0)])


def test_expansion_cache_concurrent_use():
    # expansions are cached per (point, precision); concurrent lookups and
    # duplicate inserts must agree
    from concurrent.futures import ThreadPoolExecutor

    points = [catalog(name) for name in ("B0", "A0", "C0", "T00", "T31")]

    def job(point):
        exp = expand_branch(point, 11)
        return valuation(X + Y + Z, point, 9)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, points * 8))
    for i, point in enumerate(points):
        column = results[i::len(points)]
        assert all(v == column[0] for v in column)


# ---------------------------------------------------------------------------
# reference oracles for the series layer


def _reference_expansion(point, precision):
    """The plain per-order solver: with the series correct mod t^n, compose
    the whole curve equation once more and read off the next coefficient
    from [t^n] F = [t^n] F(.., v, ..) + F_dep(P) * v_n."""
    chart = next(i for i, c in enumerate(point.coords) if c)
    first, second = [axis for axis in range(3) if axis != chart]
    if CURVE.partial(second).evaluate(point):
        parameter, dependent = first, second
    else:
        parameter, dependent = second, first
    dep_partial_inv = CURVE.partial(dependent).evaluate(point).inv()
    series = [point.coords[dependent]]
    for n in range(1, precision):
        partial = BranchExpansion(
            point, chart, parameter, dependent, tuple(series), n + 1
        )
        residual = compose_with_branch(CURVE, partial, n + 1)
        series.append(-(residual[n] * dep_partial_inv))
    return BranchExpansion(point, chart, parameter, dependent, tuple(series), precision)


def test_expansion_matches_per_order_reference():
    assert len(CATALOG) == 22
    for name, point in CATALOG.items():
        valuations._EXPANSION_CACHE.pop((point, 17), None)
        assert expand_branch(point, 17) == _reference_expansion(point, 17), name


def _full_valuation(form, point, bound):
    """First nonzero coefficient of one composition to order bound + 1, or
    None where every coefficient below the bound vanishes."""
    series = compose_with_branch(form, expand_branch(point, bound + 1), bound + 1)
    return next((n for n in range(bound) if series[n]), None)


def _assert_on_demand_matches(form, point):
    bound = 4 * form.degree + 1
    expected = _full_valuation(form, point, bound)
    if expected is None:
        with pytest.raises(OrderBoundExceeded):
            valuation(form, point, bound)
    else:
        assert valuation(form, point, bound) == expected, (form, point)


def test_on_demand_valuation_matches_full_composition_on_certificates():
    cases = []
    for _, check in bitangent_checks():
        cases.extend((check.form, point) for point in check.support)
    identities = verify_e_identities()
    certificates = [check for _, check in cusp_relation_certificates()]
    certificates += [
        identities.double_e, identities.e_plus_sigma3, identities.e_minus_sigma3
    ]
    for check in certificates:
        for form in (check.numerator, check.denominator):
            cases.extend((form, point) for point in check.support)
    assert len(cases) == 82
    for form, point in cases:
        _assert_on_demand_matches(form, point)


def _random_form(rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        terms[(i, j, degree - i - j)] = rng.randint(-3, 3) * d_power(rng.randrange(24))
    return HomogPoly(degree, terms)


def test_on_demand_valuation_matches_full_composition_random():
    # random forms times 0..deg lines through the point, so that orders
    # from 0 up to several precision doublings occur
    rng = random.Random(20211)
    lines = [X - z8 ** k * Z for k in (1, 3, 5, 7)] + list(BITANGENT_LINES.values())
    lines += [X, Y, Z]
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    orders = set()
    tested = 0
    while tested < 120:
        point = rng.choice(points)
        through = [line for line in lines if not line.evaluate(point)]
        degree = rng.randint(1, 3)
        cut = rng.randint(0, degree)
        form = HomogPoly(0, {(0, 0, 0): 1})
        if cut < degree:
            form = _random_form(rng, degree - cut)
        for _ in range(cut):
            form = form * rng.choice(through)
        if not form:
            continue
        _assert_on_demand_matches(form, point)
        orders.add(_full_valuation(form, point, 4 * degree + 1))
        tested += 1
    assert {0, 1, 2, 4, 8} <= orders


def test_valuation_equal_to_bound_is_exceeded():
    # X - z8 Z vanishes to order exactly 4 at B0
    assert valuation(X - z8 * Z, catalog("B0"), 5) == 4
    with pytest.raises(OrderBoundExceeded):
        valuation(X - z8 * Z, catalog("B0"), 4)


def test_order_bound_exceeded_for_curve_times_line():
    for line, point in ((X + Y + Z, "T00"), (X - z8 * Z, "B0"), (Y, "A1")):
        form = CURVE * line
        with pytest.raises(OrderBoundExceeded):
            valuation(form, catalog(point), 4 * form.degree + 1)
