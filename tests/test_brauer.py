"""Reduction modulo the curve ideal and the Brauer 2-cocycle."""

import random
from fractions import Fraction

import pytest

from quartic_twist.brauer import (
    U_TAU,
    cocycle_identity_holds,
    cocycle_table,
    cocycle_tau_tau,
    product_of_linear_forms,
    reduce_mod_curve,
    trivial_unit_cocycle_table,
    verify_e_identities,
)
from quartic_twist.certificates import certificate_table
from quartic_twist.cyclotomic import CycNum, ONE, SIGMA3, SIGMA5, TAU, rational, zeta
from quartic_twist.curve import CURVE, HomogPoly, X, Y, Z, catalog
from quartic_twist.divisors import named_divisor

z8 = zeta(8)


def test_reduce_curve_polynomial_to_zero():
    assert reduce_mod_curve(CURVE) == HomogPoly.zero(4)
    assert reduce_mod_curve(Y ** 4 + (X ** 4 + Z ** 4)) == HomogPoly.zero(4)


def test_reduce_single_step():
    assert reduce_mod_curve(X ** 5) == -(X * Y ** 4) - X * Z ** 4


def test_reduce_is_idempotent_and_linear():
    rng = random.Random(321)
    monomials = [(i, j, k) for i in range(6) for j in range(6) for k in range(6)
                 if i + j + k == 5]

    def random_form():
        return HomogPoly(
            5,
            {
                e: CycNum([Fraction(rng.randint(-3, 3)) for _ in range(8)])
                for e in rng.sample(monomials, 4)
            },
        )

    for _ in range(100):
        f, g = random_form(), random_form()
        rf = reduce_mod_curve(f)
        assert reduce_mod_curve(rf) == rf
        assert all(e[0] < 4 for e in rf.terms)
        assert reduce_mod_curve(f + g) == reduce_mod_curve(f) + reduce_mod_curve(g)
        c = rational(rng.randint(-5, 5))
        assert reduce_mod_curve(c * f) == c * reduce_mod_curve(f)


def test_reduce_returns_the_normal_form():
    # CURVE * G + R reduces to R when no monomial of R is divisible by X^4:
    # a map that only dropped the X^4 terms would be idempotent and linear
    # too; with G of degree up to 7 the rule is applied up to twice a term
    assert reduce_mod_curve(X ** 8 * Y + X ** 4 * Y ** 5) == Y ** 5 * Z ** 4 + Y * Z ** 8
    rng = random.Random(2107)

    def random_form(degree, x_below):
        monomials = [(i, j, degree - i - j) for i in range(min(degree + 1, x_below))
                     for j in range(degree + 1 - i)]
        return HomogPoly(degree, {
            e: CycNum([rng.randint(-3, 3) for _ in range(8)])
            for e in rng.sample(monomials, min(4, len(monomials)))
        })

    top = 0
    for _ in range(100):
        degree = rng.randint(0, 7)
        g, r = random_form(degree, degree + 1), random_form(degree + 4, 4)
        form = CURVE * g + r
        top = max(top, *(e[0] for e in form.terms))
        assert reduce_mod_curve(form) == r
    assert top >= 8


def test_product_of_linear_forms():
    product = product_of_linear_forms()
    assert product == X ** 4 + Z ** 4
    # in particular the odd zeta_8 powers sum to zero
    assert product.terms.get((3, 0, 1)) is None
    assert sum((z8 ** k for k in (1, 3, 5, 7)), start=rational(0)) == 0
    assert product.evaluate(catalog("E-")) == 0


def test_tau_conjugates_u_tau_denominator():
    row = certificate_table()[U_TAU]
    num, den = row.numerator, row.denominator
    assert num == Y ** 2 and den == (X - z8 * Z) * (X - z8 ** 3 * Z)
    assert den.galois(TAU) == (X - z8 ** 7 * Z) * (X - z8 ** 5 * Z)


def test_cocycle_value():
    assert cocycle_tau_tau(certificate_table()[U_TAU]) == rational(-1)


def test_cocycle_reads_u_tau_from_its_row():
    row = certificate_table()[U_TAU]
    # u_tau = 2 Y^2 / (...) has the same divisor, and u_tau tau(u_tau) = -4
    scaled = row._replace(numerator=2 * Y ** 2)
    assert cocycle_tau_tau(scaled) == rational(-4)
    assert cocycle_table(scaled)[("tau", "tau")] == rational(-4)


def test_cocycle_tables():
    table = cocycle_table(certificate_table()[U_TAU])
    assert table[("1", "1")] == ONE
    assert table[("1", "tau")] == ONE
    assert table[("tau", "1")] == ONE
    assert table[("tau", "tau")] == rational(-1)
    assert cocycle_identity_holds(table)

    trivial = trivial_unit_cocycle_table()
    assert all(value == ONE for value in trivial.values())
    assert cocycle_identity_holds(trivial)


def test_cocycle_identity_rejects_wrong_table():
    table = cocycle_table(certificate_table()[U_TAU])
    table[("1", "tau")] = rational(-1)
    assert not cocycle_identity_holds(table)


def test_e_identities():
    result = dict(verify_e_identities(certificate_table()))
    assert list(result) == ["2E", "E+sigma3(E)", "E-sigma3(E)"]
    assert result["2E"].passed
    assert result["E+sigma3(E)"].passed
    assert result["E-sigma3(E)"].passed
    e = named_divisor("E")
    assert certificate_table()["E+sigma3(E)"].claimed == e + e.galois(SIGMA3)
    assert e.galois(SIGMA5) == -e
    assert e.galois(TAU) == -e.galois(SIGMA3)


def test_double_e_ledger():
    result = dict(verify_e_identities(certificate_table()))
    rows = {row.point: row for row in result["2E"].ledger}
    e_plus, e_minus = catalog("E+"), catalog("E-")
    assert rows[e_plus].numerator_order == 4
    assert rows[e_plus].denominator_order == 0
    assert rows[e_minus].numerator_order == 0
    assert rows[e_minus].denominator_order == 4


def test_scalar_ratio_error_path():
    from quartic_twist.brauer import _scalar_ratio

    with pytest.raises(ValueError):
        _scalar_ratio(X ** 4, X ** 3 * Y)
    with pytest.raises(ValueError):
        _scalar_ratio(X ** 4 + Y ** 4, X ** 4 + 2 * Y ** 4)
