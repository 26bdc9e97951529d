"""Reduction modulo the curve ideal and the Brauer 2-cocycle."""

import random
from fractions import Fraction

import pytest

from quartic_twist.brauer import (
    cocycle_identity_holds,
    cocycle_table,
    cocycle_tau_tau,
    product_of_linear_forms,
    reduce_mod_curve,
    trivial_unit_cocycle_table,
    u_tau,
    verify_e_identities,
)
from quartic_twist.cyclotomic import CycNum, ONE, TAU, rational, zeta
from quartic_twist.curve import CURVE, HomogPoly, X, Y, Z, catalog

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


def test_product_of_linear_forms():
    product = product_of_linear_forms()
    assert product == X ** 4 + Z ** 4
    # in particular the odd zeta_8 powers sum to zero
    assert product.terms.get((3, 0, 1)) is None
    assert sum((z8 ** k for k in (1, 3, 5, 7)), start=rational(0)) == 0
    assert product.evaluate(catalog("E-")) == 0


def test_tau_conjugates_u_tau_denominator():
    _, den = u_tau()
    assert den.galois(TAU) == (X - z8 ** 7 * Z) * (X - z8 ** 5 * Z)


def test_cocycle_value():
    assert cocycle_tau_tau() == rational(-1)


def test_cocycle_tables():
    table = cocycle_table()
    assert table[("1", "1")] == ONE
    assert table[("1", "tau")] == ONE
    assert table[("tau", "1")] == ONE
    assert table[("tau", "tau")] == rational(-1)
    assert cocycle_identity_holds(table)

    trivial = trivial_unit_cocycle_table()
    assert all(value == ONE for value in trivial.values())
    assert cocycle_identity_holds(trivial)


def test_cocycle_identity_rejects_wrong_table():
    table = cocycle_table()
    table[("1", "tau")] = rational(-1)
    assert not cocycle_identity_holds(table)


def test_e_identities():
    result = verify_e_identities()
    assert result.double_e.passed
    assert result.e_plus_sigma3.passed
    assert result.e_minus_sigma3.passed
    assert result.sigma5_negates_e
    assert result.tau_negates_sigma3_e


def test_double_e_ledger():
    result = verify_e_identities()
    rows = {row.point: row for row in result.double_e.ledger}
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
