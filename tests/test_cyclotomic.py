"""Arithmetic in Q(zeta_24): worked values against an independent
schoolbook-reduction oracle, plus randomized field-axiom suites."""

import random
from fractions import Fraction

import pytest

from quartic_twist.cyclotomic import (
    CONJ_ZETA3,
    IDENTITY,
    ONE,
    SIGMA3,
    SIGMA3_ALT,
    SIGMA5,
    SIGMA5_ALT,
    TAU,
    ZERO,
    Automorphism,
    CycNum,
    d_power,
    rational,
    zeta,
)
from quartic_twist.curve import HomogPoly


def schoolbook_reduce(coeffs):
    """Oracle: reduce an arbitrary-length coefficient list of powers of d
    by repeatedly replacing the top term via d^8 = d^4 - 1."""
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 8:
        top = coeffs.pop()
        if top:
            coeffs[-4] += top
            coeffs[-8] -= top
    coeffs += [Fraction(0)] * (8 - len(coeffs))
    return tuple(coeffs)


def schoolbook_d_power(n):
    return CycNum(schoolbook_reduce([0] * n + [1]))


def test_one_reduction_step():
    d = d_power(1)
    assert d * d_power(7) == CycNum((-1, 0, 0, 0, 1))  # d^4 - 1


def test_zeta8_squared_is_zeta4():
    z8 = d_power(3)
    assert z8 * z8 == d_power(6)
    assert z8 * z8 == zeta(4, 1)


def test_zeta3_cubed_is_one():
    z3 = CycNum((-1, 0, 0, 0, 1))  # d^4 - 1, i.e. d^8
    assert z3 == schoolbook_d_power(8)
    assert z3 * (z3 * z3) == ONE
    # oracle: expand (d^4 - 1)^3 = d^12 - 3 d^8 + 3 d^4 - 1 and reduce
    expanded = [-1, 0, 0, 0, 3, 0, 0, 0, -3, 0, 0, 0, 1]
    assert CycNum(schoolbook_reduce(expanded)) == ONE


def test_minimal_polynomial_vanishes():
    d = d_power(1)
    assert d ** 8 - d ** 4 + 1 == ZERO


def test_inverse_of_one_and_rationals():
    assert ONE.inv() == ONE
    assert rational(2).inv() == rational(Fraction(1, 2))
    assert rational(Fraction(-3, 7)).inv() == rational(Fraction(-7, 3))


def test_inverse_of_zeta8():
    # oracle: zeta_8^(-1) = zeta_8^7 = d^21, and d^21 reduces to d - d^5
    assert schoolbook_d_power(21) == CycNum((0, 1, 0, 0, 0, -1))
    assert d_power(3).inv() == CycNum((0, 1, 0, 0, 0, -1))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_zeta_values():
    assert zeta(8, 4) == rational(-1)  # d^12 = -1, by the oracle
    assert schoolbook_d_power(12) == rational(-1)
    assert zeta(3, 1) == CycNum((-1, 0, 0, 0, 1))
    assert zeta(1, 0) == ONE
    with pytest.raises(ValueError):
        zeta(5, 1)
    with pytest.raises(ValueError):
        zeta(0, 1)


def test_zeta_multiplicative_orders():
    from math import gcd
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        for power in range(order):
            value = zeta(order, power)
            acc = value
            n = 1
            while acc != ONE:
                acc = acc * value
                n += 1
                assert n <= 24
            assert n == order // gcd(order, power)


def test_powers_start_from_their_base(monkeypatch):
    # square-and-multiply from the base itself: no positive power multiplies
    # by ONE, and zeta_8^k takes 0, 1, 2, 2, 3, 3, 4 products for k = 1..7
    z8 = zeta(8)
    expected = [z8]
    for _ in range(6):
        expected.append(expected[-1] * z8)
    factors = []
    multiply = CycNum.__mul__

    def recorded(self, other):
        factors.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(CycNum, "__mul__", recorded)
    monkeypatch.setattr(CycNum, "__rmul__", recorded)
    assert [z8 ** k for k in range(1, 8)] == expected
    assert not [pair for pair in factors if ONE in pair]
    assert z8 ** 0 == ONE and len(factors) == 15
    # a negative power inverts first, 7 products for the norm, then squares
    assert z8 ** -3 == expected[4] and len(factors) == 15 + 7 + 2


def test_automorphism_on_zeta8():
    z8 = d_power(3)
    # the lift d -> d^11 also sends zeta_8 to zeta_8^3 = d^9 = d^5 - d
    assert Automorphism(11)(z8) == CycNum((0, -1, 0, 0, 0, 1))
    assert Automorphism(11)(z8) == schoolbook_d_power(33)
    assert Automorphism(19)(z8) == schoolbook_d_power(33)
    # d -> d^5 sends zeta_8 to zeta_8^5 = -zeta_8
    assert Automorphism(5)(z8) == -z8
    assert Automorphism(5)(z8) == schoolbook_d_power(15)


def test_automorphism_fixes_rationals():
    for k in (1, 5, 7, 11, 13, 17, 19, 23):
        assert Automorphism(k)(Fraction(7, 3)) == rational(Fraction(7, 3))


def test_automorphism_exponent_validation():
    with pytest.raises(ValueError):
        Automorphism(2)
    with pytest.raises(ValueError):
        Automorphism(9)
    assert Automorphism(25) == Automorphism(1)


def test_named_automorphisms_restrict_correctly():
    z8 = zeta(8)
    z3 = zeta(3)
    assert SIGMA3(z8) == z8 ** 3 and SIGMA3(z3) == z3
    assert SIGMA3_ALT(z8) == z8 ** 3 and SIGMA3_ALT(z3) == z3 ** 2
    assert SIGMA5(z8) == z8 ** 5 and SIGMA5(z3) == z3 ** 2
    assert SIGMA5_ALT(z8) == z8 ** 5 and SIGMA5_ALT(z3) == z3
    assert TAU(z8) == z8 ** 7
    assert (SIGMA3 * SIGMA5).exponent == TAU.exponent
    assert CONJ_ZETA3(z8) == z8 and CONJ_ZETA3(z3) == z3 ** 2
    # tau really is complex conjugation: it inverts every root of unity
    for n in range(24):
        assert TAU(d_power(n)) == d_power(-n)


def random_cyc(rng, size=6):
    return CycNum(
        [Fraction(rng.randint(-size, size), rng.randint(1, 4)) for _ in range(8)]
    )


def test_field_axioms_random():
    rng = random.Random(20240817)
    units = (1, 5, 7, 11, 13, 17, 19, 23)
    for _ in range(1000):
        a, b, c = (random_cyc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO
        if a:
            assert a * a.inv() == ONE
        k, l = rng.choice(units), rng.choice(units)
        s, t = Automorphism(k), Automorphism(l)
        assert s(a * b) == s(a) * s(b)
        assert s(a + b) == s(a) + s(b)
        assert s(t(a)) == Automorphism(k * l)(a)
        assert IDENTITY(a) == a


def schoolbook_product(a, b):
    """Oracle: the product of two elements on Fraction coefficients."""
    raw = [Fraction(0)] * 15
    ca, cb = a.coeffs, b.coeffs
    for i in range(8):
        for j in range(8):
            raw[i + j] += ca[i] * cb[j]
    return CycNum(schoolbook_reduce(raw))


def test_mul_against_schoolbook_oracle_random():
    rng = random.Random(99)
    for _ in range(300):
        a, b = random_cyc(rng), random_cyc(rng)
        assert a * b == schoolbook_product(a, b)


def test_mul_by_one_and_integral_products_against_schoolbook_oracle():
    rng = random.Random(1804)
    ones = (ONE, rational(1), Fraction(2, 2), 1)
    values = [ZERO, ONE, -ONE, d_power(5), CycNum((Fraction(1, 2), 0, 3))]
    values += [random_cyc(rng) for _ in range(20)]
    for x in values:
        for one in ones:
            assert x * one == schoolbook_product(x, rational(one)) == x
            assert one * x == x
            assert (x * one).den == x.den and (one * x).nums == x.nums
    # non-integral factors whose product is integral, where the gcd is taken
    for p, q in ((Fraction(2, 3), Fraction(3, 2)), (Fraction(-4, 3), Fraction(9, 2)),
                 (Fraction(1, 2), Fraction(4, 1))):
        product = rational(p) * rational(q)
        assert product == schoolbook_product(rational(p), rational(q)) == p * q
        assert product.den == 1
    half_d = CycNum((0, Fraction(1, 2), 0, 0, 0, Fraction(-3, 2)))
    assert half_d * 2 == schoolbook_product(half_d, rational(2)) == CycNum((0, 1, 0, 0, 0, -3))
    # sparse pairs, integral and not
    for _ in range(300):
        a, b = (
            CycNum([Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) if rng.random() < 0.25
                    else 0 for _ in range(8)])
            for _ in range(2)
        )
        assert a * b == schoolbook_product(a, b), (a, b)


def test_canonical_form_and_hash():
    a = CycNum((Fraction(2, 4), Fraction(6, 4)))
    b = CycNum((Fraction(1, 2), Fraction(3, 2)))
    assert a == b and hash(a) == hash(b)
    assert a.coeffs[0] == Fraction(1, 2)
    assert rational(3) == 3
    assert hash(rational(3)) == hash(3)
    assert rational(a) is a
    # the coefficients carry their own denominators; there is no second one
    with pytest.raises(TypeError):
        CycNum((1,), 2)
    with pytest.raises(ValueError, match="at most 8 power-basis coefficients"):
        CycNum(range(9))
    # a string is not a scalar, although a coefficient of CycNum may be one
    with pytest.raises(TypeError, match="not a scalar"):
        rational("1")


def test_scalar_mixing():
    d = d_power(1)
    assert 2 * d == d + d
    assert d - 1 == d + (-1)
    assert 1 - d == -(d - 1)
    assert (d / 2) * 2 == d
    assert 6 / rational(3) == 2
    assert Fraction(1, 2) + rational(Fraction(1, 2)) == ONE


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(rational(-1)) == "-1"
    assert str(zeta(3)) == "d^4 - 1"
    assert str(CycNum((Fraction(-1, 2), 1))) == "d - 1/2"


def fraction_str(x):
    """Oracle: the rendering of `CycNum.__str__` written on Fraction
    coefficients, as the field printed its values before it stopped
    importing `fractions`."""
    parts = []
    for i in range(7, -1, -1):
        c = x.coeffs[i]
        if not c:
            continue
        mon = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
        body = str(abs(c)) if not mon else mon if abs(c) == 1 else f"{abs(c)}*{mon}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def test_rationals_without_fractions_module():
    rng = random.Random(20240615)
    for _ in range(300):
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.6 else 0
            for _ in range(8)
        ]
        x = CycNum(coeffs)
        assert str(x) == fraction_str(x), coeffs
        assert x.coeffs == tuple(coeffs)
        assert all(type(c) is Fraction for c in x.coeffs)
    for q in (0, 1, -1, 7, -12, 2**70, Fraction(3, 7), Fraction(-1, 2), Fraction(-12, 5), Fraction(4, 2)):
        assert hash(rational(q)) == hash(q) and rational(q) == q, q
    assert hash(rational(-1)) == -2
    # a coefficient that is not an int is read as Fraction(c) reads it
    assert CycNum(("1/2", Fraction(-3, 4), True, "-5")) == CycNum((Fraction(1, 2), Fraction(-3, 4), 1, -5))
    assert CycNum((0.5,)) == Fraction(1, 2)
    assert (CycNum((1,)) == "1") is False
    form = HomogPoly(1, {(1, 0, 0): 1})
    assert form * Fraction(1, 2) == HomogPoly(1, {(1, 0, 0): Fraction(1, 2)})
    assert True * form == form
    with pytest.raises(TypeError):
        form * "x"
    with pytest.raises(TypeError):
        form * 0.5
