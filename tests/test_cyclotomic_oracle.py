"""Q(zeta_24) against an outside witness: sympy's polynomial arithmetic
over Q modulo the 24th cyclotomic polynomial, and the complex embedding
d -> exp(2 pi i / 24).  Neither shares code with `cyclotomic`."""

import cmath
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from quartic_twist.cyclotomic import Automorphism, CycNum, ONE, ZERO, d_power  # noqa: E402

x = sympy.Symbol("x")
PHI24 = sympy.Poly(sympy.cyclotomic_poly(24, x), x, domain="QQ")
UNITS = (1, 5, 7, 11, 13, 17, 19, 23)
ZETA = cmath.exp(2j * cmath.pi / 24)


def to_poly(a: CycNum):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)],
        x,
        domain="QQ",
    )


def from_poly(p) -> CycNum:
    reduced = p.rem(PHI24)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(reduced.all_coeffs())]
    return CycNum(coeffs) if reduced else ZERO


def to_complex(a: CycNum) -> complex:
    return sum(float(c) * ZETA ** i for i, c in enumerate(a.coeffs))


def random_element(rng: random.Random) -> CycNum:
    return CycNum(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
         for _ in range(8)]
    )


def elements(seed: int, count: int = 60):
    rng = random.Random(seed)
    values = [random_element(rng) for _ in range(count)]
    return [v for v in values if v]


def test_minimal_polynomial_is_the_24th_cyclotomic_polynomial():
    assert PHI24.all_coeffs() == [1, 0, 0, 0, -1, 0, 0, 0, 1]
    assert d_power(8) - d_power(4) + ONE == ZERO
    assert abs(ZETA ** 8 - ZETA ** 4 + 1) < 1e-12


def test_mul_matches_sympy():
    values = elements(2401)
    for a, b in zip(values, reversed(values)):
        assert a * b == from_poly(to_poly(a) * to_poly(b)), (a, b)


def test_inv_matches_sympy():
    for a in elements(2402):
        assert a.inv() == from_poly(sympy.invert(to_poly(a), PHI24)), a
        assert a * a.inv() == ONE


def test_pow_matches_sympy():
    rng = random.Random(2403)
    for a in elements(2404, 30):
        n = rng.randint(-5, 7)
        base = to_poly(a) if n >= 0 else sympy.invert(to_poly(a), PHI24)
        expected = from_poly(base ** abs(n)) if n else ONE
        assert a ** n == expected, (a, n)


def test_automorphisms_match_sympy_and_the_complex_embedding():
    # sigma_k(a) is a(x^k) modulo the cyclotomic polynomial, and under the
    # embedding it is a evaluated at zeta^k
    powers = {k: sympy.Poly(x ** k, x, domain="QQ").rem(PHI24) for k in UNITS}
    for a in elements(2405, 24):
        for k in UNITS:
            image = Automorphism(k)(a)
            substituted = to_poly(a).compose(powers[k])
            assert image == from_poly(substituted), (a, k)
            value = sum(float(c) * ZETA ** (i * k) for i, c in enumerate(a.coeffs))
            assert abs(to_complex(image) - value) < 1e-9, (a, k)


def test_products_agree_under_the_complex_embedding():
    values = elements(2406)
    for a, b in zip(values, values[1:]):
        assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-6, (a, b)
