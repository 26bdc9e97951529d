"""Divisor group laws, degrees, named divisors, Galois action."""

import random

import pytest

from quartic_twist.cyclotomic import IDENTITY, SIGMA3, SIGMA3_ALT, SIGMA5
from quartic_twist import divisors
from quartic_twist.curve import CATALOG, HomogPoly, ProjPoint, catalog
from quartic_twist.divisors import CUSP_SUPPORTS, Divisor, named_divisor


def test_group_identities():
    d0 = named_divisor("D0")
    assert d0 + (-d0) == Divisor.zero()
    assert not Divisor.zero()
    assert Divisor.zero().degree() == 0


def test_scaling_example():
    d0 = named_divisor("D0")
    doubled = 2 * d0
    assert doubled.coefficient(catalog("T00")) == 2
    assert doubled.coefficient(catalog("T01")) == 2
    assert doubled.degree() == 4


def test_degrees():
    assert named_divisor("D0").degree() == 2
    assert named_divisor("E").degree() == 0
    d1, d2 = named_divisor("D1"), named_divisor("D2")
    assert (d1 + d2).degree() == d1.degree() + d2.degree()
    for name in CUSP_SUPPORTS:  # the basis, the three [D_i - D_0] and E
        assert named_divisor(name).degree() == 0
    assert len(CUSP_SUPPORTS) == 10


def test_named_divisor_d1():
    from quartic_twist.cyclotomic import zeta

    z3 = zeta(3)
    expected = Divisor.point(ProjPoint(1, -z3, z3 ** 2)) + Divisor.point(
        ProjPoint(1, -z3 ** 2, z3)
    )
    assert named_divisor("D1") == expected


def test_named_divisor_e():
    e = named_divisor("E")
    assert e == 2 * Divisor.point(catalog("E+")) - 2 * Divisor.point(catalog("E-"))
    # also an exact identity of divisors, not merely of classes
    assert e == 2 * Divisor.point(catalog("B2")) - 2 * Divisor.point(catalog("B0"))
    assert CUSP_SUPPORTS["E"] == {"B2": 2, "B0": -2}


def test_unknown_name():
    with pytest.raises(ValueError):
        named_divisor("D9")


def test_off_curve_support_rejected():
    with pytest.raises(ValueError):
        Divisor.point(ProjPoint(1, 0, 0))


def test_galois_action_on_e():
    e = named_divisor("E")
    assert e.galois(SIGMA5) == -e
    sigma3_e = e.galois(SIGMA3)
    assert sigma3_e == 2 * Divisor.point(catalog("B3")) - 2 * Divisor.point(
        catalog("B1")
    )


def test_galois_fixes_rational_divisors():
    for name in ("D0", "D1", "D2", "D3"):
        d = named_divisor(name)
        assert d.galois(SIGMA3) == d
        assert d.galois(SIGMA3_ALT) == d  # the two tangency points swap here
        assert d.galois(SIGMA5) == d
    assert named_divisor("D0").galois(IDENTITY) == named_divisor("D0")


def test_group_laws_random():
    rng = random.Random(515151)
    points = list(CATALOG.values())

    def random_divisor():
        support = rng.sample(points, rng.randint(0, 4))
        return Divisor({p: rng.randint(-3, 3) for p in support})

    for _ in range(300):
        a, b, c = random_divisor(), random_divisor(), random_divisor()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a - a == Divisor.zero()
        assert (a + b).degree() == a.degree() + b.degree()
        n = rng.randint(-3, 3)
        assert (n * a).degree() == n * a.degree()
        assert a.galois(SIGMA3).galois(SIGMA3) == a.galois(SIGMA3 * SIGMA3)
        assert (a + b).galois(SIGMA5) == a.galois(SIGMA5) + b.galois(SIGMA5)
        assert (n * a).galois(SIGMA5) == n * a.galois(SIGMA5)
        assert a.galois(SIGMA5).degree() == a.degree()


def test_items_deterministic():
    d = named_divisor("D2") + 3 * named_divisor("E")
    assert d.items() == d.items()
    assert str(d) == str(d)
    assert str(Divisor.zero()) == "0"
    assert str(named_divisor("D1-D0")) == "2*B2 + 2*B1 - 4*B0"
    assert str(-named_divisor("E")) == "-2*B2 + 2*B0"


def test_checked_entry_points_reject_off_curve_points(monkeypatch):
    off = ProjPoint(1, 0, 0)
    with pytest.raises(ValueError):
        Divisor({catalog("B0"): 1, off: 2})
    with pytest.raises(ValueError):
        Divisor.point(off, 3)
    # no automorphism moves a curve point off the curve, so make one that does
    monkeypatch.setattr(ProjPoint, "galois", lambda self, sigma: off)
    with pytest.raises(ValueError):
        named_divisor("D0").galois(SIGMA3)


def test_arithmetic_results_equal_constructed_divisors():
    rng = random.Random(60606)
    points = list(CATALOG.values())

    def random_divisor():
        support = rng.sample(points, rng.randint(0, 5))
        return Divisor({p: rng.randint(-3, 3) for p in support})

    for _ in range(200):
        a, b = random_divisor(), random_divisor()
        n = rng.randint(-3, 3)
        union = set(a.support()) | set(b.support())
        results = (
            (a + b, {p: a.coefficient(p) + b.coefficient(p) for p in union}),
            (a - b, {p: a.coefficient(p) - b.coefficient(p) for p in union}),
            (-a, {p: -a.coefficient(p) for p in a.support()}),
            (n * a, {p: n * a.coefficient(p) for p in a.support()}),
            (a * n, {p: n * a.coefficient(p) for p in a.support()}),
        )
        for result, coeffs in results:
            expected = Divisor(coeffs)
            assert result == expected
            assert hash(result) == hash(expected)
            assert result.items() == expected.items()
            assert all(m for _, m in result.items())


def test_arithmetic_drops_zero_coefficients():
    d = named_divisor("D2") + 3 * named_divisor("E")
    for zero in (d - d, d + (-d), 0 * d, -d + d):
        assert zero == Divisor.zero()
        assert not zero
        assert zero.items() == ()
        assert hash(zero) == hash(Divisor.zero())
    partial = d - Divisor.point(catalog("T20"))
    assert catalog("T20") not in partial.support()


def test_arithmetic_checks_each_point_by_one_cache_lookup(monkeypatch):
    # sums, differences and multiples test their support through the one
    # constructor, and a point already tested costs no new evaluation
    d, e = named_divisor("D2"), named_divisor("E")
    tested, evaluated = [], []
    on_curve, evaluate = divisors.on_curve, HomogPoly.evaluate
    monkeypatch.setattr(divisors, "on_curve", lambda p: tested.append(p) or on_curve(p))
    monkeypatch.setattr(HomogPoly, "evaluate",
                        lambda self, p: evaluated.append(p) or evaluate(self, p))
    for result in (d + e, d - e, -d, 3 * d, e * -2):
        assert set(result.support()) <= set(tested)
    assert set(tested) == set(d.support()) | set(e.support())
    assert evaluated == []
