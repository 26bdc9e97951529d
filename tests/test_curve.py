"""Projective geometry of the quartic: catalog points, normalization,
polynomial evaluation, and the Galois permutation of the cusps."""

import random
from fractions import Fraction

import pytest

from quartic_twist.cyclotomic import (
    IDENTITY,
    SIGMA3,
    SIGMA3_ALT,
    SIGMA5,
    SIGMA5_ALT,
    Automorphism,
    CycNum,
    rational,
    zeta,
)
from quartic_twist.curve import (
    CATALOG,
    CURVE,
    CUSP_NAMES,
    SIGMA3_CUSP_TABLE,
    SIGMA5_CUSP_TABLE,
    TANGENCY_NAMES,
    HomogPoly,
    ProjPoint,
    X,
    Y,
    Z,
    catalog,
    cusp_permutation,
    on_curve,
    point_name,
    quadratic_points,
)

z8 = zeta(8)
z4 = zeta(4)
z3 = zeta(3)


def test_evaluate_examples():
    a0 = catalog("A0")
    assert CURVE.evaluate(a0) == 0  # 1 + zeta_8^28 = 1 + zeta_8^4 = 0
    line = X + Y + Z
    assert line.evaluate(ProjPoint(1, z3, z3 ** 2)) == 0
    assert X.evaluate(ProjPoint(0, 1, 1)) == 0


def test_on_curve_examples():
    assert on_curve(ProjPoint(z4 ** 2, 0, z8 ** 7))  # B2 as originally written
    assert not on_curve(ProjPoint(1, 0, 0))
    assert on_curve(ProjPoint(1, -z3, -z3 ** 2))


def test_catalog_points():
    assert catalog("C1") == ProjPoint(z8 * z4, 1, 0)
    assert catalog("E+") == ProjPoint(1, 0, z8 ** 3)
    # the original B2 coordinates normalize onto E+
    assert ProjPoint(z4 ** 2, 0, z8 ** 7) == catalog("E+")
    assert catalog("B2") == catalog("E+")
    assert catalog("B0") == catalog("E-")
    with pytest.raises(ValueError):
        catalog("Q7")


def test_catalog_points_are_the_printed_coordinates_normalized():
    # the coordinates as the paper prints them, normalized by inverting the
    # first nonzero one: the catalog writes them already normalized
    printed = {}
    for i in range(4):
        printed[f"A{i}"] = (0, z4 ** i, z8 ** 7)
        printed[f"B{i}"] = (z4 ** i, 0, z8 ** 7)
        printed[f"C{i}"] = (z8 * z4 ** i, 1, 0)
    for label, (sy, sz) in {"0": (1, 1), "1": (-1, 1), "2": (1, -1), "3": (-1, -1)}.items():
        printed[f"T{label}0"] = (1, sy * z3, sz * z3 ** 2)
        printed[f"T{label}1"] = (1, sy * z3 ** 2, sz * z3)
    printed["E+"] = (1, 0, z8 ** 3)
    printed["E-"] = (1, 0, z8 ** 7)
    assert list(CATALOG) == list(printed)
    for name, coords in printed.items():
        scale = next(rational(1) / c for c in coords if c)
        assert CATALOG[name].coords == tuple(scale * c for c in coords), name


def test_all_catalog_points_on_smooth_locus():
    partials = [CURVE.partial(axis) for axis in range(3)]
    for name, point in CATALOG.items():
        assert on_curve(point), name
        assert any(partial.evaluate(point) for partial in partials), name


def test_normalization_first_nonzero_is_one():
    for point in CATALOG.values():
        coords = point.coords
        first = next(c for c in coords if c)
        assert first == rational(1)


def test_normalization_scaling_invariance_random():
    rng = random.Random(4821)
    points = list(CATALOG.values())
    for _ in range(300):
        point = rng.choice(points)
        while True:
            lam = CycNum(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
            )
            if lam:
                break
        rescaled = ProjPoint(*(lam * c for c in point.coords))
        assert rescaled == point
        assert hash(rescaled) == hash(point)


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_galois_permutation_tables_reproduced():
    assert cusp_permutation(SIGMA3) == SIGMA3_CUSP_TABLE
    assert cusp_permutation(SIGMA5) == SIGMA5_CUSP_TABLE
    assert cusp_permutation(IDENTITY) == {n: n for n in CUSP_NAMES}


def test_galois_image_point_examples():
    assert catalog("A0").galois(SIGMA3) == catalog("A1")
    assert catalog("B1").galois(SIGMA5) == catalog("B3")
    for point in CATALOG.values():
        assert point.galois(IDENTITY) == point


def test_both_lifts_agree_on_zeta8_points():
    names = CUSP_NAMES + ("E+", "E-")
    for name in names:
        p = catalog(name)
        assert p.galois(SIGMA3) == p.galois(SIGMA3_ALT), name
        assert p.galois(SIGMA5) == p.galois(SIGMA5_ALT), name
    assert cusp_permutation(SIGMA3_ALT) == SIGMA3_CUSP_TABLE
    assert cusp_permutation(SIGMA5_ALT) == SIGMA5_CUSP_TABLE


def test_galois_preserves_curve_membership():
    for k in (1, 5, 7, 11, 13, 17, 19, 23):
        sigma = Automorphism(k)
        for point in CATALOG.values():
            assert on_curve(point.galois(sigma))


def test_galois_images_are_normalized_as_by_an_explicit_inversion():
    # the image of a normalized point starts with sigma(1) = 1, so its
    # constructor skips the inversion: the result must not depend on that
    for k in (1, 5, 7, 11, 13, 17, 19, 23):
        sigma = Automorphism(k)
        for name, point in CATALOG.items():
            coords = [sigma(c) for c in point.coords]
            scale = next(c for c in coords if c).inv()
            expected = tuple(c * scale for c in coords)
            image = point.galois(sigma)
            assert image.coords == expected, (name, k)
            assert hash(image) == hash(ProjPoint(*expected)) == hash(expected), (name, k)


def test_homog_poly_arithmetic(monkeypatch):
    conic = X ** 2 + Y ** 2 + Z ** 2
    assert conic.degree == 2
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert conic - conic == HomogPoly.zero(2)
    assert 2 * X == X + X
    with pytest.raises(ValueError):
        X + conic
    with pytest.raises(ValueError):
        HomogPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative power"):
        X ** -1
    assert X ** 0 == HomogPoly.monomial((0, 0, 0)) and (X ** 0).degree == 0
    assert (X + Y) ** 3 == (X + Y) * (X + Y) * (X + Y)
    # a power multiplies copies of its base, not the constant 1 first:
    # 2 * 2 coefficient products for the square, then 3 * 2 for the cube
    calls = [0]
    multiply = CycNum.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    (X + Y) ** 3
    assert calls[0] == 10


def test_partial_derivatives():
    assert CURVE.partial(0) == 4 * X ** 3
    assert CURVE.partial(1) == 4 * Y ** 3
    assert (X * Y * Z).partial(2) == X * Y


def test_galois_on_polynomials():
    form = X - z8 * Z
    image = form.galois(SIGMA3)
    assert image == X - z8 ** 3 * Z


def test_quadratic_points_are_the_tangency_points():
    assert quadratic_points() == tuple(CATALOG[n] for n in TANGENCY_NAMES)
    assert len(set(quadratic_points())) == 8


def test_point_name_roundtrip():
    assert point_name(catalog("B1")) == "B1"
    assert point_name(catalog("E+")) == "B2"  # same normalized point
    other = ProjPoint(1, 1, 0)
    assert point_name(other) == str(other)
