"""A second witness for valuations, independent of branch expansions.

The curve C: F = X^4 + Y^4 + Z^4 is smooth, so the valuation of a form G
at a point P of C is the local intersection number I_P(F, G).  Fulton
(Algebraic Curves, 3.3) computes that number from its axioms alone.
Dehomogenise in P's chart and move P to the origin; then, for f and g
with no common component through the origin:

* I(f, g) = 0 when f or g does not vanish at the origin;
* when y divides f, I(f, g) = I(y, g) + I(f / y, g), and I(y, g) is the
  order of x in g(x, 0);
* otherwise, with r = deg f(x, 0) <= s = deg g(x, 0), f(x, 0) monic
  (I(f, g) = I(c f, g) for a nonzero constant c) and b the leading
  coefficient of g(x, 0), I(f, g) = I(f, g - b x^(s-r) f), whose second
  restriction has a lower degree.

Polynomials here are dicts {(i, j): CycNum} of the nonzero coefficients
of x^i y^j, and the only arithmetic is CycNum's.
"""

import random
from itertools import product
from math import comb

import pytest

from quartic_twist.certificates import E_IDENTITIES, certificate_table
from quartic_twist.curve import CATALOG, CURVE, CUSP_NAMES, HomogPoly, catalog
from quartic_twist.cyclotomic import ONE, ZERO, rational, zeta
from quartic_twist.valuations import valuation

z8 = zeta(8)


def affine(form, point):
    """The form in the chart of the point (whose coordinate there is 1),
    with the point moved to the origin."""
    coords = point.coords
    chart = next(axis for axis, c in enumerate(coords) if c)
    assert coords[chart] == ONE
    u, w = [axis for axis in range(3) if axis != chart]
    a, b = coords[u], coords[w]
    poly = {}
    for e, c in form.terms.items():
        # c (x + a)^e_u (y + b)^e_w
        for i, j in product(range(e[u] + 1), range(e[w] + 1)):
            term = c * comb(e[u], i) * comb(e[w], j) * a ** (e[u] - i) * b ** (e[w] - j)
            poly[i, j] = poly.get((i, j), ZERO) + term
    return {key: c for key, c in poly.items() if c}


def x_degree(poly):
    """The degree of poly(x, 0), or -1 when it is 0."""
    return max((i for i, j in poly if j == 0), default=-1)


def intersection_number(f, g):
    """I_0(f, g) by Fulton's algorithm."""
    total = 0
    while (0, 0) not in f and (0, 0) not in g:
        if not f or not g:
            raise ValueError("common component")
        r, s = x_degree(f), x_degree(g)
        if r > s:
            f, g, r, s = g, f, s, r
        if r < 0:
            if s < 0:
                raise ValueError("common component y")
            total += min(i for i, j in g if j == 0)
            f = {(i, j - 1): c for (i, j), c in f.items()}
            continue
        if f[r, 0] != ONE:
            scale = f[r, 0].inv()
            f = {key: scale * c for key, c in f.items()}
        b, reduced = g[s, 0], dict(g)
        for (i, j), c in f.items():
            key = (i + s - r, j)
            reduced[key] = reduced.get(key, ZERO) - b * c
        g = {key: c for key, c in reduced.items() if c}
    return total


def witness(form, point):
    return intersection_number(affine(CURVE, point), affine(form, point))


def tangent_line(point):
    """The curve's tangent line at the point: sum of P_a^3 X_a."""
    x, y, z = point.coords
    return HomogPoly(1, {(1, 0, 0): x ** 3, (0, 1, 0): y ** 3, (0, 0, 1): z ** 3})


def assert_witness_agrees(form, support):
    """Witness and valuation agree at each support point; their sum."""
    total = 0
    for point in support:
        v = witness(form, point)
        assert v == valuation(form, point, 4 * form.degree + 1), (form, point)
        total += v
    return total


def test_witness_reproduces_fultons_example():
    # Fulton 3.3: I_0((x^2 + y^2)^2 + 3 x^2 y - y^3, (x^2 + y^2)^3 - 4 x^2 y^2) = 14
    f = {(4, 0): 1, (2, 2): 2, (0, 4): 1, (2, 1): 3, (0, 3): -1}
    g = {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1, (2, 2): -4}
    as_cyc = lambda poly: {key: rational(c) for key, c in poly.items()}
    assert intersection_number(as_cyc(f), as_cyc(g)) == 14
    assert intersection_number(as_cyc(g), as_cyc(f)) == 14
    assert intersection_number({(0, 1): ONE}, {(2, 0): ONE, (0, 1): -ONE}) == 2
    with pytest.raises(ValueError):
        intersection_number(as_cyc(f), as_cyc(f))


def certificate_supports():
    """Each form of each row of the certificate table, with the support
    its certificate is checked on."""
    for name, row in certificate_table().items():
        support = [catalog(n) for n in row.support]
        for part in ("numerator", "denominator"):
            form = getattr(row, part)
            if form is not None:
                yield (name, part), form, support


def test_certificate_forms_on_their_supports():
    checked = 0
    for key, form, support in certificate_supports():
        # the witness alone exhausts the divisor of the form on the curve
        assert assert_witness_agrees(form, support) == 4 * form.degree, key
        checked += 1
    # 11 forms of the bitangent and relation rows, 6 of the E identities
    assert checked == 17


def test_e_identity_forms_on_their_supports():
    # the functions behind the Brauer obstruction, each part as one form:
    # (X - z8^5 Z) / (X - z8 Z), u_tau and its sigma_3 partner
    table = certificate_table()
    checked = 0
    for name in E_IDENTITIES:
        row = table[name]
        support = [catalog(n) for n in row.support]
        for form in (row.numerator, row.denominator):
            assert assert_witness_agrees(form, support) == 4 * form.degree, name
            checked += 1
    assert checked == 6


def test_cusp_tangent_lines_meet_to_order_four():
    for name in CUSP_NAMES:
        point = CATALOG[name]
        line = tangent_line(point)
        assert witness(line, point) == 4 == valuation(line, point, 5), name


COEFFICIENTS = (ZERO, ZERO, ONE, -ONE, rational(2), rational(-3), z8, zeta(3), zeta(24, 5))


def random_form(rng, degree):
    while True:
        terms = {(i, j, degree - i - j): rng.choice(COEFFICIENTS)
                 for i in range(degree + 1) for j in range(degree + 1 - i)}
        form = HomogPoly(degree, terms)
        if form:
            return form


def test_random_forms_at_catalog_points():
    # half vanish at the point by construction, half are powers of the
    # tangent line there times a random form
    rng = random.Random(2021)
    points = list(CATALOG.values())
    assert len(points) == 22
    orders = set()
    for case in range(100):
        point = rng.choice(points)
        degree = rng.randint(1, 4)
        if case % 2:
            k = rng.randint(1, degree)
            form = tangent_line(point) ** k
            if k < degree:
                form = form * random_form(rng, degree - k)
        else:
            form = random_form(rng, degree)
            chart = next(axis for axis, c in enumerate(point.coords) if c)
            exponents = tuple(degree if axis == chart else 0 for axis in range(3))
            form = form - HomogPoly.monomial(exponents, form.evaluate(point))
            if not form:
                continue
        v = witness(form, point)
        assert v == valuation(form, point, 4 * degree + 1), (case, form, point)
        orders.add(v)
    assert max(orders) >= 8 and min(orders) >= 1
