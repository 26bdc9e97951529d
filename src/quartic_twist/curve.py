"""The plane quartic x^4 + y^4 + z^4 = 0 over Q(zeta_24).

Homogeneous polynomials, projective points with canonical normalization
(first nonzero coordinate scaled to 1), the catalog of named points used
throughout the verification, and the Galois action on points.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Mapping, Union

from .cyclotomic import Automorphism, CycNum, ONE, ZERO, Scalar, _lift, rational, zeta

Triple = tuple[int, int, int]
Coefficient = Scalar  # int, Fraction or CycNum

AXIS_NAMES = ("X", "Y", "Z")


class HomogPoly:
    """Homogeneous polynomial in X, Y, Z with CycNum coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[Triple, Coefficient]):
        clean: dict[Triple, CycNum] = {}
        for exponents, coeff in terms.items():
            i, j, k = exponents
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponents {exponents} do not have degree {degree}")
            c = rational(coeff)
            if c:
                clean[(i, j, k)] = c
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, degree: int = 0) -> HomogPoly:
        return cls(degree, {})

    @classmethod
    def monomial(cls, exponents: Triple, coeff: Coefficient = 1) -> HomogPoly:
        return cls(sum(exponents), {exponents: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __add__(self, other: HomogPoly) -> HomogPoly:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        degree = self.degree if self.terms else other.degree
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return HomogPoly(degree, terms)

    def __neg__(self) -> HomogPoly:
        return HomogPoly(self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: HomogPoly) -> HomogPoly:
        return self + (-other)

    def __mul__(self, other: Union[HomogPoly, Coefficient]) -> HomogPoly:
        c = _lift(other)
        if c is not NotImplemented:
            return HomogPoly(self.degree, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, HomogPoly):
            return NotImplemented
        terms: dict[Triple, CycNum] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                prod = c1 * c2
                terms[e] = terms.get(e, ZERO) + prod
        return HomogPoly(self.degree + other.degree, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> HomogPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return product([self] * n) if n else HomogPoly.monomial((0, 0, 0))

    def partial(self, axis: int) -> HomogPoly:
        terms: dict[Triple, CycNum] = {}
        for e, c in self.terms.items():
            n = e[axis]
            if n:
                shifted = list(e)
                shifted[axis] = n - 1
                terms[tuple(shifted)] = c * n
        return HomogPoly(max(self.degree - 1, 0), terms)

    def evaluate(self, point: ProjPoint) -> CycNum:
        """Value at the normalized representative of the point.  Each term
        multiplies its coefficient by the powers of its variables with a
        nonzero exponent only, each power computed once: a term with a
        variable that is 0 there is 0, and a variable that is 1 adds no
        factor."""
        powers = [[ONE, x] for x in point.coords]  # powers[axis][e] = x^e, grown on use
        total = ZERO
        for exponents, c in self.terms.items():
            for e, row in zip(exponents, powers):
                if e:
                    x = row[1]
                    if not x:
                        break
                    if x != ONE:
                        while len(row) <= e:
                            row.append(row[-1] * x)
                        c = c * row[e]
            else:
                total = total + c
        return total

    def galois(self, sigma: Automorphism) -> HomogPoly:
        """Apply a field automorphism to every coefficient."""
        return HomogPoly(self.degree, {e: sigma(c) for e, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                f"{AXIS_NAMES[a]}^{n}" if n > 1 else AXIS_NAMES[a]
                for a, n in enumerate(e)
                if n
            ) or "1"
            parts.append(f"({c})*{mon}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HomogPoly({self})"


def product(factors: Iterable[HomogPoly]) -> HomogPoly:
    """The product of a nonempty sequence of forms, left to right."""
    return functools.reduce(operator.mul, factors)


X = HomogPoly.monomial((1, 0, 0))
Y = HomogPoly.monomial((0, 1, 0))
Z = HomogPoly.monomial((0, 0, 1))

CURVE = X ** 4 + Y ** 4 + Z ** 4


class ProjPoint:
    """Projective point with coordinates in Q(zeta_24), stored normalized
    so that the first nonzero coordinate (X, Y, Z order) equals 1.

    Coordinates whose first nonzero entry is already 1 are kept as given,
    without an inversion: every Galois image of a normalized point is
    such a triple, since sigma(1) = 1."""

    __slots__ = ("coords", "_hash")

    def __init__(self, x: Coefficient, y: Coefficient, z: Coefficient):
        raw = (rational(x), rational(y), rational(z))
        for c in raw:
            if c:
                if c != ONE:
                    scale = c.inv()
                    raw = tuple(v * scale for v in raw)
                self.coords = raw
                self._hash = hash(raw)
                return
        raise ValueError("projective point needs a nonzero coordinate")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return tuple((c.nums, c.den) for c in self.coords)

    def galois(self, sigma: Automorphism) -> ProjPoint:
        return ProjPoint(*(sigma(c) for c in self.coords))

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint{self}"


# points already found on the curve: each distinct point is evaluated once
_ON_CURVE: set[ProjPoint] = set()


def on_curve(point: ProjPoint) -> bool:
    if point in _ON_CURVE:
        return True
    if CURVE.evaluate(point):
        return False
    _ON_CURVE.add(point)
    return True


# ---------------------------------------------------------------------------
# named points

def _build_catalog() -> dict[str, ProjPoint]:
    """The named points, each written normalized, so that none is inverted:
    the cusps A_i = (0 : zeta_4^i : zeta_8^7), B_i = (zeta_4^i : 0 : zeta_8^7)
    and C_i = (zeta_8 zeta_4^i : 1 : 0) as the paper prints them are
    (0 : 1 : w), (1 : 0 : w) and (1 : w : 0) with w = zeta_8^(7 - 2i)."""
    z3, z3_squared = zeta(3), zeta(3, 2)
    points: dict[str, ProjPoint] = {}
    for i in range(4):
        w = zeta(8, 7 - 2 * i)
        points[f"A{i}"] = ProjPoint(0, 1, w)
        points[f"B{i}"] = ProjPoint(1, 0, w)
        points[f"C{i}"] = ProjPoint(1, w, 0)
    # points of tangency of the four rational bitangents, in conjugate pairs
    signs = {"0": (1, 1), "1": (-1, 1), "2": (1, -1), "3": (-1, -1)}
    for label, (sy, sz) in signs.items():
        points[f"T{label}0"] = ProjPoint(1, sy * z3, sz * z3_squared)
        points[f"T{label}1"] = ProjPoint(1, sy * z3_squared, sz * z3)
    points["E+"] = ProjPoint(1, 0, zeta(8, 3))
    points["E-"] = ProjPoint(1, 0, zeta(8, 7))
    return points


CATALOG = _build_catalog()

CUSP_NAMES = tuple(f"{family}{i}" for family in "ABC" for i in range(4))
TANGENCY_NAMES = tuple(f"T{i}{j}" for i in range(4) for j in range(2))

CUSP_BY_POINT = {CATALOG[name]: name for name in CUSP_NAMES}

# the first name of each point in the catalog: E+ and E- are the cusps
# B2 and B0, written before them, so they print as B2 and B0
_POINT_NAME = {point: name for name, point in reversed(CATALOG.items())}


def catalog(name: str) -> ProjPoint:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog point {name!r}") from None


def point_name(point: ProjPoint) -> str:
    """Catalog name of a point if it has one, else its coordinates; only an
    unnamed point is formatted."""
    name = _POINT_NAME.get(point)
    return str(point) if name is None else name


# cusp permutations induced by the two Galois generators
SIGMA3_CUSP_TABLE = {
    "A0": "A1", "A1": "A0", "A2": "A3", "A3": "A2",
    "B0": "B1", "B1": "B0", "B2": "B3", "B3": "B2",
    "C0": "C1", "C1": "C0", "C2": "C3", "C3": "C2",
}
SIGMA5_CUSP_TABLE = {
    "A0": "A2", "A1": "A3", "A2": "A0", "A3": "A1",
    "B0": "B2", "B1": "B3", "B2": "B0", "B3": "B1",
    "C0": "C2", "C1": "C3", "C2": "C0", "C3": "C1",
}


def cusp_permutation(sigma: Automorphism) -> dict[str, str]:
    """The permutation of the twelve cusps induced by coordinate-wise
    application of sigma.  Raises if some image is not a cusp."""
    table = {}
    for name in CUSP_NAMES:
        image = CATALOG[name].galois(sigma)
        if image not in CUSP_BY_POINT:
            raise ValueError(f"{sigma} does not permute the cusps: {name} -> {image}")
        table[name] = CUSP_BY_POINT[image]
    return table


def quadratic_points() -> tuple[ProjPoint, ...]:
    """The eight points with coordinates in Q(zeta_3): the tangency points
    of the four rational bitangents."""
    return tuple(CATALOG[name] for name in TANGENCY_NAMES)


_ZETA3_FIXERS = (Automorphism(7), Automorphism(13), Automorphism(19))


def is_zeta3_rational(point: ProjPoint) -> bool:
    """Whether the normalized coordinates lie in the subfield Q(zeta_3),
    i.e. are fixed by every automorphism fixing zeta_3."""
    return all(point.galois(sigma) == point for sigma in _ZETA3_FIXERS)
