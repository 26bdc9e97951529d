"""Formal Z-linear combinations of points on the quartic.

Divisors are maps from normalized points to nonzero integers; support is
restricted to points on the curve, so equality of divisors is exact.  Every
divisor, sums, differences and multiples included, is built by the one
constructor, which checks that each support point lies on the curve; a
point already checked costs one lookup in the cache of `curve.on_curve`.
`CUSP_SUPPORTS` writes, by cusp name, every cusp divisor whose class the
report takes.
"""

from __future__ import annotations

from typing import Mapping

from .cyclotomic import Automorphism, signed_sum
from .curve import ProjPoint, catalog, on_curve, point_name


class Divisor:
    """Finite formal sum of curve points with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[ProjPoint, int] = ()):
        clean: dict[ProjPoint, int] = {}
        for point, n in dict(coeffs).items():
            if n:
                if not on_curve(point):
                    raise ValueError(f"support point {point} is not on the curve")
                clean[point] = n
        self._coeffs = clean

    @classmethod
    def point(cls, point: ProjPoint, multiplicity: int = 1) -> Divisor:
        return cls({point: multiplicity})

    @classmethod
    def zero(cls) -> Divisor:
        return cls()

    def coefficient(self, point: ProjPoint) -> int:
        return self._coeffs.get(point, 0)

    def support(self) -> tuple[ProjPoint, ...]:
        return tuple(sorted(self._coeffs, key=ProjPoint.sort_key))

    def items(self) -> tuple[tuple[ProjPoint, int], ...]:
        return tuple((p, self._coeffs[p]) for p in self.support())

    def degree(self) -> int:
        return sum(self._coeffs.values())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: Divisor) -> Divisor:
        if not isinstance(other, Divisor):
            return NotImplemented
        coeffs = dict(self._coeffs)
        for point, n in other._coeffs.items():
            coeffs[point] = coeffs.get(point, 0) + n
        return Divisor(coeffs)

    def __neg__(self) -> Divisor:
        return Divisor({p: -n for p, n in self._coeffs.items()})

    def __sub__(self, other: Divisor) -> Divisor:
        return self + (-other)

    def __mul__(self, n: int) -> Divisor:
        if not isinstance(n, int):
            return NotImplemented
        return Divisor({p: n * m for p, m in self._coeffs.items()})

    __rmul__ = __mul__

    def galois(self, sigma: Automorphism) -> Divisor:
        """Apply the automorphism to every support point, keeping coefficients."""
        coeffs: dict[ProjPoint, int] = {}
        for point, n in self._coeffs.items():
            image = point.galois(sigma)
            coeffs[image] = coeffs.get(image, 0) + n
        return Divisor(coeffs)

    def __str__(self) -> str:
        terms = []
        for point, n in self.items():
            name = point_name(point)
            terms.append((n, name if abs(n) == 1 else f"{abs(n)}*{name}"))
        return signed_sum(terms)

    def __repr__(self) -> str:
        return f"Divisor({self})"


# ---------------------------------------------------------------------------
# named divisors

# name -> {cusp: n}: the basis e1..e6 of the divisor-class module, the cusp
# divisors in the classes [D_i - D_0] that the relation certificates pin
# down, and E
CUSP_SUPPORTS: dict[str, dict[str, int]] = {
    "e1": {"A1": 1, "B0": -1},
    "e2": {"A2": 1, "B0": -1},
    "e3": {"B1": 1, "B0": -1},
    "e4": {"B2": 1, "B0": -1},
    "e5": {"C1": 1, "B0": -1},
    "e6": {"A1": 1, "B1": 1, "C1": 1, "A2": 1, "B2": 1, "C2": 1, "B0": -6},
    "D1-D0": {"B1": 2, "B2": 2, "B0": -4},
    "D2-D0": {"A1": 2, "A2": 2, "B1": 2, "B2": 2, "B0": -8},
    "D3-D0": {"A1": 2, "A2": 2, "B0": -4},
    "E": {"B2": 2, "B0": -2},
}


def from_cusp_support(support: Mapping[str, int]) -> Divisor:
    return Divisor({catalog(name): n for name, n in support.items()})


def named_divisor(name: str) -> Divisor:
    """Divisors referred to by name: the bitangent contact divisors D0..D3,
    the degree-0 divisor E = 2E+ - 2E-, and each other row of
    `CUSP_SUPPORTS` (the row "E" is the cusp divisor equal to E)."""
    if name in ("D0", "D1", "D2", "D3"):
        i = name[1]
        return Divisor.point(catalog(f"T{i}0")) + Divisor.point(catalog(f"T{i}1"))
    if name == "E":
        return 2 * Divisor.point(catalog("E+")) - 2 * Divisor.point(catalog("E-"))
    if name in CUSP_SUPPORTS:
        return from_cusp_support(CUSP_SUPPORTS[name])
    raise ValueError(f"unknown named divisor {name!r}")
