"""Exact arithmetic in the cyclotomic field Q(zeta_24).

Elements are written on the power basis 1, d, d^2, ..., d^7 where
d = zeta_24 is a primitive 24th root of unity with minimal polynomial
d^8 - d^4 + 1, so every product is reduced eagerly via d^8 = d^4 - 1.
`reduce_product` is the only place that relation is written: products
in `CycNum.__mul__`, the table of powers of d (and through it the Galois
automorphisms) and the row-series products of `valuations` all reduce
through it.  The representation is canonical: two elements are equal
exactly when their coefficient vectors are equal.

The inverse of x is the product of its seven other Galois conjugates
divided by the norm, x times that product, which is rational; a rational
x is inverted directly.

Internally a value is a vector of eight integers over a single positive
denominator with the gcd of all nine integers equal to 1, which keeps the
hot loops on machine integers; the `coeffs` property exposes the usual
tuple of Fractions.  A product with a factor exactly 1 is the other
factor, and one over the denominator 1 takes no gcd.  Only `coeffs`, a
coefficient that is not an int and the hash of a non-integral rational
import `fractions`; arithmetic and printing never load it.

Everything here is immutable and side-effect free, so values may be
shared freely between threads.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction", "CycNum"]

_N_COEFFS = 8
_ONE_NUMS = (1, 0, 0, 0, 0, 0, 0, 0)


def reduce_product(s: Sequence[int]) -> tuple[int, ...]:
    """The 8 power-basis numerators of a product vector of d^0..d^14, by
    d^8 = d^4 - 1 (so d^12 = -1)."""
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14 = s
    return (s0 - s8 - s12, s1 - s9 - s13, s2 - s10 - s14, s3 - s11,
            s4 + s8, s5 + s9, s6 + s10, s7 + s11)


def _normalized(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    nums = tuple(nums)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return tuple(n // g for n in nums), den // g


class CycNum:
    """An element of Q(zeta_24) in canonical power-basis form."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Union[int, Fraction, str]] = ()):
        values = []
        for c in coeffs:
            if not isinstance(c, int):
                from fractions import Fraction
                c = Fraction(c)
            values.append(c)
        if len(values) > _N_COEFFS:
            raise ValueError("at most 8 power-basis coefficients")
        common = lcm(*(c.denominator for c in values))
        nums = [c.numerator * (common // c.denominator) for c in values]
        self.nums, self.den = _normalized(nums + [0] * (_N_COEFFS - len(nums)), common)

    @classmethod
    def _raw(cls, nums: Iterable[int], den: int) -> CycNum:
        self = object.__new__(cls)
        # over the denominator 1 the numerators are in lowest terms
        self.nums, self.den = (tuple(nums), 1) if den == 1 else _normalized(nums, den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of 1, d, ..., d^7 as Fractions in lowest terms."""
        from fractions import Fraction
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other: object) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        if self.is_rational():
            if self.den == 1:  # as hash(Fraction(n, 1)) is
                return hash(self.nums[0])
            from fractions import Fraction
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    def __add__(self, other: Scalar) -> CycNum:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        return CycNum._raw(
            (x * db + y * da for x, y in zip(self.nums, other.nums)), da * db
        )

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum._raw((-n for n in self.nums), self.den)

    def __sub__(self, other: Scalar) -> CycNum:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> CycNum:
        return (-self).__add__(other)

    def __mul__(self, other: Scalar) -> CycNum:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        if b == _ONE_NUMS and other.den == 1:
            return self
        if a == _ONE_NUMS and self.den == 1:
            return other
        terms = [(j, bj) for j, bj in enumerate(b) if bj]
        prod = [0] * 15
        for i, ai in enumerate(a):
            if ai:
                for j, bj in terms:
                    prod[i + j] += ai * bj
        return CycNum._raw(reduce_product(prod), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        """Multiplicative inverse: the product of the seven other Galois
        conjugates over the norm, which is rational.  A rational q is
        inverted directly, as 1/q."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_24)")
        if self.is_rational():
            return CycNum._raw((self.den, 0, 0, 0, 0, 0, 0, 0), self.nums[0])
        first, *rest = _OTHER_CONJUGATIONS
        conjugates = first(self)
        for sigma in rest:
            conjugates = conjugates * sigma(self)
        norm = self * conjugates
        if not norm.is_rational():
            raise ArithmeticError(f"norm of {self} is not rational")
        return CycNum._raw([n * norm.den for n in conjugates.nums],
                           conjugates.den * norm.nums[0])

    def __truediv__(self, other: Scalar) -> CycNum:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: Scalar) -> CycNum:
        return self.inv().__mul__(other)

    def __pow__(self, exponent: int) -> CycNum:
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i in range(_N_COEFFS - 1, -1, -1):
            n = self.nums[i]
            if not n:
                continue
            g = gcd(n, self.den)  # |n| / den in lowest terms, as str(Fraction) writes it
            c = str(abs(n) // g) if g == self.den else f"{abs(n) // g}/{self.den // g}"
            mon = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
            if not mon:
                body = c
            elif c == "1":
                body = mon
            else:
                body = f"{c}*{mon}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CycNum({str(self)!r})"


def _lift(value: Scalar) -> CycNum:
    if isinstance(value, CycNum):
        return value
    num, den = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if isinstance(num, int) and isinstance(den, int):
        return CycNum._raw((num, 0, 0, 0, 0, 0, 0, 0), den)
    return NotImplemented


def rational(value: Scalar) -> CycNum:
    """The scalar as an element of Q(zeta_24): a rational number embedded,
    a CycNum itself."""
    lifted = _lift(value)
    if lifted is NotImplemented:
        raise TypeError(f"not a scalar: {value!r}")
    return lifted


# ---------------------------------------------------------------------------
# powers of d and roots of unity

def _build_d_powers() -> tuple[tuple[int, ...], ...]:
    powers = [(1, 0, 0, 0, 0, 0, 0, 0)]
    for _ in range(23):
        # d * d^n, as a product vector of d^1..d^8
        powers.append(reduce_product((0, *powers[-1], 0, 0, 0, 0, 0, 0)))
    return tuple(powers)


_D_POWERS = _build_d_powers()

ZERO = CycNum()
ONE = CycNum((1,))


def d_power(n: int) -> CycNum:
    """d^n for any integer n (d has multiplicative order 24)."""
    return CycNum._raw(_D_POWERS[n % 24], 1)


def zeta(order: int, power: int = 1) -> CycNum:
    """The root of unity zeta_order^power, for any order dividing 24."""
    if order <= 0 or 24 % order:
        raise ValueError(f"order {order} does not divide 24")
    return d_power((24 // order) * power)


# ---------------------------------------------------------------------------
# Galois automorphisms

class Automorphism:
    """Field automorphism of Q(zeta_24) sending d to d^exponent.

    Exponents live in (Z/24)^x = {1, 5, 7, 11, 13, 17, 19, 23}; composition
    multiplies exponents.  Rationals are fixed pointwise.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        k = exponent % 24
        if gcd(k, 24) != 1:
            raise ValueError(f"exponent {exponent} is not a unit mod 24")
        self.exponent = k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash(self.exponent)

    def __repr__(self) -> str:
        return f"Automorphism(exponent={self.exponent})"

    def __call__(self, value: Scalar) -> CycNum:
        a = rational(value)
        out = [0] * _N_COEFFS
        k = self.exponent
        for i, n in enumerate(a.nums):
            if n:
                for j, p in enumerate(_D_POWERS[(i * k) % 24]):
                    if p:
                        out[j] += n * p
        return CycNum._raw(out, a.den)

    def __mul__(self, other: Automorphism) -> Automorphism:
        return Automorphism(self.exponent * other.exponent)

    def __str__(self) -> str:
        return f"d -> d^{self.exponent}"


IDENTITY = Automorphism(1)
# every automorphism but the identity: their images of x are the other
# conjugates of x, whose product `CycNum.inv` divides by the norm
_OTHER_CONJUGATIONS = tuple(Automorphism(k) for k in (5, 7, 11, 13, 17, 19, 23))

# The two lifts to Q(zeta_24) of each generator of Gal(Q(zeta_8)/Q);
# the defaults fix zeta_3, so they act trivially on the D-point coordinates.
SIGMA3 = Automorphism(19)       # restricts to zeta_8 -> zeta_8^3
SIGMA3_ALT = Automorphism(11)   # the other lift of the same restriction
SIGMA5 = Automorphism(5)        # restricts to zeta_8 -> zeta_8^5
SIGMA5_ALT = Automorphism(13)
TAU = Automorphism(23)          # complex conjugation; restricts to zeta_8 -> zeta_8^7
CONJ_ZETA3 = Automorphism(17)   # fixes zeta_8, swaps zeta_3 <-> zeta_3^2

# -sqrt(2), written in the power basis of Q(zeta_24)
MINUS_SQRT2 = d_power(5) - d_power(3) - d_power(1)
