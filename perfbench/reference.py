"""A fixed pure-Python reference program, run by run.py as a fresh process
between CLI invocations.

The host's speed drifts by up to half over minutes, and a fresh CLI process
slows with it in proportion.  The reference program does the same kind of
work as the verifier (small objects with arithmetic dunders, integer vectors
normalised by gcd, dict-keyed polynomials, small matrices acting on tuples)
and imports nothing from the package, so no change to the program can move
its cost.  run.py divides each CLI invocation's time by the reference time
measured around it, which cancels the drift.

    python3 perfbench/reference.py
"""

from __future__ import annotations

from math import gcd

ROUNDS = 3


class Vec:
    """An integer vector over a positive denominator, kept in lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=1):
        g = den
        for n in nums:
            g = gcd(g, n)
        self.nums = tuple(n // g for n in nums)
        self.den = den // g

    def __mul__(self, other):
        a, b = self.nums, other.nums
        out = [0] * 8
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j < 8:
                        out[i + j] += x * y
                    else:
                        out[i + j - 8] -= x * y
        return Vec(out, self.den * other.den)

    def __add__(self, other):
        d = self.den * other.den
        return Vec([x * other.den + y * self.den for x, y in zip(self.nums, other.nums)], d)


def polynomials(seed: int) -> int:
    """Multiply dict-keyed polynomials with Vec coefficients."""
    state = seed
    terms = {}
    for k in range(12):
        state = (state * 1103515245 + 12345) % 2**31
        terms[(k % 4, k // 4)] = Vec([(state >> s) % 7 - 3 for s in range(8)], 1 + k % 3)
    acc = dict(terms)
    for _ in range(3):
        out = {}
        for (a, b), x in acc.items():
            for (c, d), y in terms.items():
                key = ((a + c) % 5, (b + d) % 5)
                prod = x * y
                out[key] = out[key] + prod if key in out else prod
        acc = out
    return sum(sum(v.nums) % 1009 for v in acc.values())


def sweeps() -> int:
    """Apply a small integer matrix mod 4 to every vector of a 2048-set."""
    matrix = tuple(tuple((3 * i + 5 * j) % 4 for j in range(11)) for i in range(11))
    seen = set()
    for n in range(2048):
        v = tuple((n >> i) & 1 for i in range(11))
        w = tuple(sum(m * x for m, x in zip(row, v)) % 4 for row in matrix)
        seen.add(w)
    return len(seen)


def main() -> int:
    total = 0
    for r in range(ROUNDS):
        total += polynomials(r + 1) + sweeps()
    return total


if __name__ == "__main__":
    main()
