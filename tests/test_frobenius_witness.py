"""An outside witness for the order of the module: Frobenius point counts.

The quartic x^4 + y^4 + z^4 = 0 has good reduction at every odd prime p.
For p = 1 mod 8 the twelve cusps are defined over F_p, so the 2048
classes of M = (Z/4)^5 + Z/2 inject into J(F_p) and 2048 divides #J(F_p).
The six Frobenius eigenvalues are -J(chi^a, chi^b) for a quartic
character chi of F_p and a, b, -a-b nonzero mod 4 (Weil, "Numbers of
solutions of equations in finite fields", Bull. AMS 55 (1949)), and
#J(F_p) is the product of 1 - alpha over them.  Brute-force point counts
pin the sign.  Gaussian integers are pairs of ints; nothing here uses the
package's arithmetic.
"""

import pytest

from quartic_twist.mordell_weil import ORDER

JACOBIAN_ORDERS = {
    17: 4_096,
    41: 32_768,
    73: 512_000,
    89: 512_000,
    97: 512_000,
    113: 2_097_152,
}

# the exponents (a, b) with a, b and -a-b nonzero mod 4
EXPONENTS = [(a, b) for a in range(1, 4) for b in range(1, 4) if (a + b) % 4]

def _mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _discrete_logs(p: int) -> dict[int, int]:
    """log_g x for each x in F_p^*, g the least primitive root."""
    for g in range(2, p):
        logs, x = {}, 1
        for k in range(p - 1):
            logs[x] = k
            x = x * g % p
        if len(logs) == p - 1:
            return logs
    raise ValueError(f"{p} has no primitive root")


def frobenius_eigenvalues(p: int) -> list[tuple[int, int]]:
    """The six eigenvalues -J(chi^a, chi^b), chi(g^k) = i^k, in Z[i]."""
    logs = _discrete_logs(p)
    eigenvalues = []
    for a, b in EXPONENTS:
        counts = [0] * 4
        for x in range(2, p):
            counts[(a * logs[x] + b * logs[1 - x + p]) % 4] += 1
        eigenvalues.append((counts[2] - counts[0], counts[3] - counts[1]))
    return eigenvalues


def jacobian_order(p: int) -> int:
    total = (1, 0)
    for re, im in frobenius_eigenvalues(p):
        total = _mul(total, (1 - re, -im))
    assert total[1] == 0
    return total[0]


def projective_points(p: int) -> int:
    """#C(F_p), counted point by point: [x : y : 1] and [x : 1 : 0]
    ([1 : 0 : 0] is not on C)."""
    fourth = [pow(x, 4, p) for x in range(p)]
    affine = sum((fourth[x] + fourth[y] + 1) % p == 0 for x in range(p) for y in range(p))
    return affine + sum((fourth[x] + 1) % p == 0 for x in range(p))


def projective_points_over_square(p: int) -> int:
    """#C(F_{p^2}), F_{p^2} = F_p(t) with t^2 = n the least non-square:
    the affine cone counted by the values of fourth powers."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)

    def mul(u, v):
        return ((u[0] * v[0] + n * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    values: dict[tuple[int, int], int] = {}
    for x in ((a, b) for a in range(p) for b in range(p)):
        square = mul(x, x)
        fourth = mul(square, square)
        values[fourth] = values.get(fourth, 0) + 1
    cone = sum(
        nu * nv * values.get(((-u[0] - v[0]) % p, (-u[1] - v[1]) % p), 0)
        for u, nu in values.items()
        for v, nv in values.items()
    )
    return (cone - 1) // (p * p - 1)


@pytest.mark.parametrize("p", sorted(JACOBIAN_ORDERS))
def test_the_module_order_divides_the_jacobian_order(p):
    assert p % 8 == 1
    order = jacobian_order(p)
    assert order == JACOBIAN_ORDERS[p]
    assert order % ORDER == 0 and ORDER == 2048


@pytest.mark.parametrize("p", [17, 41])
def test_the_eigenvalues_count_the_points(p):
    # over F_p only the twelve cusps: the trace pins the sign of alpha
    eigenvalues = frobenius_eigenvalues(p)
    assert projective_points(p) == 12
    assert p + 1 - sum(re for re, _ in eigenvalues) == 12
    # and over F_{p^2} their squares count the points again
    squares = [_mul(alpha, alpha) for alpha in eigenvalues]
    assert sum(im for _, im in squares) == 0
    assert projective_points_over_square(p) == p * p + 1 - sum(re for re, _ in squares)
