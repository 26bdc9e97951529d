"""Divisors on x^4 + y^4 + z^4 = 0 and principal-divisor certificates.

A bitangent line meets the quartic in two points with multiplicity 2;
the valuation engine computes those multiplicities from power-series
branch expansions, and a Bezout count (a line meets a quartic 4 times)
certifies that no intersection point was missed.
"""

from quartic_twist import (
    X,
    Y,
    Z,
    catalog,
    expand_branch,
    named_divisor,
    valuation,
    zeta,
)
from quartic_twist.certificates import (
    bitangent_checks,
    cusp_relation_certificates,
)

print("the two contact points of the bitangent X + Y + Z = 0:")
d0 = named_divisor("D0")
for point, n in d0.items():
    print(f"  multiplicity {n} at {point}")

print("\na branch expansion at the contact point T00, parameter t = y - zeta_3:")
exp = expand_branch(catalog("T00"), 5)
for i, c in enumerate(exp.series):
    print(f"  z-coefficient of t^{i}: {c}")

line = X + Y + Z
print("\nvaluation of X + Y + Z at the two contact points:")
for name in ("T00", "T01"):
    print(f"  ord at {name} =", valuation(line, catalog(name), 9))
print("2 + 2 = 4 = deg(line) * deg(quartic), so div(X + Y + Z) = 2 D_0.")

print("\nthe five bitangent checks, each a certificate with the denominator 1:")
for name, check in bitangent_checks():
    print(f"  {name}: complete={check.numerator_complete} passed={check.passed}")

print("\nthe flex line X - zeta_8 Z meets the curve only at B0:")
z8 = zeta(8)
print("  ord at B0 =", valuation(X - z8 * Z, catalog("B0"), 9), "(all of Bezout 4)")

print("\ncertified relations D_i - D_0 = (cusp divisor) + div(G/H):")
for name, check in cusp_relation_certificates():
    print(f"\n  {name}: passed={check.passed}")
    print("  per-point ledger (numerator order, denominator order, claimed):")
    for row in check.ledger:
        from quartic_twist.curve import point_name

        print(
            f"    {point_name(row.point):4s}  {row.numerator_order}  "
            f"{row.denominator_order}  {row.claimed:+d}"
        )
