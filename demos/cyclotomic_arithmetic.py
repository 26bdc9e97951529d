"""Tour of exact arithmetic in Q(zeta_24).

Every number is a polynomial in d = zeta_24 of degree < 8, reduced by
d^8 = d^4 - 1.  Equality is coefficient equality, so each identity below
is checked exactly, with no floating point anywhere.
"""

from quartic_twist import CycNum, SIGMA3, SIGMA5, TAU, d_power, zeta

d = d_power(1)

print("the generator d = zeta_24 satisfies d^8 - d^4 + 1 = 0:")
print("  d^8 - d^4 + 1 =", d ** 8 - d ** 4 + 1)

print("\nroots of unity are powers of d:")
for order in (8, 4, 3):
    print(f"  zeta_{order} =", zeta(order))

z8 = zeta(8)
print("\nzeta_8 * zeta_8 =", z8 * z8, " (= zeta_4)")
print("zeta_8^(-1)     =", z8.inv(), " (= zeta_8^7)")

z3 = zeta(3)
print("\nzeta_3^3 =", z3 * z3 * z3)
print("1 + zeta_3 + zeta_3^2 =", 1 + z3 + z3 ** 2)

print("\nan inverse is the product of the other 7 Galois conjugates over the norm:")
a = CycNum((1, 2, 0, 3))  # 1 + 2d + 3d^3
print("  a       =", a)
print("  a^(-1)  =", a.inv())
print("  a * a^(-1) =", a * a.inv())

print("\nGalois automorphisms send d to d^k for k invertible mod 24.")
print("sigma_3 restricts to zeta_8 -> zeta_8^3 on Q(zeta_8):")
print("  sigma_3(zeta_8) =", SIGMA3(z8), " vs zeta_8^3 =", z8 ** 3)
print("sigma_5 restricts to zeta_8 -> zeta_8^5:")
print("  sigma_5(zeta_8) =", SIGMA5(z8), " vs zeta_8^5 =", z8 ** 5)
print("tau is complex conjugation:")
print("  tau(d) =", TAU(d), " vs d^(-1) =", d.inv())

minus_sqrt2 = d ** 5 - d ** 3 - d
print("\nd^5 - d^3 - d is a square root of 2 (up to sign):")
print("  (d^5 - d^3 - d)^2 =", minus_sqrt2 ** 2)
print("  sigma_3 negates it:", SIGMA3(minus_sqrt2) == -minus_sqrt2)
print("  tau fixes it:      ", TAU(minus_sqrt2) == minus_sqrt2)
