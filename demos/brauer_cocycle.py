"""The Brauer obstruction: why [E] is invariant but not rational.

The class of E = 2B_2 - 2B_0 is fixed by the Galois action, yet E is not
equivalent to any divisor defined over Q.  The obstruction is a 2-cocycle
on {1, tau} (tau = complex conjugation) built from the rational function
u_tau with divisor E - tau(E) = E + sigma_3(E), a row of the certificate
table that the cocycle reads; its value at (tau, tau) is -1, the
non-trivial element of the real Brauer group.
"""

from quartic_twist import (
    SIGMA5,
    TAU,
    cocycle_table,
    cocycle_tau_tau,
    named_divisor,
    product_of_linear_forms,
    reduce_mod_curve,
    verify_e_identities,
)
from quartic_twist.brauer import U_TAU
from quartic_twist.certificates import certificate_table
from quartic_twist.curve import X, Y, Z

e = named_divisor("E")
print("E =", e)
print("sigma_5(E) =", e.galois(SIGMA5), " (= -E)")
print("tau(E)     =", e.galois(TAU))

print("\nthe three certified identities, rows of the certificate table:")
functions = {
    "2E": "(X - z8^5 Z)/(X - z8 Z)",
    "E+sigma3(E)": "Y^2/((X - z8 Z)(X - z8^3 Z))",
    "E-sigma3(E)": "Y^2/((X - z8 Z)(X - z8^7 Z))",
}
table = certificate_table()
for name, check in verify_e_identities(table):
    print(f"  {name:11s} = div({functions[name]}):", check.passed)

row = table[U_TAU]
num, den = row.numerator, row.denominator
print("\nu_tau = Y^2 / ((X - z8 Z)(X - z8^3 Z)) and its conjugate multiply to")
print("  numerators:  ", num * num.galois(TAU))
print("  denominators:", den * den.galois(TAU))
print("the four lines over the odd powers of zeta_8 expand to:")
print("  ", product_of_linear_forms())

print("\non the curve X^4 + Z^4 = -Y^4, because the normal form of their sum")
print("modulo the rewriting rule X^4 -> -Y^4 - Z^4 is:")
print("  ", reduce_mod_curve(Y ** 4 + X ** 4 + Z ** 4))

print("\nso the cocycle value is")
print("  a_(tau,tau) = u_tau * tau(u_tau) =", cocycle_tau_tau(row))

print("\nthe full 2-cocycle on {1, tau}:")
for key, value in cocycle_table(row).items():
    print(f"  a_{key} = {value}")
print("-1 is not a norm from C, so the class of [E] in Br(R) is non-trivial:")
print("no rational divisor represents [E].")
