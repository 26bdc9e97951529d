"""The Galois module of divisor classes and the torsor obstruction.

The divisor classes over Q(zeta_8) form M = (Z/4)^5 + Z/2 on the basis
e_1..e_6 of cusp differences.  The Galois generators act through the
cusp permutations; deriving their matrices and enumerating all 2048
elements answers every structural question by brute force.
"""

from quartic_twist import (
    PRINTED_S3,
    PRINTED_S5,
    SIGMA3,
    SIGMA5,
    cusp_permutation,
    derive_action_matrix,
    fixed_submodule,
    image_submodule,
    pic1_has_fixed_point,
    subgroup_generated,
)
from quartic_twist.mordell_weil import (
    CLASS_D1_MINUS_D0,
    CLASS_D2_MINUS_D0,
    CLASS_E,
    CUSP_DICTIONARY,
    PRINTED_SHIFTS,
    two_torsion_multiples,
)

print("sigma_3 permutes the twelve cusps:")
print(" ", cusp_permutation(SIGMA3))
print("sigma_5 permutes them as:")
print(" ", cusp_permutation(SIGMA5))

print("\nmatrix of sigma_3 derived from the permutation and the dictionary:")
derived = derive_action_matrix(cusp_permutation(SIGMA3), CUSP_DICTIONARY)
for row in derived.rows:
    print("  ", row)
print("equals the printed matrix:", derived == PRINTED_S3)

derived5 = derive_action_matrix(cusp_permutation(SIGMA5), CUSP_DICTIONARY)
print("same for sigma_5:", derived5 == PRINTED_S5)

fixed = fixed_submodule([PRINTED_S3, PRINTED_S5])
print(f"\nfixed classes under both generators ({len(fixed)} of 2048):")
for m in fixed:
    print("  ", m if m else "0")

generated = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_E])
print("equal to <[D_1 - D_0], [D_2 - D_0], [E]>:", set(fixed) == generated)

print("\nthe image of (sigma_5 - 1) is exactly 2M:")
print("  ", image_submodule(PRINTED_S5) == two_torsion_multiples())

print("\ntwisted fixed-point searches in degree 1 (all must be empty):")
searches = (
    ("sigma_5", PRINTED_S5, PRINTED_SHIFTS["sigma_5"]),
    ("sigma_3", PRINTED_S3, PRINTED_SHIFTS["sigma_3"]),
    ("sigma_3 sigma_5", PRINTED_S3 * PRINTED_S5, PRINTED_SHIFTS["sigma_3 sigma_5"]),
)
for name, matrix, shift in searches:
    found = pic1_has_fixed_point(matrix, shift)
    print(f"  {name}: fixed point exists = {found}")
print("so no divisor class of odd degree is rational.")
