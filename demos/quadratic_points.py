"""Quadratic points and what the computations add up to.

The curve has no real point, hence no rational point.  Its points over
quadratic fields can still be pinned down completely: they all live over
Q(zeta_3) = Q(sqrt(-3)) and are exactly the eight contact points of the
four rational bitangents.  The same bookkeeping rules out a linear
determinantal representation of the quartic over Q.
"""

from quartic_twist import CONJ_ZETA3, build_report, on_curve, quadratic_points
from quartic_twist.curve import is_zeta3_rational
from quartic_twist.theorems import THEOREMS, quadratic_point_pairs

print("the eight quadratic points:")
for point in quadratic_points():
    print(f"  {point}   on curve: {on_curve(point)}, "
          f"over Q(zeta_3): {is_zeta3_rational(point)}")

print("\nconjugation (zeta_3 -> zeta_3^2) pairs them into the bitangent")
print("contact divisors:")
for name, pair_sum, target in quadratic_point_pairs():
    print(f"  {name}: pair sum = {pair_sum}, equals {name}: {pair_sum == target}")

example = quadratic_points()[0]
print("\nfor instance the conjugate of", example, "is", example.galois(CONJ_ZETA3))

print("\nassembled results (the theorems section of the report):")
labels = {t.check_id: [c.label for c in t.constituents] for t in THEOREMS}
for record in build_report(section="theorems").checks:
    print(f"\n  {record.check_id}: {record.status}")
    for check, label in zip(record.detail["constituents"], labels[record.check_id],
                            strict=True):
        print(f"    [{'ok' if check['passed'] else 'XX'}] {label}")
    for assumption in record.detail["assumptions"]:
        print(f"    (assumes: {assumption})")
    for note in record.detail["notes"]:
        print(f"    (note: {note})")
