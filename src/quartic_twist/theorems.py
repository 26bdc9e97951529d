"""Assembly of the headline results from the verified computations.

Each report lists its constituent checks with outcomes and separately
records the non-computational steps it leans on (exact-sequence and
non-hyperellipticity arguments), so a passing verdict never silently
claims to have verified prose.

The verifiers default to the printed action matrices and run the
certificate suite themselves; the report harness instead passes the
matrices and certificate verdict of its own run, so a corrupted constant
reaches the assembled results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .brauer import cocycle_tau_tau, verify_e_identities
from .certificates import (
    bitangent_checks,
    cusp_relation_certificates,
    e_divisor_equality,
)
from .cyclotomic import CONJ_ZETA3, rational
from .curve import catalog, is_zeta3_rational, on_curve, quadratic_points
from .divisors import Divisor, named_divisor
from .mordell_weil import (
    CLASS_D1_MINUS_D0,
    CLASS_D2_MINUS_D0,
    CLASS_D3_MINUS_D0,
    CLASS_E,
    PRINTED_S3,
    PRINTED_S5,
    PRINTED_SHIFTS,
    ZERO_ELEMENT,
    ActionMatrix,
    ModElement,
    fixed_submodule,
    image_submodule,
    pic1_has_fixed_point,
    subgroup_generated,
    two_torsion_multiples,
)


@dataclass(frozen=True)
class ConstituentCheck:
    check_id: str
    label: str
    passed: bool


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    constituents: tuple[ConstituentCheck, ...]
    assumptions: tuple[str, ...] = ()
    depends_on: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.constituents)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.check_id for c in self.constituents if not c.passed)


def certificate_suite_passes() -> bool:
    """The fourteen exact divisor checks: five bitangent cuts, three cusp
    relations, the E support identity, the three certified E identities,
    and the two divisor-level conjugation facts for E."""
    if not all(check.passed for _, check in bitangent_checks()):
        return False
    if not all(check.passed for _, check in cusp_relation_certificates()):
        return False
    if not e_divisor_equality():
        return False
    return verify_e_identities().passed


def verify_mordell_weil_structure(
    s3: ActionMatrix = PRINTED_S3,
    s5: ActionMatrix = PRINTED_S5,
    certificates_passed: Optional[bool] = None,
) -> TheoremReport:
    """Degree-0 classes over Q form (Z/2)^2; the Galois-fixed classes form
    (Z/2)^3 with the class of E as the extra generator, detected by the
    Brauer cocycle.  The certificate suite runs only when no verdict for
    it is passed in."""
    if certificates_passed is None:
        certificates_passed = certificate_suite_passes()
    constituents = []
    constituents.append(
        ConstituentCheck(
            "certificates", "all divisor certificates pass", certificates_passed
        )
    )

    fixed = set(fixed_submodule([s3, s5]))
    generated = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_E])
    constituents.append(
        ConstituentCheck(
            "fixed-submodule",
            "fixed classes = <[D_1 - D_0], [D_2 - D_0], [E]>, 8 elements, 2-torsion",
            fixed == generated
            and len(fixed) == 8
            and all(2 * m == ZERO_ELEMENT for m in fixed),
        )
    )

    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    constituents.append(
        ConstituentCheck(
            "pic0-subgroup",
            "rational divisor classes of degree 0 form an index-2 subgroup "
            "with [E] as coset representative",
            pic0
            == {ZERO_ELEMENT, CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0}
            and CLASS_E not in pic0
            and fixed == pic0 | {m + CLASS_E for m in pic0},
        )
    )

    constituents.append(
        ConstituentCheck(
            "brauer-cocycle",
            "the cocycle attached to [E] evaluates to -1",
            cocycle_tau_tau() == rational(-1),
        )
    )
    return TheoremReport(
        theorem_id="mordell-weil-group",
        constituents=tuple(constituents),
        assumptions=(
            "classes of rational divisors are exactly the Galois-fixed classes "
            "on which the Brauer map vanishes (exact sequence of the relative "
            "Brauer group); -1 is not a norm from C to R, so a cocycle value "
            "of -1 certifies a non-trivial Brauer image",
        ),
        depends_on=("certificates", "fixed-submodule", "brauer-cocycle"),
    )


def verify_odd_degree_torsors(
    s3: ActionMatrix = PRINTED_S3, s5: ActionMatrix = PRINTED_S5
) -> TheoremReport:
    """No odd-degree divisor class is rational: the three twisted
    fixed-point searches over all 2048 classes come up empty."""
    constituents = []
    s3s5 = s3 * s5

    image5 = image_submodule(s5)
    constituents.append(
        ConstituentCheck(
            "image-s5", "(sigma_5 - 1)M equals 2M", image5 == two_torsion_multiples()
        )
    )
    congruence = all(
        (a.c[1] + a.c[2] + a.c[5]) % 2 == 0
        for s in (s3, s3s5)
        for a in image_submodule(s)
    )
    constituents.append(
        ConstituentCheck(
            "image-congruence",
            "(sigma_3 - 1)M and (sigma_3 sigma_5 - 1)M satisfy "
            "a_2 + a_3 + a_6 = 0 mod 2",
            congruence,
        )
    )
    searches = {
        "sigma_5": (s5, PRINTED_SHIFTS["sigma_5"]),
        "sigma_3": (s3, PRINTED_SHIFTS["sigma_3"]),
        "sigma_3 sigma_5": (s3s5, PRINTED_SHIFTS["sigma_3 sigma_5"]),
    }
    for name, (matrix, shift) in searches.items():
        constituents.append(
            ConstituentCheck(
                f"torsor-{name.replace(' ', '-')}",
                f"{name} has no fixed degree-1 class among 2048 candidates",
                not pic1_has_fixed_point(matrix, shift),
            )
        )
    constituents.append(
        ConstituentCheck(
            "torsor-identity-control",
            "the identity automorphism does fix a degree-1 class",
            pic1_has_fixed_point(ActionMatrix.identity(), ZERO_ELEMENT),
        )
    )
    return TheoremReport(
        theorem_id="odd-degree-torsors",
        constituents=tuple(constituents),
        assumptions=(
            "adding the rational degree-2 divisor D_0 identifies the degree "
            "2d+1 classes with the degree-1 classes, so emptiness in degree 1 "
            "settles every odd degree",
        ),
        depends_on=("action-matrices", "torsor-searches"),
        notes=(
            "the single-automorphism searches settle three quadratic fields "
            "as corollaries: sigma_5 fixes Q(sqrt(-1)), sigma_3 fixes "
            "Q(sqrt(-2)), sigma_3 sigma_5 fixes Q(sqrt(2)), so the degree-1 "
            "classes have no rational point over those fields either",
        ),
    )


def quadratic_point_pairs() -> list[tuple[str, Divisor, Divisor]]:
    """The eight quadratic points grouped into conjugate pairs, with the
    bitangent contact divisor each pair must sum to."""
    pairs = []
    for i in range(4):
        p = catalog(f"T{i}0")
        q = p.galois(CONJ_ZETA3)
        pair_sum = Divisor.point(p) + Divisor.point(q)
        pairs.append((f"D{i}", pair_sum, named_divisor(f"D{i}")))
    return pairs


def verify_degree_two_classes_and_quadratic_points(
    extra_class: Optional[ModElement] = None,
) -> TheoremReport:
    """The four bitangent contact divisors represent the four distinct
    degree-2 classes, and the eight quadratic points pair into them.

    `extra_class` injects a fictitious additional degree-2 class
    difference; it must make the report fail (negative control).
    """
    constituents = []
    points = quadratic_points()
    constituents.append(
        ConstituentCheck(
            "quadratic-on-curve",
            "all 8 quadratic points lie on the curve",
            all(on_curve(p) for p in points) and len(set(points)) == 8,
        )
    )
    constituents.append(
        ConstituentCheck(
            "quadratic-field",
            "all 8 quadratic points have coordinates in Q(zeta_3)",
            all(is_zeta3_rational(p) for p in points),
        )
    )
    pairs_ok = all(pair_sum == target for _, pair_sum, target in quadratic_point_pairs())
    constituents.append(
        ConstituentCheck(
            "quadratic-pairs",
            "conjugate pairs sum to D_0, D_1, D_2, D_3 exactly",
            pairs_ok,
        )
    )

    class_differences = [
        ZERO_ELEMENT,
        CLASS_D1_MINUS_D0,
        CLASS_D2_MINUS_D0,
        CLASS_D3_MINUS_D0,
    ]
    if extra_class is not None:
        class_differences.append(extra_class)
    distinct = len(set(class_differences)) == len(class_differences)
    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    constituents.append(
        ConstituentCheck(
            "pic2-distinct",
            "the degree-2 classes [D_0], [D_1], [D_2], [D_3] are pairwise "
            "distinct and exhaust a group of order 4",
            distinct and set(class_differences) == pic0,
        )
    )
    return TheoremReport(
        theorem_id="degree-two-classes",
        constituents=tuple(constituents),
        assumptions=(
            "subtracting D_0 identifies degree-2 classes with degree-0 "
            "classes, so the degree-2 classes number exactly 4",
            "a pair of conjugate quadratic points whose sum were not equal "
            "to its equivalent D_i would give a degree-2 map to the line, "
            "impossible on a non-hyperelliptic curve",
        ),
        depends_on=("certificates", "fixed-submodule"),
    )


def verify_no_determinantal_representation(
    extra_class: Optional[ModElement] = None,
) -> TheoremReport:
    """Every degree-2 class contains an effective divisor (one of the
    D_i), so no class of degree genus-1 = 2 is effective-free and no
    linear determinantal representation exists over Q."""
    base = verify_degree_two_classes_and_quadratic_points(extra_class)
    constituents = list(base.constituents)
    pic2_size = 4 + (1 if extra_class is not None and extra_class else 0)
    constituents.append(
        ConstituentCheck(
            "pic2-all-effective",
            "every degree-2 class is represented by an effective divisor",
            pic2_size == 4,
        )
    )
    return TheoremReport(
        theorem_id="no-determinantal-representation",
        constituents=tuple(constituents),
        assumptions=base.assumptions
        + (
            "linear determinantal representations correspond to degree-2 "
            "classes with no effective representative",
        ),
        depends_on=("degree-two-classes",),
    )
