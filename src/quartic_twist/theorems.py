"""Assembly of the headline results from the verified computations.

A theorem is the conjunction of the check records it names, plus its
stated assumptions: each constituent rests on records of the report
(given as id patterns) and the theorem also needs every record its
`depends_on` names.  The non-computational steps (exact-sequence and
non-hyperellipticity arguments) are listed as assumptions, so a passing
verdict never silently claims to have verified prose.

`THEOREMS` and `DEPENDENCIES` are static tables; a run (`checks`) is the
one place that evaluates them, one theorem at a time on the records of
its own run, so a corrupted constant (a `checks.Fault`) reaches the
assembled results.  Each `verify_*` function returns its theorem's
record of a clean run, which builds only that theorem's cone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .cyclotomic import CONJ_ZETA3
from .curve import catalog
from .divisors import Divisor, named_divisor
from .mordell_weil import ZERO_ELEMENT, ActionMatrix, pic1_has_fixed_point

if TYPE_CHECKING:
    from .checks import CheckRecord


class Constituent(NamedTuple):
    """One step of a theorem: the records it rests on, or a control that
    does not depend on the run."""

    check_id: str
    label: str
    records: tuple[str, ...] = ()
    control: Optional[Callable[[], bool]] = None


class Theorem(NamedTuple):
    check_id: str
    label: str
    constituents: tuple[Constituent, ...]
    assumptions: tuple[str, ...]
    depends_on: tuple[str, ...]
    notes: tuple[str, ...] = ()


_CERTIFICATES = (
    "bitangent-*", "relation-*", "e-support",
    "brauer-2e", "brauer-e-plus", "brauer-e-minus", "brauer-sigma5-e", "brauer-tau-e",
)
# [D_0], ..., [D_3] are distinct (pic2-distinct) and fill <[D_1 - D_0], [D_2 - D_0]>,
# a group of order 4 that contains [D_3 - D_0] (pic0-subgroup, pic0-relation)
_PIC2 = ("pic2-distinct", "pic0-relation", "pic0-subgroup")

# what each name in a theorem's `depends_on` stands for: the records of the
# run, by id pattern, that must not FAIL
DEPENDENCIES: dict[str, tuple[str, ...]] = {
    "certificates": _CERTIFICATES,
    "fixed-submodule": ("fixed-*",),
    "brauer-cocycle": ("brauer-cocycle",),
    "action-matrices": ("matrix-s3", "matrix-s5"),
    "torsor-searches": ("torsor-*",),
    # the shifts (sigma - 1)[A_0] that the torsor searches read
    "shifts": ("shift-*",),
    "degree-two-classes": ("theorem-quadratic-points",),
    # the class constants [D_i - D_0] and [E] read through the dictionary
    "dictionary": ("dict-*", "coords-*", "shift-*"),
}


def _identity_fixes_a_class() -> bool:
    return pic1_has_fixed_point(ActionMatrix.identity(), ZERO_ELEMENT)


_DEGREE_TWO = (
    Constituent("quadratic-on-curve", "all 8 quadratic points lie on the curve",
                ("quadratic-on-curve",)),
    Constituent("quadratic-field", "all 8 quadratic points have coordinates in Q(zeta_3)",
                ("quadratic-field",)),
    Constituent("quadratic-pairs", "conjugate pairs sum to D_0, D_1, D_2, D_3 exactly",
                ("quadratic-pair-*",)),
    Constituent(
        "pic2-distinct",
        "the degree-2 classes [D_0], [D_1], [D_2], [D_3] are pairwise "
        "distinct and exhaust a group of order 4",
        _PIC2,
    ),
)
_DEGREE_TWO_ASSUMPTIONS = (
    "subtracting D_0 identifies degree-2 classes with degree-0 "
    "classes, so the degree-2 classes number exactly 4",
    "a pair of conjugate quadratic points whose sum were not equal "
    "to its equivalent D_i would give a degree-2 map to the line, "
    "impossible on a non-hyperelliptic curve",
)

THEOREMS = (
    Theorem(
        "theorem-mordell-weil",
        "Pic^0 = (Z/2)[D_1 - D_0] + (Z/2)[D_2 - D_0]; the Mordell-Weil group adds (Z/2)[E]",
        (
            Constituent("certificates", "all divisor certificates pass", _CERTIFICATES),
            Constituent(
                "fixed-submodule",
                "fixed classes = <[D_1 - D_0], [D_2 - D_0], [E]>, 8 elements, 2-torsion",
                ("fixed-size", "fixed-mw-generators"),
            ),
            Constituent(
                "pic0-subgroup",
                "rational divisor classes of degree 0 form an index-2 subgroup "
                "with [E] as coset representative",
                ("pic0-relation", "pic0-subgroup"),
            ),
            Constituent("brauer-cocycle", "the cocycle attached to [E] evaluates to -1",
                        ("brauer-cocycle",)),
        ),
        (
            "classes of rational divisors are exactly the Galois-fixed classes "
            "on which the Brauer map vanishes (exact sequence of the relative "
            "Brauer group); -1 is not a norm from C to R, so a cocycle value "
            "of -1 certifies a non-trivial Brauer image",
        ),
        ("certificates", "fixed-submodule", "brauer-cocycle", "dictionary"),
    ),
    Theorem(
        "theorem-odd-torsors",
        "every odd-degree part of the Picard scheme has no rational point",
        (
            Constituent("image-s5", "(sigma_5 - 1)M equals 2M", ("image-s5",)),
            Constituent(
                "image-congruence",
                "(sigma_3 - 1)M and (sigma_3 sigma_5 - 1)M satisfy a_2 + a_3 + a_6 = 0 mod 2",
                ("image-congruence-*",),
            ),
            *(
                Constituent(
                    f"torsor-{text.replace(' ', '-')}",
                    f"{text} has no fixed degree-1 class among 2048 candidates",
                    (f"torsor-{key}",),
                )
                for key, text in (("s5", "sigma_5"), ("s3", "sigma_3"),
                                  ("s3s5", "sigma_3 sigma_5"))
            ),
            Constituent(
                "torsor-identity-control",
                "the identity automorphism does fix a degree-1 class",
                control=_identity_fixes_a_class,
            ),
        ),
        (
            "adding the rational degree-2 divisor D_0 identifies the degree "
            "2d+1 classes with the degree-1 classes, so emptiness in degree 1 "
            "settles every odd degree",
        ),
        ("action-matrices", "torsor-searches", "shifts"),
        (
            "the single-automorphism searches settle three quadratic fields "
            "as corollaries: sigma_5 fixes Q(sqrt(-1)), sigma_3 fixes "
            "Q(sqrt(-2)), sigma_3 sigma_5 fixes Q(sqrt(2)), so the degree-1 "
            "classes have no rational point over those fields either",
        ),
    ),
    Theorem(
        "theorem-quadratic-points",
        "Pic^2 = {[D_0], [D_1], [D_2], [D_3]}; the quadratic points are the bitangent contacts",
        _DEGREE_TWO,
        _DEGREE_TWO_ASSUMPTIONS,
        ("certificates", "fixed-submodule", "dictionary"),
    ),
    Theorem(
        "theorem-determinantal",
        "no linear determinantal representation exists over Q",
        _DEGREE_TWO
        + (
            Constituent("pic2-all-effective",
                        "every degree-2 class is represented by an effective divisor", _PIC2),
        ),
        _DEGREE_TWO_ASSUMPTIONS
        + (
            "linear determinantal representations correspond to degree-2 "
            "classes with no effective representative",
        ),
        ("degree-two-classes",),
    ),
)


def _clean_record(check_id: str) -> CheckRecord:
    from .checks import run_single  # the registry imports this module

    return run_single(check_id).checks[0]


def certificate_suite_passes() -> bool:
    """The fourteen exact divisor checks of a clean run: five bitangent
    cuts, three cusp relations, the E support identity, the three certified
    E identities, and the two divisor-level conjugation facts for E."""
    from .checks import _RunData  # the registry imports this module

    return _RunData().holds(_CERTIFICATES)


def verify_mordell_weil_structure() -> CheckRecord:
    """Degree-0 classes over Q form (Z/2)^2; the Galois-fixed classes form
    (Z/2)^3 with the class of E as the extra generator, detected by the
    Brauer cocycle: the clean run's `theorem-mordell-weil` record."""
    return _clean_record("theorem-mordell-weil")


def verify_odd_degree_torsors() -> CheckRecord:
    """No odd-degree divisor class is rational: the three twisted
    fixed-point searches over all 2048 classes come up empty (the clean
    run's `theorem-odd-torsors` record)."""
    return _clean_record("theorem-odd-torsors")


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


def verify_degree_two_classes_and_quadratic_points() -> CheckRecord:
    """The four bitangent contact divisors represent the four distinct
    degree-2 classes, and the eight quadratic points pair into them (the
    clean run's `theorem-quadratic-points` record)."""
    return _clean_record("theorem-quadratic-points")


def verify_no_determinantal_representation() -> CheckRecord:
    """Every degree-2 class contains an effective divisor (one of the
    D_i), so no class of degree genus-1 = 2 is effective-free and no
    linear determinantal representation exists over Q (the clean run's
    `theorem-determinantal` record)."""
    return _clean_record("theorem-determinantal")
