"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Everything is exact arithmetic; every comparison is equality."""

import random
from fractions import Fraction
from pathlib import Path

from quartic_twist.brauer import (
    U_TAU,
    cocycle_tau_tau,
    product_of_linear_forms,
    verify_e_identities,
)
from quartic_twist.certificates import (
    BITANGENTS,
    bitangent_checks,
    certificate_table,
    cusp_relation_certificates,
    e_divisor_equality,
)
from quartic_twist.checks import build_report, load_fault, render_text
from quartic_twist.cyclotomic import (
    ONE,
    SIGMA3,
    SIGMA3_ALT,
    SIGMA5,
    SIGMA5_ALT,
    TAU,
    ZERO,
    Automorphism,
    CycNum,
    rational,
    zeta,
)
from quartic_twist.curve import (
    CATALOG,
    CUSP_NAMES,
    SIGMA3_CUSP_TABLE,
    SIGMA5_CUSP_TABLE,
    ProjPoint,
    X,
    Y,
    Z,
    catalog,
    cusp_permutation,
    is_zeta3_rational,
    on_curve,
    quadratic_points,
)
from quartic_twist.divisors import Divisor, named_divisor
from quartic_twist.mordell_weil import (
    CLASS_D1_MINUS_D0,
    CLASS_D2_MINUS_D0,
    CLASS_D3_MINUS_D0,
    CUSP_DICTIONARY,
    E_BASIS,
    PRINTED_S3,
    PRINTED_S5,
    PRINTED_SHIFTS,
    ZERO_ELEMENT,
    all_elements,
    derive_action_matrix,
    fixed_submodule,
    image_submodule,
    pic1_has_fixed_point,
    subgroup_generated,
    two_torsion_multiples,
)
from quartic_twist.theorems import quadratic_point_pairs
from quartic_twist.valuations import valuation

GOLDEN = Path(__file__).parent / "golden" / "full_report.txt"
FIXTURES = Path(__file__).parent / "fixtures"


def _report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_01_certificate_suite():
    table = certificate_table()
    results = []
    results.extend(check.passed for _, check in bitangent_checks(table))           # 5
    results.extend(check.passed for _, check in cusp_relation_certificates(table))  # 3
    results.append(e_divisor_equality())                                           # 1
    results.extend(check.passed for _, check in verify_e_identities(table))        # 3
    e = named_divisor("E")
    results.extend([e.galois(SIGMA5) == -e, e.galois(TAU) == -e.galois(SIGMA3)])  # 2
    ok = len(results) == 14 and all(results)
    _report(1, "certificate suite (14 exact checks)", ok)


def test_criterion_02_galois_tables():
    ok = cusp_permutation(SIGMA3) == SIGMA3_CUSP_TABLE
    ok = ok and cusp_permutation(SIGMA5) == SIGMA5_CUSP_TABLE
    ok = ok and cusp_permutation(SIGMA3_ALT) == SIGMA3_CUSP_TABLE
    ok = ok and cusp_permutation(SIGMA5_ALT) == SIGMA5_CUSP_TABLE
    names = CUSP_NAMES + ("E+", "E-")
    for name in names:
        point = catalog(name)
        ok = ok and point.galois(SIGMA3) == point.galois(SIGMA3_ALT)
        ok = ok and point.galois(SIGMA5) == point.galois(SIGMA5_ALT)
    _report(2, "Galois permutation tables and lift agreement", ok)


def test_criterion_03_matrix_derivation():
    ok = derive_action_matrix(SIGMA3_CUSP_TABLE, CUSP_DICTIONARY) == PRINTED_S3
    ok = ok and derive_action_matrix(SIGMA5_CUSP_TABLE, CUSP_DICTIONARY) == PRINTED_S5
    s3s5 = PRINTED_S3 * PRINTED_S5
    s5s3 = PRINTED_S5 * PRINTED_S3
    for m in all_elements():
        ok = ok and PRINTED_S3(PRINTED_S3(m)) == m
        ok = ok and PRINTED_S5(PRINTED_S5(m)) == m
        ok = ok and s3s5(m) == s5s3(m)
        if not ok:
            break
    _report(3, "matrix derivation, involutions, commutation", ok)


def test_criterion_04_fixed_submodule():
    e1, e2, e3, e4 = E_BASIS[:4]
    fixed = fixed_submodule([PRINTED_S3, PRINTED_S5])
    fixed_set = set(fixed)
    ok = len(fixed) == 8
    ok = ok and all(2 * m == ZERO_ELEMENT for m in fixed)
    ok = ok and fixed_set == subgroup_generated([2 * e3 + 2 * e4,
                                                 2 * e1 + 2 * e2 + 2 * e3 + 2 * e4,
                                                 2 * e4])
    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    ok = ok and pic0 == {ZERO_ELEMENT, CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0,
                         CLASS_D3_MINUS_D0}
    ok = ok and CLASS_D1_MINUS_D0 + CLASS_D2_MINUS_D0 == CLASS_D3_MINUS_D0
    _report(4, "fixed submodule and Pic^0 subgroup", ok)


def test_criterion_05_image_and_torsor():
    image5 = image_submodule(PRINTED_S5)
    ok = image5 == two_torsion_multiples() and len(image5) == 32
    s3s5 = PRINTED_S3 * PRINTED_S5
    for s in (PRINTED_S3, s3s5):
        ok = ok and all(
            (a.c[1] + a.c[2] + a.c[5]) % 2 == 0 for a in image_submodule(s)
        )
    ok = ok and not pic1_has_fixed_point(PRINTED_S5, PRINTED_SHIFTS["sigma_5"])
    ok = ok and not pic1_has_fixed_point(PRINTED_S3, PRINTED_SHIFTS["sigma_3"])
    ok = ok and not pic1_has_fixed_point(s3s5, PRINTED_SHIFTS["sigma_3 sigma_5"])
    _report(5, "image subgroups and empty torsor searches", ok)


def test_criterion_06_brauer_cocycle():
    ok = product_of_linear_forms() == X ** 4 + Z ** 4
    ok = ok and cocycle_tau_tau(certificate_table()[U_TAU]) == rational(-1)
    _report(6, "Brauer cocycle equals -1", ok)


def test_criterion_07_quadratic_points():
    points = quadratic_points()
    ok = len(set(points)) == 8 and all(on_curve(p) for p in points)
    ok = ok and all(is_zeta3_rational(p) for p in points)
    ok = ok and all(s == t for _, s, t in quadratic_point_pairs())
    classes = {ZERO_ELEMENT, CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0}
    ok = ok and len(classes) == 4
    _report(7, "quadratic points and distinct degree-2 classes", ok)


# OK labels of the classical verification log that this harness must
# reproduce verbatim (the dictionary expansions are data axioms and are
# expected as SKIPPED instead).
REFERENCE_OK_LABELS = [
    "2 D_0 = div(x + y + z)",
    "2 D_1 = div(x - y + z)",
    "2 D_2 = div(x + y - z)",
    "2 D_3 = div(x - y - z)",
    "D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)",
    "D_1 - D_0 = 2B_1 + 2B_2 - 4B_0 + div(...)",
    "D_2 - D_0 = 2A_1 + 2A_2 + 2B_1 + 2B_2 - 8B_0 + div(...)",
    "D_3 - D_0 = 2A1 + 2A2 - 4B0 + div(...)",
    "E = 2B_2 - 2B_0",
    "D1 - D0 = 2e_3 + 2e_4",
    "D2 - D0 = 2e_1 + 2e_2 + 2e_3 + 2e_4",
    "D3 - D0 = 2e_1 + 2e_2",
    "E = 2e_4",
    "sigma_3(A_0) = A_1",
    "sigma_3(A_1) = A_0",
    "sigma_3(A_2) = A_3",
    "sigma_3(A_3) = A_2",
    "sigma_3(B_0) = B_1",
    "sigma_3(B_1) = B_0",
    "sigma_3(B_2) = B_3",
    "sigma_3(B_3) = B_2",
    "sigma_3(C_0) = C_1",
    "sigma_3(C_1) = C_0",
    "sigma_3(C_2) = C_3",
    "sigma_3(C_3) = C_2",
    "sigma_3(e1) = 2e_1 + e_2 + e_3 + e_4",
    "sigma_3(e2) = e_1 + 2e_2 + e_3 + 3e_4",
    "sigma_3(e3) = 3e_3",
    "sigma_3(e4) = 2e_3 + 3e_4",
    "sigma_3(e5) = 3e_1 + 3e_2 + e_5 + e_6",
    "sigma_3(e6) = 2e_3 + e_6",
    "sigma_5(A_0) = A_2",
    "sigma_5(A_1) = A_3",
    "sigma_5(A_2) = A_0",
    "sigma_5(A_3) = A_1",
    "sigma_5(B_0) = B_2",
    "sigma_5(B_1) = B_3",
    "sigma_5(B_2) = B_0",
    "sigma_5(B_3) = B_1",
    "sigma_5(C_0) = C_2",
    "sigma_5(C_1) = C_3",
    "sigma_5(C_2) = C_0",
    "sigma_5(C_3) = C_1",
    "sigma_5(e1) = e_1 + 2e_2 + 2e_3 + 2e_4",
    "sigma_5(e2) = 2e_1 + e_2 + 2e_3",
    "sigma_5(e3) = 3e_3 + 2e_4",
    "sigma_5(e4) = 3e_4",
    "sigma_5(e5) = 2e_1 + 2e_2 + 3e_5",
    "sigma_5(e6) = 2e_4 + e_6",
    "(sigma_5 - 1)[A0] = 2e_1 + 2e_3 + 3e_4",
    "(sigma_3 - 1)[A0] = 3e_1 + 3e_2 + 2e_3 + 3e_4",
    "(sigma_3 sigma_5 - 1)[A0] = 3e_1 + e_2 + 2e_4",
    "2E = div((X - z8^5 * Z)/(X - z8 * Z))",
    "E + sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^3 * Z)))",
    "E - sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^7 * Z)))",
]

REFERENCE_SKIPPED_PREFIXES = [
    "alpha_0 =", "alpha_1 =", "alpha_2 =", "alpha_3 =",
    "beta_0 =", "beta_1 =", "beta_2 =", "beta_3 =",
    "gamma_0 =", "gamma_1 =", "gamma_2 =", "gamma_3 =",
]


def test_criterion_08_golden_output():
    text = render_text(build_report())
    ok = text == GOLDEN.read_text(encoding="utf-8")
    lines = text.splitlines()
    ok_lines = {l[: -len(" : OK")] for l in lines if l.endswith(" : OK")}
    for label in REFERENCE_OK_LABELS:
        ok = ok and label in ok_lines
    skipped = [l for l in lines if l.endswith(" : SKIPPED(data-axiom)")]
    ok = ok and len(skipped) == 12
    for prefix in REFERENCE_SKIPPED_PREFIXES:
        ok = ok and any(l.startswith(prefix) for l in skipped)
    ok = ok and not any(" : FAIL" in l for l in lines)
    _report(8, "golden output reproduces the reference log", ok)


def _random_cyc(rng, size=6):
    return CycNum(
        [Fraction(rng.randint(-size, size), rng.randint(1, 4)) for _ in range(8)]
    )


def _property_field_axioms(cases=1000) -> bool:
    rng = random.Random(101)
    units = (1, 5, 7, 11, 13, 17, 19, 23)
    for _ in range(cases):
        a, b, c = (_random_cyc(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * b != b * a:
            return False
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            return False
        if a and a * a.inv() != ONE:
            return False
        k, l = rng.choice(units), rng.choice(units)
        s, t = Automorphism(k), Automorphism(l)
        if s(a * b) != s(a) * s(b) or s(a + b) != s(a) + s(b):
            return False
        if s(t(a)) != Automorphism(k * l)(a):
            return False
    return True


def _property_valuation_additivity(cases=1000) -> bool:
    rng = random.Random(202)
    z8 = zeta(8)
    # the four bitangent lines
    forms = [certificate_table()[name].numerator[0] for name in BITANGENTS[:4]]
    forms.extend(X - z8 ** k * Z for k in (1, 3, 5, 7))
    forms.extend([X, Y, Z, X ** 2 + Y ** 2 + Z ** 2])
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for _ in range(cases):
        g, h = rng.choice(forms), rng.choice(forms)
        point = rng.choice(points)
        product = g * h
        bound = 4 * product.degree + 1
        if valuation(product, point, bound) != valuation(g, point, bound) + valuation(
            h, point, bound
        ):
            return False
    return True


def _property_divisor_laws(cases=1000) -> bool:
    rng = random.Random(303)
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())

    def random_divisor():
        support = rng.sample(points, rng.randint(0, 4))
        return Divisor({p: rng.randint(-3, 3) for p in support})

    for _ in range(cases):
        a, b, c = random_divisor(), random_divisor(), random_divisor()
        if (a + b) + c != a + (b + c) or a + b != b + a or a - a != Divisor.zero():
            return False
        if (a + b).degree() != a.degree() + b.degree():
            return False
        n = rng.randint(-4, 4)
        if (n * a).degree() != n * a.degree():
            return False
        if (n * a).galois(SIGMA5) != n * a.galois(SIGMA5):
            return False
        if a.galois(SIGMA3).degree() != a.degree():
            return False
    return True


def _property_scaling_invariance(cases=1000) -> bool:
    rng = random.Random(404)
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for _ in range(cases):
        point = rng.choice(points)
        lam = ZERO
        while not lam:
            lam = _random_cyc(rng, size=4)
        if ProjPoint(*(lam * c for c in point.coords)) != point:
            return False
    return True


def test_criterion_09_property_suites():
    ok = _property_field_axioms()
    ok = ok and _property_valuation_additivity()
    ok = ok and _property_divisor_laws()
    ok = ok and _property_scaling_invariance()
    _report(9, "randomized property suites (4 x 1000 cases)", ok)


def test_criterion_10_mutation_controls():
    ok = True
    for fixture in ("fault_dictionary.json", "fault_matrix.json",
                    "fault_certificate.json", "fault_shift.json", "fault_class.json"):
        report = build_report(fault=load_fault(str(FIXTURES / fixture)))
        ok = ok and report.exit_code == 1
        ok = ok and any(r.status == "FAIL" for r in report.checks)
    _report(10, "mutation controls produce failures", ok)
