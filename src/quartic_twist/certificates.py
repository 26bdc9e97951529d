"""The concrete principal-divisor certificates for the quartic.

Two families are verified with rational-function certificates:

* the four rational bitangents cut out twice the contact divisors
  D0..D3, and the conic X^2 + Y^2 + Z^2 cuts out their sum;
* each difference D_i - D_0 equals a cusp-supported divisor plus the
  divisor of an explicit rational function, which pins down the class of
  D_i - D_0 in cusp coordinates.

All support sets are closed under the relevant Galois action and large
enough to be Bezout-complete, so every check is an exact computation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .cyclotomic import d_power, zeta
from .curve import HomogPoly, ProjPoint, X, Y, Z, catalog
from .divisors import Divisor, from_cusp_support, named_divisor
from .valuations import (
    CertificateCheck,
    principal_divisor_on_support,
    verify_certificate,
)

# -sqrt(2), written in the power basis of Q(zeta_24)
MINUS_SQRT2 = d_power(5) - d_power(3) - d_power(1)


class Perturbation(NamedTuple):
    """Additive corruption of one certificate coefficient (for negative
    controls): add `delta` to the coefficient of `monomial` in the named
    certificate's numerator or denominator."""

    name: str
    part: str  # "numerator" | "denominator"
    monomial: tuple[int, int, int]
    delta: int


# the forms a Perturbation can reach, (certificate name, part) -> degree
PERTURBABLE_FORMS = {
    **{(f"2D{i}", "numerator"): 1 for i in range(4)},
    ("conic", "numerator"): 2,
    ("D1-D0", "numerator"): 2,
    ("D1-D0", "denominator"): 2,
    ("D2-D0", "numerator"): 3,
    ("D2-D0", "denominator"): 3,
    ("D3-D0", "numerator"): 2,
    ("D3-D0", "denominator"): 2,
}


def _maybe_perturb(
    form: HomogPoly, name: str, part: str, perturb: Optional[Perturbation]
) -> HomogPoly:
    if perturb is None or perturb.name != name or perturb.part != part:
        return form
    bump = HomogPoly.monomial(perturb.monomial, perturb.delta)
    return form + bump


class PrincipalDivisorCheck(NamedTuple):
    """Outcome of checking  claimed = div(form)  over a support set."""

    claimed: Divisor
    form: HomogPoly
    support: tuple[ProjPoint, ...]
    orders: tuple[int, ...]
    complete: bool
    passed: bool


def verify_principal_divisor(
    claimed: Divisor, form: HomogPoly, support: Sequence[ProjPoint]
) -> PrincipalDivisorCheck:
    support = tuple(support)
    divisor, complete = principal_divisor_on_support(form, support)
    orders = tuple(divisor.coefficient(p) for p in support)
    return PrincipalDivisorCheck(
        claimed, form, support, orders, complete, complete and divisor == claimed
    )


BITANGENT_LINES = {
    "L0": X + Y + Z,
    "L1": X - Y + Z,
    "L2": X + Y - Z,
    "L3": X - Y - Z,
}


def bitangent_checks(
    perturb: Optional[Perturbation] = None,
) -> list[tuple[str, PrincipalDivisorCheck]]:
    """The five single-form checks: 2 D_i = div(L_i) and
    D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)."""
    checks = []
    for i in range(4):
        name = f"2D{i}"
        line = _maybe_perturb(BITANGENT_LINES[f"L{i}"], name, "numerator", perturb)
        support = [catalog(f"T{i}0"), catalog(f"T{i}1")]
        checks.append(
            (name, verify_principal_divisor(2 * named_divisor(f"D{i}"), line, support))
        )
    conic = _maybe_perturb(X ** 2 + Y ** 2 + Z ** 2, "conic", "numerator", perturb)
    total = Divisor.zero()
    for i in range(4):
        total = total + named_divisor(f"D{i}")
    support = [catalog(f"T{i}{j}") for i in range(4) for j in range(2)]
    checks.append(("conic", verify_principal_divisor(total, conic, support)))
    return checks


# cusp-supported representatives of the classes [D_i - D_0]
CUSP_REPRESENTATIVES = {
    "D1-D0": {"B1": 2, "B2": 2, "B0": -4},
    "D2-D0": {"A1": 2, "A2": 2, "B1": 2, "B2": 2, "B0": -8},
    "D3-D0": {"A1": 2, "A2": 2, "B0": -4},
}


def cusp_representative(name: str) -> Divisor:
    return from_cusp_support(CUSP_REPRESENTATIVES[name])


def cusp_relation_certificates(
    perturb: Optional[Perturbation] = None,
) -> list[tuple[str, CertificateCheck]]:
    """The three certified identities  D_i - D_0 = (cusp divisor) + div(G/H)."""
    z8 = zeta(8)
    c = MINUS_SQRT2
    entries = [
        (
            "D1-D0",
            (X - z8 * Z) * (X - Y + Z),
            (X ** 2 + Y ** 2 + Z ** 2) + c * (Y ** 2 - X * Z),
            ["T00", "T01", "T10", "T11", "B0", "B1", "B2"],
        ),
        (
            "D2-D0",
            (X - z8 * Z) ** 2 * (X + Y - Z),
            (X ** 2 + Y ** 2 + Z ** 2) * (X + Y) - c * Z * (X ** 2 + X * Y + Y ** 2),
            ["T00", "T01", "T20", "T21", "A1", "A2", "B0", "B1", "B2"],
        ),
        (
            "D3-D0",
            (X - z8 * Z) * (X - Y - Z),
            (X ** 2 - Y ** 2 - 2 * Y * Z - Z ** 2) + c * (Y ** 2 + Y * Z + Z ** 2),
            ["T00", "T01", "T30", "T31", "A1", "A2", "B0"],
        ),
    ]
    checks = []
    for name, numerator, denominator, support_names in entries:
        i = name[1]
        claimed = (
            named_divisor(f"D{i}") - named_divisor("D0") - cusp_representative(name)
        )
        numerator = _maybe_perturb(numerator, name, "numerator", perturb)
        denominator = _maybe_perturb(denominator, name, "denominator", perturb)
        support = [catalog(n) for n in support_names]
        checks.append((name, verify_certificate(claimed, numerator, denominator, support)))
    return checks


def e_divisor_equality() -> bool:
    """E = 2 B_2 - 2 B_0 as an exact identity of divisors."""
    b2 = Divisor.point(catalog("B2"))
    b0 = Divisor.point(catalog("B0"))
    return named_divisor("E") == 2 * b2 - 2 * b0
