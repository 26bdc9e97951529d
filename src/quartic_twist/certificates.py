"""The concrete principal-divisor certificates for the quartic.

Two families are verified with rational-function certificates:

* the four rational bitangents cut out twice the contact divisors
  D0..D3, and the conic X^2 + Y^2 + Z^2 cuts out their sum;
* each difference D_i - D_0 equals a cusp-supported divisor plus the
  divisor of an explicit rational function G/H, which pins down the class
  of D_i - D_0 in cusp coordinates.

The eleven forms are one table, `certificate_forms()`, keyed
(certificate, part); both families read their forms from it, or from a
run's copy of it with one coefficient corrupted.

All support sets are closed under the relevant Galois action and large
enough to be Bezout-complete, so every check is an exact computation.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .cyclotomic import MINUS_SQRT2, zeta
from .curve import HomogPoly, ProjPoint, X, Y, Z, catalog
from .divisors import Divisor, from_cusp_support, named_divisor
from .valuations import (
    CertificateCheck,
    principal_divisor_on_support,
    verify_certificate,
)

# (certificate name, "numerator" | "denominator") -> form
Forms = Mapping[tuple[str, str], HomogPoly]


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


@functools.cache
def certificate_forms() -> Forms:
    """The eleven certificate forms: the bitangent lines L_i of the
    certificates 2D_i, the conic, and the numerator G and denominator H
    of each cusp relation D_i - D_0.  Read-only: a fault corrupts a copy."""
    z8, c = zeta(8), MINUS_SQRT2
    return MappingProxyType({
        **{(f"2D{i}", "numerator"): BITANGENT_LINES[f"L{i}"] for i in range(4)},
        ("conic", "numerator"): X ** 2 + Y ** 2 + Z ** 2,
        ("D1-D0", "numerator"): (X - z8 * Z) * (X - Y + Z),
        ("D1-D0", "denominator"): (X ** 2 + Y ** 2 + Z ** 2) + c * (Y ** 2 - X * Z),
        ("D2-D0", "numerator"): (X - z8 * Z) ** 2 * (X + Y - Z),
        ("D2-D0", "denominator"):
            (X ** 2 + Y ** 2 + Z ** 2) * (X + Y) - c * Z * (X ** 2 + X * Y + Y ** 2),
        ("D3-D0", "numerator"): (X - z8 * Z) * (X - Y - Z),
        ("D3-D0", "denominator"):
            (X ** 2 - Y ** 2 - 2 * Y * Z - Z ** 2) + c * (Y ** 2 + Y * Z + Z ** 2),
    })


def bitangent_checks(
    forms: Optional[Forms] = None,
) -> list[tuple[str, PrincipalDivisorCheck]]:
    """The five single-form checks: 2 D_i = div(L_i) and
    D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2), on `forms` (by default
    the clean table)."""
    forms = forms or certificate_forms()
    checks = []
    for i in range(4):
        claimed = 2 * named_divisor(f"D{i}")
        support = [catalog(f"T{i}0"), catalog(f"T{i}1")]
        form = forms[f"2D{i}", "numerator"]
        checks.append((f"2D{i}", verify_principal_divisor(claimed, form, support)))
    total = Divisor.zero()
    for i in range(4):
        total = total + named_divisor(f"D{i}")
    support = [catalog(f"T{i}{j}") for i in range(4) for j in range(2)]
    form = forms["conic", "numerator"]
    checks.append(("conic", verify_principal_divisor(total, form, support)))
    return checks


# cusp-supported representatives of the classes [D_i - D_0]
CUSP_REPRESENTATIVES = {
    "D1-D0": {"B1": 2, "B2": 2, "B0": -4},
    "D2-D0": {"A1": 2, "A2": 2, "B1": 2, "B2": 2, "B0": -8},
    "D3-D0": {"A1": 2, "A2": 2, "B0": -4},
}
# the support each cusp relation is checked on
RELATION_SUPPORTS = {
    "D1-D0": ("T00", "T01", "T10", "T11", "B0", "B1", "B2"),
    "D2-D0": ("T00", "T01", "T20", "T21", "A1", "A2", "B0", "B1", "B2"),
    "D3-D0": ("T00", "T01", "T30", "T31", "A1", "A2", "B0"),
}


def cusp_representative(name: str) -> Divisor:
    return from_cusp_support(CUSP_REPRESENTATIVES[name])


def cusp_relation_certificates(
    forms: Optional[Forms] = None,
) -> list[tuple[str, CertificateCheck]]:
    """The three certified identities  D_i - D_0 = (cusp divisor) + div(G/H),
    on `forms` (by default the clean table)."""
    forms = forms or certificate_forms()
    checks = []
    for name, support_names in RELATION_SUPPORTS.items():
        claimed = (
            named_divisor(f"D{name[1]}") - named_divisor("D0") - cusp_representative(name)
        )
        numerator, denominator = forms[name, "numerator"], forms[name, "denominator"]
        support = [catalog(n) for n in support_names]
        checks.append((name, verify_certificate(claimed, numerator, denominator, support)))
    return checks


def e_divisor_equality() -> bool:
    """E = 2 B_2 - 2 B_0 as an exact identity of divisors."""
    b2 = Divisor.point(catalog("B2"))
    b0 = Divisor.point(catalog("B0"))
    return named_divisor("E") == 2 * b2 - 2 * b0
