"""The principal-divisor certificates of the report, as one table.

Every divisor identity the report certifies is a row of
`certificate_table()`: claimed = div(G) - div(H), with the claimed
divisor, the numerator G and the denominator H as tuples of factors (the
empty tuple is the constant 1), and the support by point names.  One
verifier, `valuations.verify_certificate`, checks every row; valuations
add over factors.  The eleven rows:

* 2D_0..2D_3: the four rational bitangents cut out twice the contact
  divisors D_0..D_3, and the conic X^2 + Y^2 + Z^2 cuts out their sum;
* D1-D0..D3-D0: each difference D_i - D_0 equals the cusp divisor of the
  same name in `divisors.CUSP_SUPPORTS` plus div(G/H), which pins down the
  class of D_i - D_0 in cusp coordinates;
* 2E, E+sigma3(E), E-sigma3(E): the divisors of the rational functions
  behind the Brauer obstruction of E = 2B_2 - 2B_0; the function of
  E + sigma_3(E) is u_tau, which the cocycle reads.

A certificate fault corrupts one of the eleven forms of
`certificate_forms()`, the parts of the first eight rows, and replaces
that part of a run's copy of the table with the single faulted form.

All support sets are closed under the relevant Galois action and large
enough to be Bezout-complete, so every check is an exact computation.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from types import MappingProxyType
from typing import Mapping, Sequence

from .cyclotomic import MINUS_SQRT2, SIGMA3, zeta
from .curve import HomogPoly, ProjPoint, X, Y, Z, catalog
from .divisors import CUSP_SUPPORTS, Divisor, from_cusp_support, named_divisor
from .valuations import CertificateCheck, verify_certificate


Certificate = namedtuple("Certificate", "claimed numerator denominator support")
Certificate.__doc__ = """claimed = div(product of the numerator) - div(product of
the denominator), checked on the named support points: the claimed
Divisor, the numerator and the denominator as tuples of HomogPoly factors,
and the support as a tuple of catalog names."""


# (certificate name, "numerator" | "denominator") -> form
Forms = Mapping[tuple[str, str], HomogPoly]
Table = Mapping[str, Certificate]

BITANGENTS = ("2D0", "2D1", "2D2", "2D3", "conic")
RELATIONS = ("D1-D0", "D2-D0", "D3-D0")
E_IDENTITIES = ("2E", "E+sigma3(E)", "E-sigma3(E)")

@functools.cache
def certificate_table() -> Table:
    """The eleven certified identities, keyed by certificate name, in
    report order.  Read-only: a fault corrupts a copy."""
    z8, c = zeta(8), MINUS_SQRT2
    d = [named_divisor(f"D{i}") for i in range(4)]
    e = named_divisor("E")
    sigma3_e = e.galois(SIGMA3)
    lines = (X + Y + Z, X - Y + Z, X + Y - Z, X - Y - Z)
    conic = X ** 2 + Y ** 2 + Z ** 2

    def contact(*i: int) -> tuple[str, ...]:
        return tuple(f"T{k}{j}" for k in i for j in range(2))

    def relation(i: int, g: HomogPoly, h: HomogPoly, cusps: tuple[str, ...]) -> Certificate:
        claimed = d[i] - d[0] - named_divisor(f"D{i}-D0")
        return Certificate(claimed, (g,), (h,), contact(0, i) + cusps)

    b = ("B0", "B1", "B2", "B3")
    return MappingProxyType({
        **{f"2D{i}": Certificate(2 * d[i], (lines[i],), (), contact(i)) for i in range(4)},
        "conic": Certificate(d[0] + d[1] + d[2] + d[3], (conic,), (), contact(0, 1, 2, 3)),
        "D1-D0": relation(1, (X - z8 * Z) * lines[1], conic + c * (Y ** 2 - X * Z),
                          ("B0", "B1", "B2")),
        "D2-D0": relation(2, (X - z8 * Z) ** 2 * lines[2],
                          conic * (X + Y) - c * Z * (X ** 2 + X * Y + Y ** 2),
                          ("A1", "A2", "B0", "B1", "B2")),
        "D3-D0": relation(3, (X - z8 * Z) * lines[3],
                          (X ** 2 - Y ** 2 - 2 * Y * Z - Z ** 2) + c * (Y ** 2 + Y * Z + Z ** 2),
                          ("A1", "A2", "B0")),
        "2E": Certificate(2 * e, (X - z8 ** 5 * Z,), (X - z8 * Z,), ("E+", "E-")),
        # u_tau = Y^2 / ((X - zeta_8 Z)(X - zeta_8^3 Z))
        "E+sigma3(E)": Certificate(e + sigma3_e, (Y ** 2,), ((X - z8 * Z) * (X - z8 ** 3 * Z),), b),
        "E-sigma3(E)": Certificate(e - sigma3_e, (Y ** 2,), ((X - z8 * Z) * (X - z8 ** 7 * Z),), b),
    })


def product(factors: Sequence[HomogPoly]) -> HomogPoly:
    """The product of a nonempty tuple of factors."""
    return functools.reduce(operator.mul, factors)


@functools.cache
def certificate_forms() -> Forms:
    """The eleven forms a certificate fault may corrupt: each part of the
    bitangent and relation rows that is not the constant 1, as the product
    of its factors."""
    table = certificate_table()
    return MappingProxyType({
        (name, part): product(getattr(table[name], part))
        for name in BITANGENTS + RELATIONS
        for part in ("numerator", "denominator")
        if getattr(table[name], part)
    })


def faulted_table(name: str, part: str, monomial: tuple, delta: int) -> Table:
    """The table with delta times the monomial added to the form (name, part)
    of `certificate_forms()`: that part of its row becomes the faulted form."""
    form = certificate_forms()[name, part] + HomogPoly.monomial(monomial, delta)
    row = certificate_table()[name]._replace(**{part: (form,)})
    return {**certificate_table(), name: row}


def check_certificates(
    names: Sequence[str], table: Table
) -> list[tuple[str, CertificateCheck]]:
    """The named rows of the table, each checked by `verify_certificate`."""
    checks = []
    for name in names:
        row = table[name]
        support = [catalog(n) for n in row.support]
        check = verify_certificate(row.claimed, row.numerator, row.denominator, support)
        checks.append((name, check))
    return checks


def verify_principal_divisor(
    claimed: Divisor, form: HomogPoly, support: Sequence[ProjPoint]
) -> CertificateCheck:
    """claimed = div(form): the certificate with the denominator 1."""
    return verify_certificate(claimed, (form,), (), support)


def bitangent_checks(table: Table) -> list[tuple[str, CertificateCheck]]:
    """2 D_i = div(L_i) and D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)."""
    return check_certificates(BITANGENTS, table)


def cusp_relation_certificates(table: Table) -> list[tuple[str, CertificateCheck]]:
    """The three identities  D_i - D_0 = (cusp divisor) + div(G/H)."""
    return check_certificates(RELATIONS, table)


def e_divisor_equality() -> bool:
    """E = 2 B_2 - 2 B_0, the row "E" of `CUSP_SUPPORTS`, as an exact
    identity of divisors."""
    return named_divisor("E") == from_cusp_support(CUSP_SUPPORTS["E"])
