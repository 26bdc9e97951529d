"""The Brauer obstruction attached to the class of E = 2B_2 - 2B_0.

The class of E is Galois-invariant but E is not equivalent to a divisor
defined over Q; the obstruction is certified by an explicit 2-cocycle on
the order-2 group {1, tau} (tau = complex conjugation) with value -1 at
(tau, tau).  Working modulo the curve ideal only needs the single
rewriting rule X^4 -> -Y^4 - Z^4, which is confluent, so the cocycle
value comes out of exact polynomial normal forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import CycNum, ONE, SIGMA3, SIGMA5, TAU, zeta
from .curve import HomogPoly, X, Y, Z, catalog
from .divisors import named_divisor
from .valuations import CertificateCheck, verify_certificate

GroupLabel = str  # "1" or "tau"

_GROUP = ("1", "tau")


def _group_mul(s: GroupLabel, t: GroupLabel) -> GroupLabel:
    """The product st in the order-2 group {1, tau}."""
    return "1" if s == t else "tau"


def _act(s: GroupLabel, value: CycNum) -> CycNum:
    """The action of a group element on Q(zeta_24): tau is complex
    conjugation."""
    return TAU(value) if s == "tau" else value


def reduce_mod_curve(form: HomogPoly) -> HomogPoly:
    """Normal form modulo the curve ideal: rewrite every monomial divisible
    by X^4 via X^4 -> -Y^4 - Z^4 until none remains.  The residue is zero
    exactly when the curve polynomial divides the form."""
    terms = dict(form.terms)
    while True:
        reducible = [e for e in terms if e[0] >= 4]
        if not reducible:
            break
        for (i, j, k) in reducible:
            c = terms.pop((i, j, k))
            for target, sign in (((i - 4, j + 4, k), -1), ((i - 4, j, k + 4), -1)):
                prev = terms.get(target)
                updated = (prev + sign * c) if prev is not None else sign * c
                if updated:
                    terms[target] = updated
                else:
                    terms.pop(target, None)
    return HomogPoly(form.degree, terms)


def product_of_linear_forms() -> HomogPoly:
    """The product of the four lines X - zeta_8^k Z over odd k; the odd
    powers of zeta_8 are exactly the fourth roots of -1, so this expands
    to X^4 + Z^4."""
    z8 = zeta(8)
    product = HomogPoly.monomial((0, 0, 0), 1)
    for k in (1, 3, 5, 7):
        product = product * (X - z8 ** k * Z)
    return product


def u_tau() -> tuple[HomogPoly, HomogPoly]:
    """The rational function u_tau = Y^2 / ((X - zeta_8 Z)(X - zeta_8^3 Z))
    whose divisor is E - tau(E), as a (numerator, denominator) pair."""
    z8 = zeta(8)
    return Y ** 2, (X - z8 * Z) * (X - z8 ** 3 * Z)


def _scalar_ratio(numerator: HomogPoly, denominator: HomogPoly) -> CycNum:
    """The unique scalar lam with numerator = lam * denominator, if any."""
    if not denominator:
        raise ValueError("zero denominator residue")
    exp, coeff = next(iter(denominator.terms.items()))
    lam = numerator.terms.get(exp, None)
    if lam is None:
        raise ValueError("residues are not proportional")
    lam = lam / coeff
    if numerator != lam * denominator:
        raise ValueError("residues are not proportional")
    return lam


def cocycle_tau_tau() -> CycNum:
    """The cocycle value a_(tau,tau) = u_tau * tau(u_tau).

    The product of the two denominators is X^4 + Z^4 and the product of
    the numerators is Y^4; on the curve Y^4 = -(X^4 + Z^4), so the value
    is the scalar lam with Y^4 = lam (X^4 + Z^4) mod the curve ideal.
    """
    num, den = u_tau()
    num_product = num * num.galois(TAU)
    den_product = den * den.galois(TAU)
    if den_product != product_of_linear_forms():
        raise ValueError("tau did not conjugate the denominator as expected")
    return _scalar_ratio(reduce_mod_curve(num_product), reduce_mod_curve(den_product))


def cocycle_table() -> dict[tuple[GroupLabel, GroupLabel], CycNum]:
    """The full 2-cocycle on {1, tau}.  With u_1 = 1 every value involving
    the identity is 1; the only computed entry is a_(tau,tau)."""
    table = {(s, t): ONE for s in _GROUP for t in _GROUP}
    table[("tau", "tau")] = cocycle_tau_tau()
    return table


def trivial_unit_cocycle_table() -> dict[tuple[GroupLabel, GroupLabel], CycNum]:
    """Control: the unit u = 1 for both group elements gives the trivial
    cocycle a_(s,t) = u_s * s(u_t) / u_(st) = 1."""
    u = {label: ONE for label in _GROUP}
    table = {}
    for s in _GROUP:
        for t in _GROUP:
            table[(s, t)] = u[s] * _act(s, u[t]) / u[_group_mul(s, t)]
    return table


def cocycle_identity_holds(
    table: dict[tuple[GroupLabel, GroupLabel], CycNum]
) -> bool:
    """The 2-cocycle identity a_(s,t) a_(st,u) = s(a_(t,u)) a_(s,tu) over
    all eight triples of the order-2 group."""
    for s in _GROUP:
        for t in _GROUP:
            for u in _GROUP:
                left = table[(s, t)] * table[(_group_mul(s, t), u)]
                right = _act(s, table[(t, u)]) * table[(s, _group_mul(t, u))]
                if left != right:
                    return False
    return True


class EIdentityResult(NamedTuple):
    """The three certified principal-divisor identities for E together with
    the divisor-level conjugation facts."""

    double_e: CertificateCheck
    e_plus_sigma3: CertificateCheck
    e_minus_sigma3: CertificateCheck
    sigma5_negates_e: bool
    tau_negates_sigma3_e: bool


def verify_e_identities() -> EIdentityResult:
    """Certify 2E, E + sigma_3(E) and E - sigma_3(E) as divisors of the
    explicit rational functions, plus sigma_5(E) = -E and
    tau(E) = -sigma_3(E) as exact divisor identities."""
    z8 = zeta(8)
    e = named_divisor("E")
    sigma3_e = e.galois(SIGMA3)
    b_points = [catalog(f"B{i}") for i in range(4)]

    double_e = verify_certificate(
        2 * e, X - z8 ** 5 * Z, X - z8 * Z, [catalog("E+"), catalog("E-")]
    )
    num, den = u_tau()
    e_plus = verify_certificate(e + sigma3_e, num, den, b_points)
    e_minus = verify_certificate(
        e - sigma3_e, num, (X - z8 * Z) * (X - z8 ** 7 * Z), b_points
    )
    return EIdentityResult(
        double_e=double_e,
        e_plus_sigma3=e_plus,
        e_minus_sigma3=e_minus,
        sigma5_negates_e=e.galois(SIGMA5) == -e,
        tau_negates_sigma3_e=e.galois(TAU) == -sigma3_e,
    )
