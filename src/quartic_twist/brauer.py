"""The Brauer obstruction attached to the class of E = 2B_2 - 2B_0.

The class of E is Galois-invariant but E is not equivalent to a divisor
defined over Q; the obstruction is certified by an explicit 2-cocycle on
the order-2 group {1, tau} (tau = complex conjugation) with value -1 at
(tau, tau).  The three divisor identities for E (2E, E + sigma_3(E) and
E - sigma_3(E)) are rows of the certificate table; the function of the
row E + sigma_3(E) is u_tau, and the cocycle reads it from that row, so
one constant feeds both.  Working modulo the curve ideal only needs the
single rewriting rule X^4 -> -Y^4 - Z^4, which is confluent, so the
cocycle value comes out of exact polynomial normal forms.
"""

from __future__ import annotations

from .certificates import E_IDENTITIES, Certificate, Table, check_certificates
from .cyclotomic import CycNum, ONE, TAU, zeta
from .curve import CURVE, HomogPoly, X, Z, product
from .valuations import CertificateCheck

# the row whose function is u_tau: E + sigma_3(E) = E - tau(E) = div(u_tau)
U_TAU = "E+sigma3(E)"

GroupLabel = str  # "1" or "tau"

_GROUP = ("1", "tau")

# X^4 modulo the curve ideal, -Y^4 - Z^4
_X4 = HomogPoly.monomial((4, 0, 0)) - CURVE


def _group_mul(s: GroupLabel, t: GroupLabel) -> GroupLabel:
    """The product st in the order-2 group {1, tau}."""
    return "1" if s == t else "tau"


def _act(s: GroupLabel, value: CycNum) -> CycNum:
    """The action of a group element on Q(zeta_24): tau is complex
    conjugation."""
    return TAU(value) if s == "tau" else value


def reduce_mod_curve(form: HomogPoly) -> HomogPoly:
    """Normal form modulo the curve ideal: X^4 -> -Y^4 - Z^4 sends each
    monomial X^(4q+r) Y^j Z^k to (-Y^4 - Z^4)^q X^r Y^j Z^k.  The residue
    is zero exactly when the curve polynomial divides the form."""
    residue = HomogPoly.zero(form.degree)
    for (i, j, k), c in form.terms.items():
        q, r = divmod(i, 4)
        term = HomogPoly.monomial((r, j, k), c)
        residue = residue + (_X4 ** q * term if q else term)
    return residue


def product_of_linear_forms() -> HomogPoly:
    """The product of the four lines X - zeta_8^k Z over odd k; the odd
    powers of zeta_8 are exactly the fourth roots of -1, so this expands
    to X^4 + Z^4."""
    z8 = zeta(8)
    return product([X - z8 ** k * Z for k in (1, 3, 5, 7)])


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


def cocycle_tau_tau(u_tau: Certificate) -> CycNum:
    """The cocycle value a_(tau,tau) = u_tau * tau(u_tau), u_tau being the
    function of the given row (the clean `U_TAU` row has
    Y^2 / ((X - zeta_8 Z)(X - zeta_8^3 Z))).

    The product of the two denominators is X^4 + Z^4 and the product of
    the numerators is Y^4; on the curve Y^4 = -(X^4 + Z^4), so the value
    is the scalar lam with Y^4 = lam (X^4 + Z^4) mod the curve ideal.
    """
    num, den = u_tau.numerator, u_tau.denominator
    num_product = num * num.galois(TAU)
    den_product = den * den.galois(TAU)
    if den_product != product_of_linear_forms():
        raise ValueError("tau did not conjugate the denominator as expected")
    return _scalar_ratio(reduce_mod_curve(num_product), reduce_mod_curve(den_product))


def cocycle_table(u_tau: Certificate) -> dict[tuple[GroupLabel, GroupLabel], CycNum]:
    """The full 2-cocycle on {1, tau}.  With u_1 = 1 every value involving
    the identity is 1; the only computed entry is a_(tau,tau)."""
    table = {(s, t): ONE for s in _GROUP for t in _GROUP}
    table[("tau", "tau")] = cocycle_tau_tau(u_tau)
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


def verify_e_identities(table: Table) -> list[tuple[str, CertificateCheck]]:
    """The certificates 2E, E + sigma_3(E) and E - sigma_3(E): the rows
    `E_IDENTITIES` of the table."""
    return check_certificates(E_IDENTITIES, table)
