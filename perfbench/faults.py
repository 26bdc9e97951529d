"""Seeded generator of valid single-constant corruptions for `--fault FILE`.

Every fault it emits changes exactly one constant and is accepted by the
CLI's fault loader: a nonzero delta modulo the coordinate's modulus, a
matrix that keeps column 6 even in rows 1-5 (so e_6 still maps to
2-torsion), a dictionary whose derived action matrices keep the same
property, a known certificate name and part, and a monomial of the form's
degree.  Malformed, ill-defined and no-op faults are input-validation cases
for the test suite, not a performance workload, so none is generated here.
"""

from __future__ import annotations

import itertools
import random

# (Z/4)^5 + Z/2: the modulus of each e-coordinate.
MODULI = (4, 4, 4, 4, 4, 2)
DICTIONARY_ENTRIES = tuple(f"{family}{i}" for family in ("alpha", "beta", "gamma") for i in range(4))
# e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2, and sigma_3
# and sigma_5 send those cusps to A0, A3, B0, B3, C0 and C3.  The e_6 column
# of each matrix derived from the dictionary sums these entries, so an odd
# delta in their first five coordinates leaves column 6 odd: the derived
# matrix is no map on M, the same ill-defined datum a matrix fault may not
# produce.
E6_IMAGE_ENTRIES = ("alpha0", "alpha3", "beta0", "beta3", "gamma0", "gamma3")
MATRICES = ("s3", "s5")
# Each certificate form a fault may touch, with its degree.
CERTIFICATE_FORMS = {
    ("2D0", "numerator"): 1,
    ("2D1", "numerator"): 1,
    ("2D2", "numerator"): 1,
    ("2D3", "numerator"): 1,
    ("conic", "numerator"): 2,
    ("D1-D0", "numerator"): 2,
    ("D1-D0", "denominator"): 2,
    ("D2-D0", "numerator"): 3,
    ("D2-D0", "denominator"): 3,
    ("D3-D0", "numerator"): 2,
    ("D3-D0", "denominator"): 2,
}
CERTIFICATE_DELTAS = (-2, -1, 1, 2)
TARGETS = ("dictionary", "matrix", "certificate")


def dictionary_faults() -> list[dict]:
    return [
        {"target": "dictionary", "entry": entry, "index": index, "delta": delta}
        for entry in DICTIONARY_ENTRIES
        for index, modulus in enumerate(MODULI)
        for delta in range(1, modulus)
        if not (entry in E6_IMAGE_ENTRIES and index < 5 and delta % 2)
    ]


def matrix_faults() -> list[dict]:
    faults = []
    for name, row, col in itertools.product(MATRICES, range(6), range(6)):
        deltas = range(1, MODULI[row])
        if col == 5 and row < 5:
            deltas = [d for d in deltas if d % 2 == 0]
        faults += [
            {"target": "matrix", "matrix": name, "row": row, "col": col, "delta": delta}
            for delta in deltas
        ]
    return faults


def monomials(degree: int) -> list[list[int]]:
    return [
        [a, b, degree - a - b] for a in range(degree + 1) for b in range(degree + 1 - a)
    ]


def certificate_faults() -> list[dict]:
    return [
        {"target": "certificate", "certificate": name, "part": part,
         "monomial": monomial, "delta": delta}
        for (name, part), degree in CERTIFICATE_FORMS.items()
        for monomial in monomials(degree)
        for delta in CERTIFICATE_DELTAS
    ]


SPACES = {
    "dictionary": dictionary_faults(),
    "matrix": matrix_faults(),
    "certificate": certificate_faults(),
}


def draw(rng: random.Random, target: str) -> dict:
    """One valid corruption of the given target, chosen by the seeded rng."""
    return rng.choice(SPACES[target])
