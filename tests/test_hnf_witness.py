"""A second witness for the Galois module, independent of enumeration.

Lift a map f on M = (Z/4)^5 + Z/2 to Z^6.  The preimage of f(M) in Z^6 is
the lattice L spanned by the columns of [f | diag(4, 4, 4, 4, 4, 2)], so
|M / f(M)| = [Z^6 : L] is the determinant of the Hermite normal form of
that matrix, and an element lies in f(M) exactly when its lift lies in L
(Cohen, A Course in Computational Algebraic Number Theory, 2.4-2.5).
"""

import math

import pytest

from quartic_twist.mordell_weil import (
    MODULI,
    ORDER,
    PRINTED_S3,
    PRINTED_S5,
    PRINTED_SHIFTS,
    ActionMatrix,
    all_elements,
    image_submodule,
)

S3S5 = PRINTED_S3 * PRINTED_S5


def hermite_basis(generators, n):
    """Row Hermite normal form of the full-rank lattice spanned by the
    integer vectors `generators` of length n: an upper triangular basis
    with positive pivots and the entries above each pivot reduced."""
    rows = [list(v) for v in generators]
    basis = []
    for col in range(n):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col]]
        if not live:
            raise ValueError("the lattice does not have full rank")
        pivot = live[0]
        rows = [r for r in rows if r is not pivot]
        basis.append(pivot if pivot[col] > 0 else [-a for a in pivot])
    for i in range(n):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def in_lattice(vector, basis):
    v = list(vector)
    for i, row in enumerate(basis):
        q, r = divmod(v[i], row[i])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def minus_identity_columns(s):
    """The columns (s - 1)e_j, lifted to Z^6."""
    return [[s.rows[i][j] - (i == j) for i in range(6)] for j in range(6)]


def relations(moduli):
    return [[m if k == i else 0 for k in range(len(moduli))] for i, m in enumerate(moduli)]


def image_lattice(s):
    return hermite_basis(minus_identity_columns(s) + relations(MODULI), 6)


def index(basis):
    return math.prod(row[i] for i, row in enumerate(basis))


@pytest.mark.parametrize("s", [PRINTED_S3, PRINTED_S5, S3S5], ids=["s3", "s5", "s3s5"])
def test_image_size_from_hnf(s):
    assert ORDER // index(image_lattice(s)) == 32


def test_joint_fixed_submodule_size_from_hnf():
    # the kernel of m -> ((s3 - 1)m, (s5 - 1)m) in M + M
    stacked = [
        a + b
        for a, b in zip(minus_identity_columns(PRINTED_S3), minus_identity_columns(PRINTED_S5))
    ]
    lattice = hermite_basis(stacked + relations(MODULI + MODULI), 12)
    image_size = ORDER * ORDER // index(lattice)
    assert ORDER // image_size == 8


@pytest.mark.parametrize(
    "s, key",
    [(PRINTED_S5, "sigma_5"), (PRINTED_S3, "sigma_3"), (S3S5, "sigma_3 sigma_5")],
    ids=["s5", "s3", "s3s5"],
)
def test_torsor_shifts_lie_outside_the_images(s, key):
    basis = image_lattice(s)
    assert not in_lattice([-x for x in PRINTED_SHIFTS[key].c], basis)
    # controls: the image of every basis vector, and the relations, do lie in it
    for column in minus_identity_columns(s) + relations(MODULI):
        assert in_lattice(column, basis)


@pytest.mark.parametrize("s", [PRINTED_S3, PRINTED_S5, S3S5], ids=["s3", "s5", "s3s5"])
def test_hnf_membership_agrees_with_the_image_tables(s):
    basis = image_lattice(s)
    members = frozenset(m for m in all_elements() if in_lattice(m.c, basis))
    assert members == image_submodule(s)


def test_identity_has_the_trivial_image():
    basis = image_lattice(ActionMatrix.identity())
    assert index(basis) == ORDER
    assert in_lattice([0] * 6, basis)


def test_hnf_determinant_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    for s in (PRINTED_S3, PRINTED_S5, S3S5):
        columns = minus_identity_columns(s) + relations(MODULI)
        matrix = sympy.Matrix(6, len(columns), lambda i, j: columns[j][i])
        assert abs(hermite_normal_form(matrix).det()) == index(image_lattice(s))
