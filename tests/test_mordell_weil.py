"""The divisor-class module: dictionary consistency, derived matrices,
fixed submodule, images, and the torsor searches."""

import random

import pytest

from quartic_twist.checks import Fault, run_single
from quartic_twist.curve import (
    CUSP_NAMES,
    SIGMA3_CUSP_TABLE,
    SIGMA5_CUSP_TABLE,
    catalog,
)
from quartic_twist.divisors import Divisor, named_divisor
from quartic_twist.mordell_weil import (
    CLASS_D1_MINUS_D0,
    CLASS_D2_MINUS_D0,
    CLASS_D3_MINUS_D0,
    CLASS_E,
    E_BASIS,
    MODULI,
    ORDER,
    CUSP_DICTIONARY,
    ENTRY_CUSPS,
    PRINTED_S3,
    PRINTED_S5,
    PRINTED_SHIFTS,
    ZERO_ELEMENT,
    ActionMatrix,
    ModElement,
    all_elements,
    cusp_class,
    decode,
    derive_action_matrix,
    encode,
    fixed_submodule,
    image_submodule,
    image_table,
    perturbed_dictionary,
    pic1_has_fixed_point,
    subgroup_generated,
    two_torsion_multiples,
)

e1, e2, e3, e4, e5, e6 = E_BASIS


def test_mod_element_arithmetic():
    assert ModElement((2,)) + ModElement((2,)) == ZERO_ELEMENT
    assert 2 * ModElement((0, 0, 0, 0, 0, 1)) == ZERO_ELEMENT
    assert -ModElement((1, 0, 0, 0, 0, 1)) == ModElement((3, 0, 0, 0, 0, 1))
    assert ModElement((5, 5, 5, 5, 5, 3)) == ModElement((1, 1, 1, 1, 1, 1))


def test_bitangent_class_relation_in_coordinates():
    assert CLASS_D1_MINUS_D0 + CLASS_D2_MINUS_D0 == CLASS_D3_MINUS_D0


def test_enumeration_count_and_order():
    elements = list(all_elements())
    assert len(elements) == 2048
    assert elements[0] == ZERO_ELEMENT
    assert elements[1] == e6
    assert len(set(elements)) == 2048


def test_enumerated_elements_match_the_validating_constructor():
    # all_elements builds its elements from already reduced coordinates,
    # without the reducing constructor
    for m in all_elements():
        rebuilt = ModElement(m.c)
        assert type(m.c) is tuple and len(m.c) == 6
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert str(m) == str(rebuilt) and repr(m) == repr(rebuilt)
        assert bool(m) == bool(rebuilt)


def _basis_consistent(d) -> bool:
    """alpha_1, alpha_2, beta_1, beta_2, gamma_1 are the basis vectors
    e_1..e_5 and beta_0 = [B_0 - B_0] = 0."""
    return (
        d["A1"] == e1 and d["A2"] == e2 and d["B0"] == ZERO_ELEMENT
        and d["B1"] == e3 and d["B2"] == e4 and d["C1"] == e5
    )


def _gamma2_consistent(d) -> bool:
    """gamma_2 rearranges the definition
    e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2."""
    return d["A1"] + d["A2"] + d["B1"] + d["B2"] + d["C1"] + d["C2"] == e6


def test_dictionary_consistency():
    assert _basis_consistent(CUSP_DICTIONARY)
    assert _gamma2_consistent(CUSP_DICTIONARY)
    # orbit consistency: applying the printed matrices to the basis
    # entries must reproduce the non-basis entries
    assert CUSP_DICTIONARY["B3"] == PRINTED_S3(e4) + e3
    assert CUSP_DICTIONARY["A3"] == PRINTED_S5(e1) + e4
    assert CUSP_DICTIONARY["A0"] == PRINTED_S3(e1) + e3
    assert CUSP_DICTIONARY["C0"] == PRINTED_S3(e5) + e3
    assert CUSP_DICTIONARY["C3"] == PRINTED_S5(e5) + e4


def test_consistency_checks_under_every_dictionary_corruption():
    """Each single-coordinate corruption of one entry, 192 of them, gets the
    verdicts of the two definitions written out above.  The 10 odd
    corruptions of beta_0 in e_1..e_5 fail dict-basis and leave
    dict-gamma2-e6 OK: e_6 is read without its B_0 term."""
    status = {True: "OK", False: "FAIL"}
    corruptions = [
        (entry, index, delta)
        for entry in ENTRY_CUSPS
        for index, modulus in enumerate(MODULI)
        for delta in range(1, modulus)
    ]
    assert len(corruptions) == 192
    for entry, index, delta in corruptions:
        fault = Fault("dictionary", (entry, index), delta)
        d = perturbed_dictionary(entry, index, delta)
        for check_id, holds in (
            ("dict-basis", _basis_consistent), ("dict-gamma2-e6", _gamma2_consistent)
        ):
            (record,) = run_single(check_id, fault).checks
            assert record.status == status[holds(d)], (check_id, entry, index, delta)


def test_cusp_class_examples():
    a1 = Divisor.point(catalog("A1")) - Divisor.point(catalog("B0"))
    assert cusp_class(a1) == e1
    e_rep = 2 * Divisor.point(catalog("B2")) - 2 * Divisor.point(catalog("B0"))
    assert cusp_class(e_rep) == 2 * e4
    assert cusp_class(Divisor.zero()) == ZERO_ELEMENT
    assert cusp_class(named_divisor("e6")) == e6


def test_cusp_class_rejects_bad_input():
    with pytest.raises(ValueError):
        cusp_class(Divisor.point(catalog("A1")))  # degree 1
    with pytest.raises(ValueError):
        cusp_class(Divisor.point(catalog("T00")) - Divisor.point(catalog("T01")))


def test_bitangent_class_relation_from_certified_representatives():
    from quartic_twist.certificates import cusp_representative

    d1 = cusp_class(cusp_representative("D1-D0"))
    d2 = cusp_class(cusp_representative("D2-D0"))
    d3 = cusp_class(cusp_representative("D3-D0"))
    assert (d1, d2, d3) == (CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0)
    assert d1 + d2 == d3


def test_derived_matrices_match_printed():
    assert derive_action_matrix(SIGMA3_CUSP_TABLE) == PRINTED_S3
    assert derive_action_matrix(SIGMA5_CUSP_TABLE) == PRINTED_S5
    identity = {name: name for name in CUSP_NAMES}
    assert derive_action_matrix(identity) == ActionMatrix.identity()


def test_apply_matrix_examples():
    assert PRINTED_S3(e1) == ModElement((2, 1, 1, 1, 0, 0))
    assert PRINTED_S5(e4) == 3 * e4
    assert PRINTED_S3(ZERO_ELEMENT) == ZERO_ELEMENT


def test_matrix_well_definedness_guard():
    bad = [[0] * 6 for _ in range(6)]
    bad[0][5] = 1  # sends the order-2 generator to an order-4 element
    with pytest.raises(ValueError):
        ActionMatrix(bad)
    # the shape is checked before any row is reduced by its modulus
    for height, width in ((7, 6), (6, 7), (5, 6)):
        with pytest.raises(ValueError):
            ActionMatrix([[0] * width for _ in range(height)])


def test_involutions_and_commutation_on_all_elements():
    s3s5 = PRINTED_S3 * PRINTED_S5
    s5s3 = PRINTED_S5 * PRINTED_S3
    identity = ActionMatrix.identity()
    for m in all_elements():
        assert PRINTED_S3(PRINTED_S3(m)) == m
        assert PRINTED_S5(PRINTED_S5(m)) == m
        assert s3s5(m) == s5s3(m)
    assert PRINTED_S3 * PRINTED_S3 == identity
    assert PRINTED_S5 * PRINTED_S5 == identity
    assert s3s5 == s5s3


def test_fixed_submodule():
    fixed = fixed_submodule([PRINTED_S3, PRINTED_S5])
    assert len(fixed) == 8
    assert all(2 * m == ZERO_ELEMENT for m in fixed)
    expected = subgroup_generated([2 * e1 + 2 * e2, 2 * e3, 2 * e4])
    assert set(fixed) == expected
    assert len(expected) == 8


def test_fixed_submodule_from_divisor_classes():
    fixed = set(fixed_submodule([PRINTED_S3, PRINTED_S5]))
    generated = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_E])
    assert generated == fixed
    for cls in (CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0, CLASS_E):
        assert cls in fixed


def test_fixed_submodule_controls():
    assert len(fixed_submodule([ActionMatrix.identity()])) == 2048
    only_s5 = set(fixed_submodule([PRINTED_S5]))
    both = set(fixed_submodule([PRINTED_S3, PRINTED_S5]))
    assert both <= only_s5


def test_pic0_subgroup():
    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    assert pic0 == {
        ZERO_ELEMENT,
        CLASS_D1_MINUS_D0,
        CLASS_D2_MINUS_D0,
        CLASS_D3_MINUS_D0,
    }
    fixed = set(fixed_submodule([PRINTED_S3, PRINTED_S5]))
    assert CLASS_E not in pic0
    assert fixed == pic0 | {m + CLASS_E for m in pic0}
    assert subgroup_generated([]) == {ZERO_ELEMENT}


def test_image_of_s5_is_2m():
    image = image_submodule(PRINTED_S5)
    doubles = two_torsion_multiples()
    assert image == doubles
    assert len(image) == 32


def test_image_congruence_for_s3():
    for s in (PRINTED_S3, PRINTED_S3 * PRINTED_S5):
        for a in image_submodule(s):
            assert (a.c[1] + a.c[2] + a.c[5]) % 2 == 0
    assert image_submodule(ActionMatrix.identity()) == {ZERO_ELEMENT}


def test_printed_shifts_match_dictionary():
    sigma5_shift = CUSP_DICTIONARY["A2"] - CUSP_DICTIONARY["A0"]
    sigma3_shift = CUSP_DICTIONARY["A1"] - CUSP_DICTIONARY["A0"]
    tau_shift = CUSP_DICTIONARY["A3"] - CUSP_DICTIONARY["A0"]
    assert sigma5_shift == PRINTED_SHIFTS["sigma_5"]
    assert sigma3_shift == PRINTED_SHIFTS["sigma_3"]
    assert tau_shift == PRINTED_SHIFTS["sigma_3 sigma_5"]


def test_shifts_from_galois_action_on_a0():
    from quartic_twist.cyclotomic import SIGMA3, SIGMA5
    a0 = Divisor.point(catalog("A0"))
    for sigma, key in ((SIGMA5, "sigma_5"), (SIGMA3, "sigma_3"), (SIGMA3 * SIGMA5, "sigma_3 sigma_5")):
        moved = a0.galois(sigma) - a0
        assert cusp_class(moved) == PRINTED_SHIFTS[key]


def test_torsor_searches_have_no_solution():
    assert not pic1_has_fixed_point(PRINTED_S5, PRINTED_SHIFTS["sigma_5"])
    assert not pic1_has_fixed_point(PRINTED_S3, PRINTED_SHIFTS["sigma_3"])
    assert not pic1_has_fixed_point(
        PRINTED_S3 * PRINTED_S5, PRINTED_SHIFTS["sigma_3 sigma_5"]
    )
    assert pic1_has_fixed_point(ActionMatrix.identity(), ZERO_ELEMENT)


def test_perturbed_dictionary():
    wrong = perturbed_dictionary("gamma3", 0, 2)
    assert wrong["C3"] != CUSP_DICTIONARY["C3"]
    assert derive_action_matrix(SIGMA5_CUSP_TABLE, wrong) != PRINTED_S5
    assert _basis_consistent(wrong)

    # an odd corruption even breaks well-definedness of the derived matrix
    odd = perturbed_dictionary("gamma3", 0, 1)
    with pytest.raises(ValueError):
        derive_action_matrix(SIGMA5_CUSP_TABLE, odd)

    wrong_basis = perturbed_dictionary("alpha1", 1, 1)
    assert not _basis_consistent(wrong_basis)


def test_moduli():
    assert MODULI == (4, 4, 4, 4, 4, 2)


# ---------------------------------------------------------------------------
# the image tables against plain per-element application of the matrices

ELEMENTS = tuple(all_elements())


def _random_matrix(rng):
    rows = [[rng.randrange(MODULI[i]) for _ in range(6)] for i in range(6)]
    for i in range(5):
        rows[i][5] = 2 * rng.randrange(2)  # e_6 goes to 2-torsion
    return ActionMatrix(rows)


def _corrupted_matrix(rng):
    """A printed matrix with one entry moved, as a valid matrix fault moves
    it: column 6 stays even in rows 1-5."""
    rows = [list(row) for row in rng.choice((PRINTED_S3, PRINTED_S5)).rows]
    i, j = rng.randrange(6), rng.randrange(6)
    rows[i][j] += 2 if j == 5 and i < 5 else rng.randrange(1, MODULI[i])
    return ActionMatrix(rows)


def _differential_matrices():
    rng = random.Random(20210712)
    printed = [PRINTED_S3, PRINTED_S5, PRINTED_S3 * PRINTED_S5, ActionMatrix.identity()]
    corrupted = [_corrupted_matrix(random.Random(seed)) for seed in (1801, 1802)]
    assert not set(corrupted) & {PRINTED_S3, PRINTED_S5}
    return printed + [_random_matrix(rng) for _ in range(16)] + corrupted


def test_codes_follow_the_enumeration():
    assert [encode(m) for m in ELEMENTS] == list(range(ORDER))
    assert tuple(decode(n) for n in range(ORDER)) == ELEMENTS


@pytest.mark.parametrize("s", _differential_matrices())
def test_tables_agree_with_per_element_maps(s):
    assert list(image_table(s)) == [encode(s(m)) for m in ELEMENTS]
    assert fixed_submodule([s]) == tuple(m for m in ELEMENTS if s(m) == m)
    image = frozenset(s(m) - m for m in ELEMENTS)
    assert image_submodule(s) == image
    rng = random.Random(repr(s.rows))
    shifts = list(PRINTED_SHIFTS.values()) + rng.sample(ELEMENTS, 8)
    for shift in shifts:
        assert pic1_has_fixed_point(s, shift) == (-shift in image)


def test_joint_fixed_submodules_agree_with_per_element_maps():
    matrices = _differential_matrices()
    rng = random.Random(5)
    for _ in range(8):
        pair = rng.sample(matrices, 2)
        expected = tuple(m for m in ELEMENTS if all(s(m) == m for s in pair))
        assert fixed_submodule(pair) == expected
    assert fixed_submodule([]) == ELEMENTS


def test_two_torsion_multiples_agree_with_doubling():
    assert two_torsion_multiples() == frozenset(2 * m for m in ELEMENTS)


def test_tables_are_kept_per_matrix_value():
    s3s5, s5s3 = PRINTED_S3 * PRINTED_S5, PRINTED_S5 * PRINTED_S3
    assert s3s5 is not s5s3 and s3s5 == s5s3
    assert image_table(s3s5) is image_table(s5s3)
    rows = [list(row) for row in PRINTED_S3.rows]
    rows[0][0] += 1
    corrupted = ActionMatrix(rows)
    assert image_table(corrupted) != image_table(PRINTED_S3)
    assert list(image_table(corrupted)) == [encode(corrupted(m)) for m in ELEMENTS]
