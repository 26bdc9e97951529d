"""The divisor-class module: dictionary consistency, derived matrices,
fixed submodule, images, and the torsor searches."""

import random

import pytest

from quartic_twist.checks import PRINTED_MATRICES, Fault, fault_space, run_single
from quartic_twist.curve import (
    CUSP_NAMES,
    SIGMA3_CUSP_TABLE,
    SIGMA5_CUSP_TABLE,
    catalog,
)
from quartic_twist.divisors import CUSP_SUPPORTS, Divisor, named_divisor
from quartic_twist.mordell_weil import (
    CLASS_D1_MINUS_D0,
    CLASS_D2_MINUS_D0,
    CLASS_D3_MINUS_D0,
    CLASS_E,
    E_BASIS,
    MODULI,
    ORDER,
    CUSP_DICTIONARY,
    PRINTED_S3,
    PRINTED_S5,
    PRINTED_SHIFTS,
    ZERO_ELEMENT,
    ActionMatrix,
    ModElement,
    all_elements,
    class_of,
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
    e_6 = [A_1 + A_2 + B_1 + B_2 + C_1 + C_2 - 6 B_0]
        = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2 - 6 beta_0."""
    return _sum_of_six(d) - 6 * d["B0"] == e6


def _sum_of_six(d):
    return d["A1"] + d["A2"] + d["B1"] + d["B2"] + d["C1"] + d["C2"]


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


def _corruptions() -> list[tuple[str, int, int]]:
    """Each single-coordinate corruption of one dictionary entry: 192."""
    return [(p["entry"], p["index"], p["delta"]) for p in fault_space("dictionary")]


def test_consistency_checks_under_every_dictionary_corruption():
    """Each single-coordinate corruption of one entry, 192 of them, gets the
    verdicts of the two definitions written out above.  e_6 is read with
    its -6 beta_0 term, as every class is, so the 10 odd corruptions of
    beta_0 in e_1..e_5 fail both dict-basis and dict-gamma2-e6; without
    that term they would leave dict-gamma2-e6 OK."""
    status = {True: "OK", False: "FAIL"}
    corruptions = _corruptions()
    assert len(corruptions) == 192
    # the corruptions whose e_6 verdict the -6 beta_0 term decides
    decided_by_b0 = [
        c for c in corruptions
        if _gamma2_consistent(d := perturbed_dictionary(*c)) != (_sum_of_six(d) == e6)
    ]
    assert decided_by_b0 == [("beta0", index, delta) for index in range(5) for delta in (1, 3)]
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
    assert cusp_class(a1, CUSP_DICTIONARY) == e1
    e_rep = 2 * Divisor.point(catalog("B2")) - 2 * Divisor.point(catalog("B0"))
    assert cusp_class(e_rep, CUSP_DICTIONARY) == 2 * e4
    assert cusp_class(Divisor.zero(), CUSP_DICTIONARY) == ZERO_ELEMENT
    assert cusp_class(named_divisor("e6"), CUSP_DICTIONARY) == e6


def test_cusp_class_rejects_bad_input():
    with pytest.raises(ValueError):
        cusp_class(Divisor.point(catalog("A1")), CUSP_DICTIONARY)  # degree 1
    with pytest.raises(ValueError):
        cusp_class(Divisor.point(catalog("T00")) - Divisor.point(catalog("T01")),
                   CUSP_DICTIONARY)


def test_bitangent_class_relation_from_certified_representatives():
    d1 = cusp_class(named_divisor("D1-D0"), CUSP_DICTIONARY)
    d2 = cusp_class(named_divisor("D2-D0"), CUSP_DICTIONARY)
    d3 = cusp_class(named_divisor("D3-D0"), CUSP_DICTIONARY)
    assert (d1, d2, d3) == (CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0)
    assert d1 + d2 == d3


def test_every_cusp_support_has_one_class_under_every_dictionary():
    # the class map over cusp names agrees with the one over divisors, for the
    # clean dictionary and for each of the 192 corruptions
    dictionaries = [CUSP_DICTIONARY] + [perturbed_dictionary(*c) for c in _corruptions()]
    assert len(CUSP_SUPPORTS) == 10
    for name, support in CUSP_SUPPORTS.items():
        assert sum(support.values()) == 0, name
        divisor = named_divisor(name)
        for d in dictionaries:
            assert cusp_class(divisor, d) == class_of(support, d), name
    basis = [class_of(CUSP_SUPPORTS[f"e{j}"], CUSP_DICTIONARY) for j in range(1, 7)]
    assert basis == list(E_BASIS)
    names = ("D1-D0", "D2-D0", "D3-D0", "E")
    classes = [class_of(CUSP_SUPPORTS[name], CUSP_DICTIONARY) for name in names]
    assert classes == [CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0, CLASS_E]


def test_class_of_reads_b0_and_needs_degree_zero():
    moved = perturbed_dictionary("beta0", 0, 1)  # [B_0 - B_0] corrupted to e_1
    assert class_of({"A1": 1, "B0": -1}, moved) == ZERO_ELEMENT
    assert class_of({"B0": 6, "C2": -6}, moved) == 2 * e1 - 6 * moved["C2"]
    with pytest.raises(ValueError):
        class_of({"A1": 1}, CUSP_DICTIONARY)


def test_derived_matrices_match_printed():
    assert derive_action_matrix(SIGMA3_CUSP_TABLE, CUSP_DICTIONARY) == PRINTED_S3
    assert derive_action_matrix(SIGMA5_CUSP_TABLE, CUSP_DICTIONARY) == PRINTED_S5
    identity = {name: name for name in CUSP_NAMES}
    assert derive_action_matrix(identity, CUSP_DICTIONARY) == ActionMatrix.identity()


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


def test_involution_verdict_is_the_matrix_product_verdict():
    # `involution` composes the tables of s_3 and s_5 code by code; on every
    # valid matrix corruption it must agree with the tables of s_3 s_5 and
    # s_5 s_3, the products taken as matrices
    codes = list(range(ORDER))
    verdicts = []
    for payload in fault_space("matrix"):
        name, row, col, delta = (payload[k] for k in ("matrix", "row", "col", "delta"))
        rows = [list(r) for r in PRINTED_MATRICES[name].rows]
        rows[row][col] += delta
        s3, s5 = {**PRINTED_MATRICES, name: ActionMatrix(rows)}.values()
        t3, t5 = image_table(s3), image_table(s5)
        expected = (list(map(t3.__getitem__, t3)) == codes == list(map(t5.__getitem__, t5))
                    and image_table(s3 * s5) == image_table(s5 * s3))
        (record,) = run_single("involution", Fault("matrix", (name, row, col), delta)).checks
        assert (record.check_id, record.status) == ("involution", "OK" if expected else "FAIL")
        verdicts.append(expected)
    assert len(verdicts) == 172 and any(verdicts) and not all(verdicts)


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
        assert cusp_class(moved, CUSP_DICTIONARY) == PRINTED_SHIFTS[key]


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
