"""A witness for the cusp dictionary from the symmetries of the curve.

The 96 automorphisms of x^4 + y^4 + z^4 = 0 are the 6 coordinate
permutations times the 16 scalings diag(i^a, i^b, 1).  Each permutes the
twelve cusps and acts on the divisor classes, so it sends the class
[P - B_0] to [g(P) - g(B_0)].  If the dictionary d is right, the matrix
that `derive_action_matrix` takes from the moved basis rows is well
defined and sends d[P] to the class of g(P) - g(B_0) for every cusp P.
No Galois element and no printed matrix enters: the report checks the
dictionary against sigma_3 and sigma_5, this test against the geometry.
"""

from itertools import permutations, product

from quartic_twist.checks import fault_space
from quartic_twist.curve import CATALOG, CUSP_BY_POINT, CUSP_NAMES, ProjPoint
from quartic_twist.cyclotomic import zeta
from quartic_twist.mordell_weil import (
    CUSP_DICTIONARY,
    ZERO_ELEMENT,
    class_of,
    derive_action_matrix,
    perturbed_dictionary,
)


def _moved(point: ProjPoint, order: tuple[int, ...], a: int, b: int) -> ProjPoint:
    """The point with its coordinates permuted by `order`, then scaled by
    diag(i^a, i^b, 1)."""
    x, y, z = (point.coords[k] for k in order)
    return ProjPoint(x * zeta(4, a), y * zeta(4, b), z)


def _cusp_permutations() -> list[dict[str, str]]:
    """The permutation of the cusps by each of the 96 automorphisms."""
    return [
        {name: CUSP_BY_POINT[_moved(CATALOG[name], order, a, b)] for name in CUSP_NAMES}
        for order, a, b in product(permutations(range(3)), range(4), range(4))
    ]


PERMUTATIONS = _cusp_permutations()


def _respects(permutation: dict[str, str], d) -> bool:
    """Whether the matrix of the automorphism is well defined on d and
    sends d[P] to the class of g(P) - g(B_0) for all twelve cusps P."""
    try:
        matrix = derive_action_matrix(permutation, d)
    except ValueError:
        return False
    image_b0 = permutation["B0"]
    for cusp in CUSP_NAMES:
        # g(B_0) - g(B_0) is the zero divisor, not a support of degree -1
        expected = (ZERO_ELEMENT if cusp == "B0"
                    else class_of({permutation[cusp]: 1, image_b0: -1}, d))
        if matrix(d[cusp]) != expected:
            return False
    return True


def test_the_automorphisms_permute_the_cusps_in_96_ways():
    assert len(PERMUTATIONS) == 96
    assert len({tuple(p.values()) for p in PERMUTATIONS}) == 96
    assert all(sorted(p.values()) == sorted(CUSP_NAMES) for p in PERMUTATIONS)


def test_the_dictionary_respects_every_automorphism():
    assert all(_respects(p, CUSP_DICTIONARY) for p in PERMUTATIONS)


def test_every_dictionary_corruption_breaks_some_automorphism():
    space = fault_space("dictionary")
    assert len(space) == 192
    kept = [
        payload for payload in space
        if all(_respects(p, perturbed_dictionary(payload["entry"], payload["index"],
                                                 payload["delta"]))
               for p in PERMUTATIONS)
    ]
    assert kept == []

