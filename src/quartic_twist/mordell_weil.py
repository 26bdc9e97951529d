"""The group of divisor classes of the quartic over Q(zeta_8) and its
Galois module structure.

The group is M = (Z/4)^5 + Z/2 with basis e_1..e_6 of cusp-difference
classes, whose cusp divisors are the rows e1..e6 of
`divisors.CUSP_SUPPORTS`.  The dictionary, keyed by cusp, gives the class
[P - B_0] of each of the twelve cusps P in that basis (the paper's
alpha_i = [A_i - B_0], beta_i = [B_i - B_0], gamma_i = [C_i - B_0]).  It
is carried as constant data (it is established by an external
Riemann-Roch computation and is cross-checked here only for internal
consistency).  `class_of` reads every class the report takes from it:
the sum of n * [P - B_0] over the cusps P of a degree-0 cusp divisor,
B_0 included.  Everything downstream - action matrices, fixed
submodules, images, torsor searches - is recomputed from scratch by
brute-force enumeration of all 2048 elements.

The enumerations run over integer codes: element n of `all_elements()` has
code n, the coordinates packed as two-bit digits (one bit for e_6).  Each
linear map gets one image table, the codes of the images of all 2048
elements, built by linearity from its six columns in 11 doublings of one
comprehension each, and kept per matrix value; 2M is the image of the
doubling map.  Fixed points, images and twisted fixed-point searches
are scans of these tables; codes become `ModElement`s only on return,
by lookup in one cached pass of `all_elements()`.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .curve import CUSP_BY_POINT
from .divisors import CUSP_SUPPORTS, Divisor

MODULI = (4, 4, 4, 4, 4, 2)


class ModElement:
    """Element of (Z/4)^5 + Z/2 in the basis e_1..e_6."""

    __slots__ = ("c",)

    def __init__(self, coords: Iterable[int] = ()):
        coords = tuple(coords)
        if len(coords) > 6:
            raise ValueError("at most 6 coordinates")
        coords = coords + (0,) * (6 - len(coords))
        self.c = tuple(x % m for x, m in zip(coords, MODULI))

    @classmethod
    def _raw(cls, coords: tuple[int, ...]) -> ModElement:
        """The element of six coordinates already reduced modulo MODULI."""
        self = object.__new__(cls)
        self.c = coords
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModElement):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __bool__(self) -> bool:
        return any(self.c)

    def __add__(self, other: ModElement) -> ModElement:
        return ModElement(x + y for x, y in zip(self.c, other.c))

    def __neg__(self) -> ModElement:
        return ModElement(-x for x in self.c)

    def __sub__(self, other: ModElement) -> ModElement:
        return ModElement(x - y for x, y in zip(self.c, other.c))

    def __mul__(self, n: int) -> ModElement:
        if not isinstance(n, int):
            return NotImplemented
        return ModElement(n * x for x in self.c)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, x in enumerate(self.c):
            if x:
                parts.append(f"e_{i + 1}" if x == 1 else f"{x}e_{i + 1}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModElement({self.c})"


ZERO_ELEMENT = ModElement()

E_BASIS = tuple(
    ModElement(tuple(1 if j == i else 0 for j in range(6))) for i in range(6)
)


def all_elements() -> Iterator[ModElement]:
    """All 2048 elements, in lexicographic coordinate order."""
    yield from map(ModElement._raw, itertools.product(*(range(m) for m in MODULI)))


ORDER = 2048

# Bit offset of each coordinate in an element's code: a two-bit digit per
# Z/4 coordinate and one bit for e_6, e_1 most significant, so that codes
# count through `all_elements()` in order.
_SHIFTS = (9, 7, 5, 3, 1, 0)
_LOW_BITS = 0b01010101010  # the low bit of each Z/4 digit
_HIGH_BITS = 0b10101010101  # the high bit of each Z/4 digit, and the e_6 bit


def encode(m: ModElement) -> int:
    """The code of m: its position in `all_elements()`."""
    code = 0
    for x, shift in zip(m.c, _SHIFTS):
        code |= x << shift
    return code


@functools.cache
def _elements() -> tuple[ModElement, ...]:
    return tuple(all_elements())


def decode(code: int) -> ModElement:
    """The element of a code: entry `code` of `all_elements()`."""
    return _elements()[code]


def _add_codes(codes: list[int], y: int) -> list[int]:
    """The codes of x + y for each code x.  Adding the low bits of the
    digits carries at most into each digit's own high bit; the high bits
    add modulo 2."""
    low = y & _LOW_BITS
    return [((x & _LOW_BITS) + low) ^ ((x ^ y) & _HIGH_BITS) for x in codes]


class ActionMatrix:
    """6x6 integer matrix acting on M by  m -> rows . m, with row i read
    modulo the modulus of the target coordinate.

    Well-definedness requires the image of the order-2 generator e_6 to be
    killed by 2, i.e. the first five entries of column 6 must be even.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        if len(rows) != 6 or any(len(row) != 6 for row in rows):
            raise ValueError("need a 6x6 matrix")
        rows = tuple(tuple(x % MODULI[i] for x in row) for i, row in enumerate(rows))
        for i in range(5):
            if rows[i][5] % 2:
                raise ValueError("column 6 must map the order-2 generator to 2-torsion")
        self.rows = rows

    @classmethod
    def identity(cls) -> ActionMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6)))

    @classmethod
    def from_columns(cls, columns: Sequence[ModElement]) -> ActionMatrix:
        return cls(tuple(tuple(col.c[i] for col in columns) for i in range(6)))

    def column(self, j: int) -> ModElement:
        return ModElement(tuple(self.rows[i][j] for i in range(6)))

    def __call__(self, m: ModElement) -> ModElement:
        return ModElement(
            sum(r * x for r, x in zip(row, m.c)) for row in self.rows
        )

    def __mul__(self, other: ActionMatrix) -> ActionMatrix:
        return ActionMatrix(
            tuple(
                tuple(
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(6))
                    for j in range(6)
                )
                for i in range(6)
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ActionMatrix({self.rows})"


# matrices of the two Galois generators on the basis e_1..e_6
PRINTED_S3 = ActionMatrix((
    (2, 1, 0, 0, 3, 0),
    (1, 2, 0, 0, 3, 0),
    (1, 1, 3, 2, 0, 2),
    (1, 3, 0, 3, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 1),
))
PRINTED_S5 = ActionMatrix((
    (1, 2, 0, 0, 2, 0),
    (2, 1, 0, 0, 2, 0),
    (2, 2, 3, 0, 0, 0),
    (2, 0, 2, 3, 0, 2),
    (0, 0, 0, 0, 3, 0),
    (0, 0, 0, 0, 0, 1),
))


# the paper's name of each dictionary entry and its cusp P: alpha_i is the
# class [A_i - B_0], beta_i is [B_i - B_0] and gamma_i is [C_i - B_0]
ENTRY_CUSPS = {
    f"{name}{i}": f"{family}{i}"
    for name, family in (("alpha", "A"), ("beta", "B"), ("gamma", "C"))
    for i in range(4)
}

# Dictionary: cusp P -> the class [P - B_0] in the basis e_1..e_6
Dictionary = Mapping[str, ModElement]

CUSP_DICTIONARY: Dictionary = MappingProxyType({
    "A0": ModElement((2, 1, 2, 1, 0, 0)),
    "A1": ModElement((1, 0, 0, 0, 0, 0)),
    "A2": ModElement((0, 1, 0, 0, 0, 0)),
    "A3": ModElement((1, 2, 2, 3, 0, 0)),
    "B0": ModElement((0, 0, 0, 0, 0, 0)),
    "B1": ModElement((0, 0, 1, 0, 0, 0)),
    "B2": ModElement((0, 0, 0, 1, 0, 0)),
    "B3": ModElement((0, 0, 3, 3, 0, 0)),
    "C0": ModElement((3, 3, 1, 0, 1, 1)),
    "C1": ModElement((0, 0, 0, 0, 1, 0)),
    "C2": ModElement((3, 3, 3, 3, 3, 1)),
    "C3": ModElement((2, 2, 0, 1, 3, 0)),
})


def perturbed(
    table: Mapping[str, ModElement], name: str, index: int, delta: int
) -> dict[str, ModElement]:
    """Copy of a table of classes with delta * e_index added to the class
    `name`: the one rule of a fault on the dictionary, shifts or classes."""
    return {**table, name: table[name] + delta * E_BASIS[index]}


def perturbed_dictionary(name: str, index: int, delta: int) -> Dictionary:
    """Copy of the standard dictionary with coordinate `index` of the entry
    `name` (one of `ENTRY_CUSPS`) bumped by `delta`."""
    return perturbed(CUSP_DICTIONARY, ENTRY_CUSPS[name], index, delta)


def class_of(support: Mapping[str, int], dictionary: Dictionary) -> ModElement:
    """The class of a degree-0 divisor supported on the twelve cusps, keyed
    by cusp name: the sum of n * [P - B_0] over its cusps P, B_0 included."""
    if sum(support.values()) != 0:
        raise ValueError("a cusp class needs a degree-0 divisor")
    total = ZERO_ELEMENT
    for cusp, n in support.items():
        total = total + n * dictionary[cusp]
    return total


def cusp_class(divisor: Divisor, dictionary: Dictionary) -> ModElement:
    """Divisor class of a degree-0 divisor supported on the twelve cusps:
    `class_of` its support, by cusp name."""
    support = {}
    for point, n in divisor.items():
        name = CUSP_BY_POINT.get(point)
        if name is None:
            raise ValueError(f"support point {point} is not a cusp")
        support[name] = n
    return class_of(support, dictionary)


def derive_action_matrix(
    permutation: Mapping[str, str], dictionary: Dictionary
) -> ActionMatrix:
    """Matrix of a Galois element from its cusp permutation: permute the
    cusp divisor underlying each basis class and take its class."""
    return ActionMatrix.from_columns([
        class_of({permutation[cusp]: n for cusp, n in CUSP_SUPPORTS[f"e{i + 1}"].items()},
                 dictionary)
        for i in range(6)
    ])


@functools.lru_cache(maxsize=32)
def image_table(s: ActionMatrix) -> array:
    """Codes of s(m) for all 2048 elements m, indexed by the code of m.

    Built by linearity from the six column images on first use, and kept
    per matrix value, so a corrupted matrix gets its own table.  Shared:
    callers must not modify it.  An unsigned-short array, not a list, so
    that the kept tables cost 4 KB each rather than one int object per
    entry."""
    columns = [sum(s.rows[i][j] << _SHIFTS[i] for i in range(6)) for j in range(6)]
    # images of the one-bit codes, lowest bit first: e_6, e_5, 2e_5, ..., e_1, 2e_1
    images = [columns[5]]
    for column in reversed(columns[:5]):
        images += [column, *_add_codes([column], column)]
    table = [0]
    for image in images:
        table += _add_codes(table, image)
    return array("H", table)


def _minus_identity(s: ActionMatrix) -> ActionMatrix:
    return ActionMatrix(
        tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(s.rows))
    )


def fixed_submodule(matrices: Sequence[ActionMatrix]) -> tuple[ModElement, ...]:
    """All elements fixed by every matrix, by a scan of all 2048 codes."""
    codes: Iterable[int] = range(ORDER)
    for s in matrices:
        table = image_table(s)
        codes = [n for n in codes if table[n] == n]
    return tuple(map(decode, codes))


def image_submodule(s: ActionMatrix) -> frozenset[ModElement]:
    """The image of (s - 1): the distinct entries of its table."""
    return frozenset(map(decode, set(image_table(_minus_identity(s)))))


def two_torsion_multiples() -> frozenset[ModElement]:
    """The subgroup 2M: the image of doubling."""
    doubling = ActionMatrix(tuple(tuple(2 * (i == j) for j in range(6)) for i in range(6)))
    return frozenset(map(decode, set(image_table(doubling))))


def pic1_has_fixed_point(s: ActionMatrix, shift: ModElement) -> bool:
    """Whether the twisted fixed-point equation (s - 1) m = -shift has a
    solution among all 2048 elements; `shift` is the class of
    (sigma - 1) applied to the chosen degree-1 base point."""
    return encode(-shift) in image_table(_minus_identity(s))


def subgroup_generated(generators: Iterable[ModElement]) -> frozenset[ModElement]:
    """Closure of a generating set under addition."""
    generators = tuple(generators)
    members = {ZERO_ELEMENT}
    frontier = [ZERO_ELEMENT]
    while frontier:
        current = frontier.pop()
        for g in generators:
            nxt = current + g
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


# classes of the certified divisor identities, in e-coordinates
CLASS_D1_MINUS_D0 = ModElement((0, 0, 2, 2, 0, 0))
CLASS_D2_MINUS_D0 = ModElement((2, 2, 2, 2, 0, 0))
CLASS_D3_MINUS_D0 = ModElement((2, 2, 0, 0, 0, 0))
CLASS_E = ModElement((0, 0, 0, 2, 0, 0))

# printed shifts (sigma - 1)[A_0] used by the torsor searches
PRINTED_SHIFTS = {
    "sigma_5": ModElement((2, 0, 2, 3, 0, 0)),
    "sigma_3": ModElement((3, 3, 2, 3, 0, 0)),
    "sigma_3 sigma_5": ModElement((3, 1, 0, 2, 0, 0)),
}
