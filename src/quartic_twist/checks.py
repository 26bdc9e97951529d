"""The canonical check registry behind the verification harness.

Every verified identity is a CheckRecord with a stable id, a section key
for filtering, a header string for grouping in text output, a label, a
status, and a JSON-friendly detail ledger.  The twelve entries of the
cusp dictionary, the classes [P - B_0] keyed by cusp P, are data axioms
(established by an external Riemann-Roch computation) and are reported as
SKIPPED(data-axiom); their consistency with the basis divisors and all
of their downstream consequences are OK/FAIL checks.  Every class a check
takes is `class_of` a cusp divisor, a row of `divisors.CUSP_SUPPORTS` or
a cusp moved by an automorphism, read through the run's dictionary.

Ids, headers and labels come from static tables, one row per check,
generated from the name tables: the cusp names, the dictionary entries,
the matrix columns, the certificate names and the theorem table.  A
label that states a constant (`dict-*`, `action-*`, `shift-*`,
`coords-*`) is rendered at import from the clean constant it names, so
the constant is written once and no fault can move a label.  Listing the
ids does no arithmetic.  `_SECTIONS` names each section once, with its
rows and its builder; a builder computes its verdicts in the order of
its rows and `_records` attaches them to the rows.

A request is answered from its dependency cone only.  `_RunData.record`
is the one way to read a run: it builds the section of a data check at
most once per run, and evaluates a theorem at most once, from `record`
lookups of the records its table entry names (`theorems`).  So
`--check ID` builds the section of a data check, or just the sections a
theorem names; `--section theorems` builds the sections all four name,
and the full report every section once.  And a request imports only the
layers its cone reads: the `bitangents` and `brauer` builders import
their layers, a run reads each table on first use, and only the fault
reader and the JSON renderers import `json`.

A Fault corrupts one constant for negative-control runs, and it is the
only way to corrupt a run; a corrupted run must produce at least one FAIL.
It changes one entry of one of the five tables of `_TABLES`, each a
mapping with one rule that applies a fault, both owned by a layer: the
cusp dictionary, the action matrices, the shifts (sigma - 1)[A_0] and the
classes [D_i - D_0] and [E] by `mordell_weil`, the certificate table (a
fault reaches the eleven forms of its bitangent and relation rows) by
`certificates`.  The loader's check, `parse_fault`, applies that rule, a
run applies it once, and `fault_space` is the fault space: each candidate
of a table that `parse_fault` accepts.  Every builder reads the tables
only through `_RunData.table`, so the `bitangents` and `brauer` sections
verify the rows of the run's certificate table and the cocycle reads
u_tau from its row.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional

from . import theorems
from .cyclotomic import MINUS_SQRT2, ONE, SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, TAU, rational
from .curve import (
    CUSP_NAMES,
    SIGMA3_CUSP_TABLE,
    SIGMA5_CUSP_TABLE,
    X,
    Z,
    catalog,
    cusp_permutation,
    is_zeta3_rational,
    on_curve,
    point_name,
    quadratic_points,
)
from .divisors import CUSP_SUPPORTS, Divisor, named_divisor
from .mordell_weil import (
    CLASSES,
    E_BASIS,
    ORDER,
    CUSP_DICTIONARY,
    ENTRY_CUSPS,
    MODULI,
    PRINTED_MATRICES,
    PRINTED_SHIFTS,
    ZERO_ELEMENT,
    class_of,
    cusp_class,
    derive_action_matrix,
    fixed_submodule,
    image_submodule,
    image_table,
    perturbed,
    perturbed_dictionary,
    perturbed_matrices,
    pic1_has_fixed_point,
    subgroup_generated,
    two_torsion_multiples,
)

HEADER_BITANGENTS = "Points of tangency of bitangents"
HEADER_DICTIONARY = "Check linear equivalences of divisors"
HEADER_SIGMA3 = "Action of sigma_3"
HEADER_SIGMA5 = "Action of sigma_5"
HEADER_MATRICES = "Galois action matrices"
HEADER_FIXED = "Calculation of fixed points"
HEADER_TORSOR = "Pic^1 torsor obstruction"
HEADER_BRAUER = "Calculation of Brauer obstruction"
HEADER_QUADRATIC = "Divisors of degree 2 and quadratic points"
HEADER_THEOREMS = "Assembled results"

STATUS_OK = "OK"
STATUS_FAIL = "FAIL"
STATUS_SKIPPED = "SKIPPED(data-axiom)"


Fault = namedtuple("Fault", "target key delta")
Fault.__doc__ = """One corrupted constant, for negative-control runs: `delta`
(an int) is added to the entry at `key` (a tuple) of the run's copy of
the `target` table (a str), one of the five `_TABLES`, by that table's one
rule.  The key is (entry, index) for the dictionary, the entry named as in
`ENTRY_CUSPS` ("alpha3" is the entry of A3), (matrix, row, col) for the
action matrices, (certificate, part, monomial) for the certificate forms
and (name, index) for the shifts (sigma - 1)[A_0] and for the classes
[D_i - D_0] and [E]."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each kind of fault field: what its value must be, and the test of it
_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "integer": ("an integer", _is_int),
    "name": ("a name", lambda v: isinstance(v, str)),
    "coordinate": ("an integer 0..5", lambda v: _is_int(v) and 0 <= v < 6),
    "monomial": ("3 integer exponents",
                 lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_int, v))),
}


_Table = namedtuple("_Table", "fields clean faulted candidates")
_Table.__doc__ = """A table a fault may corrupt: `fields`, the fault file's key
fields in key order, each with its kind (a dict of str to str); `clean`,
which returns the clean table, read on first use; `faulted`, the one
rule that returns the table with `delta` added at a key; and `candidates`,
which returns the (key, delta) pairs `fault_space` tries, keys as in a file."""


def _certificates():
    from . import certificates  # imported by the runs that read the table

    return certificates


def _modular(*parts: Iterable) -> Callable[[], list]:
    """Each delta 1..modulus-1 at each key of the product of the parts,
    whose second part indexes `MODULI`: a class's coordinate, a matrix row."""
    return lambda: [(key, delta) for key in product(*parts)
                    for delta in range(1, MODULI[key[1]])]


def _form_candidates() -> list:
    """-2, -1, 1 and 2 on each monomial of each certificate form."""
    return [((name, part, [a, b, form.degree - a - b]), delta)
            for (name, part), form in _certificates().certificate_forms().items()
            for a in range(form.degree + 1) for b in range(form.degree + 1 - a)
            for delta in (-2, -1, 1, 2)]


_TABLES = {
    "dictionary": _Table({"entry": "name", "index": "coordinate"},
                         lambda: CUSP_DICTIONARY, perturbed_dictionary,
                         _modular(ENTRY_CUSPS, range(6))),
    "matrix": _Table({"matrix": "name", "row": "coordinate", "col": "coordinate"},
                     lambda: PRINTED_MATRICES, perturbed_matrices,
                     _modular(PRINTED_MATRICES, range(6), range(6))),
    "certificate": _Table({"certificate": "name", "part": "name", "monomial": "monomial"},
                          lambda: _certificates().certificate_table(),
                          lambda *key: _certificates().faulted_table(*key), _form_candidates),
    "shift": _Table({"shift": "name", "index": "coordinate"},
                    lambda: PRINTED_SHIFTS, partial(perturbed, PRINTED_SHIFTS),
                    _modular(PRINTED_SHIFTS, range(6))),
    "class": _Table({"class": "name", "index": "coordinate"},
                    lambda: CLASSES, partial(perturbed, CLASSES),
                    _modular(CLASSES, range(6))),
}


def _faulted(fault: Fault) -> Mapping:
    """The fault's table with the fault applied: the one rule that both
    the loader and a run apply."""
    return _TABLES[fault.target].faulted(*fault.key, fault.delta)


def load_fault(path: str) -> Fault:
    """Read a fault file and check it with `parse_fault`."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_fault(json.load(handle))
        except RecursionError as error:
            raise ValueError(str(error)) from None


def parse_fault(data: Any) -> Fault:
    """Check a fault file's payload by applying it.  A fault that is
    malformed, names no entry, makes an entry its table rejects (an action
    matrix that sends e_6 outside the 2-torsion, a monomial of the wrong
    degree) or leaves its table unchanged raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    target = data.get("target")
    if not isinstance(target, str) or target not in _TABLES:
        raise ValueError(f"unknown fault target {target!r}")
    table = _TABLES[target]
    fields = {"target", "delta", *table.fields}
    if data.keys() != fields:
        raise ValueError(
            f"a {target} fault has exactly the fields {', '.join(sorted(fields))},"
            f" not {', '.join(sorted(data))}"
        )
    for field, kind in [("delta", "integer"), *table.fields.items()]:
        what, valid = _KINDS[kind]
        if not valid(data[field]):
            raise ValueError(f"{field} must be {what}, not {data[field]!r}")
    key = tuple(tuple(v) if isinstance(v, list) else v for v in map(data.get, table.fields))
    fault = Fault(target, key, data["delta"])
    try:
        faulted = _faulted(fault)
    except KeyError as error:
        raise ValueError(f"unknown {target} {error}") from None
    except ValueError as error:
        raise ValueError(f"{target} {key}: {error}") from None
    if faulted == table.clean():
        raise ValueError(f"delta {fault.delta} leaves the {target} {key} unchanged")
    return fault


def fault_space(target: str) -> list[dict]:
    """Every valid corruption of one of `_TABLES`, as fault-file payloads
    in the order of its candidates: those that `parse_fault` accepts."""
    table = _TABLES[target]
    space = []
    for key, delta in table.candidates():
        payload = {"target": target, **dict(zip(table.fields, key)), "delta": delta}
        try:
            parse_fault(payload)
        except ValueError:
            continue
        space.append(payload)
    return space


CheckRecord = namedtuple("CheckRecord", "check_id section header label status detail",
                         defaults=(None,))
CheckRecord.__doc__ = """One verified identity: its id, section key, header and
label (each a str), its status (`STATUS_OK`, `STATUS_FAIL` or
`STATUS_SKIPPED`) and a JSON-friendly detail ledger, None by default."""


class Report(namedtuple("Report", "checks")):
    """The records of a run (a tuple of CheckRecord), in canonical order."""

    __slots__ = ()

    @property
    def summary(self) -> dict[str, int]:
        statuses = [record.status for record in self.checks]
        ok, fail = statuses.count(STATUS_OK), statuses.count(STATUS_FAIL)
        return {"ok": ok, "fail": fail, "skipped": len(statuses) - ok - fail}

    @property
    def exit_code(self) -> int:
        return 1 if self.summary["fail"] else 0


class _RunData:
    """One run: its tables, each read through `table`, and every record
    built so far, indexed by id.  `record` is the one way to read a run:
    the checks a theorem names, the theorems themselves and `run_single`
    all go through it."""

    __slots__ = ("tables", "sections", "records")

    def __init__(self, fault: Optional[Fault] = None):
        self.tables: dict[str, Mapping] = {} if fault is None else {fault.target: _faulted(fault)}
        self.sections: dict[str, list[CheckRecord]] = {}
        self.records: dict[str, CheckRecord] = {}

    def table(self, target: str) -> Mapping:
        """The run's copy of one of `_TABLES`: the table the fault
        corrupts, or the clean table, read on first use."""
        if target not in self.tables:
            self.tables[target] = _TABLES[target].clean()
        return self.tables[target]

    def section(self, name: str) -> list[CheckRecord]:
        """The records of one section, built at most once per run through
        its builder.  A builder that raises (a corrupted constant may break a
        whole section) leaves one FAIL record in place of its checks."""
        if name not in self.sections:
            builder = dict(_SECTION_BUILDERS)[name]
            records = _unless_raised(name, lambda: builder(self))
            self.sections[name] = records
            self.records.update((record.check_id, record) for record in records)
        return self.sections[name]

    def record(self, check_id: str) -> CheckRecord:
        """The record of one known check id, built at most once per run.  A
        data check comes from its section, or is the section's builder
        record if the builder raised; a theorem is evaluated alone, from the
        records it names, so it builds only its own cone."""
        section = _SECTION_OF[check_id]
        if section != "theorems":
            self.section(section)
        elif check_id not in self.records:
            self.records[check_id] = _unless_raised(
                section, lambda: [_theorem_record(self, check_id)]
            )[0]
        return self.records.get(check_id) or self.records[f"{section}-builder"]

    def holds(self, patterns: tuple[str, ...]) -> bool:
        """Whether no record of this run that the id patterns name failed; a
        section that could not run counts as failed."""
        return all(self.record(i).status != STATUS_FAIL for i in _named(patterns))


def _unless_raised(section: str, build: Callable[[], list[CheckRecord]]) -> list[CheckRecord]:
    """The built records, or one FAIL record if building them raised."""
    try:
        return build()
    except Exception as error:
        label = f"checks of section {section} could not run"
        detail = {"error": str(error)}
        return [CheckRecord(f"{section}-builder", section, section, label, STATUS_FAIL, detail)]


# ---------------------------------------------------------------------------
# static tables, one row (check id, header, label) per check, and the section
# builders; each builder returns its records in the order of its rows

Row = tuple[str, str, str]


def _rows(header: str, labelled: Iterable[tuple[str, str]]) -> tuple[Row, ...]:
    return tuple((check_id, header, label) for check_id, label in labelled)


def _record(section: str, row: Row, passed: Optional[bool], detail: Any) -> CheckRecord:
    """`passed` is None for a data axiom."""
    check_id, header, label = row
    status = STATUS_SKIPPED if passed is None else STATUS_OK if passed else STATUS_FAIL
    return CheckRecord(check_id, section, header, label, status, detail)


def _records(
    section: str, results: Iterable[tuple[Optional[bool], Any]]
) -> list[CheckRecord]:
    """The section's rows, in order, with the builder's (passed, detail)."""
    return [
        _record(section, row, passed, detail)
        for row, (passed, detail) in zip(SECTION_ROWS[section], results, strict=True)
    ]


def _certificate_detail(check) -> dict:
    """The support, orders and completeness of a certificate with the
    denominator 1, the ledger of any other."""
    if not check.denominator:
        return {
            "support": [point_name(p) for p in check.support],
            "orders": [row.numerator_order for row in check.ledger],
            "complete": check.numerator_complete,
        }
    return {
        "numerator_complete": check.numerator_complete,
        "denominator_complete": check.denominator_complete,
        "ledger": [
            {
                "point": point_name(row.point),
                "numerator": row.numerator_order,
                "denominator": row.denominator_order,
                "claimed": row.claimed,
            }
            for row in check.ledger
        ],
        "reason": check.reason,
    }


# certificate name -> (check id, label): the rows of the certificate table in
# table order, the first eight in the bitangents section, the last three in brauer
_CERTIFICATE_ROWS = {
    "2D0": ("bitangent-2d0", "2 D_0 = div(x + y + z)"),
    "2D1": ("bitangent-2d1", "2 D_1 = div(x - y + z)"),
    "2D2": ("bitangent-2d2", "2 D_2 = div(x + y - z)"),
    "2D3": ("bitangent-2d3", "2 D_3 = div(x - y - z)"),
    "conic": ("bitangent-conic", "D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)"),
    "D1-D0": ("relation-d1-d0", "D_1 - D_0 = 2B_1 + 2B_2 - 4B_0 + div(...)"),
    "D2-D0": ("relation-d2-d0", "D_2 - D_0 = 2A_1 + 2A_2 + 2B_1 + 2B_2 - 8B_0 + div(...)"),
    "D3-D0": ("relation-d3-d0", "D_3 - D_0 = 2A1 + 2A2 - 4B0 + div(...)"),
    "2E": ("brauer-2e", "2E = div((X - z8^5 * Z)/(X - z8 * Z))"),
    "E+sigma3(E)": ("brauer-e-plus", "E + sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^3 * Z)))"),
    "E-sigma3(E)": ("brauer-e-minus", "E - sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^7 * Z)))"),
}
_BITANGENT_ROWS = _rows(
    HEADER_BITANGENTS,
    list(_CERTIFICATE_ROWS.values())[:8]
    + [("e-support", "E = 2B_2 - 2B_0")]
    + [
        (f"coords-{name.lower()}", f"{name.replace('-', ' - ')} = {value}")
        for name, value in CLASSES.items()
    ],
)


def _bitangent_records(data: _RunData) -> list[CheckRecord]:
    from .certificates import bitangent_checks, cusp_relation_certificates, e_divisor_equality

    table, d, classes = data.table("certificate"), data.table("dictionary"), data.table("class")
    checked = bitangent_checks(table) + cusp_relation_certificates(table)
    results = [(check.passed, _certificate_detail(check)) for _, check in checked]
    results.append((e_divisor_equality(), {"divisor": str(named_divisor("E"))}))
    for name, expected in classes.items():  # [D_i - D_0] and [E], in that order
        computed = class_of(CUSP_SUPPORTS[name], d)
        certificate = "e-support" if name == "E" else _CERTIFICATE_ROWS[name][0]
        detail = {"computed": str(computed), "expected": str(expected), "certificate": certificate}
        results.append((computed == expected, detail))
    return _records("bitangents", results)


# the orbit recursions  entry = sigma(e_j) + e_k:  entry, matrix key, j, k
_ORBITS = (("beta3", "s3", 4, 3), ("alpha3", "s5", 1, 4))


_DICTIONARY_ROWS = _rows(
    HEADER_DICTIONARY,
    [
        (f"dict-{entry}", f"{entry[:-1]}_{entry[-1]} = {CUSP_DICTIONARY[cusp]}")
        for entry, cusp in ENTRY_CUSPS.items()
    ]
    + [
        ("dict-basis", "alpha_1, alpha_2, beta_1, beta_2, gamma_1 are e_1..e_5 and beta_0 = 0"),
        (
            "dict-gamma2-e6",
            "gamma_2 agrees with e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2",
        ),
    ]
    + [
        (f"dict-orbit-{entry}", f"{entry[:-1]}_{entry[-1]} = sigma_{key[1]}(e_{j}) + e_{k}")
        for entry, key, j, k in _ORBITS
    ],
)


def _dictionary_records(data: _RunData) -> list[CheckRecord]:
    d, matrices = data.table("dictionary"), data.table("matrix")
    results: list[tuple[Optional[bool], Any]] = [
        (
            None,
            {
                "value": list(d[cusp].c),
                "note": "expansion taken as given; see the dict-consistency checks",
            },
        )
        for cusp in ENTRY_CUSPS.values()
    ]
    basis = tuple(class_of(CUSP_SUPPORTS[f"e{j + 1}"], d) for j in range(6))
    results += [
        (basis[:5] == E_BASIS[:5] and d["B0"] == ZERO_ELEMENT, None),
        (basis[5] == E_BASIS[5], None),
    ]
    results += [
        (d[ENTRY_CUSPS[entry]] == matrices[key](E_BASIS[j - 1]) + E_BASIS[k - 1], None)
        for entry, key, j, k in _ORBITS
    ]
    return _records("dictionary", results)


# matrix key, name, the automorphism and its other lift, printed cusp table, header
_GALOIS = (
    ("s3", "sigma_3", SIGMA3, SIGMA3_ALT, SIGMA3_CUSP_TABLE, HEADER_SIGMA3),
    ("s5", "sigma_5", SIGMA5, SIGMA5_ALT, SIGMA5_CUSP_TABLE, HEADER_SIGMA5),
)
_GALOIS_ROWS = (
    tuple(
        row
        for key, text, _, _, table, header in _GALOIS
        for row in _rows(
            header,
            [
                (
                    f"perm-{key}-{c.lower()}",
                    f"{text}({c[0]}_{c[1]}) = {table[c][0]}_{table[c][1]}",
                )
                for c in CUSP_NAMES
            ]
            + [
                (f"action-{key}-e{j + 1}", f"{text}(e{j + 1}) = {column}")
                for j, column in enumerate(map(PRINTED_MATRICES[key].column, range(6)))
            ],
        )
    )
    + _rows(
        HEADER_MATRICES,
        [(f"matrix-{key}", f"derived matrix of {text} equals its printed form")
         for key, text, *_ in _GALOIS]
        + [(f"lift-{key}", f"both lifts of {text} agree on the Q(zeta_8) catalog data")
           for key, text, *_ in _GALOIS],
    )
)


def _galois_records(data: _RunData) -> list[CheckRecord]:
    results, matrices, lifts = [], [], []
    names = CUSP_NAMES + ("E+", "E-")
    for key, _, sigma, lift, table, _ in _GALOIS:
        computed = cusp_permutation(sigma)
        results += [
            (computed[c] == table[c], {"computed": computed[c], "expected": table[c]})
            for c in CUSP_NAMES
        ]
        # coordinate by coordinate: both images of a normalized point start with 1
        agree = all(
            sigma(c) == lift(c) for n in names for c in catalog(n).coords
        ) and sigma(MINUS_SQRT2) == lift(MINUS_SQRT2)
        lifts.append((agree, {"lifts": [sigma.exponent, lift.exponent]}))
        try:
            derived = derive_action_matrix(computed, data.table("dictionary"))
        except ValueError as error:
            # an ill-defined dictionary derives no map on M: the rows that
            # read the derived matrix fail, the other rows stand
            results += [(False, {"error": str(error)}) for _ in range(6)]
            matrices.append((False, {"error": str(error)}))
            continue
        printed = data.table("matrix")[key]
        for j in range(6):
            expected = PRINTED_MATRICES[key].column(j)
            results.append(
                (
                    derived.column(j) == expected == printed.column(j),
                    {
                        "derived": str(derived.column(j)),
                        "printed": str(printed.column(j)),
                        "expected": str(expected),
                    },
                )
            )
        matrices.append(
            (
                derived == printed,
                {"derived": [list(r) for r in derived.rows],
                 "printed": [list(r) for r in printed.rows]},
            )
        )
    return _records("galois", results + matrices + lifts)


_FIXED_GENERATORS = (2 * E_BASIS[0] + 2 * E_BASIS[1], 2 * E_BASIS[2], 2 * E_BASIS[3])
_FIXED_ROWS = _rows(
    HEADER_FIXED,
    [
        (f"shift-{key}", f"({text} - 1)[A0] = {PRINTED_SHIFTS[text]}")
        for key, text, *_ in theorems.AUTOMORPHISMS
    ]
    + [
        ("involution", "s_3^2 = s_5^2 = 1 and s_3 s_5 = s_5 s_3 on all 2048 elements"),
        ("fixed-size", "fixed classes of s_3 and s_5: exactly 8 elements, all killed by 2"),
        ("fixed-generators", f"fixed classes = <{', '.join(map(str, _FIXED_GENERATORS))}>"),
        ("fixed-mw-generators", "fixed classes = <[D_1 - D_0], [D_2 - D_0], [E]>"),
        ("pic0-relation", "[D_1 - D_0] + [D_2 - D_0] = [D_3 - D_0]"),
        (
            "pic0-subgroup",
            "{0, [D_1 - D_0], [D_2 - D_0], [D_3 - D_0]} has index 2; [E] represents the other coset",
        ),
    ],
)


def _fixed_records(data: _RunData) -> list[CheckRecord]:
    results = []
    d, shifts, matrices = data.table("dictionary"), data.table("shift"), data.table("matrix")
    d1, d2, d3, e = itemgetter("D1-D0", "D2-D0", "D3-D0", "E")(data.table("class"))
    a0 = Divisor.point(catalog("A0"))
    for _, text, sigma, i in theorems.AUTOMORPHISMS:
        from_dictionary = d[f"A{i}"] - d["A0"]
        from_points = cusp_class(a0.galois(sigma) - a0, d)
        printed = shifts[text]
        results.append(
            (
                from_dictionary == printed == from_points,
                {
                    "from_dictionary": str(from_dictionary),
                    "from_points": str(from_points),
                    "printed": str(printed),
                },
            )
        )

    s3, s5 = matrices["s3"], matrices["s5"]
    t3, t5 = image_table(s3), image_table(s5)
    # on all 2048 codes n: t3[t3[n]] = n = t5[t5[n]] and t3[t5[n]] = t5[t3[n]]
    codes = list(range(ORDER))
    involution = (list(map(t3.__getitem__, t3)) == codes == list(map(t5.__getitem__, t5))
                  and list(map(t3.__getitem__, t5)) == list(map(t5.__getitem__, t3)))
    fixed = fixed_submodule([s3, s5])
    fixed_set = set(fixed)
    pic0 = subgroup_generated([d1, d2])
    results += [
        (involution, None),
        (
            len(fixed) == 8 and all(2 * m == ZERO_ELEMENT for m in fixed),
            {"elements": [str(m) for m in fixed]},
        ),
        (fixed_set == subgroup_generated(_FIXED_GENERATORS), None),
        (fixed_set == subgroup_generated([d1, d2, e]), None),
        (d1 + d2 == d3, None),
        (len(pic0) == 4 and e not in pic0 and fixed_set == pic0 | {m + e for m in pic0}, None),
    ]
    return _records("fixed", results)


_TORSOR_ROWS = _rows(
    HEADER_TORSOR,
    [("image-s5", "(sigma_5 - 1)M = 2M (32 elements)")]
    + [
        (
            f"image-congruence-{key}",
            f"every element of ({text} - 1)M satisfies a_2 + a_3 + a_6 = 0 mod 2",
        )
        for key, text, *_ in theorems.AUTOMORPHISMS[1:]
    ]
    + [
        (f"torsor-{key}", f"{text} fixed-point search in degree 1: no solution among 2048")
        for key, text, *_ in theorems.AUTOMORPHISMS
    ],
)


def _torsor_records(data: _RunData) -> list[CheckRecord]:
    s3, s5 = data.table("matrix")["s3"], data.table("matrix")["s5"]
    matrices = {"s3": s3, "s5": s5, "s3s5": s3 * s5}
    image5 = image_submodule(s5)
    results = [
        (image5 == two_torsion_multiples() and len(image5) == 32, {"image_size": len(image5)})
    ]
    for key, *_ in theorems.AUTOMORPHISMS[1:]:
        image = image_submodule(matrices[key])
        results.append((all((a.c[1] + a.c[2] + a.c[5]) % 2 == 0 for a in image), None))
    for key, text, *_ in theorems.AUTOMORPHISMS:
        shift = data.table("shift")[text]
        results.append((not pic1_has_fixed_point(matrices[key], shift), {"shift": str(shift)}))
    return _records("torsor", results)


_BRAUER_ROWS = _rows(
    HEADER_BRAUER,
    list(_CERTIFICATE_ROWS.values())[8:]
    + [
        ("brauer-sigma5-e", "sigma_5(E) = -E"),
        ("brauer-tau-e", "sigma_3 sigma_5(E) = -sigma_3(E)"),
        ("brauer-product", "(X - z8 Z)(X - z8^3 Z)(X - z8^5 Z)(X - z8^7 Z) = X^4 + Z^4"),
        ("brauer-cocycle", "u_tau * tau(u_tau) = Y^4/(X^4 + Z^4) = -1 on the curve"),
        ("brauer-trivial-unit", "the unit u = 1 gives the trivial cocycle"),
        ("brauer-cocycle-identity", "the 2-cocycle identity holds on {1, tau}"),
    ],
)


def _brauer_records(data: _RunData) -> list[CheckRecord]:
    from .brauer import (
        U_TAU,
        cocycle_identity_holds,
        cocycle_table,
        product_of_linear_forms,
        trivial_unit_cocycle_table,
        verify_e_identities,
    )

    certificates = data.table("certificate")
    u_tau = certificates[U_TAU]
    results = [
        (check.passed, _certificate_detail(check))
        for _, check in verify_e_identities(certificates)
    ]
    e = named_divisor("E")
    results += [
        (e.galois(SIGMA5) == -e, None),
        # tau(E) = -sigma_3(E), with sigma_3(E) read from its certificate row
        (e.galois(TAU) + u_tau.claimed == e, None),
        (product_of_linear_forms() == X ** 4 + Z ** 4, None),
    ]
    table = cocycle_table(u_tau)
    value = table[("tau", "tau")]
    results += [
        (value == rational(-1), {"value": str(value)}),
        (all(v == ONE for v in trivial_unit_cocycle_table().values()), None),
        (cocycle_identity_holds(table), None),
    ]
    return _records("brauer", results)


_QUADRATIC_ROWS = _rows(
    HEADER_QUADRATIC,
    [
        ("quadratic-on-curve", "all 8 quadratic points lie on the curve"),
        ("quadratic-field", "all 8 quadratic points are rational over Q(zeta_3)"),
        ("quadratic-pair-d0", "[1 : zeta_3 : zeta_3^2] + [1 : zeta_3^2 : zeta_3] = D_0"),
        ("quadratic-pair-d1", "[1 : -zeta_3 : zeta_3^2] + [1 : -zeta_3^2 : zeta_3] = D_1"),
        ("quadratic-pair-d2", "[1 : zeta_3 : -zeta_3^2] + [1 : zeta_3^2 : -zeta_3] = D_2"),
        ("quadratic-pair-d3", "[1 : -zeta_3 : -zeta_3^2] + [1 : -zeta_3^2 : -zeta_3] = D_3"),
        ("pic2-distinct", "[D_0], [D_1], [D_2], [D_3] are pairwise distinct"),
    ],
)


def _quadratic_records(data: _RunData) -> list[CheckRecord]:
    points = quadratic_points()
    results = [
        (
            len(set(points)) == 8 and all(on_curve(p) for p in points),
            {"points": [str(p) for p in points]},
        ),
        (all(is_zeta3_rational(p) for p in points), None),
    ]
    results += [
        (pair_sum == target, {"pair": str(pair_sum), "target": str(target)})
        for _, pair_sum, target in theorems.quadratic_point_pairs()
    ]
    d1, d2, d3 = itemgetter("D1-D0", "D2-D0", "D3-D0")(data.table("class"))
    results.append((len({ZERO_ELEMENT, d1, d2, d3}) == 4, None))
    return _records("quadratic", results)


_THEOREM_ROWS = tuple((t.check_id, HEADER_THEOREMS, t.label) for t in theorems.THEOREMS)
_THEOREM_OF = {t.check_id: (row, t) for row, t in zip(_THEOREM_ROWS, theorems.THEOREMS)}


def _theorem_record(data: _RunData, check_id: str) -> CheckRecord:
    """One theorem on this run's records: it fails with a constituent or
    with any record its `depends_on` names."""
    row, theorem = _THEOREM_OF[check_id]
    constituents = [
        {"id": c.check_id, "passed": c.control() if c.control else data.holds(c.records)}
        for c in theorem.constituents
    ]
    passed = all(c["passed"] for c in constituents) and all(
        data.holds(theorems.DEPENDENCIES[name]) for name in theorem.depends_on
    )
    detail = {
        "constituents": constituents,
        "assumptions": list(theorem.assumptions),
        "depends_on": list(theorem.depends_on),
        "notes": list(theorem.notes),
    }
    return _record("theorems", row, passed, detail)


def _theorem_records(data: _RunData) -> list[CheckRecord]:
    """The four theorem records, or the FAIL record of the first theorem
    that could not be evaluated in their place."""
    records = [data.record(check_id) for check_id in _THEOREM_OF]
    return [r for r in records if r.check_id == "theorems-builder"][:1] or records


# each section in canonical order: its key, its rows and its builder
_SECTIONS = (
    ("bitangents", _BITANGENT_ROWS, _bitangent_records),
    ("dictionary", _DICTIONARY_ROWS, _dictionary_records),
    ("galois", _GALOIS_ROWS, _galois_records),
    ("fixed", _FIXED_ROWS, _fixed_records),
    ("torsor", _TORSOR_ROWS, _torsor_records),
    ("brauer", _BRAUER_ROWS, _brauer_records),
    ("quadratic", _QUADRATIC_ROWS, _quadratic_records),
    ("theorems", _THEOREM_ROWS, _theorem_records),
)
SECTION_ROWS: dict[str, tuple[Row, ...]] = {key: rows for key, rows, _ in _SECTIONS}
SECTIONS = tuple(SECTION_ROWS)
_SECTION_OF = {row[0]: section for section, rows in SECTION_ROWS.items() for row in rows}
_HEADER_OF = {row[0]: row[1] for rows in SECTION_ROWS.values() for row in rows}
# the builders a run consults; `_RunData.section` reads them at call time, so
# a wrapper that replaces this tuple sees every section built
_SECTION_BUILDERS: tuple[tuple[str, Callable[[_RunData], list[CheckRecord]]], ...] = tuple(
    (key, builder) for key, _, builder in _SECTIONS
)


def _id_matcher(patterns: Iterable[str]) -> Callable[[str], bool]:
    """Whether an id matches any of the patterns.  A pattern is an exact id
    or a prefix followed by one `*`; any other wildcard is rejected."""
    exact, prefixes = set(), []
    for pattern in patterns:
        is_prefix = pattern.endswith("*")
        body = pattern[:-1] if is_prefix else pattern
        if any(ch in body for ch in "*?["):
            raise ValueError(f"id pattern {pattern!r} is not an id or a prefix ending in '*'")
        if is_prefix:
            prefixes.append(body)
        else:
            exact.add(body)
    starts = tuple(prefixes)
    return lambda check_id: check_id in exact or check_id.startswith(starts)


@lru_cache(maxsize=None)
def _named(patterns: tuple[str, ...]) -> tuple[str, ...]:
    """The ids the patterns match, in canonical order.  A pattern that
    matches no id raises ValueError: a theorem cannot rest on nothing."""
    for pattern in patterns:
        if not any(map(_id_matcher((pattern,)), _SECTION_OF)):
            raise ValueError(f"id pattern {pattern!r} names no check")
    return tuple(filter(_id_matcher(patterns), _SECTION_OF))


def build_report(
    section: Optional[str] = None, fault: Optional[Fault] = None
) -> Report:
    """Run the checks of one section (and its cone) or of all, in canonical
    order; failures are data, not errors."""
    if section is not None and section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}")
    data = _RunData(fault)
    names = SECTIONS if section is None else (section,)
    return Report(tuple(record for name in names for record in data.section(name)))


def run_single(check_id: str, fault: Optional[Fault] = None) -> Report:
    """The record of one check, built from its own cone: the section of a
    data check, the sections a theorem names.  If that section could not
    run, or the theorem could not be evaluated, the builder record stands
    in for the check."""
    if check_id not in _SECTION_OF:
        raise ValueError(f"unknown check id {check_id!r}")
    return Report((_RunData(fault).record(check_id),))


def list_check_ids() -> list[str]:
    """Every check id in canonical order, from the static tables."""
    return list(_SECTION_OF)


# ---------------------------------------------------------------------------
# rendering

def render_text(report: Report) -> str:
    lines = []
    header = None
    for record in report.checks:
        if record.header != header:
            if lines:
                lines.append("")
            lines.append(record.header)
            header = record.header
        lines.append(f"{record.label} : {record.status}")
    counts = report.summary
    lines.append("")
    lines.append(
        f"Summary: {counts['ok']} OK, {counts['fail']} FAIL, {counts['skipped']} SKIPPED"
    )
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json

    payload = {
        "checks": [
            {
                "id": record.check_id,
                "section": record.section,
                "label": record.label,
                "status": record.status,
                "detail": record.detail,
            }
            for record in report.checks
        ],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def parse_json(text: str) -> Report:
    import json

    payload = json.loads(text)
    records = []
    for item in payload["checks"]:
        records.append(
            CheckRecord(
                check_id=item["id"],
                section=item["section"],
                # a record of a builder that could not run is headed by its section key
                header=_HEADER_OF.get(item["id"], item["section"]),
                label=item["label"],
                status=item["status"],
                detail=item["detail"],
            )
        )
    return Report(tuple(records))
