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
ids does no arithmetic.  `SECTION_ROWS` names each section once, with
its rows, and each row carries its own verdict, which maps a run to
(passed, detail).

A request is answered from its dependency cone only.  `_RunData.record`
is the one way to read a run: it evaluates a record's verdict at most
once per run.  Work that rows share (a cusp permutation, a derived
matrix, a selection of verified certificate rows, the fixed submodule,
the cocycle table) is a fact, computed at most once per run by
`_RunData.fact`; a theorem reads the records its table entry names
(`theorems`) through `record`.  So `--check ID` evaluates one verdict and
the facts it reads, a theorem the records it names, and the full report
each record once.  A verdict that raises, or reads a fact that raised,
fails its own record, with the error as its detail.  Every request
imports the seven modules that the static tables read (`cli`, this
registry, `theorems`, `cyclotomic`, `curve`, `divisors`, `mordell_weil`)
and beyond them only the layers its cone reads: the certificate and
Brauer verdicts import theirs, and only the fault reader and the JSON
renderers import `json`.

A Fault corrupts one constant for negative-control runs, and it is the
only way to corrupt a run; a corrupted run must produce at least one FAIL.
It changes one entry of one of the five tables of `_TABLES`, each a
mapping with one rule that applies a fault, both owned by a layer: the
cusp dictionary, the action matrices, the shifts (sigma - 1)[A_0] and the
classes [D_i - D_0] and [E] by `mordell_weil`, the certificate table (a
fault reaches the eleven forms of its bitangent and relation rows) by
`certificates`.  The loader's check, `parse_fault`, applies that rule, a
run applies it once, and `fault_space` is the fault space: each candidate
of a table that `parse_fault` accepts.  Every verdict and fact reads the
tables only through `_RunData.table`, so the certificate rows verified
are those of the run's table and the cocycle reads u_tau from its row.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, partial
from importlib import import_module
from itertools import product
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


def _layer(name: str) -> Any:
    """A layer that only the runs that read it import: `certificates` or
    `brauer`."""
    return import_module(f"{__package__}.{name}")


def _modular(*parts: Iterable) -> Callable[[], list]:
    """Each delta 1..modulus-1 at each key of the product of the parts,
    whose second part indexes `MODULI`: a class's coordinate, a matrix row."""
    return lambda: [(key, delta) for key in product(*parts)
                    for delta in range(1, MODULI[key[1]])]


_TABLES = {
    "dictionary": _Table({"entry": "name", "index": "coordinate"},
                         lambda: CUSP_DICTIONARY, perturbed_dictionary,
                         _modular(ENTRY_CUSPS, range(6))),
    "matrix": _Table({"matrix": "name", "row": "coordinate", "col": "coordinate"},
                     lambda: PRINTED_MATRICES, perturbed_matrices,
                     _modular(PRINTED_MATRICES, range(6), range(6))),
    "certificate": _Table({"certificate": "name", "part": "name", "monomial": "monomial"},
                          lambda: _layer("certificates").certificate_table(),
                          lambda *key: _layer("certificates").faulted_table(*key),
                          lambda: _layer("certificates").form_candidates()),
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
    """Read a fault file and check it with `parse_fault`; a repeated key or
    a file of more than 2^20 characters raises ValueError."""
    import json

    limit = 1 << 20  # a fault file is a JSON object of a few dozen characters

    def unique(pairs: list) -> dict:
        repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
        if repeated:
            raise ValueError(f"duplicate key {repeated[0]!r}")
        return dict(pairs)

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read(limit + 1)
    if len(text) > limit:
        raise ValueError(f"{path} is larger than {limit} characters")
    try:
        return parse_fault(json.loads(text, object_pairs_hook=unique))
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


CheckRecord = namedtuple("CheckRecord", "check_id section header label status detail")
CheckRecord.__doc__ = """One verified identity: its id, section key, header and
label (each a str), its status (`STATUS_OK`, `STATUS_FAIL` or
`STATUS_SKIPPED`) and a JSON-friendly detail ledger, or None."""


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
    """One run: its tables, each read through `table`, the facts its
    records share, each computed through `fact`, and every record evaluated
    so far, indexed by id.  `record` is the one way to read a run: the
    checks a theorem names, the theorems themselves and `run_single` all go
    through it."""

    __slots__ = ("tables", "facts", "records")

    def __init__(self, fault: Optional[Fault] = None):
        self.tables: dict[str, Mapping] = {} if fault is None else {fault.target: _faulted(fault)}
        self.facts: dict[tuple, tuple[Any, Optional[Exception]]] = {}
        self.records: dict[str, CheckRecord] = {}

    def table(self, target: str) -> Mapping:
        """The run's copy of one of `_TABLES`: the table the fault
        corrupts, or the clean table, read on first use."""
        if target not in self.tables:
            self.tables[target] = _TABLES[target].clean()
        return self.tables[target]

    def fact(self, compute: Callable[..., Any], *args: Any) -> Any:
        """`compute(*args, self)`, computed at most once per run.  An error
        it raised is kept and raised again to each reader, uncomputed."""
        key = (compute, *args)
        if key not in self.facts:
            try:
                self.facts[key] = compute(*args, self), None
            except Exception as error:
                self.facts[key] = None, error
        value, error = self.facts[key]
        if error is not None:
            raise error
        return value

    def record(self, check_id: str) -> CheckRecord:
        """The record of one known check id, evaluated at most once per run
        through `_SECTION_BUILDERS`.  A verdict that raises, or reads a fact
        that raised, fails its own record, with the error as its detail."""
        if check_id not in self.records:
            section, row = _ROW_OF[check_id]
            try:
                passed, detail = next(e for s, e in _SECTION_BUILDERS if s == section)(self, row)
            except Exception as error:
                passed, detail = False, {"error": str(error)}
            status = STATUS_SKIPPED if passed is None else STATUS_OK if passed else STATUS_FAIL
            self.records[check_id] = CheckRecord(check_id, section, *row[1:3], status, detail)
        return self.records[check_id]

    def holds(self, patterns: tuple[str, ...]) -> bool:
        """Whether no record of this run that the id patterns name failed."""
        return all(self.record(i).status != STATUS_FAIL for i in _named(patterns))


# ---------------------------------------------------------------------------
# static tables, one row (check id, header, label, verdict) per check.  A
# verdict maps a run to (passed, detail), passed None for a data axiom, and
# reads the work it shares with other rows as a fact of the run.  Verdicts
# and facts take their parameters first and the run last, so a row binds
# its verdict's parameters with `partial`.

Verdict = Callable[[_RunData], tuple[Optional[bool], Any]]
Row = tuple[str, str, str, Verdict]


def _rows(header: str, labelled: Iterable[tuple[str, str, Verdict]]) -> tuple[Row, ...]:
    return tuple((check_id, header, label, verdict) for check_id, label, verdict in labelled)


def _classes(run: _RunData, *names: str) -> list:
    """The run's classes [D_i - D_0] and [E], by name."""
    return [run.table("class")[name] for name in names]


# the three selections of certificate rows, each verified once per run by
# the layer function that selects it; a section takes its rows by selection
def _bitangent_checks(run: _RunData) -> dict:
    return dict(_layer("certificates").bitangent_checks(run.table("certificate")))


def _relation_checks(run: _RunData) -> dict:
    return dict(_layer("certificates").cusp_relation_certificates(run.table("certificate")))


def _e_checks(run: _RunData) -> dict:
    return dict(_layer("brauer").verify_e_identities(run.table("certificate")))


# certificate name -> (selection, check id, label), in the order of the certificate table
_CERTIFICATE_ROWS = {
    "2D0": (_bitangent_checks, "bitangent-2d0", "2 D_0 = div(x + y + z)"),
    "2D1": (_bitangent_checks, "bitangent-2d1", "2 D_1 = div(x - y + z)"),
    "2D2": (_bitangent_checks, "bitangent-2d2", "2 D_2 = div(x + y - z)"),
    "2D3": (_bitangent_checks, "bitangent-2d3", "2 D_3 = div(x - y - z)"),
    "conic": (_bitangent_checks, "bitangent-conic", "D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)"),
    "D1-D0": (_relation_checks, "relation-d1-d0", "D_1 - D_0 = 2B_1 + 2B_2 - 4B_0 + div(...)"),
    "D2-D0": (_relation_checks, "relation-d2-d0",
              "D_2 - D_0 = 2A_1 + 2A_2 + 2B_1 + 2B_2 - 8B_0 + div(...)"),
    "D3-D0": (_relation_checks, "relation-d3-d0", "D_3 - D_0 = 2A1 + 2A2 - 4B0 + div(...)"),
    "2E": (_e_checks, "brauer-2e", "2E = div((X - z8^5 * Z)/(X - z8 * Z))"),
    "E+sigma3(E)": (_e_checks, "brauer-e-plus",
                    "E + sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^3 * Z)))"),
    "E-sigma3(E)": (_e_checks, "brauer-e-minus",
                    "E - sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^7 * Z)))"),
}


def _certificate(selection: Callable[[_RunData], dict], name: str, run: _RunData):
    """A certificate row's verdict: the support, orders and completeness of a
    certificate with the denominator 1, the ledger of any other."""
    check = run.fact(selection)[name]
    if run.table("certificate")[name].denominator is None:
        return check.passed, {
            "support": [point_name(row.point) for row in check.ledger],
            "orders": [row.numerator_order for row in check.ledger],
            "complete": check.numerator_complete,
        }
    return check.passed, {
        "numerator_complete": check.numerator_complete,
        "denominator_complete": check.denominator_complete,
        "ledger": [
            {"point": point_name(row.point), "numerator": row.numerator_order,
             "denominator": row.denominator_order, "claimed": row.claimed}
            for row in check.ledger
        ],
        "reason": check.reason,
    }


def _certified(*selections: Callable[[_RunData], dict]) -> tuple:
    """The rows of the certificates that the selections verify, in table order."""
    return tuple(
        (check_id, label, partial(_certificate, selection, name))
        for name, (selection, check_id, label) in _CERTIFICATE_ROWS.items()
        if selection in selections
    )


def _coords(name: str, run: _RunData):
    """[D_i - D_0] or [E] from its cusp support, against the class table."""
    computed = class_of(CUSP_SUPPORTS[name], run.table("dictionary"))
    expected = run.table("class")[name]
    certificate = "e-support" if name == "E" else _CERTIFICATE_ROWS[name][1]
    return computed == expected, {
        "computed": str(computed), "expected": str(expected), "certificate": certificate,
    }


_BITANGENT_ROWS = _rows(
    HEADER_BITANGENTS,
    _certified(_bitangent_checks, _relation_checks)
    + (("e-support", "E = 2B_2 - 2B_0", lambda run: (
        _layer("certificates").e_divisor_equality(), {"divisor": str(named_divisor("E"))}
    )),)
    + tuple(
        (f"coords-{name.lower()}", f"{name.replace('-', ' - ')} = {value}", partial(_coords, name))
        for name, value in CLASSES.items()  # [D_i - D_0] and [E], in that order
    ),
)


# the orbit recursions  entry = sigma(e_j) + e_k:  entry, matrix key, j, k
_ORBITS = (("beta3", "s3", 4, 3), ("alpha3", "s5", 1, 4))


def _axiom(cusp: str, run: _RunData):
    note = "expansion taken as given; see the dict-consistency checks"
    return None, {"value": list(run.table("dictionary")[cusp].c), "note": note}


def _basis(run: _RunData) -> tuple:
    """The classes of the basis divisors e_1..e_6 through the run's dictionary."""
    return tuple(class_of(CUSP_SUPPORTS[f"e{j + 1}"], run.table("dictionary")) for j in range(6))


def _orbit(entry: str, key: str, j: int, k: int, run: _RunData):
    image = run.table("matrix")[key](E_BASIS[j - 1]) + E_BASIS[k - 1]
    return run.table("dictionary")[ENTRY_CUSPS[entry]] == image, None


_DICTIONARY_ROWS = _rows(
    HEADER_DICTIONARY,
    [
        (f"dict-{entry}", f"{entry[:-1]}_{entry[-1]} = {CUSP_DICTIONARY[cusp]}",
         partial(_axiom, cusp))
        for entry, cusp in ENTRY_CUSPS.items()
    ]
    + [
        ("dict-basis", "alpha_1, alpha_2, beta_1, beta_2, gamma_1 are e_1..e_5 and beta_0 = 0",
         lambda run: (run.fact(_basis)[:5] == E_BASIS[:5]
                      and run.table("dictionary")["B0"] == ZERO_ELEMENT, None)),
        ("dict-gamma2-e6",
         "gamma_2 agrees with e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2",
         lambda run: (run.fact(_basis)[5] == E_BASIS[5], None)),
    ]
    + [
        (f"dict-orbit-{entry}", f"{entry[:-1]}_{entry[-1]} = sigma_{key[1]}(e_{j}) + e_{k}",
         partial(_orbit, entry, key, j, k))
        for entry, key, j, k in _ORBITS
    ],
)


# matrix key -> name, the automorphism and its other lift, printed cusp table, header
_GALOIS = {
    "s3": ("sigma_3", SIGMA3, SIGMA3_ALT, SIGMA3_CUSP_TABLE, HEADER_SIGMA3),
    "s5": ("sigma_5", SIGMA5, SIGMA5_ALT, SIGMA5_CUSP_TABLE, HEADER_SIGMA5),
}


def _permutation(key: str, run: _RunData) -> dict[str, str]:
    return cusp_permutation(_GALOIS[key][1])


def _derived(key: str, run: _RunData):
    """The matrix derived from the cusp permutation through the run's
    dictionary; an ill-defined dictionary derives no map on M and raises."""
    return derive_action_matrix(run.fact(_permutation, key), run.table("dictionary"))


def _perm(key: str, cusp: str, run: _RunData):
    computed, expected = run.fact(_permutation, key)[cusp], _GALOIS[key][3][cusp]
    return computed == expected, {"computed": computed, "expected": expected}


def _action(key: str, j: int, run: _RunData):
    derived, printed = run.fact(_derived, key).column(j), run.table("matrix")[key].column(j)
    return derived == printed, {"derived": str(derived), "printed": str(printed)}


def _matrix(key: str, run: _RunData):
    derived, printed = run.fact(_derived, key), run.table("matrix")[key]
    return derived == printed, {"derived": [list(r) for r in derived.rows],
                                "printed": [list(r) for r in printed.rows]}


def _lift(key: str, run: _RunData):
    _, sigma, lift, *_ = _GALOIS[key]
    # coordinate by coordinate: both images of a normalized point start with 1
    agree = all(
        sigma(c) == lift(c) for n in CUSP_NAMES + ("E+", "E-") for c in catalog(n).coords
    ) and sigma(MINUS_SQRT2) == lift(MINUS_SQRT2)
    return agree, {"lifts": [sigma.exponent, lift.exponent]}


_GALOIS_ROWS = (
    tuple(
        row
        for key, (text, _, _, table, header) in _GALOIS.items()
        for row in _rows(
            header,
            [
                (f"perm-{key}-{c.lower()}", f"{text}({c[0]}_{c[1]}) = {table[c][0]}_{table[c][1]}",
                 partial(_perm, key, c))
                for c in CUSP_NAMES
            ]
            + [
                (f"action-{key}-e{j + 1}", f"{text}(e{j + 1}) = {column}", partial(_action, key, j))
                for j, column in enumerate(map(PRINTED_MATRICES[key].column, range(6)))
            ],
        )
    )
    + _rows(
        HEADER_MATRICES,
        [(f"matrix-{key}", f"derived matrix of {text} equals its printed form",
          partial(_matrix, key)) for key, (text, *_) in _GALOIS.items()]
        + [(f"lift-{key}", f"both lifts of {text} agree on the Q(zeta_8) catalog data",
            partial(_lift, key)) for key, (text, *_) in _GALOIS.items()],
    )
)


def _a0(run: _RunData):
    return Divisor.point(catalog("A0"))


def _shift(text: str, sigma, i: int, run: _RunData):
    d, a0 = run.table("dictionary"), run.fact(_a0)
    from_dictionary = d[f"A{i}"] - d["A0"]
    from_points = cusp_class(a0.galois(sigma) - a0, d)
    printed = run.table("shift")[text]
    return from_dictionary == printed == from_points, {
        "from_dictionary": str(from_dictionary),
        "from_points": str(from_points),
        "printed": str(printed),
    }


def _involution(run: _RunData):
    t3, t5 = (image_table(run.table("matrix")[key]) for key in ("s3", "s5"))
    # on all 2048 codes n: t3[t3[n]] = n = t5[t5[n]] and t3[t5[n]] = t5[t3[n]]
    codes = list(range(ORDER))
    return (list(map(t3.__getitem__, t3)) == codes == list(map(t5.__getitem__, t5))
            and list(map(t3.__getitem__, t5)) == list(map(t5.__getitem__, t3))), None


def _fixed(run: _RunData) -> tuple:
    return fixed_submodule([run.table("matrix")["s3"], run.table("matrix")["s5"]])


def _fixed_size(run: _RunData):
    fixed = run.fact(_fixed)
    return (len(fixed) == 8 and all(2 * m == ZERO_ELEMENT for m in fixed),
            {"elements": [str(m) for m in fixed]})


def _pic0_relation(run: _RunData):
    d1, d2, d3 = _classes(run, "D1-D0", "D2-D0", "D3-D0")
    return d1 + d2 == d3, None


def _pic0_subgroup(run: _RunData):
    d1, d2, e = _classes(run, "D1-D0", "D2-D0", "E")
    pic0 = subgroup_generated([d1, d2])
    return (len(pic0) == 4 and e not in pic0
            and set(run.fact(_fixed)) == pic0 | {m + e for m in pic0}), None


_FIXED_GENERATORS = (2 * E_BASIS[0] + 2 * E_BASIS[1], 2 * E_BASIS[2], 2 * E_BASIS[3])
_FIXED_ROWS = _rows(
    HEADER_FIXED,
    [
        (f"shift-{key}", f"({text} - 1)[A0] = {PRINTED_SHIFTS[text]}",
         partial(_shift, text, sigma, i))
        for key, text, sigma, i in theorems.AUTOMORPHISMS
    ]
    + [
        ("involution", "s_3^2 = s_5^2 = 1 and s_3 s_5 = s_5 s_3 on all 2048 elements", _involution),
        ("fixed-size", "fixed classes of s_3 and s_5: exactly 8 elements, all killed by 2",
         _fixed_size),
        ("fixed-generators", f"fixed classes = <{', '.join(map(str, _FIXED_GENERATORS))}>",
         lambda run: (set(run.fact(_fixed)) == subgroup_generated(_FIXED_GENERATORS), None)),
        ("fixed-mw-generators", "fixed classes = <[D_1 - D_0], [D_2 - D_0], [E]>",
         lambda run: (set(run.fact(_fixed))
                      == subgroup_generated(_classes(run, "D1-D0", "D2-D0", "E")), None)),
        ("pic0-relation", "[D_1 - D_0] + [D_2 - D_0] = [D_3 - D_0]", _pic0_relation),
        ("pic0-subgroup",
         "{0, [D_1 - D_0], [D_2 - D_0], [D_3 - D_0]} has index 2; [E] represents the other coset",
         _pic0_subgroup),
    ],
)


def _searched(key: str, run: _RunData):
    """The matrix of a searched automorphism: printed, or s_3 s_5."""
    matrices = run.table("matrix")
    return matrices["s3"] * matrices["s5"] if key == "s3s5" else matrices[key]


def _image_s5(run: _RunData):
    image = image_submodule(run.fact(_searched, "s5"))
    return image == two_torsion_multiples() and len(image) == 32, {"image_size": len(image)}


def _congruence(key: str, run: _RunData):
    image = image_submodule(run.fact(_searched, key))
    return all((a.c[1] + a.c[2] + a.c[5]) % 2 == 0 for a in image), None


def _torsor(key: str, text: str, run: _RunData):
    shift = run.table("shift")[text]
    return not pic1_has_fixed_point(run.fact(_searched, key), shift), {"shift": str(shift)}


_TORSOR_ROWS = _rows(
    HEADER_TORSOR,
    [("image-s5", "(sigma_5 - 1)M = 2M (32 elements)", _image_s5)]
    + [
        (f"image-congruence-{key}",
         f"every element of ({text} - 1)M satisfies a_2 + a_3 + a_6 = 0 mod 2",
         partial(_congruence, key))
        for key, text, *_ in theorems.AUTOMORPHISMS[1:]
    ]
    + [
        (f"torsor-{key}", f"{text} fixed-point search in degree 1: no solution among 2048",
         partial(_torsor, key, text))
        for key, text, *_ in theorems.AUTOMORPHISMS
    ],
)


def _u_tau(run: _RunData):
    """The certificate row of u_tau in the run's table."""
    return run.table("certificate")[_layer("brauer").U_TAU]


def _cocycle(run: _RunData) -> dict:
    return _layer("brauer").cocycle_table(_u_tau(run))


def _e(run: _RunData):
    return named_divisor("E")


def _tau_e(run: _RunData):
    e = run.fact(_e)
    # tau(E) = -sigma_3(E), with sigma_3(E) read from the row of u_tau
    return e.galois(TAU) + _u_tau(run).claimed == e, None


def _cocycle_value(run: _RunData):
    value = run.fact(_cocycle)[("tau", "tau")]
    return value == rational(-1), {"value": str(value)}


_BRAUER_ROWS = _rows(
    HEADER_BRAUER,
    _certified(_e_checks)
    + (
        ("brauer-sigma5-e", "sigma_5(E) = -E",
         lambda run: (run.fact(_e).galois(SIGMA5) == -run.fact(_e), None)),
        ("brauer-tau-e", "sigma_3 sigma_5(E) = -sigma_3(E)", _tau_e),
        ("brauer-product", "(X - z8 Z)(X - z8^3 Z)(X - z8^5 Z)(X - z8^7 Z) = X^4 + Z^4",
         lambda run: (_layer("brauer").product_of_linear_forms() == X ** 4 + Z ** 4, None)),
        ("brauer-cocycle", "u_tau * tau(u_tau) = Y^4/(X^4 + Z^4) = -1 on the curve",
         _cocycle_value),
        ("brauer-trivial-unit", "the unit u = 1 gives the trivial cocycle",
         lambda run: (all(v == ONE for v in _layer("brauer").trivial_unit_cocycle_table().values()),
                      None)),
        ("brauer-cocycle-identity", "the 2-cocycle identity holds on {1, tau}",
         lambda run: (_layer("brauer").cocycle_identity_holds(run.fact(_cocycle)), None)),
    ),
)


def _pairs(run: _RunData) -> list:
    return theorems.quadratic_point_pairs()


def _pair(i: int, run: _RunData):
    _, pair_sum, target = run.fact(_pairs)[i]
    return pair_sum == target, {"pair": str(pair_sum), "target": str(target)}


def _on_curve(run: _RunData):
    points = quadratic_points()
    return (len(set(points)) == 8 and all(on_curve(p) for p in points),
            {"points": [str(p) for p in points]})


_QUADRATIC_ROWS = _rows(
    HEADER_QUADRATIC,
    [
        ("quadratic-on-curve", "all 8 quadratic points lie on the curve", _on_curve),
        ("quadratic-field", "all 8 quadratic points are rational over Q(zeta_3)",
         lambda run: (all(is_zeta3_rational(p) for p in quadratic_points()), None)),
    ]
    + [
        (f"quadratic-pair-d{i}", f"{label} = D_{i}", partial(_pair, i))
        for i, label in enumerate((
            "[1 : zeta_3 : zeta_3^2] + [1 : zeta_3^2 : zeta_3]",
            "[1 : -zeta_3 : zeta_3^2] + [1 : -zeta_3^2 : zeta_3]",
            "[1 : zeta_3 : -zeta_3^2] + [1 : zeta_3^2 : -zeta_3]",
            "[1 : -zeta_3 : -zeta_3^2] + [1 : -zeta_3^2 : -zeta_3]",
        ))
    ]
    + [
        ("pic2-distinct", "[D_0], [D_1], [D_2], [D_3] are pairwise distinct",
         lambda run: (len({ZERO_ELEMENT, *_classes(run, "D1-D0", "D2-D0", "D3-D0")}) == 4, None)),
    ],
)


def _theorem(theorem: theorems.Theorem, run: _RunData):
    """One theorem on this run's records: it fails with a constituent or
    with any record its `depends_on` names."""
    constituents = [
        {"id": c.check_id, "passed": c.control() if c.control else run.holds(c.records)}
        for c in theorem.constituents
    ]
    passed = all(c["passed"] for c in constituents) and all(
        run.holds(theorems.DEPENDENCIES[name]) for name in theorem.depends_on
    )
    return passed, {
        "constituents": constituents,
        "assumptions": list(theorem.assumptions),
        "depends_on": list(theorem.depends_on),
        "notes": list(theorem.notes),
    }


_THEOREM_ROWS = _rows(
    HEADER_THEOREMS, [(t.check_id, t.label, partial(_theorem, t)) for t in theorems.THEOREMS]
)


# each section in canonical order, with its rows
SECTION_ROWS: dict[str, tuple[Row, ...]] = {
    "bitangents": _BITANGENT_ROWS,
    "dictionary": _DICTIONARY_ROWS,
    "galois": _GALOIS_ROWS,
    "fixed": _FIXED_ROWS,
    "torsor": _TORSOR_ROWS,
    "brauer": _BRAUER_ROWS,
    "quadratic": _QUADRATIC_ROWS,
    "theorems": _THEOREM_ROWS,
}
SECTIONS = tuple(SECTION_ROWS)
_ROW_OF = {row[0]: (section, row) for section, rows in SECTION_ROWS.items() for row in rows}


def _evaluate(run: _RunData, row: Row):
    return row[3](run)


# each section with the evaluation of its rows: `_RunData.record` scans this
# tuple at call time, so a wrapper that replaces it sees every record evaluated
_SECTION_BUILDERS = tuple((section, _evaluate) for section in SECTIONS)


def _row_of(check_id: str) -> tuple[str, Row]:
    """The section and row of a check id; an unknown id raises ValueError."""
    if check_id not in _ROW_OF:
        raise ValueError(f"unknown check id {check_id!r}")
    return _ROW_OF[check_id]


@lru_cache(maxsize=None)
def _named(patterns: tuple[str, ...]) -> tuple[str, ...]:
    """The ids the patterns match, in canonical order.  A pattern is an id
    or a prefix and one `*`; any other wildcard raises ValueError, before a
    pattern that matches no id does: a theorem cannot rest on nothing."""
    for pattern in patterns:
        if any(ch in pattern.removesuffix("*") for ch in "*?["):
            raise ValueError(f"id pattern {pattern!r} is not an id or a prefix ending in '*'")
    named = set()
    for pattern in patterns:
        prefix = pattern.removesuffix("*")
        ids = {i for i in _ROW_OF if (i.startswith(prefix) if prefix != pattern else i == pattern)}
        if not ids:
            raise ValueError(f"id pattern {pattern!r} names no check")
        named |= ids
    return tuple(i for i in _ROW_OF if i in named)


def build_report(section: Optional[str] = None, fault: Optional[Fault] = None) -> Report:
    """Run the checks of one section (and its cone) or of all, in canonical
    order; failures are data, not errors."""
    if section is not None and section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}")
    data = _RunData(fault)
    names = SECTIONS if section is None else (section,)
    return Report(tuple(data.record(row[0]) for name in names for row in SECTION_ROWS[name]))


def run_single(check_id: str, fault: Optional[Fault] = None) -> Report:
    """The record of one check, evaluated from its own cone: its verdict
    and the facts it reads, or for a theorem the records it names."""
    _row_of(check_id)
    return Report((_RunData(fault).record(check_id),))


def list_check_ids() -> list[str]:
    """Every check id in canonical order, from the static tables."""
    return list(_ROW_OF)


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
    """The report `render_json` rendered; an id that names no row raises ValueError."""
    import json

    return Report(tuple(
        CheckRecord(item["id"], item["section"], _row_of(item["id"])[1][1], item["label"],
                    item["status"], item["detail"])
        for item in json.loads(text)["checks"]
    ))
