"""The canonical check registry behind the verification harness.

Every verified identity is a CheckRecord with a stable id, a section key
for filtering, a header string for grouping in text output, a label, a
status, and a JSON-friendly detail ledger.  The twelve dictionary
expansions are data axioms (established by an external Riemann-Roch
computation) and are reported as SKIPPED(data-axiom); their internal
consistency and all of their downstream consequences are OK/FAIL checks.

Ids, headers and labels come from static tables, one row per check
(`SECTION_ROWS`), generated from the name tables: the cusp names, the
dictionary entries, the printed action-table columns, the certificate
names and the theorem table.  So listing the ids does no arithmetic.  A
section builder computes its verdicts in the order of its rows and
`_records` attaches them to the rows.

A request is answered from its dependency cone only.  `_RunData.section`
builds a section at most once per run, after the sections its builder
reads (only the theorems read other sections), in canonical order:
`--check ID` builds the section of ID and its cone, `--section S` the
cone of S, and the full report every section.  A theorem is the
conjunction of the run's records its table entry names (`theorems`).

A Fault corrupts one constant for negative-control runs; a corrupted run
must produce at least one FAIL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional

from . import theorems
from .brauer import (
    cocycle_identity_holds,
    cocycle_table,
    cocycle_tau_tau,
    product_of_linear_forms,
    trivial_unit_cocycle_table,
    verify_e_identities,
)
from .certificates import (
    MINUS_SQRT2,
    PERTURBABLE_FORMS,
    Perturbation,
    bitangent_checks,
    cusp_relation_certificates,
    cusp_representative,
    e_divisor_equality,
)
from .cyclotomic import ONE, SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, rational
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
from .divisors import Divisor, named_divisor
from .mordell_weil import (
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
    Dictionary,
    ModElement,
    cusp_class,
    derive_action_matrix,
    fixed_submodule,
    image_submodule,
    image_table,
    perturbed_dictionary,
    pic1_has_fixed_point,
    subgroup_generated,
    two_torsion_multiples,
)

SECTIONS = (
    "bitangents",
    "dictionary",
    "galois",
    "fixed",
    "torsor",
    "brauer",
    "quadratic",
    "theorems",
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


@dataclass(frozen=True)
class Fault:
    """One corrupted constant, for negative-control runs."""

    target: str  # "dictionary" | "matrix" | "certificate"
    name: str
    delta: int
    index: int = 0
    row: int = 0
    col: int = 0
    part: str = ""
    monomial: tuple[int, int, int] = (0, 0, 0)


_FAULT_FIELDS = {
    "dictionary": {"target", "entry", "index", "delta"},
    "matrix": {"target", "matrix", "row", "col", "delta"},
    "certificate": {"target", "certificate", "part", "monomial", "delta"},
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coordinate(data: dict, key: str) -> int:
    value = data[key]
    if not _is_int(value) or not 0 <= value < 6:
        raise ValueError(f"{key} must be an integer 0..5, not {value!r}")
    return value


def load_fault(path: str) -> Fault:
    """Read a fault file.  A fault that is malformed, names nothing, or
    leaves its constant unchanged raises ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    target = data.get("target")
    if not isinstance(target, str) or target not in _FAULT_FIELDS:
        raise ValueError(f"unknown fault target {target!r}")
    fields = _FAULT_FIELDS[target]
    if data.keys() != fields:
        raise ValueError(
            f"a {target} fault has exactly the fields {', '.join(sorted(fields))}"
        )
    delta = data["delta"]
    if not _is_int(delta):
        raise ValueError(f"delta must be an integer, not {delta!r}")
    if target == "dictionary":
        if not isinstance(data["entry"], str) or data["entry"] not in _DICTIONARY_LABELS:
            raise ValueError(f"unknown dictionary entry {data['entry']!r}")
        index = _coordinate(data, "index")
        fault = Fault(target, data["entry"], delta, index=index)
        unchanged = delta % MODULI[index] == 0
    elif target == "matrix":
        if data["matrix"] not in ("s3", "s5"):
            raise ValueError(f"unknown matrix {data['matrix']!r}")
        row, col = _coordinate(data, "row"), _coordinate(data, "col")
        fault = Fault(target, data["matrix"], delta, row=row, col=col)
        unchanged = delta % MODULI[row] == 0
    else:
        form = (data["certificate"], data["part"])
        if not all(isinstance(x, str) for x in form) or form not in PERTURBABLE_FORMS:
            raise ValueError(f"unknown certificate form {form!r}")
        degree, monomial = PERTURBABLE_FORMS[form], data["monomial"]
        if not (
            isinstance(monomial, list)
            and len(monomial) == 3
            and all(_is_int(e) and e >= 0 for e in monomial)
            and sum(monomial) == degree
        ):
            raise ValueError(
                f"monomial must be 3 exponents >= 0 of degree {degree}, not {monomial!r}"
            )
        fault = Fault(target, form[0], delta, part=form[1], monomial=tuple(monomial))
        unchanged = delta == 0
    if unchanged:
        raise ValueError(f"delta {delta} leaves the {target} unchanged")
    return fault


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    section: str
    header: str
    label: str
    status: str
    detail: Any = None


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckRecord, ...]

    @property
    def summary(self) -> dict[str, int]:
        counts = {"ok": 0, "fail": 0, "skipped": 0}
        for record in self.checks:
            if record.status == STATUS_OK:
                counts["ok"] += 1
            elif record.status == STATUS_FAIL:
                counts["fail"] += 1
            else:
                counts["skipped"] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return 1 if self.summary["fail"] else 0


@dataclass
class _RunData:
    """Constants for one run, after fault application, and the records of
    each section once built."""

    dictionary: Dictionary
    s3: ActionMatrix
    s5: ActionMatrix
    perturbation: Optional[Perturbation]
    sections: dict[str, list[CheckRecord]] = field(default_factory=dict)

    def section(self, name: str) -> list[CheckRecord]:
        """The records of one section, built at most once per run and after
        the sections its builder reads.  A builder that raises (a corrupted
        constant may break a whole section) leaves one FAIL record in place
        of its checks."""
        if name not in self.sections:
            for read in _reads(name):
                self.section(read)
            builder = dict(_SECTION_BUILDERS)[name]
            try:
                records = builder(self)
            except Exception as error:
                records = [
                    CheckRecord(
                        f"{name}-builder",
                        name,
                        name,
                        f"checks of section {name} could not run",
                        STATUS_FAIL,
                        {"error": str(error)},
                    )
                ]
            self.sections[name] = records
        return self.sections[name]

    def holds(
        self, patterns: tuple[str, ...], earlier: Iterable[CheckRecord] = ()
    ) -> bool:
        """Whether no record of this run that the id patterns name failed; a
        section that could not run counts as failed.  Theorem records come
        from `earlier`, the ones assembled so far."""
        for section, ids in _named(patterns):
            records = earlier if section == "theorems" else self.section(section)
            for record in records:
                if record.status == STATUS_FAIL and (
                    record.check_id in ids or record.check_id == f"{section}-builder"
                ):
                    return False
        return True


def _apply_fault(fault: Optional[Fault]) -> _RunData:
    dictionary = CUSP_DICTIONARY
    s3, s5 = PRINTED_S3, PRINTED_S5
    perturbation = None
    if fault is None:
        return _RunData(dictionary, s3, s5, None)
    if fault.target == "dictionary":
        dictionary = perturbed_dictionary(fault.name, fault.index, fault.delta)
    elif fault.target == "matrix":
        if fault.name not in ("s3", "s5"):
            raise ValueError(f"unknown matrix {fault.name!r}")
        rows = [list(row) for row in (s3 if fault.name == "s3" else s5).rows]
        rows[fault.row][fault.col] += fault.delta
        if fault.name == "s3":
            s3 = ActionMatrix(rows)
        else:
            s5 = ActionMatrix(rows)
    elif fault.target == "certificate":
        perturbation = Perturbation(fault.name, fault.part, fault.monomial, fault.delta)
    else:
        raise ValueError(f"unknown fault target {fault.target!r}")
    return _RunData(dictionary, s3, s5, perturbation)


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


def _principal_detail(check) -> dict:
    return {
        "support": [point_name(p) for p in check.support],
        "orders": list(check.orders),
        "complete": check.complete,
    }


def _certificate_detail(check) -> dict:
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


def _class_detail(computed: ModElement, expected: ModElement, certificate: str) -> dict:
    return {"computed": str(computed), "expected": str(expected), "certificate": certificate}


# certificate name -> label
_BITANGENT_LABELS = {
    "2D0": "2 D_0 = div(x + y + z)",
    "2D1": "2 D_1 = div(x - y + z)",
    "2D2": "2 D_2 = div(x + y - z)",
    "2D3": "2 D_3 = div(x - y - z)",
    "conic": "D_0 + D_1 + D_2 + D_3 = div(X^2 + Y^2 + Z^2)",
}
_RELATION_LABELS = {
    "D1-D0": "D_1 - D_0 = 2B_1 + 2B_2 - 4B_0 + div(...)",
    "D2-D0": "D_2 - D_0 = 2A_1 + 2A_2 + 2B_1 + 2B_2 - 8B_0 + div(...)",
    "D3-D0": "D_3 - D_0 = 2A1 + 2A2 - 4B0 + div(...)",
}
_COORD_LABELS = {
    "D1-D0": ("D1 - D0 = 2e_3 + 2e_4", CLASS_D1_MINUS_D0),
    "D2-D0": ("D2 - D0 = 2e_1 + 2e_2 + 2e_3 + 2e_4", CLASS_D2_MINUS_D0),
    "D3-D0": ("D3 - D0 = 2e_1 + 2e_2", CLASS_D3_MINUS_D0),
}
_BITANGENT_ROWS = _rows(
    HEADER_BITANGENTS,
    [(f"bitangent-{name.lower()}", label) for name, label in _BITANGENT_LABELS.items()]
    + [(f"relation-{name.lower()}", label) for name, label in _RELATION_LABELS.items()]
    + [("e-support", "E = 2B_2 - 2B_0")]
    + [(f"coords-{name.lower()}", label) for name, (label, _) in _COORD_LABELS.items()]
    + [("coords-e", "E = 2e_4")],
)


def _bitangent_records(data: _RunData) -> list[CheckRecord]:
    bitangents = dict(bitangent_checks(data.perturbation))
    relations = dict(cusp_relation_certificates(data.perturbation))
    results = [
        (bitangents[n].passed, _principal_detail(bitangents[n])) for n in _BITANGENT_LABELS
    ]
    results += [
        (relations[n].passed, _certificate_detail(relations[n])) for n in _RELATION_LABELS
    ]
    results.append((e_divisor_equality(), {"divisor": str(named_divisor("E"))}))
    for name, (_, expected) in _COORD_LABELS.items():
        computed = cusp_class(cusp_representative(name), data.dictionary)
        certificate = f"relation-{name.lower()}"
        results.append((computed == expected, _class_detail(computed, expected, certificate)))
    e_class = cusp_class(
        2 * Divisor.point(catalog("B2")) - 2 * Divisor.point(catalog("B0")),
        data.dictionary,
    )
    results.append((e_class == CLASS_E, _class_detail(e_class, CLASS_E, "e-support")))
    return _records("bitangents", results)


_DICTIONARY_LABELS = {
    "alpha0": "alpha_0 = 2e_1 + e_2 + 2e_3 + e_4",
    "alpha1": "alpha_1 = e_1",
    "alpha2": "alpha_2 = e_2",
    "alpha3": "alpha_3 = e_1 + 2e_2 + 2e_3 + 3e_4",
    "beta0": "beta_0 = 0",
    "beta1": "beta_1 = e_3",
    "beta2": "beta_2 = e_4",
    "beta3": "beta_3 = 3e_3 + 3e_4",
    "gamma0": "gamma_0 = 3e_1 + 3e_2 + e_3 + e_5 + e_6",
    "gamma1": "gamma_1 = e_5",
    "gamma2": "gamma_2 = 3e_1 + 3e_2 + 3e_3 + 3e_4 + 3e_5 + e_6",
    "gamma3": "gamma_3 = 2e_1 + 2e_2 + e_4 + 3e_5",
}
_DICTIONARY_ROWS = _rows(
    HEADER_DICTIONARY,
    [(f"dict-{entry}", label) for entry, label in _DICTIONARY_LABELS.items()]
    + [
        ("dict-basis", "alpha_1, alpha_2, beta_1, beta_2, gamma_1 are e_1..e_5 and beta_0 = 0"),
        (
            "dict-gamma2-e6",
            "gamma_2 agrees with e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2",
        ),
        ("dict-orbit-beta3", "beta_3 = sigma_3(e_4) + e_3"),
        ("dict-orbit-alpha3", "alpha_3 = sigma_5(e_1) + e_4"),
    ],
)


def _dictionary_records(data: _RunData) -> list[CheckRecord]:
    d = data.dictionary
    e1, _, e3, e4 = E_BASIS[:4]
    results: list[tuple[Optional[bool], Any]] = [
        (
            None,
            {
                "value": list(getattr(d, entry[:-1])[int(entry[-1])].c),
                "note": "expansion taken as given; see the dict-consistency checks",
            },
        )
        for entry in _DICTIONARY_LABELS
    ]
    results += [
        (d.basis_consistent(), None),
        (d.gamma2_consistent(), None),
        (d.beta[3] == data.s3(e4) + e3, None),
        (d.alpha[3] == data.s5(e1) + e4, None),
    ]
    return _records("dictionary", results)


# printed action-table columns, one per basis vector
_ACTION_TABLE = {
    "s3": (
        ("sigma_3(e1) = 2e_1 + e_2 + e_3 + e_4", (2, 1, 1, 1, 0, 0)),
        ("sigma_3(e2) = e_1 + 2e_2 + e_3 + 3e_4", (1, 2, 1, 3, 0, 0)),
        ("sigma_3(e3) = 3e_3", (0, 0, 3, 0, 0, 0)),
        ("sigma_3(e4) = 2e_3 + 3e_4", (0, 0, 2, 3, 0, 0)),
        ("sigma_3(e5) = 3e_1 + 3e_2 + e_5 + e_6", (3, 3, 0, 0, 1, 1)),
        ("sigma_3(e6) = 2e_3 + e_6", (0, 0, 2, 0, 0, 1)),
    ),
    "s5": (
        ("sigma_5(e1) = e_1 + 2e_2 + 2e_3 + 2e_4", (1, 2, 2, 2, 0, 0)),
        ("sigma_5(e2) = 2e_1 + e_2 + 2e_3", (2, 1, 2, 0, 0, 0)),
        ("sigma_5(e3) = 3e_3 + 2e_4", (0, 0, 3, 2, 0, 0)),
        ("sigma_5(e4) = 3e_4", (0, 0, 0, 3, 0, 0)),
        ("sigma_5(e5) = 2e_1 + 2e_2 + 3e_5", (2, 2, 0, 0, 3, 0)),
        ("sigma_5(e6) = 2e_4 + e_6", (0, 0, 0, 2, 0, 1)),
    ),
}
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
                (f"action-{key}-e{j + 1}", label)
                for j, (label, _) in enumerate(_ACTION_TABLE[key])
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
        derived = derive_action_matrix(computed, data.dictionary)
        printed = getattr(data, key)
        for j, (_, coords) in enumerate(_ACTION_TABLE[key]):
            expected = ModElement(coords)
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
        agree = all(
            catalog(n).galois(sigma) == catalog(n).galois(lift) for n in names
        ) and sigma(MINUS_SQRT2) == lift(MINUS_SQRT2)
        lifts.append((agree, {"lifts": [sigma.exponent, lift.exponent]}))
    return _records("galois", results + matrices + lifts)


# the automorphisms whose classes the fixed and torsor sections test:
# matrix key, name, automorphism
_AUTOMORPHISMS = (
    ("s5", "sigma_5", SIGMA5),
    ("s3", "sigma_3", SIGMA3),
    ("s3s5", "sigma_3 sigma_5", SIGMA3 * SIGMA5),
)
# matrix key -> (label, index i of the cusp A_i the automorphism sends A_0 to)
_SHIFT_LABELS = {
    "s5": ("(sigma_5 - 1)[A0] = 2e_1 + 2e_3 + 3e_4", 2),
    "s3": ("(sigma_3 - 1)[A0] = 3e_1 + 3e_2 + 2e_3 + 3e_4", 1),
    "s3s5": ("(sigma_3 sigma_5 - 1)[A0] = 3e_1 + e_2 + 2e_4", 3),
}
_FIXED_ROWS = _rows(
    HEADER_FIXED,
    [(f"shift-{key}", _SHIFT_LABELS[key][0]) for key, _, _ in _AUTOMORPHISMS]
    + [
        ("involution", "s_3^2 = s_5^2 = 1 and s_3 s_5 = s_5 s_3 on all 2048 elements"),
        ("fixed-size", "fixed classes of s_3 and s_5: exactly 8 elements, all killed by 2"),
        ("fixed-generators", "fixed classes = <2e_1 + 2e_2, 2e_3, 2e_4>"),
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
    alpha = data.dictionary.alpha
    a0 = Divisor.point(catalog("A0"))
    for key, text, sigma in _AUTOMORPHISMS:
        from_dictionary = alpha[_SHIFT_LABELS[key][1]] - alpha[0]
        from_points = cusp_class(a0.galois(sigma) - a0, data.dictionary)
        printed = PRINTED_SHIFTS[text]
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

    t3, t5 = image_table(data.s3), image_table(data.s5)
    t35, t53 = image_table(data.s3 * data.s5), image_table(data.s5 * data.s3)
    involution = all(
        t3[t3[n]] == n and t5[t5[n]] == n and t35[n] == t53[n] for n in range(ORDER)
    )
    fixed = fixed_submodule([data.s3, data.s5])
    fixed_set = set(fixed)
    e1, e2, e3, e4 = E_BASIS[:4]
    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    results += [
        (involution, None),
        (
            len(fixed) == 8 and all(2 * m == ZERO_ELEMENT for m in fixed),
            {"elements": [str(m) for m in fixed]},
        ),
        (fixed_set == subgroup_generated([2 * e1 + 2 * e2, 2 * e3, 2 * e4]), None),
        (
            fixed_set
            == subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_E]),
            None,
        ),
        (CLASS_D1_MINUS_D0 + CLASS_D2_MINUS_D0 == CLASS_D3_MINUS_D0, None),
        (
            len(pic0) == 4
            and CLASS_E not in pic0
            and fixed_set == pic0 | {m + CLASS_E for m in pic0},
            None,
        ),
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
        for key, text, _ in _AUTOMORPHISMS[1:]
    ]
    + [
        (f"torsor-{key}", f"{text} fixed-point search in degree 1: no solution among 2048")
        for key, text, _ in _AUTOMORPHISMS
    ],
)


def _torsor_records(data: _RunData) -> list[CheckRecord]:
    matrices = {"s3": data.s3, "s5": data.s5, "s3s5": data.s3 * data.s5}
    image5 = image_submodule(data.s5)
    results = [
        (image5 == two_torsion_multiples() and len(image5) == 32, {"image_size": len(image5)})
    ]
    for key, _, _ in _AUTOMORPHISMS[1:]:
        image = image_submodule(matrices[key])
        results.append((all((a.c[1] + a.c[2] + a.c[5]) % 2 == 0 for a in image), None))
    for key, text, _ in _AUTOMORPHISMS:
        shift = PRINTED_SHIFTS[text]
        results.append((not pic1_has_fixed_point(matrices[key], shift), {"shift": str(shift)}))
    return _records("torsor", results)


_BRAUER_ROWS = _rows(
    HEADER_BRAUER,
    [
        ("brauer-2e", "2E = div((X - z8^5 * Z)/(X - z8 * Z)"),
        ("brauer-e-plus", "E + sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^3 * Z)))"),
        ("brauer-e-minus", "E - sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^7 * Z)))"),
        ("brauer-sigma5-e", "sigma_5(E) = -E"),
        ("brauer-tau-e", "sigma_3 sigma_5(E) = -sigma_3(E)"),
        ("brauer-product", "(X - z8 Z)(X - z8^3 Z)(X - z8^5 Z)(X - z8^7 Z) = X^4 + Z^4"),
        ("brauer-cocycle", "u_tau * tau(u_tau) = Y^4/(X^4 + Z^4) = -1 on the curve"),
        ("brauer-trivial-unit", "the unit u = 1 gives the trivial cocycle"),
        ("brauer-cocycle-identity", "the 2-cocycle identity holds on {1, tau}"),
    ],
)


def _brauer_records(data: _RunData) -> list[CheckRecord]:
    identities = verify_e_identities()
    results = [
        (check.passed, _certificate_detail(check))
        for check in (identities.double_e, identities.e_plus_sigma3, identities.e_minus_sigma3)
    ]
    results += [
        (identities.sigma5_negates_e, None),
        (identities.tau_negates_sigma3_e, None),
        (product_of_linear_forms() == X ** 4 + Z ** 4, None),
    ]
    value = cocycle_tau_tau()
    results += [
        (value == rational(-1), {"value": str(value)}),
        (all(v == ONE for v in trivial_unit_cocycle_table().values()), None),
        (cocycle_identity_holds(cocycle_table()), None),
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
    classes = {ZERO_ELEMENT, CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0}
    results.append((len(classes) == 4, None))
    return _records("quadratic", results)


_THEOREM_ROWS = tuple((t.check_id, HEADER_THEOREMS, t.label) for t in theorems.THEOREMS)


def _theorem_records(data: _RunData) -> list[CheckRecord]:
    """Each theorem on this run's records: it fails with a constituent or
    with any record its `depends_on` names."""
    records: list[CheckRecord] = []

    def holds(patterns: tuple[str, ...]) -> bool:
        return data.holds(patterns, records)

    for row, theorem in zip(_THEOREM_ROWS, theorems.THEOREMS):
        report = theorems.assemble(theorem, holds)
        passed = report.verdict and all(
            holds(theorems.DEPENDENCIES[name]) for name in report.depends_on
        )
        detail = {
            "constituents": [
                {"id": c.check_id, "passed": c.passed} for c in report.constituents
            ],
            "assumptions": list(report.assumptions),
            "depends_on": list(report.depends_on),
            "notes": list(report.notes),
        }
        records.append(_record("theorems", row, passed, detail))
    return records


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
_SECTION_OF = {row[0]: section for section, rows in SECTION_ROWS.items() for row in rows}
_HEADER_OF = {row[0]: row[1] for rows in SECTION_ROWS.values() for row in rows}

_SECTION_BUILDERS: tuple[tuple[str, Callable[[_RunData], list[CheckRecord]]], ...] = (
    ("bitangents", _bitangent_records),
    ("dictionary", _dictionary_records),
    ("galois", _galois_records),
    ("fixed", _fixed_records),
    ("torsor", _torsor_records),
    ("brauer", _brauer_records),
    ("quadratic", _quadratic_records),
    ("theorems", _theorem_records),
)


@lru_cache(maxsize=None)
def _named(patterns: tuple[str, ...]) -> tuple[tuple[str, frozenset[str]], ...]:
    """The ids the patterns match, by section in canonical order."""
    named = []
    for section in SECTIONS:
        ids = frozenset(
            check_id
            for check_id, _, _ in SECTION_ROWS[section]
            if any(fnmatchcase(check_id, p) for p in patterns)
        )
        if ids:
            named.append((section, ids))
    return tuple(named)


@lru_cache(maxsize=None)
def _reads(section: str) -> tuple[str, ...]:
    """The other sections whose records the section's builder reads, in
    canonical order: those the theorem table names, for the theorems."""
    if section != "theorems":
        return ()
    patterns = [p for t in theorems.THEOREMS for c in t.constituents for p in c.records]
    patterns += [p for names in theorems.DEPENDENCIES.values() for p in names]
    return tuple(s for s, _ in _named(tuple(patterns)) if s != section)


def build_report(
    section: Optional[str] = None, fault: Optional[Fault] = None
) -> Report:
    """Run the checks of one section (and its cone) or of all, in canonical
    order; failures are data, not errors."""
    if section is not None and section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}")
    data = _apply_fault(fault)
    names = SECTIONS if section is None else (section,)
    return Report(tuple(record for name in names for record in data.section(name)))


def run_single(check_id: str, fault: Optional[Fault] = None) -> Report:
    """The record of one check, built from its section's cone.  If the
    section could not run, its builder record stands in for the check."""
    section = _SECTION_OF.get(check_id)
    if section is None:
        raise ValueError(f"unknown check id {check_id!r}")
    records = _apply_fault(fault).section(section)
    return Report(
        tuple(r for r in records if r.check_id in (check_id, f"{section}-builder"))
    )


def list_check_ids() -> list[str]:
    """Every check id in canonical order, from the static tables."""
    return list(_SECTION_OF)


def run_holds(
    s3: ActionMatrix = PRINTED_S3, s5: ActionMatrix = PRINTED_S5
) -> Callable[[tuple[str, ...]], bool]:
    """`holds(patterns)` over a clean run with these action matrices: the
    view that `theorems.verify_*` take of the registry."""
    return _RunData(CUSP_DICTIONARY, s3, s5, None).holds


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
