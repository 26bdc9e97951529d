"""The canonical check registry behind the verification harness.

Every verified identity is a CheckRecord with a stable id, a section key
for filtering, a header string for grouping in text output, a label, a
status, and a JSON-friendly detail ledger.  The twelve dictionary
expansions are data axioms (established by an external Riemann-Roch
computation) and are reported as SKIPPED(data-axiom); their internal
consistency and all of their downstream consequences are OK/FAIL checks.

A Fault corrupts one constant for negative-control runs; a corrupted run
must produce at least one FAIL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Optional

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
_DICTIONARY_ENTRIES = tuple(
    f"{family}{i}" for family in ("alpha", "beta", "gamma") for i in range(4)
)


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
        if data["entry"] not in _DICTIONARY_ENTRIES:
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
        """The records of one section, built at most once per run.  A
        builder that raises (a corrupted constant may break a whole
        section) leaves one FAIL record in place of its checks."""
        if name not in self.sections:
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
# check builders; each returns (passed, detail)

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


_COORD_LABELS = (
    ("coords-d1-d0", "D1-D0", "D1 - D0 = 2e_3 + 2e_4", CLASS_D1_MINUS_D0),
    ("coords-d2-d0", "D2-D0", "D2 - D0 = 2e_1 + 2e_2 + 2e_3 + 2e_4", CLASS_D2_MINUS_D0),
    ("coords-d3-d0", "D3-D0", "D3 - D0 = 2e_1 + 2e_2", CLASS_D3_MINUS_D0),
)

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

_DICTIONARY_LABELS = (
    ("alpha0", "alpha_0 = 2e_1 + e_2 + 2e_3 + e_4"),
    ("alpha1", "alpha_1 = e_1"),
    ("alpha2", "alpha_2 = e_2"),
    ("alpha3", "alpha_3 = e_1 + 2e_2 + 2e_3 + 3e_4"),
    ("beta0", "beta_0 = 0"),
    ("beta1", "beta_1 = e_3"),
    ("beta2", "beta_2 = e_4"),
    ("beta3", "beta_3 = 3e_3 + 3e_4"),
    ("gamma0", "gamma_0 = 3e_1 + 3e_2 + e_3 + e_5 + e_6"),
    ("gamma1", "gamma_1 = e_5"),
    ("gamma2", "gamma_2 = 3e_1 + 3e_2 + 3e_3 + 3e_4 + 3e_5 + e_6"),
    ("gamma3", "gamma_3 = 2e_1 + 2e_2 + e_4 + 3e_5"),
)

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

_QUADRATIC_PAIR_LABELS = (
    "[1 : zeta_3 : zeta_3^2] + [1 : zeta_3^2 : zeta_3] = D_0",
    "[1 : -zeta_3 : zeta_3^2] + [1 : -zeta_3^2 : zeta_3] = D_1",
    "[1 : zeta_3 : -zeta_3^2] + [1 : zeta_3^2 : -zeta_3] = D_2",
    "[1 : -zeta_3 : -zeta_3^2] + [1 : -zeta_3^2 : -zeta_3] = D_3",
)


def _bitangent_records(data: _RunData) -> list[CheckRecord]:
    records = []
    for name, check in bitangent_checks(data.perturbation):
        records.append(
            CheckRecord(
                f"bitangent-{name.lower()}",
                "bitangents",
                HEADER_BITANGENTS,
                _BITANGENT_LABELS[name],
                STATUS_OK if check.passed else STATUS_FAIL,
                _principal_detail(check),
            )
        )
    for name, check in cusp_relation_certificates(data.perturbation):
        records.append(
            CheckRecord(
                f"relation-{name.lower()}",
                "bitangents",
                HEADER_BITANGENTS,
                _RELATION_LABELS[name],
                STATUS_OK if check.passed else STATUS_FAIL,
                _certificate_detail(check),
            )
        )
    equal = e_divisor_equality()
    records.append(
        CheckRecord(
            "e-support",
            "bitangents",
            HEADER_BITANGENTS,
            "E = 2B_2 - 2B_0",
            STATUS_OK if equal else STATUS_FAIL,
            {"divisor": str(named_divisor("E"))},
        )
    )
    for check_id, name, label, expected in _COORD_LABELS:
        computed = cusp_class(cusp_representative(name), data.dictionary)
        records.append(
            CheckRecord(
                check_id,
                "bitangents",
                HEADER_BITANGENTS,
                label,
                STATUS_OK if computed == expected else STATUS_FAIL,
                {
                    "computed": str(computed),
                    "expected": str(expected),
                    "certificate": f"relation-{name.lower()}",
                },
            )
        )
    e_class = cusp_class(
        2 * Divisor.point(catalog("B2")) - 2 * Divisor.point(catalog("B0")),
        data.dictionary,
    )
    records.append(
        CheckRecord(
            "coords-e",
            "bitangents",
            HEADER_BITANGENTS,
            "E = 2e_4",
            STATUS_OK if e_class == CLASS_E else STATUS_FAIL,
            {"computed": str(e_class), "expected": str(CLASS_E), "certificate": "e-support"},
        )
    )
    return records


def _dictionary_records(data: _RunData) -> list[CheckRecord]:
    records = []
    for entry, label in _DICTIONARY_LABELS:
        family, i = entry.rstrip("0123"), int(entry[-1])
        value = getattr(data.dictionary, family)[i]
        records.append(
            CheckRecord(
                f"dict-{entry}",
                "dictionary",
                HEADER_DICTIONARY,
                label,
                STATUS_SKIPPED,
                {
                    "value": list(value.c),
                    "note": "expansion taken as given; see the dict-consistency checks",
                },
            )
        )
    d = data.dictionary
    e1, e2, e3, e4, e5, e6 = E_BASIS
    consistency = [
        (
            "dict-basis",
            "alpha_1, alpha_2, beta_1, beta_2, gamma_1 are e_1..e_5 and beta_0 = 0",
            d.basis_consistent(),
        ),
        (
            "dict-gamma2-e6",
            "gamma_2 agrees with e_6 = alpha_1 + alpha_2 + beta_1 + beta_2 + gamma_1 + gamma_2",
            d.gamma2_consistent(),
        ),
        (
            "dict-orbit-beta3",
            "beta_3 = sigma_3(e_4) + e_3",
            d.beta[3] == data.s3(e4) + e3,
        ),
        (
            "dict-orbit-alpha3",
            "alpha_3 = sigma_5(e_1) + e_4",
            d.alpha[3] == data.s5(e1) + e4,
        ),
    ]
    for check_id, label, passed in consistency:
        records.append(
            CheckRecord(
                check_id,
                "dictionary",
                HEADER_DICTIONARY,
                label,
                STATUS_OK if passed else STATUS_FAIL,
                None,
            )
        )
    return records


def _galois_records(data: _RunData) -> list[CheckRecord]:
    records = []
    tables = (
        ("s3", SIGMA3, SIGMA3_ALT, SIGMA3_CUSP_TABLE, HEADER_SIGMA3, "sigma_3"),
        ("s5", SIGMA5, SIGMA5_ALT, SIGMA5_CUSP_TABLE, HEADER_SIGMA5, "sigma_5"),
    )
    for key, sigma, _, printed_table, header, text in tables:
        computed = cusp_permutation(sigma)
        for cusp in CUSP_NAMES:
            expected = printed_table[cusp]
            got = computed[cusp]
            family, i = cusp[0], cusp[1]
            records.append(
                CheckRecord(
                    f"perm-{key}-{cusp.lower()}",
                    "galois",
                    header,
                    f"{text}({family}_{i}) = {expected[0]}_{expected[1]}",
                    STATUS_OK if got == expected else STATUS_FAIL,
                    {"computed": got, "expected": expected},
                )
            )
        derived = derive_action_matrix(computed, data.dictionary)
        printed = data.s3 if key == "s3" else data.s5
        for j, (label, expected_coords) in enumerate(_ACTION_TABLE[key]):
            expected = ModElement(expected_coords)
            records.append(
                CheckRecord(
                    f"action-{key}-e{j + 1}",
                    "galois",
                    header,
                    label,
                    STATUS_OK
                    if derived.column(j) == expected == printed.column(j)
                    else STATUS_FAIL,
                    {
                        "derived": str(derived.column(j)),
                        "printed": str(printed.column(j)),
                        "expected": str(expected),
                    },
                )
            )
    for key, sigma, lift, printed_table, _, text in tables:
        derived = derive_action_matrix(cusp_permutation(sigma), data.dictionary)
        printed = data.s3 if key == "s3" else data.s5
        records.append(
            CheckRecord(
                f"matrix-{key}",
                "galois",
                HEADER_MATRICES,
                f"derived matrix of {text} equals its printed form",
                STATUS_OK if derived == printed else STATUS_FAIL,
                {"derived": [list(r) for r in derived.rows],
                 "printed": [list(r) for r in printed.rows]},
            )
        )
    for key, sigma, lift, printed_table, _, text in tables:
        names = CUSP_NAMES + ("E+", "E-")
        agree = all(
            catalog(n).galois(sigma) == catalog(n).galois(lift) for n in names
        ) and sigma(MINUS_SQRT2) == lift(MINUS_SQRT2)
        records.append(
            CheckRecord(
                f"lift-{key}",
                "galois",
                HEADER_MATRICES,
                f"both lifts of {text} agree on the Q(zeta_8) catalog data",
                STATUS_OK if agree else STATUS_FAIL,
                {"lifts": [sigma.exponent, lift.exponent]},
            )
        )
    return records


def _fixed_records(data: _RunData) -> list[CheckRecord]:
    records = []
    shift_rows = (
        (
            "shift-s5",
            "(sigma_5 - 1)[A0] = 2e_1 + 2e_3 + 3e_4",
            SIGMA5,
            data.dictionary.alpha[2] - data.dictionary.alpha[0],
            PRINTED_SHIFTS["sigma_5"],
        ),
        (
            "shift-s3",
            "(sigma_3 - 1)[A0] = 3e_1 + 3e_2 + 2e_3 + 3e_4",
            SIGMA3,
            data.dictionary.alpha[1] - data.dictionary.alpha[0],
            PRINTED_SHIFTS["sigma_3"],
        ),
        (
            "shift-s3s5",
            "(sigma_3 sigma_5 - 1)[A0] = 3e_1 + e_2 + 2e_4",
            SIGMA3 * SIGMA5,
            data.dictionary.alpha[3] - data.dictionary.alpha[0],
            PRINTED_SHIFTS["sigma_3 sigma_5"],
        ),
    )
    a0 = Divisor.point(catalog("A0"))
    for check_id, label, sigma, from_dictionary, printed in shift_rows:
        moved = a0.galois(sigma) - a0
        from_points = cusp_class(moved, data.dictionary)
        passed = from_dictionary == printed == from_points
        records.append(
            CheckRecord(
                check_id,
                "fixed",
                HEADER_FIXED,
                label,
                STATUS_OK if passed else STATUS_FAIL,
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
    records.append(
        CheckRecord(
            "involution",
            "fixed",
            HEADER_FIXED,
            "s_3^2 = s_5^2 = 1 and s_3 s_5 = s_5 s_3 on all 2048 elements",
            STATUS_OK if involution else STATUS_FAIL,
            None,
        )
    )

    fixed = fixed_submodule([data.s3, data.s5])
    fixed_set = set(fixed)
    records.append(
        CheckRecord(
            "fixed-size",
            "fixed",
            HEADER_FIXED,
            "fixed classes of s_3 and s_5: exactly 8 elements, all killed by 2",
            STATUS_OK
            if len(fixed) == 8 and all(2 * m == ZERO_ELEMENT for m in fixed)
            else STATUS_FAIL,
            {"elements": [str(m) for m in fixed]},
        )
    )
    e1, e2, e3, e4 = E_BASIS[:4]
    records.append(
        CheckRecord(
            "fixed-generators",
            "fixed",
            HEADER_FIXED,
            "fixed classes = <2e_1 + 2e_2, 2e_3, 2e_4>",
            STATUS_OK
            if fixed_set == subgroup_generated([2 * e1 + 2 * e2, 2 * e3, 2 * e4])
            else STATUS_FAIL,
            None,
        )
    )
    records.append(
        CheckRecord(
            "fixed-mw-generators",
            "fixed",
            HEADER_FIXED,
            "fixed classes = <[D_1 - D_0], [D_2 - D_0], [E]>",
            STATUS_OK
            if fixed_set
            == subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_E])
            else STATUS_FAIL,
            None,
        )
    )
    records.append(
        CheckRecord(
            "pic0-relation",
            "fixed",
            HEADER_FIXED,
            "[D_1 - D_0] + [D_2 - D_0] = [D_3 - D_0]",
            STATUS_OK
            if CLASS_D1_MINUS_D0 + CLASS_D2_MINUS_D0 == CLASS_D3_MINUS_D0
            else STATUS_FAIL,
            None,
        )
    )
    pic0 = subgroup_generated([CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0])
    records.append(
        CheckRecord(
            "pic0-subgroup",
            "fixed",
            HEADER_FIXED,
            "{0, [D_1 - D_0], [D_2 - D_0], [D_3 - D_0]} has index 2; [E] represents the other coset",
            STATUS_OK
            if len(pic0) == 4
            and CLASS_E not in pic0
            and fixed_set == pic0 | {m + CLASS_E for m in pic0}
            else STATUS_FAIL,
            None,
        )
    )
    return records


def _torsor_records(data: _RunData) -> list[CheckRecord]:
    records = []
    s3s5 = data.s3 * data.s5
    image5 = image_submodule(data.s5)
    records.append(
        CheckRecord(
            "image-s5",
            "torsor",
            HEADER_TORSOR,
            "(sigma_5 - 1)M = 2M (32 elements)",
            STATUS_OK
            if image5 == two_torsion_multiples() and len(image5) == 32
            else STATUS_FAIL,
            {"image_size": len(image5)},
        )
    )
    for check_id, label, matrix in (
        (
            "image-congruence-s3",
            "every element of (sigma_3 - 1)M satisfies a_2 + a_3 + a_6 = 0 mod 2",
            data.s3,
        ),
        (
            "image-congruence-s3s5",
            "every element of (sigma_3 sigma_5 - 1)M satisfies a_2 + a_3 + a_6 = 0 mod 2",
            s3s5,
        ),
    ):
        holds = all(
            (a.c[1] + a.c[2] + a.c[5]) % 2 == 0 for a in image_submodule(matrix)
        )
        records.append(
            CheckRecord(
                check_id,
                "torsor",
                HEADER_TORSOR,
                label,
                STATUS_OK if holds else STATUS_FAIL,
                None,
            )
        )
    searches = (
        ("torsor-s5", "sigma_5", data.s5, PRINTED_SHIFTS["sigma_5"]),
        ("torsor-s3", "sigma_3", data.s3, PRINTED_SHIFTS["sigma_3"]),
        ("torsor-s3s5", "sigma_3 sigma_5", s3s5, PRINTED_SHIFTS["sigma_3 sigma_5"]),
    )
    for check_id, text, matrix, shift in searches:
        found = pic1_has_fixed_point(matrix, shift)
        records.append(
            CheckRecord(
                check_id,
                "torsor",
                HEADER_TORSOR,
                f"{text} fixed-point search in degree 1: no solution among 2048",
                STATUS_OK if not found else STATUS_FAIL,
                {"shift": str(shift)},
            )
        )
    return records


def _brauer_records(data: _RunData) -> list[CheckRecord]:
    records = []
    identities = verify_e_identities()
    for check_id, label, check in (
        ("brauer-2e", "2E = div((X - z8^5 * Z)/(X - z8 * Z)", identities.double_e),
        (
            "brauer-e-plus",
            "E + sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^3 * Z)))",
            identities.e_plus_sigma3,
        ),
        (
            "brauer-e-minus",
            "E - sigma_3(E) = div(Y^2/((X - z8 * Z) * (X - z8^7 * Z)))",
            identities.e_minus_sigma3,
        ),
    ):
        records.append(
            CheckRecord(
                check_id,
                "brauer",
                HEADER_BRAUER,
                label,
                STATUS_OK if check.passed else STATUS_FAIL,
                _certificate_detail(check),
            )
        )
    records.append(
        CheckRecord(
            "brauer-sigma5-e",
            "brauer",
            HEADER_BRAUER,
            "sigma_5(E) = -E",
            STATUS_OK if identities.sigma5_negates_e else STATUS_FAIL,
            None,
        )
    )
    records.append(
        CheckRecord(
            "brauer-tau-e",
            "brauer",
            HEADER_BRAUER,
            "sigma_3 sigma_5(E) = -sigma_3(E)",
            STATUS_OK if identities.tau_negates_sigma3_e else STATUS_FAIL,
            None,
        )
    )
    product_ok = product_of_linear_forms() == X ** 4 + Z ** 4
    records.append(
        CheckRecord(
            "brauer-product",
            "brauer",
            HEADER_BRAUER,
            "(X - z8 Z)(X - z8^3 Z)(X - z8^5 Z)(X - z8^7 Z) = X^4 + Z^4",
            STATUS_OK if product_ok else STATUS_FAIL,
            None,
        )
    )
    value = cocycle_tau_tau()
    records.append(
        CheckRecord(
            "brauer-cocycle",
            "brauer",
            HEADER_BRAUER,
            "u_tau * tau(u_tau) = Y^4/(X^4 + Z^4) = -1 on the curve",
            STATUS_OK if value == rational(-1) else STATUS_FAIL,
            {"value": str(value)},
        )
    )
    trivial = trivial_unit_cocycle_table()
    records.append(
        CheckRecord(
            "brauer-trivial-unit",
            "brauer",
            HEADER_BRAUER,
            "the unit u = 1 gives the trivial cocycle",
            STATUS_OK if all(v == ONE for v in trivial.values()) else STATUS_FAIL,
            None,
        )
    )
    records.append(
        CheckRecord(
            "brauer-cocycle-identity",
            "brauer",
            HEADER_BRAUER,
            "the 2-cocycle identity holds on {1, tau}",
            STATUS_OK if cocycle_identity_holds(cocycle_table()) else STATUS_FAIL,
            None,
        )
    )
    return records


def _quadratic_records(data: _RunData) -> list[CheckRecord]:
    records = []
    points = quadratic_points()
    records.append(
        CheckRecord(
            "quadratic-on-curve",
            "quadratic",
            HEADER_QUADRATIC,
            "all 8 quadratic points lie on the curve",
            STATUS_OK
            if len(set(points)) == 8 and all(on_curve(p) for p in points)
            else STATUS_FAIL,
            {"points": [str(p) for p in points]},
        )
    )
    records.append(
        CheckRecord(
            "quadratic-field",
            "quadratic",
            HEADER_QUADRATIC,
            "all 8 quadratic points are rational over Q(zeta_3)",
            STATUS_OK if all(is_zeta3_rational(p) for p in points) else STATUS_FAIL,
            None,
        )
    )
    for i, (name, pair_sum, target) in enumerate(theorems.quadratic_point_pairs()):
        records.append(
            CheckRecord(
                f"quadratic-pair-d{i}",
                "quadratic",
                HEADER_QUADRATIC,
                _QUADRATIC_PAIR_LABELS[i],
                STATUS_OK if pair_sum == target else STATUS_FAIL,
                {"pair": str(pair_sum), "target": str(target)},
            )
        )
    classes = [ZERO_ELEMENT, CLASS_D1_MINUS_D0, CLASS_D2_MINUS_D0, CLASS_D3_MINUS_D0]
    records.append(
        CheckRecord(
            "pic2-distinct",
            "quadratic",
            HEADER_QUADRATIC,
            "[D_0], [D_1], [D_2], [D_3] are pairwise distinct",
            STATUS_OK if len(set(classes)) == 4 else STATUS_FAIL,
            None,
        )
    )
    return records


# what each name in a theorem's `depends_on` stands for: the records of this
# run, by section and id pattern, that must all be OK.  A section whose
# builder could not run counts as failed.
_THEOREM_DEPENDENCIES = {
    "certificates": (
        ("bitangents", ("bitangent-*", "relation-*", "e-support")),
        ("brauer", ("brauer-2e", "brauer-e-plus", "brauer-e-minus",
                    "brauer-sigma5-e", "brauer-tau-e")),
    ),
    "fixed-submodule": (("fixed", ("fixed-*",)),),
    "brauer-cocycle": (("brauer", ("brauer-cocycle",)),),
    "action-matrices": (("galois", ("matrix-s3", "matrix-s5")),),
    "torsor-searches": (("torsor", ("torsor-*",)),),
    "degree-two-classes": (("theorems", ("theorem-quadratic-points",)),),
}


def _dependency_holds(data: _RunData, name: str, earlier: list[CheckRecord]) -> bool:
    for section, patterns in _THEOREM_DEPENDENCIES[name]:
        records = earlier if section == "theorems" else data.section(section)
        for record in records:
            if record.status == STATUS_FAIL and (
                record.check_id == f"{section}-builder"
                or any(fnmatchcase(record.check_id, p) for p in patterns)
            ):
                return False
    return True


def _theorem_records(data: _RunData) -> list[CheckRecord]:
    """The assembled results on this run's matrices and certificate
    verdict; a theorem fails with a constituent or with any record its
    `depends_on` names."""
    certificates = _dependency_holds(data, "certificates", [])
    reports = (
        (
            "theorem-mordell-weil",
            "Pic^0 = (Z/2)[D_1 - D_0] + (Z/2)[D_2 - D_0]; the Mordell-Weil group adds (Z/2)[E]",
            theorems.verify_mordell_weil_structure(data.s3, data.s5, certificates),
        ),
        (
            "theorem-odd-torsors",
            "every odd-degree part of the Picard scheme has no rational point",
            theorems.verify_odd_degree_torsors(data.s3, data.s5),
        ),
        (
            "theorem-quadratic-points",
            "Pic^2 = {[D_0], [D_1], [D_2], [D_3]}; the quadratic points are the bitangent contacts",
            theorems.verify_degree_two_classes_and_quadratic_points(),
        ),
        (
            "theorem-determinantal",
            "no linear determinantal representation exists over Q",
            theorems.verify_no_determinantal_representation(),
        ),
    )
    records: list[CheckRecord] = []
    for check_id, label, report in reports:
        holds = report.verdict and all(
            _dependency_holds(data, name, records) for name in report.depends_on
        )
        records.append(
            CheckRecord(
                check_id,
                "theorems",
                HEADER_THEOREMS,
                label,
                STATUS_OK if holds else STATUS_FAIL,
                {
                    "constituents": [
                        {"id": c.check_id, "passed": c.passed}
                        for c in report.constituents
                    ],
                    "assumptions": list(report.assumptions),
                    "depends_on": list(report.depends_on),
                    "notes": list(report.notes),
                },
            )
        )
    return records


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


def build_report(
    section: Optional[str] = None, fault: Optional[Fault] = None
) -> Report:
    """Run the checks in canonical order; failures are data, not errors."""
    if section is not None and section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}")
    data = _apply_fault(fault)
    records: list[CheckRecord] = []
    for name, _ in _SECTION_BUILDERS:
        if section is None or name == section:
            records.extend(data.section(name))
    return Report(tuple(records))


def run_single(check_id: str, fault: Optional[Fault] = None) -> Report:
    report = build_report(fault=fault)
    matches = tuple(r for r in report.checks if r.check_id == check_id)
    if not matches:
        raise ValueError(f"unknown check id {check_id!r}")
    return Report(matches)


def list_check_ids() -> list[str]:
    return [record.check_id for record in build_report().checks]


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


_SECTION_HEADERS = {
    "bitangents": HEADER_BITANGENTS,
    "dictionary": HEADER_DICTIONARY,
    "fixed": HEADER_FIXED,
    "torsor": HEADER_TORSOR,
    "brauer": HEADER_BRAUER,
    "quadratic": HEADER_QUADRATIC,
    "theorems": HEADER_THEOREMS,
}

_GALOIS_HEADERS = (
    (("perm-s3-", "action-s3-"), HEADER_SIGMA3),
    (("perm-s5-", "action-s5-"), HEADER_SIGMA5),
    (("matrix-", "lift-"), HEADER_MATRICES),
)


def _header_for(check_id: str, section: str) -> str:
    """The header a record of this id and section is built with; a record
    of a builder that could not run is headed by its section key."""
    if section == "galois":
        for prefixes, header in _GALOIS_HEADERS:
            if check_id.startswith(prefixes):
                return header
    elif check_id != f"{section}-builder":
        return _SECTION_HEADERS.get(section, section)
    return section


def parse_json(text: str) -> Report:
    payload = json.loads(text)
    records = []
    for item in payload["checks"]:
        records.append(
            CheckRecord(
                check_id=item["id"],
                section=item["section"],
                header=_header_for(item["id"], item["section"]),
                label=item["label"],
                status=item["status"],
                detail=item["detail"],
            )
        )
    return Report(tuple(records))
