"""Branch expansions, valuations, Bezout completeness, and the concrete
certificate suite."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quartic_twist.certificates import (
    BITANGENTS,
    E_IDENTITIES,
    RELATIONS,
    bitangent_checks,
    certificate_forms,
    certificate_table,
    cusp_relation_certificates,
    e_divisor_equality,
    verify_principal_divisor,
)
from quartic_twist import valuations
from quartic_twist.checks import Fault, _faulted, build_report, fault_space, load_fault
from quartic_twist.cyclotomic import (
    MINUS_SQRT2, ONE, SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, TAU, ZERO, CycNum, d_power,
    rational, zeta,
)
from quartic_twist.curve import CATALOG, CURVE, HomogPoly, X, Y, Z, catalog
from quartic_twist.divisors import Divisor, named_divisor
from quartic_twist.valuations import (
    BranchExpansion,
    OrderBoundExceeded,
    compose_with_branch,
    expand_branch,
    principal_divisor_on_support,
    valuation,
    verify_certificate,
)

z8 = zeta(8)
z3 = zeta(3)
FIXTURES = Path(__file__).parent / "fixtures"
# the four bitangent lines, the numerators of the rows 2D_0..2D_3
BITANGENT_LINES = [certificate_table()[name].numerator for name in BITANGENTS[:4]]


def _orders(check):
    """The numerator's order at each support point."""
    return tuple(row.numerator_order for row in check.ledger)


def _forms(row):
    """The numerator of a certificate row and its denominator, unless 1."""
    return [row.numerator] + ([] if row.denominator is None else [row.denominator])


def test_minus_sqrt2_squares_to_two():
    assert MINUS_SQRT2 * MINUS_SQRT2 == rational(2)
    assert TAU(MINUS_SQRT2) == MINUS_SQRT2  # real number


def test_expansion_at_b0():
    b0 = catalog("B0")
    exp = expand_branch(b0, 5)
    assert exp.chart == 0 and exp.parameter == 1 and exp.dependent == 2
    assert exp.series[0] == z8 ** 7
    assert exp.series[1] == 0 and exp.series[2] == 0 and exp.series[3] == 0
    # oracle: implicit differentiation of 1 + y^4 + z^4 = 0 at (0, z0)
    # gives the leading correction  -1/(4 z0^3) * y^4
    z0 = z8 ** 7
    assert exp.series[4] == -(4 * z0 ** 3).inv()
    assert exp.series[4] == (d_power(1) - d_power(5)) * rational(1) / 4


def test_expansion_at_tangency_point():
    exp = expand_branch(catalog("T00"), 5)
    assert exp.chart == 0
    assert exp.parameter == 1  # t = y - zeta_3
    assert exp.dependent == 2
    assert exp.series[0] == z3 ** 2


def test_expansion_residual_vanishes_everywhere():
    for name, point in CATALOG.items():
        exp = expand_branch(point, 7)
        residual = compose_with_branch(CURVE, exp, 7)
        assert not any(residual), name


def test_expansion_off_curve_rejected():
    from quartic_twist.curve import ProjPoint

    with pytest.raises(ValueError):
        expand_branch(ProjPoint(1, 0, 0), 5)
    # so is a precision below 1 at a point of the curve
    with pytest.raises(ValueError, match="precision must be positive"):
        expand_branch(catalog("B0"), 0)


def test_valuation_examples():
    assert valuation(X + Y + Z, catalog("T00"), 9) == 2
    assert valuation(X + Y + Z, catalog("T01"), 9) == 2
    assert valuation(X - z8 * Z, catalog("B0"), 9) == 4
    assert valuation(X, catalog("A0"), 9) == 1
    assert valuation(Y, catalog("B0"), 9) == 1
    assert valuation(Z, catalog("C0"), 9) == 1


def test_line_z_meets_four_c_points_simply():
    support = [catalog(f"C{i}") for i in range(4)]
    divisor, complete = principal_divisor_on_support(Z, support)
    assert complete
    assert all(divisor.coefficient(p) == 1 for p in support)


def test_divisor_of_y():
    support = [catalog(f"B{i}") for i in range(4)]
    divisor, complete = principal_divisor_on_support(Y, support)
    assert complete
    assert all(divisor.coefficient(p) == 1 for p in support)


def test_valuation_of_curve_polynomial_overflows():
    with pytest.raises(OrderBoundExceeded):
        valuation(CURVE, catalog("B0"), 17)


def test_valuation_rejects_zero_form():
    from quartic_twist.curve import HomogPoly

    with pytest.raises(ValueError):
        valuation(HomogPoly.zero(1), catalog("B0"), 5)


def test_bitangent_checks_pass():
    for name, check in bitangent_checks(certificate_table()):
        assert check.numerator_complete and check.denominator_complete, name
        assert check.passed, name
    # the contact orders themselves: 2 at each tangency point
    _, check = bitangent_checks(certificate_table())[0]
    assert _orders(check) == (2, 2)


def test_conic_orders_are_simple():
    _, check = bitangent_checks(certificate_table())[4]
    assert _orders(check) == (1,) * 8


def test_incomplete_support_detected():
    # the claim has the degree 4 of a line's divisor, which the support misses
    check = verify_principal_divisor(
        4 * Divisor.point(catalog("T00")), BITANGENT_LINES[0], [catalog("T00")]
    )
    assert not check.numerator_complete and not check.passed
    assert _orders(check) == (2,)


def test_cusp_relation_certificates_pass():
    for name, check in cusp_relation_certificates(certificate_table()):
        assert check.passed, (name, check.reason)
        assert check.numerator_complete and check.denominator_complete


def test_cusp_relation_ledger_d1():
    name, check = cusp_relation_certificates(certificate_table())[0]
    rows = {row.point: row for row in check.ledger}
    b0 = rows[catalog("B0")]
    assert b0.numerator_order == 4 and b0.denominator_order == 0
    t10 = rows[catalog("T10")]
    assert t10.numerator_order == 2 and t10.denominator_order == 1
    t00 = rows[catalog("T00")]
    assert t00.numerator_order == 0 and t00.denominator_order == 1
    b1 = rows[catalog("B1")]
    assert b1.numerator_order == 0 and b1.denominator_order == 2


def test_negative_control_without_cusp_correction():
    # dropping the cusp-supported part must fail pointwise at B0, B1, B2
    good = certificate_table()["D1-D0"]
    wrong_claim = named_divisor("D1") - named_divisor("D0")
    check = verify_certificate(
        wrong_claim, good.numerator, good.denominator, map(catalog, good.support)
    )
    assert not check.passed
    assert check.numerator_complete and check.denominator_complete


def test_perturbed_certificate_fails():
    table = _faulted(Fault("certificate", ("D1-D0", "numerator", (2, 0, 0)), 1))
    clean = certificate_table()["D1-D0"].numerator
    assert table["D1-D0"].numerator == clean + HomogPoly.monomial((2, 0, 0), 1)
    results = dict(cusp_relation_certificates(table))
    assert not results["D1-D0"].passed
    assert results["D2-D0"].passed and results["D3-D0"].passed
    # the run's copy is corrupted, the table itself is not
    assert all(check.passed for _, check in cusp_relation_certificates(certificate_table()))


def test_certificate_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_certificate(Divisor.zero(), X, X ** 2, [catalog("B0")])


def test_certificate_degrees_must_fit_the_claimed_degree():
    # deg(claimed) = 4 (deg G - deg H) is the one rule on degrees
    support = [catalog("T00"), catalog("T01")]
    d0 = named_divisor("D0")
    with pytest.raises(ValueError):
        verify_certificate(2 * d0, BITANGENT_LINES[0], X - z8 * Z, support)
    with pytest.raises(ValueError):
        verify_certificate(d0, BITANGENT_LINES[0], None, support)
    assert verify_certificate(2 * d0, BITANGENT_LINES[0], None, support).passed
    assert verify_certificate(
        2 * d0, BITANGENT_LINES[0] * (X - z8 * Z), X - z8 * Z, support + [catalog("B0")]
    ).passed


def test_empty_denominator_composes_nothing(monkeypatch):
    composed = []
    compose = valuations.compose

    def recorded(form, *args, **kwargs):
        composed.append(form)
        return compose(form, *args, **kwargs)

    monkeypatch.setattr(valuations, "compose", recorded)
    row = certificate_table()["2D0"]
    assert row.denominator is None
    check = verify_certificate(row.claimed, row.numerator, None, map(catalog, row.support))
    assert check.passed and check.denominator_complete
    assert composed and set(map(str, composed)) == {str(row.numerator)}
    assert all(r.denominator_order == 0 for r in check.ledger)


def test_each_certificate_part_is_one_form():
    # the numerator is a form, the denominator a form or None for 1, and
    # the forms a fault may corrupt are the rows' own
    table = certificate_table()
    for name, row in table.items():
        assert isinstance(row.numerator, HomogPoly), name
        assert row.denominator is None or isinstance(row.denominator, HomogPoly), name
    assert [name for name, row in table.items() if row.denominator is None] == list(BITANGENTS)
    forms = certificate_forms()
    assert len(forms) == 11
    for (name, part), form in forms.items():
        assert name in BITANGENTS + RELATIONS
        assert form is getattr(table[name], part), (name, part)


def test_certificate_requires_claimed_support():
    with pytest.raises(ValueError):
        verify_certificate(
            Divisor.point(catalog("B0")) - Divisor.point(catalog("B1")),
            X - z8 * Z,
            X - z8 ** 3 * Z,
            [catalog("B0")],
        )


def test_e_divisor_equality():
    assert e_divisor_equality()


def test_cusp_representatives_have_degree_zero():
    for name in ("D1-D0", "D2-D0", "D3-D0"):
        assert named_divisor(name).degree() == 0


CERT_FORMS = None


def _certificate_forms():
    global CERT_FORMS
    if CERT_FORMS is None:
        forms = list(BITANGENT_LINES)
        forms.append(X ** 2 + Y ** 2 + Z ** 2)
        forms.extend([X - z8 ** k * Z for k in (1, 3, 5, 7)])
        forms.append(Y)
        for name in RELATIONS:
            forms.extend(_forms(certificate_table()[name]))
        CERT_FORMS = forms
    return CERT_FORMS


def test_bezout_exactness_of_certificate_forms():
    """Every form used in a certificate has valuation sum 4*deg over the
    full catalog of named points."""
    support = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for form in _certificate_forms():
        divisor, complete = principal_divisor_on_support(form, support)
        assert complete, form


def test_valuation_additivity_random():
    rng = random.Random(7117)
    forms = _certificate_forms()
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for _ in range(150):
        g = rng.choice(forms)
        h = rng.choice(forms)
        point = rng.choice(points)
        product = g * h
        bound = 4 * product.degree + 1
        assert valuation(product, point, bound) == valuation(
            g, point, bound
        ) + valuation(h, point, bound)


def test_galois_equivariance_of_valuations():
    lifts = (SIGMA3, SIGMA3_ALT, SIGMA5, SIGMA5_ALT, TAU)
    for name in RELATIONS:
        row = certificate_table()[name]
        for form in _forms(row):
            bound = 4 * form.degree + 1
            for point in map(catalog, row.support):
                v = valuation(form, point, bound)
                for sigma in lifts:
                    assert (
                        valuation(form.galois(sigma), point.galois(sigma), bound) == v
                    )


def test_principal_divisor_propagates_overflow():
    with pytest.raises(OrderBoundExceeded):
        principal_divisor_on_support(CURVE, [catalog("B0")])


def test_certificate_support_off_curve_rejected():
    from quartic_twist.curve import ProjPoint

    with pytest.raises(ValueError):
        principal_divisor_on_support(X, [ProjPoint(1, 0, 0)])
    # a point given twice would count its valuation twice
    with pytest.raises(ValueError, match="pairwise distinct"):
        principal_divisor_on_support(X, [catalog("B0"), catalog("B0")])


def test_expansion_cache_concurrent_use():
    # expansions are cached per (point, precision); concurrent lookups and
    # duplicate inserts must agree
    from concurrent.futures import ThreadPoolExecutor

    points = [catalog(name) for name in ("B0", "A0", "C0", "T00", "T31")]

    def job(point):
        exp = expand_branch(point, 11)
        return valuation(X + Y + Z, point, 9)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, points * 8))
    for i, point in enumerate(points):
        column = results[i::len(points)]
        assert all(v == column[0] for v in column)


# ---------------------------------------------------------------------------
# reference oracles for the series layer


def _ser_add(a, b):
    return tuple((x + y if x else y) if y else x for x, y in zip(a, b))


def _ser_mul(a, b, order):
    out = [ZERO] * order
    for i, ai in enumerate(a[:order]):
        if ai:
            for j, bj in enumerate(b[: order - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _ser_scale(c, a):
    return tuple(c * x if x else ZERO for x in a)


def _reference_compose(form, expansion, order):
    """The composition on field elements: the coordinate series as CycNum
    tuples, multiplied out term by term with a normalisation per product."""
    coords = [None] * 3
    coords[expansion.chart] = (ONE,) + (ZERO,) * (order - 1)
    param = [ZERO] * order
    param[0] = expansion.center.coords[expansion.parameter]
    if order > 1:
        param[1] = ONE
    coords[expansion.parameter] = tuple(param)
    coords[expansion.dependent] = tuple(expansion.series[:order])
    total = (ZERO,) * order
    for exponents, c in form.terms.items():
        term = (ONE,) + (ZERO,) * (order - 1)
        for axis, e in enumerate(exponents):
            for _ in range(e):
                term = _ser_mul(term, coords[axis], order)
        total = _ser_add(total, _ser_scale(c, term))
    return total


def _reference_expansion(point, precision):
    """The plain per-order solver: with the series correct mod t^n, compose
    the whole curve equation once more and read off the next coefficient
    from [t^n] F = [t^n] F(.., v, ..) + F_dep(P) * v_n."""
    chart = next(i for i, c in enumerate(point.coords) if c)
    first, second = [axis for axis in range(3) if axis != chart]
    if CURVE.partial(second).evaluate(point):
        parameter, dependent = first, second
    else:
        parameter, dependent = second, first
    dep_partial_inv = CURVE.partial(dependent).evaluate(point).inv()
    series = [point.coords[dependent]]
    for n in range(1, precision):
        partial = BranchExpansion(
            point, chart, parameter, dependent, (*series, ZERO), n + 1
        )
        residual = _reference_compose(CURVE, partial, n + 1)
        series.append(-(residual[n] * dep_partial_inv))
    return BranchExpansion(point, chart, parameter, dependent, tuple(series), precision)


def test_expansion_matches_per_order_reference():
    assert len(CATALOG) == 22
    for name, point in CATALOG.items():
        valuations._EXPANSION_CACHE.pop(point, None)
        assert expand_branch(point, 17) == _reference_expansion(point, 17), name


def test_resumed_expansions_match_per_order_reference():
    # one branch per point serves every precision: requests in any order,
    # lower than one already solved or repeated, give the same expansions
    rng = random.Random(9061)
    valuations._EXPANSION_CACHE.clear()
    references = {}
    for name, point in CATALOG.items():
        order = [1, 1, 2, 3, 5, 5, 8, 11, 16, 17]
        rng.shuffle(order)
        assert any(a > b for a, b in zip(order, order[1:])), name
        for precision in order:
            if (point, precision) not in references:
                references[point, precision] = _reference_expansion(point, precision)
            expansion = expand_branch(point, precision)
            assert expansion == references[point, precision], (name, precision)
            assert len(expansion.series) == precision


def test_resumed_expansions_under_concurrent_requests():
    # threads share each point's branch: every thread's
    # expansions and compositions must still be the reference truncations,
    # whatever the interleaving
    import sys
    from concurrent.futures import ThreadPoolExecutor

    points = [CATALOG[name] for name in ("A1", "B3", "C2", "T01", "T30", "E+")]
    references = {point: _reference_expansion(point, 17) for point in points}
    form = (X - z8 * Z) ** 2 * (X + Y - Z)
    composed = {point: _reference_compose(form, references[point], 17) for point in points}

    def job(seed):
        rng = random.Random(seed)
        point = rng.choice(points)
        order = [1, 2, 4, 8, 16, 17, 3, 9]
        rng.shuffle(order)
        for precision in order:
            expansion = expand_branch(point, precision)
            assert expansion.series == references[point].series[:precision], (point, precision)
            assert compose_with_branch(form, expansion, precision) == (
                composed[point][:precision]
            ), (point, precision)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            valuations._EXPANSION_CACHE.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(job, 100 * round_ + i) for i in range(24)]
                for future in futures:
                    future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_gate_rejects_a_corrupted_first_solve(monkeypatch):
    # a slope inverted wrongly makes every nonzero v_n wrong: the curve
    # composed with the table grown from it must not vanish
    point = CATALOG["T10"]
    valuations._EXPANSION_CACHE.clear()
    inv = CycNum.inv
    monkeypatch.setattr(CycNum, "inv", lambda self: inv(self) * 2)
    with pytest.raises(AssertionError):
        expand_branch(point, 4)
    assert valuations._EXPANSION_CACHE[point]._state[1] < 4
    monkeypatch.undo()
    valuations._EXPANSION_CACHE.clear()
    assert expand_branch(point, 4) == _reference_expansion(point, 4)


def test_gate_rejects_a_corrupted_resumed_solve(monkeypatch):
    point = CATALOG["A2"]
    valuations._EXPANSION_CACHE.clear()
    assert expand_branch(point, 4) == _reference_expansion(point, 4)
    branch = valuations._EXPANSION_CACHE[point]
    monkeypatch.setattr(branch, "_slope_inv", branch._slope_inv * 2)
    with pytest.raises(AssertionError):
        expand_branch(point, 8)
    assert branch._state[1] < 8
    monkeypatch.undo()
    valuations._EXPANSION_CACHE.clear()
    assert expand_branch(point, 8) == _reference_expansion(point, 8)


def test_compose_reads_only_a_truncation_of_the_branch():
    # an expansion is a plain value: composing one that is not a prefix of
    # its center's branch fails, where it would otherwise read another series
    point, form = CATALOG["B1"], (X - z8 * Z) * (X + Y - Z)
    valuations._EXPANSION_CACHE.clear()
    expansions = [expand_branch(point, precision) for precision in range(1, 18)]
    reference = _reference_compose(form, _reference_expansion(point, 17), 17)
    full = expansions[-1]
    changed = (*full.series[:4], full.series[4] + ONE, *full.series[5:])
    for bad in (
        full._replace(series=changed),
        full._replace(series=full.series[:16]),
        full._replace(parameter=full.dependent, dependent=full.parameter),
    ):
        with pytest.raises(ValueError):
            valuations.compose(form, bad, 17)
        with pytest.raises(ValueError):
            compose_with_branch(form, bad, 17)
    # nor does a prefix compose past its own precision
    with pytest.raises(ValueError, match="exceeds the expansion precision"):
        valuations.compose(form, expansions[3], 5)
    # expand_branch's own expansions compose at every precision, also along
    # a branch built again after the cache was cleared
    for clear in (False, True):
        if clear:
            valuations._EXPANSION_CACHE.clear()
        for expansion in reversed(expansions) if clear else expansions:
            precision = expansion.precision
            assert compose_with_branch(form, expansion, precision) == reference[:precision]


def test_solver_inverts_once_per_point_and_clearing_drops_it(monkeypatch):
    calls = [0]
    inv = CycNum.inv

    def counted(self):
        calls[0] += 1
        return inv(self)

    point = CATALOG["C3"]
    valuations._EXPANSION_CACHE.clear()
    monkeypatch.setattr(CycNum, "inv", counted)
    expand_branch(point, 4)
    assert calls[0] == 1
    expand_branch(point, 17)
    expand_branch(point, 2)
    assert calls[0] == 1  # resumed and truncated, not set up again
    valuations._EXPANSION_CACHE.clear()
    expand_branch(point, 4)
    assert calls[0] == 2


def _full_valuation(form, point, bound):
    """First nonzero coefficient of one composition to order bound + 1, or
    None where every coefficient below the bound vanishes."""
    series = compose_with_branch(form, expand_branch(point, bound + 1), bound + 1)
    return next((n for n in range(bound) if series[n]), None)


def _assert_on_demand_matches(form, point):
    bound = 4 * form.degree + 1
    expected = _full_valuation(form, point, bound)
    if expected is None:
        with pytest.raises(OrderBoundExceeded):
            valuation(form, point, bound)
    else:
        assert valuation(form, point, bound) == expected, (form, point)


def test_on_demand_valuation_matches_full_composition_on_certificates():
    cases = []
    for row in certificate_table().values():
        for form in _forms(row):
            cases.extend((form, catalog(n)) for n in row.support)
    assert len(cases) == 82
    for form, point in cases:
        _assert_on_demand_matches(form, point)


def _report_reads(monkeypatch, tmp_path, payload=None):
    """Every (form, point) whose valuation a report reads, with the fault
    file of the given payload or none."""
    fault = None
    if payload is not None:
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        fault = load_fault(str(path))
    reads = {}
    read = valuations.valuation

    def recorded(form, point, bound):
        reads[str(form), point] = (form, point, bound)
        return read(form, point, bound)

    with monkeypatch.context() as patch:
        patch.setattr(valuations, "valuation", recorded)
        valuations._EXPANSION_CACHE.clear()
        report = build_report(fault=fault)
    assert report.exit_code == (payload is not None)
    return reads


def test_on_demand_valuation_matches_full_composition_where_reports_read(monkeypatch, tmp_path):
    fixture = FIXTURES / "fault_certificate.json"
    payloads = [None, json.loads(fixture.read_text(encoding="utf-8"))]
    payloads += random.Random(1804).sample(fault_space("certificate"), 9)
    cases = {}
    for payload in payloads:
        cases.update(_report_reads(monkeypatch, tmp_path, payload))
    assert len(cases) == 147  # 78 in the clean report
    for form, point, bound in cases.values():
        assert bound == 4 * form.degree + 1
        _assert_on_demand_matches(form, point)


def _random_form(rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        terms[(i, j, degree - i - j)] = rng.randint(-3, 3) * d_power(rng.randrange(24))
    return HomogPoly(degree, terms)


def test_on_demand_valuation_matches_full_composition_random():
    # random forms times 0..deg lines through the point, so that orders
    # from 0 up to several precision doublings occur
    rng = random.Random(20211)
    lines = [X - z8 ** k * Z for k in (1, 3, 5, 7)] + BITANGENT_LINES
    lines += [X, Y, Z]
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    orders = set()
    tested = 0
    while tested < 120:
        point = rng.choice(points)
        through = [line for line in lines if not line.evaluate(point)]
        degree = rng.randint(1, 3)
        cut = rng.randint(0, degree)
        form = HomogPoly(0, {(0, 0, 0): 1})
        if cut < degree:
            form = _random_form(rng, degree - cut)
        for _ in range(cut):
            form = form * rng.choice(through)
        if not form:
            continue
        _assert_on_demand_matches(form, point)
        orders.add(_full_valuation(form, point, 4 * degree + 1))
        tested += 1
    assert {0, 1, 2, 4, 8} <= orders


def test_valuation_equal_to_bound_is_exceeded():
    # X - z8 Z vanishes to order exactly 4 at B0
    assert valuation(X - z8 * Z, catalog("B0"), 5) == 4
    with pytest.raises(OrderBoundExceeded):
        valuation(X - z8 * Z, catalog("B0"), 4)


def test_order_bound_exceeded_for_curve_times_line():
    for line, point in ((X + Y + Z, "T00"), (X - z8 * Z, "B0"), (Y, "A1")):
        form = CURVE * line
        with pytest.raises(OrderBoundExceeded):
            valuation(form, catalog(point), 4 * form.degree + 1)


def _reference_forms():
    """The curve, every certificate form and the forms of the E identities."""
    forms = [CURVE] + _certificate_forms()
    for name in E_IDENTITIES:
        forms += _forms(certificate_table()[name])
    return forms


def test_row_composition_matches_field_reference_at_catalog_points():
    # the expansion at precision p is the truncation of the one at 17, so the
    # reference composition at 17, truncated, is the reference at every p
    forms = _reference_forms()
    assert len(CATALOG) == 22 and len(forms) == 23
    for name, point in CATALOG.items():
        full = expand_branch(point, 17)
        references = [_reference_compose(form, full, 17) for form in forms]
        for precision in range(1, 18):
            expansion = expand_branch(point, precision)
            assert expansion.series == full.series[:precision], (name, precision)
            for form, reference in zip(forms, references):
                assert (
                    compose_with_branch(form, expansion, precision) == reference[:precision]
                ), (name, precision, form)


def test_row_composition_matches_field_reference_random():
    rng = random.Random(71017)
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    for _ in range(120):
        form = _random_form(rng, rng.randint(1, 4))
        point = rng.choice(points)
        precision = rng.randint(1, 17)
        expansion = expand_branch(point, precision)
        assert compose_with_branch(form, expansion, precision) == _reference_compose(
            form, expansion, precision
        ), (form, point, precision)


def test_row_composition_with_rational_coefficients():
    # coefficient denominators 3, 2 and 4 on top of the series denominators
    form = HomogPoly(2, {(2, 0, 0): Fraction(1, 3), (1, 1, 0): Fraction(-5, 2) * z8,
                         (0, 0, 2): Fraction(7, 4)})
    for name in ("T00", "B1", "C3"):
        for precision in (1, 5, 13):
            expansion = expand_branch(catalog(name), precision)
            for g in (form, form * (X + Y), CURVE):
                assert compose_with_branch(g, expansion, precision) == _reference_compose(
                    g, expansion, precision
                ), (name, precision, g)


def test_series_product_matches_field_reference_on_dense_rows():
    # every power d^0..d^14 occurs in the unreduced products, and zero rows
    # are interleaved; catalog series alone rarely carry d^7
    rng = random.Random(8824)

    def row_series(order):
        return [
            tuple(rng.randint(-50, 50) for _ in range(8)) if rng.random() < 0.8 else None
            for _ in range(order)
        ]

    def as_field(rows, den):
        return tuple(ZERO if r is None else CycNum._raw(r, den) for r in rows)

    def sparse(rows):
        return [(n, [(p, v) for p, v in enumerate(r) if v]) for n, r in enumerate(rows) if r]

    def dense(series, order):
        powers = [n for n, _ in series]
        assert powers == sorted(set(powers))
        rows = [None] * order
        for n, pairs in series:
            assert pairs and all(v for _, v in pairs)
            nums = [0] * 8
            for p, v in pairs:
                nums[p] = v
            rows[n] = tuple(nums)
        return rows

    for _ in range(40):
        order = rng.randint(1, 12)
        a, b = row_series(order), row_series(rng.randint(1, order))
        da, db = rng.randint(1, 9), rng.randint(1, 9)
        product = dense(valuations._series_mul(sparse(a), sparse(b), order), order)
        assert as_field(product, da * db) == _ser_mul(as_field(a, da), as_field(b, db), order)


def test_row_composition_matches_field_reference_with_dense_coefficients():
    rng = random.Random(8825)
    points = sorted(set(CATALOG.values()), key=lambda p: p.sort_key())
    non_integral = 0
    for _ in range(30):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            nums = [rng.randint(-9, 9) for _ in range(8)]
            den = rng.randint(1, 5)
            terms[(i, j, degree - i - j)] = CycNum([Fraction(n, den) for n in nums])
        form = HomogPoly(degree, terms)
        non_integral += any(c.den > 1 for c in form.terms.values())
        precision = rng.randint(1, 13)
        expansion = expand_branch(rng.choice(points), precision)
        assert compose_with_branch(form, expansion, precision) == _reference_compose(
            form, expansion, precision
        )
    assert non_integral
