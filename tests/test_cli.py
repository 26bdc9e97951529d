"""The command-line harness: golden output, JSON round-trip, filters,
exit codes, fault injection."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quartic_twist import certificates, checks
from quartic_twist.checks import (
    build_report,
    list_check_ids,
    load_fault,
    parse_json,
    render_json,
    render_text,
    run_single,
)
from quartic_twist.cli import main
from quartic_twist.curve import CUSP_NAMES
from quartic_twist.cyclotomic import SIGMA3

GOLDEN = Path(__file__).parent / "golden" / "full_report.txt"
FIXTURES = Path(__file__).parent / "fixtures"


def test_full_text_matches_golden():
    assert render_text(build_report()) == GOLDEN.read_text(encoding="utf-8")


def test_output_is_deterministic():
    first = render_text(build_report())
    second = render_text(build_report())
    assert first == second
    assert render_json(build_report()) == render_json(build_report())


def test_summary_counts():
    report = build_report()
    counts = report.summary
    assert counts["fail"] == 0
    assert counts["skipped"] == 12
    assert counts["ok"] == len(report.checks) - 12
    assert report.exit_code == 0


def test_json_round_trip():
    report = build_report()
    assert parse_json(render_json(report)) == report
    payload = json.loads(render_json(report))
    assert set(payload) == {"checks", "summary"}
    assert set(payload["summary"]) == {"ok", "fail", "skipped"}
    for item in payload["checks"]:
        assert set(item) == {"id", "section", "label", "status", "detail"}


def _break_sigma3_permutation(monkeypatch):
    """Make the cusp permutation of sigma_3 raise, as a layer bug would:
    the records that read it fail with the error, and no other record."""
    permutation = checks.cusp_permutation

    def broken(sigma):
        if sigma is SIGMA3:
            raise RuntimeError("broken permutation")
        return permutation(sigma)

    monkeypatch.setattr(checks, "cusp_permutation", broken)


# the records that read the cusp permutation of sigma_3, and the theorem
# that rests on the derived matrix of sigma_3
_READ_SIGMA3_PERMUTATION = (
    {f"perm-s3-{c.lower()}" for c in CUSP_NAMES}
    | {f"action-s3-e{j}" for j in range(1, 7)}
    | {"matrix-s3", "theorem-odd-torsors"}
)


def test_json_round_trip_needs_no_rebuild(monkeypatch):
    reports = [
        build_report(),
        build_report(section="galois"),
        # an odd dictionary corruption makes the derived matrices ill-defined:
        # the rows that read them carry the error
        build_report(
            section="galois",
            fault=checks.Fault("dictionary", ("gamma3", 0), 1),
        ),
    ]
    details = {r.check_id: r.detail for r in reports[2].checks}
    assert set(details["matrix-s3"]) == set(details["action-s5-e1"]) == {"error"}
    _break_sigma3_permutation(monkeypatch)
    reports.append(build_report(section="galois"))
    assert reports[3].checks[0].detail == {"error": "broken permutation"}

    def no_rebuild(*args, **kwargs):
        raise AssertionError("parse_json rebuilt the report")

    monkeypatch.setattr(checks, "build_report", no_rebuild)
    for report in reports:
        assert parse_json(render_json(report)) == report
    # each header is read from the rows, so an id that names no row is rejected
    payload = json.loads(render_json(reports[1]))
    payload["checks"][0]["id"] = "galois-builder"
    with pytest.raises(ValueError, match="'galois-builder'"):
        parse_json(json.dumps(payload))


def test_check_ids_unique():
    ids = list_check_ids()
    assert len(ids) == len(set(ids))


def test_theorem_details_carry_dependencies():
    report = build_report(section="theorems")
    by_id = {r.check_id: r for r in report.checks}
    detail = by_id["theorem-mordell-weil"].detail
    assert detail["depends_on"] == [
        "certificates", "fixed-submodule", "brauer-cocycle", "dictionary"
    ]
    quadratic = by_id["theorem-quadratic-points"].detail
    assert quadratic["depends_on"] == ["certificates", "fixed-submodule", "dictionary"]
    assert detail["assumptions"]
    torsors = by_id["theorem-odd-torsors"].detail
    assert any("sqrt" in note for note in torsors["notes"])


def test_skipped_only_in_dictionary():
    for record in build_report().checks:
        if record.status.startswith("SKIPPED"):
            assert record.section == "dictionary"
            assert record.check_id.startswith("dict-")


def test_section_filter():
    report = build_report(section="galois")
    assert all(record.section == "galois" for record in report.checks)
    assert len(report.checks) == 40
    perm = [r for r in report.checks if r.check_id.startswith("perm-")]
    action = [r for r in report.checks if r.check_id.startswith("action-")]
    assert len(perm) == 24 and len(action) == 12
    with pytest.raises(ValueError):
        build_report(section="nonsense")


def test_run_single():
    report = run_single("brauer-cocycle")
    assert len(report.checks) == 1
    assert report.checks[0].status == "OK"
    with pytest.raises(ValueError):
        run_single("no-such-check")


def test_main_exit_codes(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert out.endswith("Summary: 92 OK, 0 FAIL, 12 SKIPPED\n")

    assert main(["--section", "torsor"]) == 0
    capsys.readouterr()

    assert main(["--check", "definitely-not-a-check"]) == 2
    capsys.readouterr()

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "bitangent-2d0" in out.splitlines()


def test_main_json(capsys):
    assert main(["--format", "json", "--section", "quadratic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 0
    assert {item["section"] for item in payload["checks"]} == {"quadratic"}


def test_usage_error_exit_code(capsys):
    result = subprocess.run(
        [sys.executable, "-m", "quartic_twist", "--section", "bogus"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("quartic-twist: argument --section: invalid choice: ")
    assert result.stderr.count("\n") == 1
    for argv, message in [
        (["--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["--list", "--check", "brauer-cocycle"], "argument --check: not allowed with argument --list"),
        (["--list", "--section", "galois"], "argument --section: not allowed with argument --list"),
        (["--check", "brauer-cocycle", "--section", "galois"],
         "argument --section: not allowed with argument --check"),
        # --list reads no fault file, so it must not accept one silently
        (["--list", "--fault", "/nonexistent.json"], "argument --list: not allowed with argument --fault"),
        (["--list", "--format", "json"], "argument --list: not allowed with argument --format"),
        (["--f", "x"], "ambiguous option: --f could match --format, --fault"),
        (["--list=1"], "argument --list: ignored explicit argument '1'"),
        (["--check"], "argument --check: expected one argument"),
        (["--check", "--list"], "argument --check: expected one argument"),
        (["foo"], "unrecognized arguments: foo"),
        (["--list", "--", "--check", "x"], "unrecognized arguments: -- --check x"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"quartic-twist: {message}\n", argv

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err == "", argv
        return code, captured.out

    # an abbreviation reads as the option it abbreviates
    code, out = run(["--sec", "galois"])
    galois = out.partition("\nSummary: ")[0]
    assert code == 0 and galois.startswith(checks.HEADER_SIGMA3 + "\n")
    assert galois in GOLDEN.read_text(encoding="utf-8")
    # `--opt=VALUE` reads as `--opt VALUE`, and of two requests the later wins
    assert run(["--format=json", "--section=quadratic"]) == run(["--format", "json", "--section", "quadratic"])
    assert run(["--check", "dict-alpha0", "--check", "dict-alpha1"]) == run(["--check", "dict-alpha1"])
    assert run(["--check", "dict-alpha1"]) != run(["--check", "dict-alpha0"])
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0, argv
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: quartic-twist ") and captured.err == "", argv
    # an empty id or fault path is an error, not an absent option
    for argv in (["--check="], ["--fault="]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_cli_matches_golden_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "quartic_twist"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout == GOLDEN.read_text(encoding="utf-8")


# an unwritable output ends in one line on stderr and exit 2, buffered or not
_BUFFERING = {"unbuffered": {"PYTHONUNBUFFERED": "1"}, "buffered": {}}
_CANNOT_WRITE = "quartic-twist: cannot write output: "


def _cli_env(buffering: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, **_BUFFERING[buffering]}


@pytest.mark.parametrize("buffering", _BUFFERING)
def test_list_into_a_reader_that_closes_after_one_line(buffering):
    process = subprocess.Popen(
        [sys.executable, "-m", "quartic_twist", "--list"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_cli_env(buffering),
    )
    assert process.stdout.readline() == "bitangent-2d0\n"
    process.stdout.close()
    code = process.wait(timeout=120)
    err = process.stderr.read()
    process.stderr.close()
    # the ids go out in one write, so the reader most often has them all
    assert (code, err) in ((0, ""), (2, _CANNOT_WRITE + "Broken pipe\n"))


@pytest.mark.parametrize("buffering", _BUFFERING)
@pytest.mark.parametrize("request_args", [[], ["--list"], ["--help"], ["--format", "json"]])
def test_output_into_a_pipe_with_no_reader(request_args, buffering):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "quartic_twist", *request_args], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=_cli_env(buffering),
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, _CANNOT_WRITE + "Broken pipe\n")


@pytest.mark.parametrize("request_args", [[], ["--list"]])
def test_output_with_stdout_closed(request_args):
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "quartic_twist", *request_args],
        stderr=subprocess.PIPE, text=True,
    )
    expected = _CANNOT_WRITE + "standard output is closed\n"
    assert (result.returncode, result.stderr) == (2, expected)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffering", _BUFFERING)
@pytest.mark.parametrize("request_args", [[], ["--list"]])
def test_output_onto_a_full_device(request_args, buffering):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "quartic_twist", *request_args], stdout=full,
            stderr=subprocess.PIPE, text=True, env=_cli_env(buffering),
        )
    expected = _CANNOT_WRITE + "No space left on device\n"
    assert (result.returncode, result.stderr) == (2, expected)


# three usage errors and an unwritable output: each exits 2 whatever
# becomes of the line on stderr
_EXIT_2_REQUESTS = [["--check", "nope"], ["--section", "bogus"], ["--fault", "/nonexistent"],
                    ["--list"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffering", _BUFFERING)
@pytest.mark.parametrize("request_args", _EXIT_2_REQUESTS)
def test_exit_2_with_stderr_on_a_full_device(request_args, buffering):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "quartic_twist", *request_args], stdout=full,
            stderr=full, env=_cli_env(buffering),
        )
    assert result.returncode == 2


@pytest.mark.parametrize("buffering", _BUFFERING)
@pytest.mark.parametrize("request_args", _EXIT_2_REQUESTS)
def test_exit_2_with_stderr_closed(request_args, buffering):
    # stdout is a pipe with no reader, so `--list` cannot write either
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "quartic_twist",
             *request_args], stdout=write_end, env=_cli_env(buffering),
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2


def test_usage_errors_in_process_with_no_stderr(monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["--check", "nope"]) == 2
    assert main(["--fault", "/nonexistent"]) == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["--section", "bogus"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "fixture",
    ["fault_dictionary.json", "fault_matrix.json", "fault_certificate.json",
     "fault_shift.json", "fault_class.json"],
)
def test_fault_fixtures_fail(fixture, capsys):
    code = main(["--fault", str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert code == 1
    assert " : FAIL" in out
    # the corruption reaches the assembled results
    assembled = out.split(checks.HEADER_THEOREMS + "\n", 1)[1].split("\n\n", 1)[0]
    assert " : FAIL" in assembled


def test_fault_objects():
    fault = load_fault(str(FIXTURES / "fault_matrix.json"))
    assert fault == checks.Fault("matrix", ("s3", 0, 0), 1)
    report = build_report(fault=fault)
    assert report.exit_code == 1
    failing = {r.check_id for r in report.checks if r.status == "FAIL"}
    assert "matrix-s3" in failing


def test_theorems_see_a_section_that_could_not_run(monkeypatch):
    # a cusp permutation that raises fails the records that read it, each
    # under its own label, and the theorem that rests on the action
    # matrices; every other record is that of a clean run
    clean = build_report().checks
    _break_sigma3_permutation(monkeypatch)
    report = build_report().checks
    failing = {r.check_id for r in report if r.status == "FAIL"}
    assert failing == _READ_SIGMA3_PERMUTATION
    for record, before in zip(report, clean, strict=True):
        if record.check_id not in failing:
            assert record == before
            continue
        assert record == before._replace(status="FAIL", detail=record.detail)
        if record.check_id != "theorem-odd-torsors":
            assert record.detail == {"error": "broken permutation"}


def test_each_section_is_built_once_per_run(monkeypatch):
    calls = []
    original = certificates.bitangent_checks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def rerun(*args, **kwargs):
        raise AssertionError("the theorems re-ran the certificate suite")

    monkeypatch.setattr(certificates, "bitangent_checks", counted)
    monkeypatch.setattr(checks.theorems, "certificate_suite_passes", rerun)
    full = build_report()
    assert len(calls) == 1
    theorems_only = build_report(section="theorems")
    assert len(calls) == 2
    assert theorems_only.checks == tuple(
        r for r in full.checks if r.section == "theorems"
    )


def test_bad_fault_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"target": "nonsense"}', encoding="utf-8")
    assert main(["--fault", str(bad)]) == 2
    bad.write_text('{"target": "matrix",', encoding="utf-8")
    assert main(["--fault", str(bad)]) == 2
    assert main(["--fault", str(tmp_path / "missing.json")]) == 2


_CERTIFICATE_FAULT = {
    "target": "certificate", "certificate": "D1-D0", "part": "numerator",
    "monomial": [2, 0, 0], "delta": 1,
}
_DICTIONARY_FAULT = {"target": "dictionary", "entry": "gamma3", "index": 0, "delta": 2}
_MATRIX_FAULT = {"target": "matrix", "matrix": "s3", "row": 0, "col": 0, "delta": 1}


_SHIFT_FAULT = {"target": "shift", "shift": "sigma_5", "index": 0, "delta": 2}
_CLASS_FAULT = {"target": "class", "class": "E", "index": 3, "delta": 2}


# each case with a part of the message that names the rejected field, entry or value
@pytest.mark.parametrize(
    "payload, named",
    [
        pytest.param({**_CERTIFICATE_FAULT, "certificate": "D9-D0"}, "'D9-D0'",
                     id="unknown-certificate"),
        pytest.param({**_CERTIFICATE_FAULT, "part": "middle"}, "'middle'", id="unknown-part"),
        # the forms of the E identities are rows of the table, but no fault reaches them
        pytest.param({**_CERTIFICATE_FAULT, "certificate": "2E", "monomial": [1, 0, 0]},
                     "unknown certificate ('2E', 'numerator')", id="brauer-form-2e"),
        pytest.param({**_CERTIFICATE_FAULT, "certificate": "E+sigma3(E)", "part": "denominator"},
                     "unknown certificate ('E+sigma3(E)', 'denominator')", id="brauer-form-u-tau"),
        # a one-form certificate has the denominator 1, which is no form
        pytest.param({**_CERTIFICATE_FAULT, "certificate": "2D0", "part": "denominator",
                      "monomial": [1, 0, 0]}, "('2D0', 'denominator')", id="one-form-denominator"),
        pytest.param({**_CERTIFICATE_FAULT, "certificate": ["D1-D0"]}, "certificate must be",
                     id="non-string-certificate"),
        pytest.param({**_CERTIFICATE_FAULT, "monomial": "X^2"}, "'X^2'", id="non-list-monomial"),
        pytest.param({**_CERTIFICATE_FAULT, "monomial": [1, 1]}, "[1, 1]", id="short-monomial"),
        pytest.param({**_CERTIFICATE_FAULT, "monomial": [1, 0, 0]}, "(1, 0, 0)",
                     id="monomial-degree"),
        pytest.param({**_CERTIFICATE_FAULT, "monomial": [3, -1, 0]}, "(3, -1, 0)",
                     id="negative-exponent"),
        pytest.param({**_CERTIFICATE_FAULT, "monomial": [1, 0.5, 0.5]}, "[1, 0.5, 0.5]",
                     id="non-integer-exponent"),
        pytest.param({**_CERTIFICATE_FAULT, "delta": 0}, "delta 0", id="certificate-zero-delta"),
        pytest.param({**_DICTIONARY_FAULT, "entry": "delta0"}, "'delta0'", id="unknown-entry"),
        pytest.param({**_DICTIONARY_FAULT, "entry": ["alpha0"]}, "entry must be",
                     id="non-string-entry"),
        pytest.param({**_DICTIONARY_FAULT, "index": 6}, "index must be", id="index-out-of-range"),
        pytest.param({**_DICTIONARY_FAULT, "index": -1}, "index must be", id="negative-index"),
        pytest.param({**_DICTIONARY_FAULT, "delta": 4}, "delta 4",
                     id="dictionary-delta-zero-mod-4"),
        pytest.param({**_DICTIONARY_FAULT, "index": 5, "delta": 2}, "delta 2",
                     id="dictionary-delta-zero-mod-2"),
        pytest.param({**_DICTIONARY_FAULT, "delta": "2"}, "delta must be", id="string-delta"),
        pytest.param({**_DICTIONARY_FAULT, "delta": 1.5}, "delta must be", id="float-delta"),
        pytest.param({**_DICTIONARY_FAULT, "delta": True}, "delta must be", id="boolean-delta"),
        pytest.param({**_MATRIX_FAULT, "matrix": "s7"}, "'s7'", id="unknown-matrix"),
        pytest.param({**_MATRIX_FAULT, "row": 6}, "row must be", id="row-out-of-range"),
        pytest.param({**_MATRIX_FAULT, "col": 9}, "col must be", id="col-out-of-range"),
        pytest.param({**_MATRIX_FAULT, "delta": -4}, "delta -4", id="matrix-delta-zero-mod-4"),
        pytest.param({**_MATRIX_FAULT, "row": 5, "delta": 2}, "delta 2",
                     id="matrix-delta-zero-mod-2"),
        # e_6 has order 2, so rows 1-5 of column 6 must stay even
        pytest.param({**_MATRIX_FAULT, "col": 5, "delta": 1}, "('s3', 0, 5)",
                     id="matrix-column-6-odd"),
        pytest.param({**_SHIFT_FAULT, "shift": "sigma_7"}, "'sigma_7'", id="unknown-shift"),
        pytest.param({**_SHIFT_FAULT, "delta": 4}, "delta 4", id="shift-delta-zero-mod-4"),
        pytest.param({**_CLASS_FAULT, "class": ["E"]}, "class must be", id="non-string-class"),
        pytest.param({**_CLASS_FAULT, "index": 6}, "index must be", id="class-index-out-of-range"),
        pytest.param({**_MATRIX_FAULT, "colum": 0}, "colum", id="unknown-field"),
        pytest.param({"target": "matrix", "matrix": "s3", "delta": 1}, "not delta, matrix, target",
                     id="missing-field"),
        pytest.param({"target": ["matrix"]}, "['matrix']", id="non-string-target"),
        pytest.param([_MATRIX_FAULT], "JSON object", id="top-level-array"),
        # raw text: a key given twice, which `json.load` alone reads as its last value
        pytest.param('{"target": "class", "class": "E", "index": 3, "delta": 2, "delta": 1}',
                     "duplicate key 'delta'", id="duplicate-key"),
        # raw text: too deep for the JSON decoder, which raises RecursionError
        pytest.param("[" * 100_000, "recursion", id="deeply-nested"),
        # raw text: one character past the 2^20 that a fault file may hold
        pytest.param(" " * (1 << 20) + "{", "larger than 1048576 characters", id="oversized"),
    ],
)
def test_malformed_fault_is_usage_error(payload, named, tmp_path, capsys):
    path = tmp_path / "fault.json"
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    assert main(["--fault", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quartic-twist: bad fault file: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err, captured.err


def test_known_id_whose_fact_raises_fails_under_its_own_label(monkeypatch, capsys):
    # a cusp permutation that raises fails a record that reads it under the
    # record's own header and label, and leaves a record that does not read it
    (record,) = run_single("action-s3-e1").checks
    _break_sigma3_permutation(monkeypatch)
    assert main(["--check", "action-s3-e1"]) == 1
    out = capsys.readouterr().out
    assert out == (
        f"{checks.HEADER_SIGMA3}\n{record.label} : FAIL\n\n"
        "Summary: 0 OK, 1 FAIL, 0 SKIPPED\n"
    )
    assert main(["--check", "perm-s5-a0"]) == 0
    assert capsys.readouterr().out.endswith("Summary: 1 OK, 0 FAIL, 0 SKIPPED\n")
    assert main(["--check", "no-such-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "quartic-twist: unknown check id 'no-such-check'\n"


# one generated corruption per dictionary entry that no theorem used to
# depend on, with the checks upstream of the theorems that it fails
@pytest.mark.parametrize(
    "entry, delta, upstream",
    [
        ("alpha1", 1, {"coords-d2-d0", "coords-d3-d0", "dict-basis", "dict-gamma2-e6",
                       "shift-s3"}),
        ("alpha2", 2, {"dict-basis", "dict-gamma2-e6", "shift-s5"}),
        ("gamma1", 1, {"dict-basis", "dict-gamma2-e6"}),
        ("gamma2", 1, {"dict-gamma2-e6"}),
    ],
)
def test_dictionary_faults_reach_the_theorems(entry, delta, upstream):
    report = build_report(fault=checks.Fault("dictionary", (entry, 0), delta))
    failing = {r.check_id for r in report.checks if r.status == "FAIL"}
    assert {i for i in failing if not i.startswith("theorem-")} == upstream
    assert {"theorem-mordell-weil", "theorem-quadratic-points"} <= failing


# ---------------------------------------------------------------------------
# seeded malformed input: argument vectors and fault payloads

_JUNK_VALUES = [-1, 0, 1, 2, 3, 5, 6, 2 ** 70, -(2 ** 70), 1.5, True, None, "", "x", "s3",
                "alpha0", "D1-D0", [], [1], [2, 0, 0], [0, 0, 0, 4], {"a": 1}]


def _random_payload_text(rng, bases) -> str:
    """A fault file's text: a fixture, kept or with one field removed, added
    or given a junk value, or text that is no fault object at all."""
    payload = dict(rng.choice(bases))
    kind = rng.randrange(6)
    if kind == 1:
        del payload[rng.choice(sorted(payload))]
    elif kind == 2:
        payload[rng.choice(["colum", "index", "row", "entry", "extra"])] = rng.choice(_JUNK_VALUES)
    elif kind == 3:
        payload[rng.choice(sorted(payload))] = rng.choice(_JUNK_VALUES)
    elif kind == 4:
        return json.dumps(payload)[:rng.randrange(40)]
    elif kind == 5:
        return json.dumps(rng.choice(_JUNK_VALUES))
    return json.dumps(payload)


def _random_argv(rng, fault_paths) -> list[str]:
    options = ["--section", "--format", "--list", "--check", "--fault", "--sec", "--form",
               "--f", "--li", "--ch", "--fa", "-h", "-hh", "-x", "--", "--list=1", "--check="]
    values = [*checks.SECTIONS, "bogus", "text", "json", "xml", "", "-", "-1", "a b",
              "dict-alpha0", "theorem-odd-torsors", "brauer-cocycle", "no-such-check",
              "dict-*", *fault_paths]
    argv = []
    for _ in range(rng.randrange(5)):
        argv.append(rng.choice(options if rng.random() < 0.6 else values))
    return argv


def test_seeded_malformed_input_exits_0_1_or_2_with_one_line_errors(tmp_path, capsys):
    rng = random.Random(20260422)
    bases = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("fault_*.json"))]
    fault_paths = [str(tmp_path / "missing.json")]
    for n in range(120):
        path = tmp_path / f"fault_{n}.json"
        path.write_text(_random_payload_text(rng, bases), encoding="utf-8")
        fault_paths.append(str(path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(rng.randrange(256) for _ in range(64)))
    fault_paths.append(str(binary))
    exits = {0: 0, 1: 0, 2: 0}
    for _ in range(400):
        argv = _random_argv(rng, fault_paths)
        if rng.random() < 0.3:
            argv += ["--fault", rng.choice(fault_paths)]
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        assert code in exits, argv
        exits[code] += 1
        if code == 2:
            assert captured.err.startswith("quartic-twist: "), argv
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        else:
            assert captured.err == "", argv
    assert min(exits.values()) > 0, exits
