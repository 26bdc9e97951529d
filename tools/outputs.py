"""The output corpora: every request of the CLI with its exit code and the
SHA-256 of its stdout and its stderr, one line per request in
`tests/golden/outputs.sha256`, and the full report under each valid
one-constant corruption, one line per corruption in
`tests/golden/faults.sha256`.

    python3 tools/outputs.py

rewrites both files and prints each line that changed, was added or was
removed.  The requests are the full report, `--list`, each `--section`
and each `--check`, in text and in JSON, clean and under each fixture
`tests/fixtures/fault_*.json`.  Each runs in this process through
`quartic_twist.cli.main`, from the repository root, so a fixture path
reads the same in every line.  A line reads

    <exit code> <sha256 of stdout> <sha256 of stderr> quartic-twist <argv>

with the output encoded as UTF-8.  The corruptions are those of
`quartic_twist.checks.fault_space`, every valid one-constant corruption
of each of the five tables a fault may corrupt, in table order: 192
dictionary, 172 matrix, 248 certificate, 48 shift and 64 class
corruptions, 724 in all.  Each is checked as a fault file's payload and
builds one report, rendered in both formats; a line reads

    <exit code> <sha256 of the text report> <sha256 of the JSON report> <fault payload>

with the payload as compact JSON with sorted keys.  `tests/test_outputs.py`
re-runs every request against the first file, one request per format in
a fresh process, and a seeded tenth of the corruptions against the
second, every line of which must exit 1.  A full rewrite takes about
15 s in one process.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "outputs.sha256"
FAULT_CORPUS = ROOT / "tests" / "golden" / "faults.sha256"
PROGRAM = "quartic-twist"

sys.path.insert(0, str(ROOT / "src"))


def requests() -> list[tuple[str, ...]]:
    """Every request of the corpus, as the argv after the program name."""
    from quartic_twist.checks import SECTIONS, list_check_ids

    fixtures = sorted(p.relative_to(ROOT).as_posix()
                      for p in (ROOT / "tests" / "fixtures").glob("fault_*.json"))
    queries = [(), ("--list",)]
    queries += [("--section", section) for section in SECTIONS]
    queries += [("--check", check_id) for check_id in list_check_ids()]
    return [
        query + form + fault
        for fault in [()] + [("--fault", path) for path in fixtures]
        for form in [(), ("--format", "json")]
        for query in queries
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line(argv: tuple[str, ...], code: int, stdout: bytes, stderr: bytes) -> str:
    return " ".join([str(code), digest(stdout), digest(stderr), PROGRAM, *argv])


def run(argv: tuple[str, ...]) -> str:
    """The corpus line of one request, run in this process from the
    repository root."""
    from quartic_twist.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as error:
                code = error.code
    finally:
        os.chdir(cwd)
    return line(argv, code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))


def read(path: Path = CORPUS) -> dict[str, str]:
    """The committed lines, keyed by request (`quartic-twist <argv>`) or,
    in the fault corpus, by payload."""
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    return {text.split(" ", 3)[3]: text for text in lines}


def fault_payloads() -> list[dict]:
    """Every corruption of the fault corpus, as a fault file's payload:
    `fault_space` of each table a fault may corrupt, in table order."""
    from quartic_twist.checks import _TABLES, fault_space

    return [payload for target in _TABLES for payload in fault_space(target)]


def payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_fault(payload: dict) -> str:
    """The fault corpus line of one corruption: one report under it, read
    through the fault loader's check, rendered as text and as JSON."""
    from quartic_twist.checks import build_report, parse_fault, render_json, render_text

    report = build_report(fault=parse_fault(payload))
    text, data = (render(report).encode("utf-8") for render in (render_text, render_json))
    return " ".join([str(report.exit_code), digest(text), digest(data), payload_text(payload)])


def _rewrite(path: Path, new: dict[str, str], what: str) -> None:
    """Write the lines of `new` to the corpus at `path` and print what changed."""
    old = read(path)
    path.write_text("".join(text + "\n" for text in new.values()), encoding="utf-8")
    changed = [key for key in new if old.get(key) != new[key]]
    removed = [key for key in old if key not in new]
    for key in changed:
        print(("changed: " if key in old else "added: ") + key)
    for key in removed:
        print("removed: " + key)
    print(f"{len(new)} {what}, {len(changed)} changed or added, {len(removed)} removed")


def main() -> int:
    _rewrite(CORPUS, {" ".join((PROGRAM, *argv)): run(argv) for argv in requests()}, "requests")
    _rewrite(FAULT_CORPUS, {payload_text(p): run_fault(p) for p in fault_payloads()},
             "corruptions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
