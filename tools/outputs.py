"""The output corpus: every request of the CLI with its exit code and the
SHA-256 of its stdout and its stderr, one line per request in
`tests/golden/outputs.sha256`.

    python3 tools/outputs.py

rewrites the file and prints each request whose line changed, was added
or was removed.  The requests are the full report, `--list`, each
`--section` and each `--check`, in text and in JSON, clean and under each
fixture `tests/fixtures/fault_*.json`.  Each runs in this process through
`quartic_twist.cli.main`, from the repository root, so a fixture path
reads the same in every line.  A line reads

    <exit code> <sha256 of stdout> <sha256 of stderr> quartic-twist <argv>

with the output encoded as UTF-8.  `tests/test_outputs.py` re-runs every
request against the file, and one request per format in a fresh process.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "outputs.sha256"
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
    """The committed lines, keyed by request (`quartic-twist <argv>`)."""
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    return {text.split(" ", 3)[3]: text for text in lines}


def main() -> int:
    old = read()
    new = {" ".join((PROGRAM, *argv)): run(argv) for argv in requests()}
    CORPUS.write_text("".join(text + "\n" for text in new.values()), encoding="utf-8")
    changed = [request for request in new if old.get(request) != new[request]]
    removed = [request for request in old if request not in new]
    for request in changed:
        print(("changed: " if request in old else "added: ") + request)
    for request in removed:
        print("removed: " + request)
    print(f"{len(new)} requests, {len(changed)} changed or added, {len(removed)} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
