"""Correctness gate: every CLI output is checked against the committed golden
report, read from ``tests/golden/full_report.txt`` at run time.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not; the caller counts every reason as a failed
invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# The CLI's `--section` names and the golden headers each one prints.  The
# golden file carries headers, not section keys, so this map is the one fact
# the gate cannot read from it.
SECTION_HEADERS = {
    "bitangents": ("Points of tangency of bitangents",),
    "dictionary": ("Check linear equivalences of divisors",),
    "galois": ("Action of sigma_3", "Action of sigma_5", "Galois action matrices"),
    "fixed": ("Calculation of fixed points",),
    "torsor": ("Pic^1 torsor obstruction",),
    "brauer": ("Calculation of Brauer obstruction",),
    "quadratic": ("Divisors of degree 2 and quadratic points",),
    "theorems": ("Assembled results",),
}
SECTIONS = tuple(SECTION_HEADERS)


@dataclass(frozen=True)
class Line:
    """One check line of a text report, with the header it sits under."""

    header: str
    label: str
    status: str


def parse_text(text: str) -> list[Line]:
    """Parse a text report; raise ValueError unless it is well formed and its
    summary line matches the statuses above it."""
    blocks = text.split("\n\n")
    if not text.endswith("\n") or len(blocks) < 2:
        raise ValueError("report does not end with a summary block")
    lines = []
    for block in blocks[:-1]:
        header, *rows = block.split("\n")
        if not rows:
            raise ValueError(f"header {header!r} has no checks")
        for row in rows:
            label, sep, status = row.rpartition(" : ")
            if not sep:
                raise ValueError(f"malformed check line {row!r}")
            lines.append(Line(header, label, status))
    if blocks[-1] != summary_line(lines) + "\n":
        raise ValueError(f"summary {blocks[-1].strip()!r} disagrees with the checks")
    return lines


def counts(lines: list[Line]) -> dict[str, int]:
    ok = sum(line.status == "OK" for line in lines)
    fail = sum(line.status == "FAIL" for line in lines)
    return {"ok": ok, "fail": fail, "skipped": len(lines) - ok - fail}


def summary_line(lines: list[Line]) -> str:
    c = counts(lines)
    return f"Summary: {c['ok']} OK, {c['fail']} FAIL, {c['skipped']} SKIPPED"


def render(lines: list[Line]) -> str:
    """The CLI's text layout: header blocks separated by blank lines, then
    the summary."""
    out: list[str] = []
    header = None
    for line in lines:
        if line.header != header:
            if out:
                out.append("")
            out.append(line.header)
            header = line.header
        out.append(f"{line.label} : {line.status}")
    out += ["", summary_line(lines)]
    return "\n".join(out) + "\n"


class Golden:
    """The golden report and the expected output of each kind of query."""

    def __init__(self, path: Path):
        self.text = path.read_text(encoding="utf-8")
        self.lines = parse_text(self.text)
        if render(self.lines) != self.text:
            raise ValueError(f"{path} is not in the CLI's text layout")

    def section(self, name: str) -> str:
        headers = SECTION_HEADERS[name]
        return render([line for line in self.lines if line.header in headers])

    def single(self, index: int) -> str:
        return render([self.lines[index]])

    # -- gates ------------------------------------------------------------

    def check_text(self, out: str, code: int, expected: Optional[str] = None) -> Optional[str]:
        expected = self.text if expected is None else expected
        if code != 0:
            return f"exit {code}, expected 0"
        if out != expected:
            return "text differs from golden"
        return None

    def check_json(self, out: str, code: int) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        try:
            payload = json.loads(out)
            checks = payload["checks"]
            ids = [item["id"] for item in checks]
            got = [(item["label"], item["status"]) for item in checks]
            summary = payload["summary"]
        except (ValueError, KeyError, TypeError) as error:
            return f"malformed JSON report: {error}"
        if got != [(line.label, line.status) for line in self.lines]:
            return "JSON labels or statuses differ from golden"
        if not all(isinstance(i, str) and i for i in ids) or len(set(ids)) != len(ids):
            return "JSON check ids are not unique non-empty strings"
        if summary != counts(self.lines):
            return f"JSON summary {summary} differs from golden"
        return None

    def check_list(self, out: str, code: int) -> tuple[Optional[str], list[str]]:
        """Gate a `--list` output; also return the ids, in golden order."""
        ids = out.split("\n")[:-1] if out.endswith("\n") else out.split("\n")
        if code != 0:
            return f"exit {code}, expected 0", []
        if len(ids) != len(self.lines):
            return f"{len(ids)} ids listed, golden has {len(self.lines)} checks", []
        if not all(ids) or len(set(ids)) != len(ids):
            return "listed ids are not unique and non-empty", []
        return None, ids

    def check_fault(self, out: str, code: int) -> Optional[str]:
        if code != 1:
            return f"exit {code}, expected 1"
        try:
            lines = parse_text(out)
        except ValueError as error:
            return f"malformed fault report: {error}"
        if [(l.header, l.label) for l in lines] != [(l.header, l.label) for l in self.lines]:
            return "fault report labels differ from golden"
        if not any(line.status == "FAIL" for line in lines):
            return "fault report has no FAIL"
        return None
