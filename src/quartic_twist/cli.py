"""Command-line verification harness.

Runs the full check suite (or one section, or one check) and prints a
text or JSON report.  Exit status: 0 when nothing failed, 1 when any
check failed, 2 on usage errors and when the output cannot be written
(a closed pipe or stdout, a full disk), each reported as one line on
stderr; the status stays 2 when stderr itself is closed or unwritable.
A table-driven parser reads the five options as `argparse` did, without its import.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from typing import NoReturn, Optional, Sequence

from .checks import (
    SECTIONS, build_report, list_check_ids, load_fault, render_json, render_text, run_single,
)

# option -> the values it takes: its choices, None for any string, () for a flag
_OPTIONS = {"-h": (), "--help": (), "--section": SECTIONS, "--format": ("text", "json"),
            "--list": (), "--check": None, "--fault": None}
_REQUESTS = ("--section", "--list", "--check")  # what to run, if not everything

_HELP = f"""\
usage: quartic-twist [-h] [--section SECTION | --list | --check ID] [--format FORMAT] [--fault PATH]

Exact verification of the divisor, Galois-module and Brauer computations on x^4 + y^4 + z^4 = 0.

  -h, --help         show this help message and exit
  --section SECTION  run only the checks of one section: {", ".join(SECTIONS)}
  --format FORMAT    report format: text (the default) or json
  --list             list all check ids and exit
  --check ID         run a single check by id
  --fault PATH       JSON file describing one corrupted constant (negative-control runs)
"""


def _complain(message: str) -> None:
    """One line `quartic-twist: <message>` on stderr.  A closed or unwritable
    stderr loses the line, and what is left in its buffer goes to the null
    device, so that the flush at exit changes no exit status."""
    if sys.stderr is None:  # the process started with its stderr closed
        return
    try:
        sys.stderr.write(f"quartic-twist: {message}\n")
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _usage_error(message: str) -> NoReturn:
    """A usage error, or an output that cannot be written, is one line on
    stderr and exit 2."""
    _complain(message)
    raise SystemExit(2)


def _write(text: str) -> None:
    """Write the output in one write and flush it.  An output that cannot be
    written is a one-line error, exit 2; what is left in the buffer then
    goes to the null device, so that the flush at exit reports nothing."""
    if sys.stdout is None:  # the process started with its stdout closed
        _usage_error("cannot write output: standard output is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as error:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _usage_error(f"cannot write output: {error.strerror or error}")


def _option(token: str) -> Optional[tuple[str, Optional[str]]]:
    """(option, the value after `=` or None) when `token` names an option,
    ("", None) when it looks like an unknown one, None when it is a value."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in _OPTIONS:
        return name, value if eq else None
    if token[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":  # -hVALUE
        return "-h", token[2:]
    # a negative number or a phrase is a value
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ("", None)


def _parse(argv: Sequence[str]) -> dict[str, str | bool]:
    """option name without `--` -> its value (True for a flag), for each given."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(token) for token in argv[:end]]  # an ambiguous prefix fails first
    parsed, unrecognized, i = {}, [], 0
    while i < end:
        option, i = options[i], i + 1
        if not option or not option[0]:
            unrecognized.append(argv[i - 1])
            continue
        name, value = option
        flag = _OPTIONS[name] == ()
        if flag and value is not None:
            rest = value.lstrip("h") if name == "-h" else value  # -hh is -h -h
            if rest or not value:
                name = "-h/--help" if name in ("-h", "--help") else name
                _usage_error(f"argument {name}: ignored explicit argument {rest!r}")
        elif not flag and value is None:
            if i == end or options[i] is not None:
                _usage_error(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        if _OPTIONS[name] and value not in _OPTIONS[name]:
            choices = ", ".join(map(repr, _OPTIONS[name]))
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        other = next((r for r in _REQUESTS if r != name and r[2:] in parsed), None)
        if name in _REQUESTS and other:
            _usage_error(f"argument {name}: not allowed with argument {other}")
        if name in ("-h", "--help"):
            _write(_HELP)
            raise SystemExit(0)
        parsed[name[2:]] = True if value is None else value
    unrecognized += argv[end:]
    if unrecognized:
        _usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return parsed


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Answer one request and return its exit status.  The cyclic garbage
    collector is paused while it runs, since a request frees no cycle worth
    scanning for, and the caller's setting is restored."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _answer(_parse(sys.argv[1:] if argv is None else argv))
    finally:
        if collecting:
            gc.enable()


def _answer(args: dict[str, str | bool]) -> int:
    if args.get("list"):
        for option in ("fault", "format"):
            if option in args:
                _usage_error(f"argument --list: not allowed with argument --{option}")
        _write("".join(f"{check_id}\n" for check_id in list_check_ids()))
        return 0

    fault = None
    if "fault" in args:
        try:
            fault = load_fault(args["fault"])
        except (OSError, ValueError) as error:
            _complain(f"bad fault file: {error}")
            return 2

    try:
        if "check" in args:
            report = run_single(args["check"], fault=fault)
        else:
            report = build_report(section=args.get("section"), fault=fault)
    except ValueError as error:
        _complain(str(error))
        return 2

    _write(render_json(report) if args.get("format") == "json" else render_text(report))
    return report.exit_code
