"""Command-line verification harness.

Runs the full check suite (or one section, or one check) and prints a
text or JSON report.  Exit status: 0 when nothing failed, 1 when any
check failed, 2 on usage errors, each reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .checks import (
    SECTIONS,
    build_report,
    list_check_ids,
    load_fault,
    render_json,
    render_text,
    run_single,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is one line on stderr, `quartic-twist: <message>`."""
        self.exit(2, f"{self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quartic-twist",
        description=(
            "Exact verification of the divisor, Galois-module and Brauer "
            "computations on the plane quartic x^4 + y^4 + z^4 = 0."
        ),
    )
    # what to run: everything (the default), one section, one check, or the ids
    request = parser.add_mutually_exclusive_group()
    request.add_argument(
        "--section",
        choices=SECTIONS,
        help="run only the checks of one section",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        help="report format (default: text)",
    )
    request.add_argument(
        "--list",
        action="store_true",
        help="list all check ids and exit",
    )
    request.add_argument(
        "--check",
        metavar="ID",
        help="run a single check by id",
    )
    parser.add_argument(
        "--fault",
        metavar="PATH",
        help="JSON file describing one corrupted constant (negative-control runs)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for option in ("fault", "format"):
            if getattr(args, option) is not None:
                parser.error(f"argument --list: not allowed with argument --{option}")
        for check_id in list_check_ids():
            print(check_id)
        return 0

    fault = None
    if args.fault is not None:
        try:
            fault = load_fault(args.fault)
        except (OSError, ValueError) as error:
            print(f"quartic-twist: bad fault file: {error}", file=sys.stderr)
            return 2

    try:
        if args.check is not None:
            report = run_single(args.check, fault=fault)
        else:
            report = build_report(section=args.section, fault=fault)
    except ValueError as error:
        print(f"quartic-twist: {error}", file=sys.stderr)
        return 2

    rendered = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
