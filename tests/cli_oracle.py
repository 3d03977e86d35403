"""The argparse command line the table-driven argv reader of `parahoric.cli`
replaced, kept as its reference: on the same argv both give equal parsed
values, or both are usage errors naming the same field."""
from __future__ import annotations

import argparse
import re

from parahoric import InputError
from parahoric.cli import REPORTS, run_catalog, run_report, run_selftest


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, naming the option's field (its
    destination) or the unrecognized token.  Subparsers inherit the class."""

    def error(self, message):
        found = re.match(r"(?:argument |.*?: )([^\s:,/]+)", message)
        name = found.group(1) if found else "command"
        action = self._option_string_actions.get(name)
        raise InputError(f"field {action.dest if action else name!r}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parahoric",
        description="exact filtration-quotient, grading, and stability reports",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="spec file path or catalog:<id>[:<point>]")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--m", type=int, default=None, help="override m for rho_over_m points")
    common.add_argument("--M", type=int, default=None, help="override the grading modulus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, key in REPORTS:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(run=run_report, key=key)
    p = sub.add_parser("selftest", help="run the built-in property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=run_selftest)
    p = sub.add_parser("catalog", help="list or export built-in specs")
    p.add_argument("--id", default=None, help="catalog entry to export")
    p.add_argument("--point", default="origin")
    p.add_argument("--r", default="0")
    p.add_argument("--out", default=None)
    p.set_defaults(run=run_catalog)
    return parser

