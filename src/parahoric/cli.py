"""Batch interface: the subcommand table, the argv reader, the exit-code
contract, the self-test runner and the catalog listing.

Spec files are JSON with every rational written as a string "p/q" (a JSON
number is read from its literal text, exactly as that string).  Reports
are JSON with sorted keys; two runs on the same spec are byte-identical
except for the timing field.  Exit codes: 0 success, 1 input error (a usage
error included), 2 property violation.
"""
from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace

from . import InputError, PropertyViolation

# The spec-to-report pipeline (``report``) and the catalog table are imported
# by the function that uses them, as ``report`` imports each stage module, so
# a process loads only what it runs: `--help` and a usage error load no other
# package module, the catalog listing only the table, and each report section
# its own layer.  Every package error is an ``InputError`` (exit 1) or a
# ``PropertyViolation`` (exit 2), both defined in the package itself.

# Each report subcommand: its name, help text and report key; the key names
# the section, which ``report.SECTIONS`` builds.
REPORTS = (
    ("quotient", "reductive-quotient root datum at the point", "quotient"),
    ("scan", "all jump dimensions in [0,1) and the sum rule", "scan"),
    ("grade", "graded dimensions and the quotient crosscheck", "grading"),
    ("decompose", "highest-weight decomposition at depth r", "decomposition"),
    ("stability", "stable-vector verdict at the first jump", "stability"),
)


def write_stdout(text: str) -> None:
    """Write and flush ``text`` on stdout.  A failed write, a closed pipe
    included, is an input error on 'out'; stdout is then pointed at the null
    device, so that the flush at exit does not fail on the unwritten text."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # stdout may have no file descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise InputError(f"field 'out': cannot write to stdout ({exc})") from exc


# ---------------------------------------------------------------------------
# entry point


def run_report(args) -> int:
    from time import time

    started = time()  # loading the pipeline counts in the report's timing
    from .report import run

    return run(args, started, write_stdout)


def run_selftest(args) -> int:
    from . import selftest

    return 0 if selftest.run(seed=args.seed, write=write_stdout) else 2


def run_catalog(args) -> int:
    if args.id is None:
        from .catalog import catalog_ids

        write_stdout("".join(cid + "\n" for cid in catalog_ids()))
        return 0
    from .report import catalog_entry, check_out, emit, parse_frac

    check_out(args.out)
    parse_frac(args.r, "r")  # validated here, exported as written
    emit(catalog_entry(args.id, args.point, args.r, "id"), args.out, write_stdout)
    return 0


# Each subcommand: its help text, the attributes its runner reads besides
# its options, then its options as (name, converter, default, help).  The
# flag is --name; a default of ... marks an option that must be given.
REPORT_OPTIONS = (
    ("spec", str, ..., "spec file path or catalog:<id>[:<point>] (required)"),
    ("out", str, None, "write the report here instead of stdout"),
    ("m", int, None, "override m for rho_over_m points"),
    ("M", int, None, "override the grading modulus"),
)
COMMANDS = {
    name: (help_text, {"run": run_report, "key": key}, *REPORT_OPTIONS)
    for name, help_text, key in REPORTS
}
COMMANDS["selftest"] = ("run the built-in property suite", {"run": run_selftest}, ("seed", int, 0, "random seed"))
COMMANDS["catalog"] = (
    "list or export built-in specs", {"run": run_catalog},
    ("id", str, None, "catalog entry to export"),
    ("point", str, "origin", "named point of the exported spec (default origin)"),
    ("r", str, "0", "depth r of the exported spec (default 0)"),
    ("out", str, None, "write the spec here instead of stdout"),
)
HELP_FLAGS = {"-h": "help", "--help": "help"}


def _flag(flags: dict, token: str):
    """What a token is to a parser of these flags, as argparse reads it: None
    for a value, else the name its flag gives (None for no flag) and the
    value written after '=' (None for none).  A long flag may be cut to a
    unique prefix, -h may repeat (-hh), and a negative number or a token
    with a space in it is a value."""
    if token[:1] != "-" or token == "-":
        return None
    flag, eq, value = token.partition("=")
    if token in flags or eq and flag in flags:
        return flags[flag], value if eq else None
    if token[1] == "-":
        found = [f for f in flags if f.startswith(flag)]
        if len(found) > 1:
            raise InputError(f"field {token!r}: ambiguous option, could be {', '.join(found)}")
        if found:
            return flags[found[0]], value if eq else None
    elif token[1] == "h":
        return "help", token[2:].strip("h") or None
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return None if number or " " in token else (None, None)


def _help(value, command=None) -> None:
    """-h/--help: write the usage the table gives and exit 0."""
    if value is not None:
        raise InputError(f"field 'help': --help takes no value, not {value!r}")
    if command is None:
        head = "<command> [options]\n\nexact filtration-quotient, grading, and stability reports\n\ncommands:"
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        head = f"{command} [options]\n\n{COMMANDS[command][0]}\n\noptions:"
        rows = [(f"--{name} {name.upper()}", about) for name, _, _, about in COMMANDS[command][2:]]
        rows.append(("-h, --help", "show this help and exit"))
    write_stdout(f"usage: parahoric {head}\n" + "".join(f"  {left:<13} {right}\n" for left, right in rows))
    raise SystemExit(0)


def parse_args(argv: list):
    """The subcommand and its options, read left to right as argparse read
    them (the last of a repeated option wins), with the attributes that
    ``COMMANDS`` fixes for it.  A usage error is an input error on the field
    it concerns: 'command', an option's name, or the first token no parser
    takes.  The first '--' after the subcommand and every token after it are
    values."""
    at = 0  # only -h and unknown flags come before the subcommand
    while at < len(argv) and argv[at] != "--" and (kind := _flag(HELP_FLAGS, argv[at])) is not None:
        if kind[0]:
            _help(kind[1])
        at += 1
    command, tokens, rest = (argv + [None])[at], argv[at + 1 :], argv[:at]
    if command not in COMMANDS:
        raise InputError(f"field 'command': need one of {', '.join(COMMANDS)}, not {command!r}")
    _, fixed, *options = COMMANDS[command]
    values = {name: default for name, _, default, _ in options}
    convert = {name: converter for name, converter, _, _ in options}
    flags = {**HELP_FLAGS, **{f"--{name}": name for name in values}}
    head = tokens[: tokens.index("--")] if "--" in tokens else tokens
    pending = zip(head, [_flag(flags, token) for token in head])
    for token, kind in pending:
        if kind is None or kind[0] is None:
            rest.append(token)
            continue
        name, value = kind
        if name == "help":
            _help(value, command)
        if value is None:
            value, kind = next(pending, (None, ()))
            if kind is not None:
                raise InputError(f"field {name!r}: --{name} needs a value")
        try:
            values[name] = convert[name](value)
        except ValueError as exc:
            raise InputError(f"field {name!r}: --{name} {value!r}: {exc}") from None
    for name, value in values.items():
        if value is ...:
            raise InputError(f"field {name!r}: --{name} is required")
    if rest or head != tokens:
        raise InputError(f"field {(rest + tokens[len(head):])[0]!r}: unrecognized argument")
    return SimpleNamespace(command=command, **values, **fixed)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except PropertyViolation as exc:
        sys.stderr.write(f"property violation: {exc}\n")
        return 2


def __getattr__(name):
    # perfbench/tracing.py spans these four, which ``report`` holds
    if name not in ("normalize_spec", "realize", "build_report", "emit"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import report

    return getattr(report, name)


if __name__ == "__main__":
    sys.exit(main())
