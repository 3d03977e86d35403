"""Benchmark-owned child process.

    child.py warm INPUT... [--trace FILE]
        One long-lived process sweeps the public API over the seeded points
        of each input datum and prints one JSON line per point.
    child.py cli --trace FILE --case ID -- ARGV...
        One traced ``parahoric ARGV...`` run in this fresh process.

With ``--trace`` the package's public functions are wrapped before any work
starts (see tracing.py) and the spans are written to FILE at exit.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter

import tracing


def sweep_point(P, td, x, algebra_dim: int) -> dict:
    """scan, crosscheck, decompose at the first jump, and the verdict."""
    scan = [[str(r), P.mp_quotient(td, x, r).total_dim] for r in P.jump_values(td, x)]
    tame_td, tame_x = (td, x) if td.is_tame else P.companion_shift(td, x)
    modulus = lcm(P.point_order(tame_td, tame_x), tame_td.twist.order)
    check = P.crosscheck(tame_td, tame_x, modulus)
    jump = P.first_jump(td, x)
    dec = P.decompose(td, x, jump)
    verdict = P.stable_verdict(td, x)
    return {
        "scan": scan,
        "sum_rule_holds": sum(d for _, d in scan) == algebra_dim,
        "modulus": modulus,
        "graded_dims": list(check.dims),
        "crosscheck": check.ok,
        "first_jump": str(jump),
        "items": [[[str(c) for c in w], m] for w, m in dec.items],
        "dimensions_match": dec.dimensions_match(),
        "verdict": verdict.verdict,
        "m": verdict.m,
    }


def warm(inputs: list[str]) -> int:
    import parahoric as P

    for index, path in enumerate(inputs):
        data = json.loads(Path(path).read_text())
        spec = data["spec"]
        datum = P.build_datum(spec["dynkin"])
        auto = P.build_automorphism(datum, spec["automorphism"])
        lam = {int(k): Fraction(v) for k, v in spec["lambda_valuations"].items()}
        td = P.twisted(datum, auto, lam)
        algebra_dim = len(datum.roots) + datum.rank
        for k, coords in enumerate(data["points"]):
            line = {"datum": index, "point": k}
            try:
                x = P.point_from_simple_coroots(td, [Fraction(c) for c in coords])
                line["result"] = sweep_point(P, td, x, algebra_dim)
            except Exception:  # counted as a failed case by the parent
                traceback.print_exc()
                line["error"] = True
            sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    passthrough = []
    if "--" in argv:
        cut = argv.index("--")
        argv, passthrough = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("warm", "cli"))
    parser.add_argument("inputs", nargs="*")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--case", default="warm")
    args = parser.parse_args(argv)

    recorder = tracing.Recorder(args.case) if args.trace else None
    start = perf_counter()
    if args.mode == "cli":
        import parahoric.cli
    else:
        import parahoric  # noqa: F401
    if recorder is not None:
        recorder.record_import(start, perf_counter())
        tracing.install(recorder)
    try:
        if args.mode == "cli":
            return parahoric.cli.main(passthrough)
        return warm(args.inputs)
    finally:
        if recorder is not None:
            recorder.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
