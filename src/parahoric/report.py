"""The spec-to-report pipeline of the command line: a spec read from a file
or the catalog and normalized, the twisted datum and apartment point it
names realized, one report section built, and the report written as JSON
with sorted keys.  ``cli`` loads this module on first use, for a report
subcommand and for ``catalog --id``, so that `catalog`, `--help` and a usage
error never compile it.

Every rational is written as a string "p/q", and a JSON number in a spec is
read from its literal text, exactly as that string.
"""
from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

from . import InputError, __version__
from .catalog import CATALOG, NAMED_POINTS, catalog_ids, catalog_spec, named_point

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# rationals in JSON


def frac_str(x) -> str:
    return str(Fraction(x))


def parse_frac(text, field: str) -> Fraction:
    try:
        value = Fraction(str(text))
        str(value)  # refuses a value of too many digits to print back
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"field {field!r}: bad rational {text!r}") from exc
    return value


def vec_strs(coords) -> list[str]:
    return [frac_str(c) for c in coords]


# ---------------------------------------------------------------------------
# spec handling


DEFAULT_SPEC = {
    "dynkin": None,
    "isogeny": "adjoint",
    "automorphism": None,
    "lambda_valuations": {},
    "point": {"name": "origin"},
    "r": "0",
    "M": None,
}


def catalog_entry(entry: str, point: str, r: str, field: str) -> dict:
    """The spec of a catalog entry at a named point, for ``--spec
    catalog:...`` and ``catalog --id`` alike: an unknown id is an input error
    on ``field``, the option that gave it, and an unknown point on 'point'."""
    if entry not in CATALOG:
        raise InputError(
            f"field {field!r}: unknown catalog id {entry!r} "
            f"(have {', '.join(catalog_ids())})"
        )
    try:
        return catalog_spec(entry, point, r)
    except KeyError as exc:
        raise InputError(f"field 'point': {exc.args[0]}") from exc


def load_spec(source: str) -> dict:
    if source.startswith("catalog:"):
        parts = source.split(":")
        if len(parts) > 3:
            raise InputError(f"field 'spec': {source!r} is not catalog:<id>[:<point>]")
        return catalog_entry(parts[1], parts[2] if len(parts) > 2 else "origin", "0", "spec")
    try:
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle, parse_float=str)  # exactly as the literal written as a string
    except FileNotFoundError:
        raise InputError(f"field 'spec': no such file {source!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"field 'spec': cannot read {source!r} ({exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise InputError(f"field 'spec': not valid JSON ({exc})") from exc
    if isinstance(data, dict) and "spec" in data and "schema" in data:
        data = data["spec"]  # accept a previously emitted report
    if not isinstance(data, dict):
        raise InputError("field 'spec': top level must be an object")
    return data


def _is_int(x) -> bool:
    """JSON integers only: ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _lambda_key(k) -> str:
    try:
        return str(int(k))
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"field 'lambda_valuations': key {k!r} is not the index of a "
            "positive multipliable restricted root"
        ) from exc


def normalize_spec(raw: dict) -> dict:
    from .rootdata import RootDatumError, parse_descriptor

    spec = dict(DEFAULT_SPEC)
    unknown = set(raw) - set(DEFAULT_SPEC)
    if unknown:
        raise InputError(f"field {sorted(unknown)[0]!r}: unknown spec field")
    spec.update(raw)
    if not isinstance(spec["dynkin"], str) or not spec["dynkin"]:
        raise InputError("field 'dynkin': a Dynkin type string is required")
    if spec["isogeny"] not in ("adjoint", "simply_connected"):
        raise InputError(
            "field 'isogeny': must be 'adjoint' or 'simply_connected'"
        )
    if spec["automorphism"] is not None:
        if not isinstance(spec["automorphism"], (list, tuple)) or not all(
            _is_int(i) for i in spec["automorphism"]
        ):
            raise InputError("field 'automorphism': must be a list of node indices")
        spec["automorphism"] = list(spec["automorphism"])
    lam = spec["lambda_valuations"] or {}
    if not isinstance(lam, dict):
        raise InputError("field 'lambda_valuations': must be an object")
    spec["lambda_valuations"] = {
        _lambda_key(k): frac_str(parse_frac(v, "lambda_valuations")) for k, v in lam.items()
    }
    point = spec["point"]
    if not isinstance(point, dict) or len({"name", "coords"} & set(point)) != 1:
        raise InputError("field 'point': need a name or explicit coords, not both")
    keys = {"name", "m"} if point.get("name") == "rho_over_m" else {"name", "coords"}
    if set(point) - keys:
        raise InputError(
            f"field 'point': unexpected key {sorted(set(point) - keys)[0]!r} "
            "(a point has a name, with m for rho_over_m, or coords)"
        )
    if "coords" in point:
        if not isinstance(point["coords"], list):
            raise InputError("field 'point': coords must be a list of rationals")
        spec["point"] = {"coords": [frac_str(parse_frac(c, "point")) for c in point["coords"]]}
    else:
        name = point.get("name")
        if name not in NAMED_POINTS:
            raise InputError(f"field 'point': unknown named point {name!r}")
        norm = {"name": name}
        if name == "rho_over_m":
            m = point.get("m")
            if not _is_int(m) or m <= 0:
                raise InputError("field 'point': rho_over_m needs a positive integer m")
            norm["m"] = m
        spec["point"] = norm
    spec["r"] = frac_str(parse_frac(spec["r"], "r"))
    if spec["M"] is not None and (not _is_int(spec["M"]) or spec["M"] <= 0):
        raise InputError("field 'M': must be a positive integer")
    if spec["automorphism"] is None:
        try:
            spec["automorphism"] = list(range(sum(r for _, r in parse_descriptor(spec["dynkin"]))))
        except RootDatumError as exc:
            raise InputError(f"field 'dynkin': {exc}") from exc
    return spec


def realize(spec: dict):
    """Build the twisted datum and apartment point described by a spec."""
    from .echelonnage import EchelonnageError, point_from_simple_coroots, twisted
    from .rootdata import RootDatumError, build_automorphism, build_datum

    try:
        datum = build_datum(spec["dynkin"], spec["isogeny"])
    except RootDatumError as exc:
        raise InputError(f"field 'dynkin': {exc}") from exc
    try:
        auto = build_automorphism(datum, spec["automorphism"])
    except RootDatumError as exc:
        raise InputError(f"field 'automorphism': {exc}") from exc
    lam = {int(k): Fraction(v) for k, v in spec["lambda_valuations"].items()}
    try:
        td = twisted(datum, auto, lam)
    except EchelonnageError as exc:
        raise InputError(f"field 'lambda_valuations': {exc}") from exc
    point = spec["point"]
    try:
        if "coords" in point:
            x = point_from_simple_coroots(
                td, [Fraction(c) for c in point["coords"]]
            )
        else:
            x = named_point(td, point["name"], point.get("m"))
    except EchelonnageError as exc:
        raise InputError(f"field 'point': {exc}") from exc
    try:  # a report prints values over q*D (q of ``affine_rows``) and x's numerators
        str(max(td.affine_rows[0] * x.den, *map(abs, x.nums)))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"field 'point': its values have more than the {limit} digits str() converts") from None
    return td, x


def default_modulus(td: TwistedDatum, x: ApartmentPoint, spec: dict) -> int:
    from math import lcm

    from .echelonnage import point_order

    m = point_order(td, x)
    e = td.twist.order
    auto = lcm(m, e)
    if spec["M"] is not None:
        if spec["M"] % auto != 0:
            raise InputError(
                f"field 'M': {spec['M']} is not a multiple of lcm(point order "
                f"{m}, twist order {e}) = {auto}"
            )
        return spec["M"]
    return auto


# ---------------------------------------------------------------------------
# report sections


def section_quotient(td: TwistedDatum, x: ApartmentPoint, spec: dict, args) -> tuple[dict, bool]:
    from .mpquotient import quotient_datum

    h = quotient_datum(td, x)
    n = len(h.cartan)
    return {
        "roots": [vec_strs(a) for a in h.roots],
        "type": {
            "components": sorted(name for name, _ in h.quotient_type.components),
            "semisimple_rank": n,
            "torus_rank": h.rank - n,
        },
        "root_count": len(h.roots),
        "rank": h.rank,
    }, False


def section_scan(td: TwistedDatum, x: ApartmentPoint, spec: dict, args) -> tuple[dict, bool]:
    from .echelonnage import algebra_dimension, depth_table

    table = depth_table(td, x)
    jumps = []
    for r in table.jumps():
        roots, torus = table.at(r)
        dims = {"torus_dim": torus, "root_dim": len(roots), "total_dim": torus + len(roots)}
        jumps.append({"r": frac_str(r), **dims})
    total = sum(j["total_dim"] for j in jumps)
    expected = algebra_dimension(td)
    return {
        "jumps": jumps,
        "sum": total,
        "expected": expected,
        "sum_rule_holds": total == expected,
        "first_jump": frac_str(table.first_jump),
    }, total != expected


def section_grade(td: TwistedDatum, x: ApartmentPoint, spec: dict, args) -> tuple[dict, bool]:
    if not td.is_tame:
        return {
            "applicable": False,
            "reason": "nonzero lambda valuations; apply the companion shift first",
        }, False
    from .vinberg import crosscheck

    res = crosscheck(td, x, default_modulus(td, x, spec))
    return {
        "applicable": True,
        "modulus": res.modulus,
        "dims": list(res.dims),
        "quotient_dims": list(res.quotient_dims),
        "crosscheck": res.ok,
        "first_mismatch": res.first_mismatch,
        "degree_zero_matches_quotient": res.roots_match,
        "negative_sign_orbit_count": len(res.negative_sign_orbits),
    }, not res.ok


def section_decompose(td: TwistedDatum, x: ApartmentPoint, spec: dict, args) -> tuple[dict, bool]:
    from .weylmod import decompose, split_span_check

    r = Fraction(spec["r"])
    dec = decompose(td, x, r)
    match = dec.dimensions_match()
    span = None
    if td.twist.is_identity and td.is_tame and r.denominator != 1:
        span = split_span_check(td.base, x, r)
    return {
        "r": frac_str(r),
        "items": [
            {"weight": vec_strs(w), "multiplicity": m} for w, m in dec.items
        ],
        "total_dim": dec.total_dim,
        "quotient_dim": dec.quotient.total_dim,
        "dimensions_match": match,
        "maximal_set": sorted(vec_strs(a) for a in dec.maximal_set),
        "nondominant_maximal": sorted(vec_strs(a) for a in dec.nondominant_maximal),
        "ambient_reading_differs": dec.ambient_reading_differs,
        "span_check": span,
    }, not match or span is False


def section_stability(td: TwistedDatum, x: ApartmentPoint, spec: dict, args) -> tuple[dict, bool]:
    from .stability import stable_verdict

    verdict = stable_verdict(td, x)
    return {
        **({"witness_is_least": False} if verdict.witness_is_least is False else {}),
        "m": verdict.m,
        "conjugacy_ok": verdict.conjugacy_ok,
        "depth_ok": verdict.depth_ok,
        "regular_ok": verdict.regular_ok,
        "verdict": verdict.verdict,
        "witness": [list(row) for row in verdict.witness] if verdict.witness else None,
        "reduced_point": vec_strs(verdict.reduced_point),
        "reduced_reference": vec_strs(verdict.reduced_reference),
        "first_jump": frac_str(verdict.first_jump),
    }, False


# The section builders by the report key they fill, which ``cli.REPORTS``
# gives each report subcommand.  A builder takes (td, x, spec, args) and
# returns the section and whether it records a property violation (exit 2).
SECTIONS = {
    "quotient": section_quotient,
    "scan": section_scan,
    "grading": section_grade,
    "decomposition": section_decompose,
    "stability": section_stability,
}


def build_report(command: str, spec: dict, td, x, sections: dict, started: float) -> dict:
    from .echelonnage import algebra_dimension, companion_shift, point_order

    shifted = companion_shift(td, x)
    return {
        "schema": SCHEMA_VERSION,
        "package": f"parahoric {__version__}",
        "command": command,
        "spec": spec,
        "derived": {
            "point_coords": vec_strs(x.coords),
            "point_order": point_order(td, x),
            "twist_order": td.twist.order,
            "wild_lambda": not td.is_tame,
            "companion_point": vec_strs(shifted[1].coords),
            "algebra_dim": algebra_dimension(td),
        },
        **sections,
        "timing_seconds": round(time.time() - started, 6),
    }


def check_out(out: str | None) -> None:
    """Refuse an ``--out`` that cannot be written before any work is done,
    writing nothing: it must not be a directory, an existing file must be
    writable, and otherwise its parent must be an existing, writable
    directory.  ``emit`` still maps a failed write to the same field."""
    if not out:
        return
    exists, parent = os.path.exists(out), os.path.dirname(out) or "."
    if os.path.isdir(out):
        raise InputError(f"field 'out': cannot write {out!r} (it is a directory)")
    if not (exists or os.path.isdir(parent)):
        raise InputError(f"field 'out': cannot write {out!r} (no such directory)")
    if not os.access(out if exists else parent, os.W_OK):
        raise InputError(f"field 'out': cannot write {out!r} (permission denied)")


def emit(report: dict, out: str | None, write) -> None:
    """Write the report to ``out``, or with ``write`` if there is none."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not out:
        write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"field 'out': cannot write {out!r} ({exc})") from exc


def run(args, started: float, write) -> int:
    """A report subcommand on its parsed ``args``, timed from ``started``."""
    check_out(args.out)
    raw = load_spec(args.spec)
    if args.M is not None:
        raw = {**raw, "M": args.M}
    spec = normalize_spec(raw)
    if args.m is not None:
        if spec["point"].get("name") != "rho_over_m":
            raise InputError("field 'point': --m only applies to rho_over_m points")
        spec["point"]["m"] = args.m
    td, x = realize(spec)
    default_modulus(td, x, spec)  # an M off the lcm is an input error for every report
    section, violated = SECTIONS[args.key](td, x, spec, args)
    emit(build_report(args.command, spec, td, x, {args.key: section}, started), args.out, write)
    return 2 if violated else 0
