"""Built-in catalog of data and named apartment points.

Named points: ``origin`` (the base valuation point), ``barycenter`` (the
average of the vertices of the closed base alcove: the sum over its
irreducible components of the average of each component's vertices,
``TwistedDatum.alcove_parts``), and ``rho_over_m``
(the displacement rho_check/m, with a per-entry default m equal to the
relevant twisted Coxeter number)."""
from __future__ import annotations

from fractions import Fraction

# The stage modules are imported by the functions that use them, so that
# `parahoric catalog`, `--help` and a usage error load only this table.

CATALOG = {
    "A1": {"dynkin": "A1", "automorphism": None, "rho_m": 2},
    "A2": {"dynkin": "A2", "automorphism": None, "rho_m": 3},
    "B2": {"dynkin": "B2", "automorphism": None, "rho_m": 4},
    "C3": {"dynkin": "C3", "automorphism": None, "rho_m": 6},
    "D4": {"dynkin": "D4", "automorphism": None, "rho_m": 6},
    "G2": {"dynkin": "G2", "automorphism": None, "rho_m": 6},
    "2A2": {"dynkin": "A2", "automorphism": (1, 0), "rho_m": 6},
    "2A3": {"dynkin": "A3", "automorphism": (2, 1, 0), "rho_m": 6},
    "2D4": {"dynkin": "D4", "automorphism": (0, 1, 3, 2), "rho_m": 8},
    "3D4": {"dynkin": "D4", "automorphism": (2, 1, 3, 0), "rho_m": 12},
}

NAMED_POINTS = ("origin", "barycenter", "rho_over_m")


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


def catalog_datum(entry_id: str) -> TwistedDatum:
    from .echelonnage import twisted
    from .rootdata import build_automorphism, build_datum

    if entry_id not in CATALOG:
        raise KeyError(f"unknown catalog id {entry_id!r}")
    info = CATALOG[entry_id]
    datum = build_datum(info["dynkin"])
    auto = (
        None
        if info["automorphism"] is None
        else build_automorphism(datum, info["automorphism"])
    )
    return twisted(datum, auto)


def catalog_spec(entry_id: str, point: str = "origin", r: str = "0") -> dict:
    info = CATALOG[entry_id]
    if point not in NAMED_POINTS:
        raise KeyError(f"unknown named point {point!r}")
    point_obj = {"name": point}
    if point == "rho_over_m":
        point_obj["m"] = info["rho_m"]
    return {
        "dynkin": info["dynkin"],
        "isogeny": "adjoint",
        "automorphism": list(
            info["automorphism"]
            if info["automorphism"] is not None
            else range(int(info["dynkin"][1:]))  # every entry is irreducible: its rank
        ),
        "lambda_valuations": {},
        "point": point_obj,
        "r": r,
        "M": None,
    }


def named_point(td: TwistedDatum, name: str, m: int | None = None) -> ApartmentPoint:
    from .echelonnage import EchelonnageError, apartment_point, point_from_simple_coroots

    if name == "origin":
        return apartment_point(td, (0,) * td.base.rank)
    if name == "rho_over_m":
        if m is None or m <= 0:
            raise EchelonnageError("rho_over_m needs a positive integer m")
        return apartment_point(td, [Fraction(c, m) for c in td.base.rho_check])
    if name == "barycenter":
        parts = zip(td.components, td.alcove_parts)  # a part is zero off its component
        mean = {j: Fraction(sum(v[j] for v in part), len(part)) for js, part in parts for j in js}
        return point_from_simple_coroots(td, [mean[j] for j in range(len(mean))])
    raise EchelonnageError(f"unknown named point {name!r}")


def __getattr__(name):
    # perfbench/tracing.py spans catalog.alcove_vertices
    if name != "alcove_vertices":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .echelonnage import alcove_vertices

    return alcove_vertices
