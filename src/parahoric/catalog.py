"""Built-in catalog of data and named apartment points.

Named points: ``origin`` (the base valuation point), ``barycenter`` (the
average of the vertices of the closed base alcove), and ``rho_over_m`` (the
displacement rho_check/m, with a per-entry default m equal to the relevant
twisted Coxeter number)."""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .echelonnage import (
    ApartmentPoint,
    EchelonnageError,
    TwistedDatum,
    _walls,
    apartment_point,
    fixed_space_basis,
    in_base_alcove,
    twisted,
)
from .exactmath import pair, solve_linear
from .rootdata import build_automorphism, build_datum

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
    if point == "rho_over_m":
        point_obj = {"name": "rho_over_m", "m": info["rho_m"]}
    elif point in ("origin", "barycenter"):
        point_obj = {"name": point}
    else:
        raise KeyError(f"unknown named point {point!r}")
    return {
        "dynkin": info["dynkin"],
        "isogeny": "adjoint",
        "automorphism": list(
            info["automorphism"]
            if info["automorphism"] is not None
            else range(build_datum(info["dynkin"]).rank)
        ),
        "lambda_valuations": {},
        "point": point_obj,
        "r": r,
        "M": None,
    }


@lru_cache(maxsize=None)
def alcove_vertices(td: TwistedDatum) -> tuple[ApartmentPoint, ...]:
    """Vertices of the closed base alcove, by solving every maximal system of
    wall equalities inside the twist-fixed subspace and keeping the solutions
    that satisfy all wall constraints."""
    walls = _walls(td)
    basis = fixed_space_basis(td)
    dim = len(basis)
    if dim == 0:
        raise EchelonnageError("fixed subspace is trivial")
    equations = []
    for w in walls:
        row = [pair(w.key, b) for b in basis]
        equations.append((row, w.lo))
        equations.append((row, w.hi))
    vertices = set()
    for subset in itertools.combinations(range(len(equations)), dim):
        rows = [equations[i][0] for i in subset]
        rhs = [equations[i][1] for i in subset]
        from .exactmath import matrix_rank

        if matrix_rank(rows) < dim:
            continue
        sol = solve_linear(rows, rhs)
        if sol is None:
            continue
        coords = tuple(
            sum((sol[j] * Fraction(basis[j][i]) for j in range(dim)), Fraction(0))
            for i in range(td.base.rank)
        )
        pt = ApartmentPoint(coords)
        if in_base_alcove(td, pt):
            vertices.add(coords)
    if not vertices:
        raise EchelonnageError("alcove vertex enumeration found nothing")
    return tuple(ApartmentPoint(v) for v in sorted(vertices))


def named_point(td: TwistedDatum, name: str, m: int | None = None) -> ApartmentPoint:
    if name == "origin":
        return apartment_point(td, tuple(Fraction(0) for _ in range(td.base.rank)))
    if name == "rho_over_m":
        if m is None or m <= 0:
            raise EchelonnageError("rho_over_m needs a positive integer m")
        return apartment_point(
            td, tuple(Fraction(c) / m for c in td.base.rho_check)
        )
    if name == "barycenter":
        vertices = alcove_vertices(td)
        n = len(vertices)
        coords = tuple(
            sum((Fraction(v.coords[i]) for v in vertices), Fraction(0)) / n
            for i in range(td.base.rank)
        )
        return apartment_point(td, coords)
    raise EchelonnageError(f"unknown named point {name!r}")
