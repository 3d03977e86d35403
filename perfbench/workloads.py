"""Seeded inputs for the three benchmark workloads.

Every input is a spec file in the format ``parahoric <subcommand> --spec``
reads.  The generator is stdlib-only and never imports the package: the
program under test receives nothing but the files written here.

Seeded points are twist-fixed rational points with bounded denominators,
drawn like the self-test's random fixed points.  They are drawn directly in
the restricted-simple-coroot basis of the ``{"coords": [...]}`` spec form,
one coordinate per twist orbit of Dynkin nodes, so every such point is fixed
by the twist by construction.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("large_types", "coset_verdicts", "warm_points")
DEFAULT_SEED = 0
MAX_DEN = 4

# (case label, dynkin, node permutation or None, twisted Coxeter number)
LARGE_TYPES = (
    ("F4", "F4", None, 12),
    ("B6", "B6", None, 12),
    ("E6", "E6", None, 12),
    ("E7", "E7", None, 18),
    ("E8", "E8", None, 30),
    ("2E6", "E6", (5, 1, 4, 3, 2, 0), 18),
    ("3D4", "D4", (2, 1, 3, 0), 12),
)
# E8 at the origin is the one origin case: its two uncached quotient_datum
# calls are the largest single cost in the package.
LARGE_ORIGIN = ("E8",)
LARGE_SEEDED = ("F4", "B6", "E6", "2E6", "3D4")
# Subcommands run at seeded points.  `decompose` is left out: at generic
# points of split data the CLI's sampled span oracle often reports a false
# property violation (exit 2); see README.md.
SEEDED_COMMANDS = ("scan", "quotient", "grade")
# `quotient` exits with a traceback whenever the quotient has a G2 factor
# (cli._match_component cannot name it), as on 3D4 at the origin and at many
# 3D4 points; the cases join once that is fixed.
QUOTIENT_SKIPPED = ("3D4",)

COSET_TYPES = (
    ("A4", "A4", None, 5),
    ("B4", "B4", None, 8),
    ("C4", "C4", None, 8),
    ("A5", "A5", None, 6),
    ("D5", "D5", None, 8),
    ("F4", "F4", None, 12),
    ("2A3", "A3", (2, 1, 0), 6),
    ("2A4", "A4", (3, 2, 1, 0), 10),
    ("2A5", "A5", (4, 3, 2, 1, 0), 10),
    ("2D4", "D4", (0, 1, 3, 2), 8),
    ("2D5", "D5", (0, 1, 2, 4, 3), 10),
    ("3D4", "D4", (2, 1, 3, 0), 12),
)
COSET_BARYCENTER = ("A4", "B3")
COSET_SEEDED = ("A4", "B4", "C4", "2A4", "2D4", "3D4")

# The ten catalog entries, as `parahoric catalog --id ID` exports them.
CATALOG = (
    ("A1", "A1", None),
    ("A2", "A2", None),
    ("B2", "B2", None),
    ("C3", "C3", None),
    ("D4", "D4", None),
    ("G2", "G2", None),
    ("2A2", "A2", (1, 0)),
    ("2A3", "A3", (2, 1, 0)),
    ("2D4", "D4", (0, 1, 3, 2)),
    ("3D4", "D4", (2, 1, 3, 0)),
)
# (label, dynkin, node permutation or None, lambda valuations)
WARM_DATA = tuple((cid, dy, auto, {}) for cid, dy, auto in CATALOG) + (
    ("A4", "A4", None, {}),
    ("B3", "B3", None, {}),
    ("B4", "B4", None, {}),
    ("2A4", "A4", (3, 2, 1, 0), {}),
    ("2A2w", "A2", (1, 0), {"0": "-1/2"}),
    ("2A4w", "A4", (3, 2, 1, 0), {"0": "-1/2", "1": "-1/2"}),
)
# A few points near a special vertex cost 20 times the rest; sixty per
# datum rather than thirty keeps the sweep's work steadier across seeds.
WARM_POINTS = 60


@dataclass(frozen=True)
class Case:
    """One CLI run, or one datum of the warm sweep with its points."""

    id: str
    command: str  # CLI subcommand, or "warm" for a warm-sweep datum
    spec: dict
    seeded: bool = False
    golden: str | None = None  # file under goldens/ the report must equal
    expect_verdict: bool = False  # stability verdict must be true
    points: tuple = ()  # warm sweep: coordinate lists


def _rank(dynkin: str) -> int:
    return sum(int(part[1:]) for part in dynkin.split("+"))


def cycle_count(perm) -> int:
    """Cycles of a node permutation: the twist orbits of Dynkin nodes, and
    the dimension of the twist-fixed subspace."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


def random_coords(rng: random.Random, dynkin: str, auto) -> list[str]:
    """A twist-fixed point as restricted-simple-coroot coordinates in
    (1/MAX_DEN)Z, each in [-3, 3]."""
    return [
        str(Fraction(rng.randint(-3 * MAX_DEN, 3 * MAX_DEN), MAX_DEN))
        for _ in range(cycle_count(auto or range(_rank(dynkin))))
    ]


def _spec(dynkin, auto, point, r="1/2") -> dict:
    spec = {"dynkin": dynkin, "point": point, "r": r}
    if auto is not None:
        spec["automorphism"] = list(auto)
    return spec


def _golden_spec(root: Path, name: str) -> dict:
    return json.loads((root / "goldens" / name).read_text())["spec"]


def large_types(rng: random.Random, root: Path) -> list[Case]:
    cases = [
        Case(f"golden/{cid}/scan", "scan", _golden_spec(root, f"{cid}_scan.json"),
             golden=f"{cid}_scan.json")
        for cid, _, _ in CATALOG
    ]
    for label, dynkin, auto, h in LARGE_TYPES:
        rho = _spec(dynkin, auto, {"name": "rho_over_m", "m": h})
        cases += [
            Case(f"{label}/rho/{command}", command, rho)
            for command in ("scan", "quotient", "decompose", "grade")
            if not (command == "quotient" and label in QUOTIENT_SKIPPED)
        ]
        if label in LARGE_ORIGIN:
            cases.append(Case(f"{label}/origin/decompose", "decompose",
                              _spec(dynkin, auto, {"name": "origin"})))
    for label, dynkin, auto, _ in LARGE_TYPES:
        if label in LARGE_SEEDED:
            spec = _spec(dynkin, auto, {"coords": random_coords(rng, dynkin, auto)})
            cases += [
                Case(f"{label}/seeded/{command}", command, spec, seeded=True)
                for command in SEEDED_COMMANDS
                if not (command == "quotient" and label in QUOTIENT_SKIPPED)
            ]
    return cases


def coset_verdicts(rng: random.Random, root: Path) -> list[Case]:
    cases = [
        Case(f"{label}/rho/stability", "stability",
             _spec(dynkin, auto, {"name": "rho_over_m", "m": h}), expect_verdict=True)
        for label, dynkin, auto, h in COSET_TYPES
    ]
    cases += [
        Case(f"{dynkin}/barycenter/stability", "stability",
             _spec(dynkin, None, {"name": "barycenter"}))
        for dynkin in COSET_BARYCENTER
    ]
    for label, dynkin, auto, _ in COSET_TYPES:
        if label in COSET_SEEDED:
            spec = _spec(dynkin, auto, {"coords": random_coords(rng, dynkin, auto)})
            cases.append(Case(f"{label}/seeded/stability", "stability", spec, seeded=True))
    return cases


def warm_points(rng: random.Random, root: Path) -> list[Case]:
    cases = []
    for label, dynkin, auto, lam in WARM_DATA:
        points = tuple(
            tuple(random_coords(rng, dynkin, auto)) for _ in range(WARM_POINTS)
        )
        spec = {"dynkin": dynkin, "automorphism": list(auto or range(_rank(dynkin))),
                "lambda_valuations": lam}
        cases.append(Case(f"warm/{label}", "warm", spec, seeded=True, points=points))
    return cases


def generate(workload: str, seed: int, root: Path) -> list[Case]:
    """The workload's cases; the same seed always gives the same cases."""
    make = {"large_types": large_types, "coset_verdicts": coset_verdicts,
            "warm_points": warm_points}[workload]
    return make(random.Random(f"{workload}:{seed}"), root)


def spec_text(case: Case) -> str:
    body = dict(case.spec)
    if case.command == "warm":
        body = {"spec": body, "points": [list(p) for p in case.points]}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def spec_name(case: Case) -> str:
    return case.id.replace("/", "_") + ".json"


def write_specs(cases: list[Case], directory: Path) -> dict[str, Path]:
    """Write one spec file per case; map case id to its file."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for case in cases:
        path = directory / spec_name(case)
        path.write_text(spec_text(case))
        paths[case.id] = path
    return paths
