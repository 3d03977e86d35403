"""Reductive-quotient root data and the weight/dimension model of the
filtration quotients attached to an apartment point.

The quotient at depth r is modeled by its torus dimension (an eigenvalue
multiplicity of the twist on the cocharacter lattice) plus one line for each
restricted root a with r - a(x - x0) in the valuation set of a.  Every query
here reads the depth table of the point (``echelonnage.depth_table``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .echelonnage import (
    ApartmentPoint,
    TwistedDatum,
    depth_table,
    torus_jump_dim,  # noqa: F401  (part of this module's API)
)
from .exactmath import Vec, pair, vec_scale, vec_sub


class QuotientError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReductiveQuotientDatum:
    """Root datum of the reductive quotient at a point: the restricted roots
    whose value at the point is an actual jump level."""

    rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    positives: tuple[bool, ...]

    @cached_property
    def positive_roots(self) -> tuple[Vec, ...]:
        return tuple(r for r, p in zip(self.roots, self.positives) if p)

    @cached_property
    def simple_roots(self) -> tuple[Vec, ...]:
        pos = set(self.positive_roots)
        simple = []
        for a in sorted(pos):
            if not any(vec_sub(a, b) in pos for b in pos if b != a):
                simple.append(a)
        return tuple(simple)

    @cached_property
    def simple_coroots(self) -> tuple[Vec, ...]:
        index = {r: i for i, r in enumerate(self.roots)}
        return tuple(self.coroots[index[a]] for a in self.simple_roots)

    def coroot_of(self, key: Vec) -> Vec:
        return self.coroots[self.roots.index(key)]


@dataclass(frozen=True)
class MPQuotientReport:
    r: Fraction
    torus_dim: int
    root_part: tuple[Vec, ...]
    total_dim: int


def quotient_datum(td: TwistedDatum, x: ApartmentPoint) -> ReductiveQuotientDatum:
    """Roots of the reductive quotient: the depth-0 roots, those a with
    a(x - x0) in the jump set.  Its rank is the depth-0 torus dimension."""
    picked, rank = depth_table(td, x).at(0)
    # The checks run on the keys times the twist order, which are integer
    # vectors: a key is an average over a twist orbit.
    e = td.twist.order
    scaled = [(tuple((e * c).numerator for c in rr.key), rr.coroot) for rr in picked]
    keys = {k for k, _ in scaled}
    for k, _ in scaled:
        if vec_scale(2, k) in keys:
            raise QuotientError("quotient root system is not reduced")
    for k, coroot in scaled:
        for other in keys:
            if vec_sub(other, vec_scale(pair(other, coroot) // e, k)) not in keys:
                raise QuotientError("quotient root system is not reflection closed")
    return ReductiveQuotientDatum(
        rank=rank,
        roots=tuple(rr.key for rr in picked),
        coroots=tuple(rr.coroot for rr in picked),
        positives=tuple(rr.positive for rr in picked),
    )


def mp_quotient(td: TwistedDatum, x: ApartmentPoint, r) -> MPQuotientReport:
    r = Fraction(r)
    roots, torus = depth_table(td, x).at(r)
    part = tuple(rr.key for rr in roots)
    return MPQuotientReport(
        r=r, torus_dim=torus, root_part=part, total_dim=torus + len(part)
    )


def first_jump(td: TwistedDatum, x: ApartmentPoint) -> Fraction:
    """Least positive depth with a nonzero quotient.  Depth 0 always carries
    the fixed torus and the quotients repeat mod 1, so the answer is at most 1."""
    return next((r for r in depth_table(td, x).jumps() if r > 0), Fraction(1))


def jump_values(td: TwistedDatum, x: ApartmentPoint) -> tuple[Fraction, ...]:
    """All depths in [0, 1) with a nonzero quotient."""
    return depth_table(td, x).jumps()


def dimension_sum_over_period(td: TwistedDatum, x: ApartmentPoint) -> int:
    table = depth_table(td, x)
    return sum(map(table.dim, table.jumps()))


def algebra_dimension(td: TwistedDatum) -> int:
    return len(td.base.roots) + td.base.rank
