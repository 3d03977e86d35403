"""Reductive-quotient root data and the weight/dimension model of the
filtration quotients attached to an apartment point.

The quotient at depth r is modeled by its torus dimension (an eigenvalue
multiplicity of the twist on the cocharacter lattice) plus one line for each
restricted root a with r - a(x - x0) in the valuation set of a.  Every query
here reads the depth table of the point (``echelonnage.depth_table``).

The reductive quotient depends on the point only through its depth-0 root
set, so ``quotient_datum`` returns one shared datum per (datum, root set),
kept on the twisted datum (``TwistedDatum.quotients``): its checks, its
integer coordinate data and the characters ``weylmod`` memoizes on it are
computed once for every point with that root set.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .echelonnage import (
    ApartmentPoint,
    TwistedDatum,
    depth_table,
    torus_jump_dim,  # noqa: F401  (part of this module's API)
)
from .exactmath import IntMatrix, Vec, frozen_record, invert_matrix, pair, vec_scale, vec_sub


class QuotientError(RuntimeError):
    pass


@frozen_record
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

    @cached_property
    def cartan(self) -> IntMatrix:
        """C[i][j] = <alpha_j, acheck_i> over the simple roots (the package
        convention of ``rootdata``)."""
        rows = []
        for ac in self.simple_coroots:
            row = tuple(pair(a, ac) for a in self.simple_roots)
            if any(c.denominator != 1 for c in row):
                raise QuotientError("quotient Cartan matrix is not integral")
            rows.append(tuple(int(c) for c in row))
        return tuple(rows)

    @cached_property
    def _coordinate_data(self):
        """C^-1 as integers over one denominator, and the simple roots as
        integers over another: the coordinate map is integer arithmetic."""
        inverse = invert_matrix(self.cartan) if self.cartan else ()
        den_inv = lcm(*(c.denominator for row in inverse for c in row))
        inv_num = tuple(tuple((c * den_inv).numerator for c in row) for row in inverse)
        den_a = lcm(*(c.denominator for a in self.simple_roots for c in a))
        simple_num = tuple(tuple((c * den_a).numerator for c in a) for a in self.simple_roots)
        return den_inv, inv_num, den_a, simple_num

    @property
    def coordinate_denominator(self) -> int:
        """The denominator of C^-1: ``scaled_coordinates`` of num gives c
        times this denominator times q for the weight num / q."""
        return self._coordinate_data[0]

    def scaled_coordinates(self, num) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``simple_coordinates`` of the weight num / q, for an integer
        vector num and any q, in integers: the residual times
        den_inv den_a q and c times den_inv q."""
        den_inv, inv_num, den_a, simple_num = self._coordinate_data
        p = [pair(num, ac) for ac in self.simple_coroots]
        c = tuple(pair(row, p) for row in inv_num)
        residual = [x * den_inv * den_a for x in num]
        for ci, a in zip(c, simple_num):
            if ci:
                residual = [x - ci * y for x, y in zip(residual, a)]
        return tuple(residual), c

    def simple_coordinates(self, v: Vec) -> tuple[Vec, Vec]:
        """(residual, c) with v = residual + sum c_i alpha_i and the residual
        pairing to zero with every simple coroot: c = C^-1 (<v, acheck_j>)_j."""
        den_inv, _, den_a, _ = self._coordinate_data
        q = lcm(*(x.denominator for x in v))
        residual, c = self.scaled_coordinates(
            [x.numerator * (q // x.denominator) for x in v]
        )
        den = den_inv * q
        return (
            tuple(Fraction(x, den * den_a) for x in residual),
            tuple(Fraction(x, den) for x in c),
        )

    @cached_property
    def positive_coordinates(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots, in order, as integer simple-root coordinates."""
        out = []
        for a in self.positive_roots:
            residual, c = self.simple_coordinates(a)
            if any(residual) or any(x.denominator != 1 or x < 0 for x in c):
                raise QuotientError(
                    f"positive root {a} is not a nonnegative integer "
                    "combination of the simple roots"
                )
            out.append(tuple(int(x) for x in c))
        return tuple(out)

    @cached_property
    def half_norms(self) -> tuple[int, ...]:
        """d_j = (alpha_j, alpha_j)/2 for the Weyl-invariant form
        (chi, psi) = sum over the roots a of <chi, acheck><psi, acheck>: the
        sum over the positive a of <alpha_j, acheck>^2, an integer."""
        _, _, den_a, simple_num = self._coordinate_data
        pos = [c for c, p in zip(self.coroots, self.positives) if p]
        out = []
        for a in simple_num:
            d, rem = divmod(sum(pair(a, c) ** 2 for c in pos), den_a**2)
            if rem:
                raise QuotientError("simple root pairs non-integrally with a coroot")
            out.append(d)
        return tuple(out)

    @cached_property
    def characters(self) -> dict:
        """Characters of this quotient by top Dynkin labels, filled by
        ``weylmod``; every point sharing the datum shares them."""
        return {}

    @cached_property
    def integer_positives(self) -> dict:
        """The positive roots times e as integer vectors, by e, filled by
        ``weylmod``."""
        return {}


@frozen_record
class MPQuotientReport:
    r: Fraction
    torus_dim: int
    root_part: tuple[Vec, ...]
    total_dim: int


def quotient_datum(td: TwistedDatum, x: ApartmentPoint) -> ReductiveQuotientDatum:
    """Roots of the reductive quotient: the depth-0 roots, those a with
    a(x - x0) in the jump set.  Its rank is the depth-0 torus dimension.
    Points with the same depth-0 roots get the same datum object, built and
    checked once per root set (a failed check is raised, not kept)."""
    picked, rank = depth_table(td, x).at(0)
    indices = tuple(rr.index for rr in picked)
    if indices in td.quotients:
        return td.quotients[indices]
    # the checks run on the integer keys, the keys times the twist order e
    e = td.twist.order
    scaled = [(td.integer_keys[rr.index], rr.coroot) for rr in picked]
    keys = {k for k, _ in scaled}
    for k, _ in scaled:
        if vec_scale(2, k) in keys:
            raise QuotientError("quotient root system is not reduced")
    for k, coroot in scaled:
        for other in keys:
            if vec_sub(other, vec_scale(pair(other, coroot) // e, k)) not in keys:
                raise QuotientError("quotient root system is not reflection closed")
    h = td.quotients[indices] = ReductiveQuotientDatum(
        rank=rank,
        roots=tuple(rr.key for rr in picked),
        coroots=tuple(rr.coroot for rr in picked),
        positives=tuple(rr.positive for rr in picked),
    )
    return h


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
