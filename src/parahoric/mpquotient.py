"""Reductive-quotient root data and the weight/dimension model of the
filtration quotients attached to an apartment point.

The quotient at depth r is modeled by its torus dimension (an eigenvalue
multiplicity of the twist on the cocharacter lattice) plus one line for each
restricted root a with r - a(x - x0) in the valuation set of a.  Every query
here reads the depth table of the point (``echelonnage.depth_table``).  The
quotients depend on the point only through that table, which points with
the same binning share, so ``mp_quotient`` keeps its report for each depth
on the table (``DepthTable.kept``) and builds it once per table.

The reductive quotient depends on the point only through its depth-0 root
set, so ``quotient_datum`` returns one shared datum per (datum, root set),
kept on the twisted datum (``TwistedDatum.quotients``): its checks, its
integer coordinate data (C^-1 over one denominator, from the fraction-free
``exactmath.integer_inverse``) and the characters ``weylmod`` memoizes on it
are computed once for every point with that root set.  That map is the
one owner of the quotient data: a depth table keeps none of its own.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .echelonnage import (
    ApartmentPoint,
    TwistedDatum,
    depth_table,
    torus_jump_dim,  # noqa: F401  (part of this module's API)
)
from .exactmath import (
    IntMatrix,
    PropertyViolation,
    Vec,
    frozen_record,
    integer_inverse,
    pair,
    vec_scale,
    vec_sub,
)


class QuotientError(PropertyViolation):
    pass


@frozen_record
class ReductiveQuotientDatum:
    """Root datum of the reductive quotient at a point: the restricted roots
    whose value at the point is an actual jump level.  ``integer_roots``
    holds the roots times the twist order e (``TwistedDatum.integer_keys``),
    and the simple roots, the Cartan matrix, the coordinate map and the half
    norms are integer arithmetic on them."""

    rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    positives: tuple[bool, ...]
    integer_roots: tuple[tuple[int, ...], ...]

    @cached_property
    def positive_roots(self) -> tuple[Vec, ...]:
        return tuple(r for r, p in zip(self.roots, self.positives) if p)

    @cached_property
    def _simple(self) -> tuple[int, ...]:
        """Indices of the simple roots, in key order: the positive roots that
        are not a positive root plus another."""
        pos = {k: i for i, (k, p) in enumerate(zip(self.integer_roots, self.positives)) if p}
        return tuple(
            i for k, i in sorted(pos.items()) if not any(vec_sub(k, b) in pos for b in pos)
        )

    @cached_property
    def simple_roots(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self._simple)

    @cached_property
    def simple_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self._simple)

    @cached_property
    def simple_integer_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.integer_roots[i] for i in self._simple)

    def coroot_of(self, key: Vec) -> Vec:
        return self.coroots[self.roots.index(key)]

    @cached_property
    def _scale(self) -> int:
        """e: a root pairs to 2 with its coroot, so to 2e as an integer root."""
        return pair(self.integer_roots[0], self.coroots[0]) // 2 if self.roots else 1

    @cached_property
    def cartan(self) -> IntMatrix:
        """C[i][j] = <alpha_j, acheck_i> over the simple roots (the package
        convention of ``rootdata``)."""
        rows = []
        for ac in self.simple_coroots:
            row = [divmod(pair(a, ac), self._scale) for a in self.simple_integer_roots]
            if any(rem for _, rem in row):
                raise QuotientError("quotient Cartan matrix is not integral")
            rows.append(tuple(c for c, _ in row))
        return tuple(rows)

    @cached_property
    def _coordinate_data(self):
        """C^-1 as integers over one denominator: the coordinate map is
        integer arithmetic on the integer roots."""
        return integer_inverse(self.cartan)

    @property
    def coordinate_denominator(self) -> int:
        """The denominator of C^-1 times e: ``scaled_coordinates`` of an
        integer root-scale vector num gives c times this for the weight
        num / e."""
        return self._coordinate_data[0] * self._scale

    def scaled_coordinates(self, num) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The simple-root coordinates (residual, c) of the weight v = num / q,
        for an integer vector num and any q: v = residual + sum c_i alpha_i
        with the residual pairing to zero with every simple coroot, so
        c = C^-1 (<v, acheck_j>)_j.  Returned in integers: the residual times
        den_inv e q and c times den_inv q, den_inv the denominator of C^-1."""
        den_inv, inverse = self._coordinate_data
        p = [pair(num, ac) for ac in self.simple_coroots]
        c = tuple(pair(row, p) for row in inverse)
        residual = [x * den_inv * self._scale for x in num]
        for ci, a in zip(c, self.simple_integer_roots):
            if ci:
                residual = [x - ci * y for x, y in zip(residual, a)]
        return tuple(residual), c

    @cached_property
    def positive_coordinates(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots, in order, as integer simple-root coordinates."""
        scale = self.coordinate_denominator
        out = []
        for a, k, p in zip(self.roots, self.integer_roots, self.positives):
            if not p:
                continue
            residual, c = self.scaled_coordinates(k)
            if any(residual) or any(x % scale or x < 0 for x in c):
                raise QuotientError(
                    f"positive root {a} is not a nonnegative integer "
                    "combination of the simple roots"
                )
            out.append(tuple(x // scale for x in c))
        return tuple(out)

    @cached_property
    def half_norms(self) -> tuple[int, ...]:
        """d_j = (alpha_j, alpha_j)/2 for the Weyl-invariant form
        (chi, psi) = sum over the roots a of <chi, acheck><psi, acheck>: the
        sum over the positive a of <alpha_j, acheck>^2, an integer."""
        pos = [c for c, p in zip(self.coroots, self.positives) if p]
        out = []
        for a in self.simple_integer_roots:
            d, rem = divmod(sum(pair(a, c) ** 2 for c in pos), self._scale**2)
            if rem:
                raise QuotientError("simple root pairs non-integrally with a coroot")
            out.append(d)
        return tuple(out)

    @cached_property
    def characters(self) -> dict:
        """Characters of this quotient by top Dynkin labels, filled by
        ``weylmod``; every point sharing the datum shares them."""
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
        integer_roots=tuple(k for k, _ in scaled),
    )
    return h


def mp_quotient(td: TwistedDatum, x: ApartmentPoint, r) -> MPQuotientReport:
    """The quotient at depth r.  It is read off the depth table alone, so
    the table keeps it: every point with the same binning gets one report."""
    if not isinstance(r, Fraction):
        r = Fraction(r)
    table = depth_table(td, x)

    def build():
        roots, torus = table.at(r)
        part = tuple(rr.key for rr in roots)
        return MPQuotientReport(
            r=r, torus_dim=torus, root_part=part, total_dim=torus + len(part)
        )

    return table.kept("mp_quotient", r, build)


def first_jump(td: TwistedDatum, x: ApartmentPoint) -> Fraction:
    """Least positive depth with a nonzero quotient.  Depth 0 always carries
    the fixed torus and the quotients repeat mod 1, so the answer is at most 1."""
    return next((r for r in depth_table(td, x).jumps() if r), None) or Fraction(1)


def jump_values(td: TwistedDatum, x: ApartmentPoint) -> tuple[Fraction, ...]:
    """All depths in [0, 1) with a nonzero quotient."""
    return depth_table(td, x).jumps()


def dimension_sum_over_period(td: TwistedDatum, x: ApartmentPoint) -> int:
    table = depth_table(td, x)
    return sum(map(table.dim, table.jumps()))


def algebra_dimension(td: TwistedDatum) -> int:
    return len(td.base.roots) + td.base.rank
