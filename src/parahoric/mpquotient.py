"""Reductive-quotient root data and the weight/dimension model of the
filtration quotients attached to an apartment point.

The quotient at depth r is modeled by its torus dimension (an eigenvalue
multiplicity of the twist on the cocharacter lattice) plus one line for each
restricted root a with r - a(x - x0) in the valuation set of a.  Every query
here reads the depth table of the point (``echelonnage.depth_table``), that
of its translation class: the points that differ by a translation of the
affine Weyl group, which fixes every affine root's level set, share one
table, and so do all the points with the same binning.  The quotients
depend on the point only through that table, so ``mp_quotient`` keeps its
report for each depth on the table (``DepthTable.kept``) and builds it once
per table.

The reductive quotient depends on the point only through its depth-0 root
set, so ``quotient_datum`` returns one shared datum per (datum, root set),
kept on the twisted datum (``TwistedDatum.results``) and checked once; a
depth table keeps none of its own.  What a character reads depends only on
the Cartan matrix, which many root sets of many data share, so the
``QuotientType`` of a Cartan matrix is interned for the process
(``ReductiveQuotientDatum.quotient_type``, as ``rootdata.build_datum``
interns root data): the integer C^-1 (from the fraction-free
``exactmath.integer_inverse``), the component types and the characters
``weylmod`` memoizes are computed once per matrix.
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
    closure,
    frozen_record,
    integer_inverse,
    kept,
    pair,
    vec_scale,
    vec_sub,
)
from .rootdata import component_type


class QuotientError(PropertyViolation):
    pass


@frozen_record
class QuotientType:
    """What the quotient data with one Cartan matrix share, made from the
    first of them: the half norms, the sorted positive coordinates, and,
    computed once per type, C^-1 over one denominator, the component types
    and the characters by top labels (``weylmod``)."""

    cartan: IntMatrix
    half_norms: tuple[int, ...]
    positive_coordinates: tuple[tuple[int, ...], ...]

    @cached_property
    def inverse(self) -> tuple[int, IntMatrix]:
        """C^-1 over one denominator (``exactmath.integer_inverse``)."""
        return integer_inverse(self.cartan)

    @cached_property
    def characters(self) -> dict:
        return {}

    @cached_property
    def components(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Each irreducible component as (its type, its simple-root indices),
        by least index.  A positive root's support lies in one component, and
        the largest is that of its highest root, the whole component; the type
        is ``rootdata.component_type`` of its rank, positive and short roots."""
        supports = [frozenset(i for i, c in enumerate(v) if c) for v in self.positive_coordinates]
        supports.sort(key=len)
        out, covered = [], set()
        for nodes in reversed(supports):
            if nodes.isdisjoint(covered):
                covered |= nodes
                norms = [self.half_norms[i] for i in nodes]
                short = sum(d < max(norms) for d in norms)
                count = sum(s <= nodes for s in supports)
                out.append((component_type(len(nodes), count, short), tuple(sorted(nodes))))
        return tuple(sorted(out, key=lambda c: c[1]))


_TYPES: dict[IntMatrix, QuotientType] = {}  # ``quotient_type`` interns its results


@frozen_record
class ReductiveQuotientDatum:
    """Root datum of the reductive quotient at a point: the restricted roots
    whose value at the point is an actual jump level.  ``integer_roots``
    holds the roots times the twist order e (``RestrictedRoot.integer_key``),
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

    @property
    def coordinate_denominator(self) -> int:
        """The denominator of C^-1 times e: ``scaled_coordinates`` of an
        integer root-scale vector num gives c times this for the weight
        num / e."""
        return self.quotient_type.inverse[0] * self._scale

    def scaled_coordinates(self, num) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The simple-root coordinates (residual, c) of the weight v = num / q,
        for an integer vector num and any q: v = residual + sum c_i alpha_i
        with the residual pairing to zero with every simple coroot, so
        c = C^-1 (<v, acheck_j>)_j.  Returned in integers: the residual times
        den_inv e q and c times den_inv q, den_inv the denominator of C^-1."""
        den_inv, inverse = self.quotient_type.inverse
        p = [pair(num, ac) for ac in self.simple_coroots]
        c = tuple(pair(row, p) for row in inverse)
        residual = [x * den_inv * self._scale for x in num]
        for ci, a in zip(c, self.simple_integer_roots):
            if ci:
                residual = [x - ci * y for x, y in zip(residual, a)]
        return tuple(residual), c

    @cached_property
    def positive_coordinates(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots, in order, as integer simple-root coordinates,
        by one walk (``exactmath.closure``) from the simple roots with unit
        coordinates: the reflection in a simple root a moves a key by t a and
        its coordinates by t times those of a, t the key's pairing with the
        coroot of a over e.  The roots are reflection closed exactly when the
        walk stays in them, reaches them all and gives each one coordinate
        vector."""
        simple = tuple(zip(self.simple_integer_roots, self.simple_coroots))
        coords = {a: tuple(int(a == b) for b, _ in simple) for a, _ in simple}
        keys = set(self.integer_roots)

        def step(k):
            for a, ac in simple:
                t = pair(k, ac) // self._scale
                image, c = vec_sub(k, vec_scale(t, a)), vec_sub(coords[k], vec_scale(t, coords[a]))
                if image not in keys or coords.setdefault(image, c) != c:
                    raise QuotientError("quotient root system is not reflection closed")
                yield image

        if set(closure(list(coords), step)) != keys:
            raise QuotientError("quotient root system is not reflection closed")
        out = tuple(coords[k] for k, p in zip(self.integer_roots, self.positives) if p)
        for a, c in zip(self.positive_roots, out):
            if min(c) < 0:
                raise QuotientError(
                    f"positive root {a} is not a nonnegative integer "
                    "combination of the simple roots"
                )
        return out

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
    def quotient_type(self) -> QuotientType:
        """The type of this datum's Cartan matrix, one per matrix for the
        process, made from the first datum with it: a later datum's own half
        norms and positive coordinates must be the type's."""
        positive = tuple(sorted(self.positive_coordinates))
        own = QuotientType(self.cartan, self.half_norms, positive)
        kind = _TYPES.setdefault(self.cartan, own)
        if kind != own:
            raise QuotientError(
                "quotient half norms or positive coordinates differ from those "
                "of the type of its Cartan matrix"
            )
        return kind


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
    checked once per root set (a failed check is raised, not kept), also
    against the type of its Cartan matrix (``quotient_type``)."""
    picked, rank = depth_table(td, x).at(0)
    key = ("quotient", tuple(rr.index for rr in picked))
    return kept(td.results, key, lambda: _checked(picked, rank))


def _checked(picked, rank: int) -> ReductiveQuotientDatum:
    """The quotient datum of the depth-0 roots ``picked``, checked: reduced
    on the integer keys (the keys times e), then the datum's own checks and
    those against its type, run by ``quotient_type``."""
    keys = {rr.integer_key for rr in picked}
    if any(vec_scale(2, k) in keys for k in keys):
        raise QuotientError("quotient root system is not reduced")
    h = ReductiveQuotientDatum(
        rank=rank,
        roots=tuple(rr.key for rr in picked),
        coroots=tuple(rr.coroot for rr in picked),
        positives=tuple(rr.positive for rr in picked),
        integer_roots=tuple(rr.integer_key for rr in picked),
    )
    h.quotient_type
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
    """Least positive depth with a nonzero quotient (``DepthTable.first_jump``)."""
    return depth_table(td, x).first_jump


def jump_values(td: TwistedDatum, x: ApartmentPoint) -> tuple[Fraction, ...]:
    """All depths in [0, 1) with a nonzero quotient."""
    return depth_table(td, x).jumps()


def dimension_sum_over_period(td: TwistedDatum, x: ApartmentPoint) -> int:
    table = depth_table(td, x)
    return sum(map(table.dim, table.jumps()))


def algebra_dimension(td: TwistedDatum) -> int:
    return len(td.base.roots) + td.base.rank
