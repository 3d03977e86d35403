"""The base alcove of a twisted datum: its facets (the simple affine roots),
its vertices and the reduction of a point into it.

The alcove is read off the integer rows of ``TwistedDatum.affine_rows`` in
closed form, one irreducible component at a time: its facets are the simple
affine roots and its vertices the scaled fundamental coweights (Kac
coordinates).  Its facets are held over the rows' denominator q, and
reduction is the exact floor of ``echelonnage.translated`` and integer folds.
Only the readers that reduce a point or need a vertex load this module:
``stability``, the ``barycenter`` named point and ``selftest``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import attrgetter

from .echelonnage import ApartmentPoint, EchelonnageError, point_from_simple_coroots, translated
from .exactmath import kept, pair, vec_scale, vec_sub

ALCOVE_ITERATION_CAP = 100_000


def alcove_facets(td: TwistedDatum) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
    """The facets of the base alcove on the rows of ``affine_rows``, kept on
    the datum (``TwistedDatum.results``): (key * q, level * q, coroot) per
    facet, q that of the rows, held one-sided: key(x) >= level inside, the
    key a restricted root, negated for an upper wall, with its coroot.

    The facets are the simple affine roots, in closed form: first a lower
    wall a = 0 per simple restricted root a, on the row of a or of 2a
    whose valuation set holds 0 (their levels are disjoint), then an
    upper wall per component, in the order of ``components``: the first
    hyperplane a = l_a (l_a the least positive level of a) that the ray
    from x0 along the sum of the positive coroots meets, that of the
    positive root of the component with the largest H_a / l_a, where
    H_a = q a(the sum).  A root lies in the component of its support.
    """

    def build():
        q, _, rows = td.affine_rows
        positives = [row for row in rows if row[0].positive]
        if not positives:
            raise EchelonnageError("restricted root system is empty")
        direction = tuple(map(sum, zip(*(row[0].coroot for row in positives))))
        base, simple = td.base, td.simple_restricted
        component = {}  # by node of the base
        for c, js in enumerate(td.components):
            component.update((base.simple_roots.index(alpha), c) for j in js for alpha in simple[j].fiber)
        top = [(0, 1, None, None)] * len(td.components)  # best (H_a, l_a * q, a, key * q)
        for rr, key, offset, period in positives:
            # the offset lies in [0, step), so l_a is the offset unless that is 0
            h, least = pair(key, direction), offset or q // period
            if h <= 0:
                raise EchelonnageError("reference direction is not regular")
            c = component[next(i for i, x in enumerate(base.coeffs[base.root_index[rr.fiber[0]]]) if x)]
            if h * top[c][1] > top[c][0] * least:
                top[c] = h, least, rr, key
        facets = []
        for a in simple:  # 0 is a level of a, or of 2a if the offset of a is not 0
            rr = td.by_key[vec_scale(2, a.key)] if rows[a.index][2] else a
            facets.append((rows[rr.index][1], 0, rr.coroot))
        for _, least, rr, key in top:
            facets.append((vec_scale(-1, key), -least, vec_scale(-1, rr.coroot)))
        return tuple(facets)

    return kept(td.results, ("alcove_facets", None), build)


def alcove_parts(td: TwistedDatum) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The vertices of the base alcove of each irreducible component, in
    restricted-simple-coroot coordinates and zero off the component, kept on
    the datum: each vertex of the closed base alcove is a sum of one part per
    component.  A component's vertices are x0 and, per simple root i, the
    point where the other simple roots vanish and the upper wall's root
    reaches its level (Kac coordinates): column i of the inverse Cartan
    block, scaled."""

    def build():
        n = len(td.simple_restricted)
        parts = []
        uppers = alcove_facets(td)[n:]
        for js, (_, inverse), (key, level, _) in zip(td.components, td.cartan_inverses, uppers):
            values = [pair(key, td.simple_coroots[j]) for j in js]  # at each bcheck
            part = [(0,) * n]
            for column in zip(*inverse):
                at, h = dict(zip(js, column)), pair(column, values)
                part.append(tuple(Fraction(level * at[j], h) if j in at else 0 for j in range(n)))
            parts.append(tuple(part))
        return tuple(parts)

    return kept(td.results, ("alcove_parts", None), build)


def in_base_alcove(td: TwistedDatum, x: ApartmentPoint) -> bool:
    den, nums = x.scaled
    return all(pair(key, nums) >= level * den for key, level, _ in alcove_facets(td))


def alcove_vertices(td: TwistedDatum) -> tuple[ApartmentPoint, ...]:
    """Vertices of the closed base alcove, sorted: the sums over the product
    of the component parts (``alcove_parts``)."""
    sums = (list(map(sum, zip(*choice))) for choice in product(*alcove_parts(td)))
    return tuple(sorted((point_from_simple_coroots(td, c) for c in sums), key=attrgetter("coords")))


def alcove_reduce(td: TwistedDatum, x: ApartmentPoint) -> ApartmentPoint:
    """The unique representative of the affine-Weyl orbit of x in the closed
    base alcove: translate by the lattice part with an exact floor
    (``echelonnage.translated``), then reflect across violated facets.  The
    point is held as integers over a multiple of q, which every translation
    and fold keeps on the twist-fixed subspace (there key(x) is the value of
    a root of its fiber)."""
    facets, q = alcove_facets(td), td.affine_rows[0]
    den, v = translated(td, x)
    for _ in range(ALCOVE_ITERATION_CAP):
        moved = False
        for key, level, coroot in facets:
            t = pair(key, v) - level * den  # q den (key(x) - level): < 0 outside
            if t < 0:
                k, rem = divmod(t, q)
                if rem:  # off the twist-fixed subspace: refine the denominator
                    v, den, k = vec_scale(q, v), q * den, t
                v = vec_sub(v, vec_scale(k, coroot))
                moved = True
        if not moved:
            return ApartmentPoint(den, v)
    raise EchelonnageError(
        f"field 'point': alcove reduction did not terminate within "
        f"{ALCOVE_ITERATION_CAP} passes"
    )


def reduced(cls: TranslationClass) -> ApartmentPoint:
    """The point of a translation class in the closed base alcove, kept on
    the class: every point of it reduces alike."""
    return kept(cls.results, "reduced", lambda: alcove_reduce(cls.table.td, cls.point))
