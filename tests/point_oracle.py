"""The twisted-datum scaffold and the apartment-point geometry in
``Fraction`` vectors: the restricted roots keyed, sorted and classified on
rational orbit averages, the depth table by one rational pairing per
restricted root, the base-alcove facets by a rational search, alcove
reduction by rational reflections, and points built from rational coroot
multiples.

It also holds the searches that the closed forms of ``TwistedDatum`` and
``alcove`` replace: the base-alcove facets by counting the root hyperplanes crossed
between a reference point and each candidate reflection of it, on integers
(``alcove_facets``); the translations by one inverse of the whole
restricted Cartan matrix (``translations``); and the alcove vertices by
solving every rank-element set of facets, kept when independent
(``alcove_parts``); and the barycenter as one dense mean per component
(``catalog.named_point``).

It also holds the nearest elements of a valuation set above and below a
value, which only these searches and the tests ask for.

It also holds the rational affine reflection that the reduction tests use
to walk a point through its affine-Weyl orbit; the package itself never
reflects a point.

Kept as an oracle for the integer forms in ``echelonnage``, which must give
the same scaffold, the same point order, the same bins (root order
included), the same facets and the same reduced points.
"""
from fractions import Fraction
from itertools import combinations
from math import floor, lcm
from operator import attrgetter

from parahoric.alcove import ALCOVE_ITERATION_CAP, alcove_facets, alcove_parts
from parahoric.echelonnage import (
    ApartmentPoint,
    EchelonnageError,
    _Scaffold,
    evaluate,
    point_from_simple_coroots,
    restrict,
)
from parahoric.exactmath import (
    mat_vec,
    pair,
    reflection_orbit,
    rref,
    vec_add,
    vec_scale,
    vec_sub,
)

from matrix_oracle import invert_matrix


def min_above(vset, t) -> Fraction:
    """The least element of the valuation set above t."""
    return t + vset.step - (t - vset.offset) % vset.step


def max_below(vset, t) -> Fraction:
    """The greatest element of the valuation set below t."""
    return t - vset.step + (vset.offset - t) % vset.step

def scaffold_oracle(base, twist):
    """``echelonnage._scaffold`` on ``Fraction`` keys: each key is the orbit
    average itself, and the sort, the class tests and the coroot checks run
    on those rational tuples."""
    orbits = []
    seen = set()
    for r in base.roots:
        if r in seen:
            continue
        orbit = [r]
        cur = mat_vec(twist.matrix, r)
        while cur != r:
            orbit.append(cur)
            cur = mat_vec(twist.matrix, cur)
        seen |= set(orbit)
        orbits.append(tuple(orbit))
    keyed = {}
    for orbit in orbits:
        key = tuple(Fraction(sum(r[i] for r in orbit), len(orbit)) for i in range(base.rank))
        if key in keyed:
            raise EchelonnageError("two distinct twist orbits share a restriction")
        keyed[key] = orbit
    keys = sorted(keyed)
    classes = []
    coroots = []
    for key in keys:
        if tuple(2 * x for x in key) in keyed:
            classes.append("multipliable")
        elif tuple(x / 2 for x in key) in keyed:
            classes.append("divisible")
        else:
            classes.append("plain")
        coroot = (0,) * base.rank
        for alpha in keyed[key]:
            coroot = vec_add(coroot, base.coroot_of(alpha))
        if classes[-1] == "multipliable":
            coroot = vec_scale(2, coroot)
        if pair(key, coroot) != 2:
            raise EchelonnageError("restricted coroot does not pair to 2")
        coroots.append(coroot)
    positives = [base.is_positive(keyed[key][0]) for key in keys]
    pos_mult = tuple(
        i for i, (c, p) in enumerate(zip(classes, positives)) if c == "multipliable" and p
    )
    reflections = tuple(zip(keys, coroots))
    lambda_orbits = set()
    for i in pos_mult:
        orbit = reflection_orbit(keys[i], reflections)
        lambda_orbits.add(tuple(j for j, b in enumerate(pos_mult) if keys[b] in orbit))
    e = twist.order
    return _Scaffold(
        roots=tuple(
            (key, tuple(int(c * e) for c in key), coroot, keyed[key], cls, positive)
            for key, coroot, cls, positive in zip(keys, coroots, classes, positives)
        ),
        lambda_roots=pos_mult,
        lambda_orbits=tuple(sorted(lambda_orbits)),
    )


def depth_table_oracle(td, x):
    """(order, bins) with bins the residue -> restricted roots map of
    ``depth_table``, from Fraction values a(x - x0)."""
    roots = restrict(td)
    values = [evaluate(rr.key, x) for rr in roots]
    n = 1
    for rr, val in zip(roots, values):
        js = rr.jump_set
        n = lcm(n, js.step.denominator, (val + js.offset).denominator)
    bins = {}
    for rr, val in zip(roots, values):
        step = rr.jump_set.step * n
        if step.denominator != 1 or n % step.numerator:
            raise EchelonnageError("valuation step does not divide 1")
        start = ((val + rr.jump_set.offset) * n).numerator % step.numerator
        for k in range(start, n, step.numerator):
            bins.setdefault(k, []).append(rr)
    return n, {k: tuple(v) for k, v in bins.items()}


def walls_oracle(td):
    """The facets of the base alcove as a set of (key, level), key(x) >= level
    inside, found in Fractions.

    The reference point p is half the largest multiple of the sum of the
    positive coroots that puts every positive root strictly between 0 and
    its least positive level.  Each positive root offers its levels just
    below and just above a(p); a candidate is a facet iff its hyperplane is
    the only one strictly between p and the reflection of p across it.
    """
    positives = [rr for rr in restrict(td) if rr.positive]
    direction = (0,) * td.base.rank
    for rr in positives:
        direction = vec_add(direction, rr.coroot)
    heights = [pair(rr.key, direction) for rr in positives]
    assert min(heights) > 0
    scale = min(min_above(rr.jump_set, 0) / h for rr, h in zip(positives, heights)) / 2
    values = [scale * h for h in heights]
    facets = set()
    for rr, value in zip(positives, values):
        below, above = max_below(rr.jump_set, value), min_above(rr.jump_set, value)
        for sign, level in ((1, below), (-1, above)):
            t = value - level
            image = [v - t * pair(b.fiber[0], rr.coroot) for b, v in zip(positives, values)]
            if _one_hyperplane_between(positives, values, image):
                facets.add((vec_scale(sign, rr.key), sign * level))
    return facets


def _one_hyperplane_between(positives, here, there):
    """Whether exactly one root hyperplane lies strictly between two points
    that lie on none, given the values of the positive roots at each point.
    A hyperplane is (key, level) over the non-divisible key, so that
    a(x) = l and 2a(x) = 2l count as one."""
    seen = set()
    for rr, u, v in zip(positives, here, there):
        lo, hi = sorted((u, v))
        level = min_above(rr.jump_set, lo)
        while level < hi:
            scale = 2 if rr.cls == "divisible" else 1
            seen.add((tuple(c / scale for c in rr.key), level / scale))
            if len(seen) > 1:
                return False
            level = min_above(rr.jump_set, level)
    return len(seen) == 1


def crossing_alcove_oracle(td):
    """The facets of ``alcove_facets(td)``, (key * q, level * q, coroot) each,
    found by counting crossed hyperplanes on the rows of ``affine_rows``.

    The alcove holds p = (the sum of the positive coroots) / T.  With
    H_a = q a(T p) and l_a the least positive level of a in units of 1/q, T
    exceeds every H_a / l_a, so every positive root lies strictly between
    its levels l_a - step and l_a at p, and in units of 1/(q T) every value
    and level is an integer.  Each of those two levels is a facet iff its
    hyperplane is the only one strictly between p and the reflection of p
    across it: the reflection in any other wall has length above one in the
    affine Weyl group.  The levels of a and of 2a are disjoint
    (``restricted``), so the hyperplanes between two points are counted root
    by root, each by floor division.
    """
    q, _, rows = td.affine_rows
    positives = [row for row in rows if row[0].positive]
    if not positives:
        raise EchelonnageError("restricted root system is empty")
    direction = (0,) * td.base.rank
    for row in positives:
        direction = vec_add(direction, row[0].coroot)
    # (root, key * q, H_a, step * q, l_a * q); the offset lies in
    # [0, step), so l_a is the offset unless that is 0
    table = [
        (rr, key, pair(key, direction), q // period, offset or q // period)
        for rr, key, offset, period in positives
    ]
    if min(row[2] for row in table) <= 0:
        raise EchelonnageError("reference direction is not regular")
    big_t = 1 + max(h // least for _, _, h, _, least in table)
    facets = []
    for rr, key, h, step, least in table:
        for sign, level in ((1, least - step), (-1, least)):
            # b(image) = b(p) - (a(p) - level) <b, acheck>; the twist keeps
            # the pairing and fixes acheck, so any root of b's fiber gives it
            t = h - big_t * level
            crossed = 0
            for b, _, hb, step_b, least_b in table:
                lo, hi = sorted((hb, hb - t * pair(b.fiber[0], rr.coroot)))
                start, period_b = big_t * least_b, big_t * step_b
                crossed += (hi - start) // period_b - (lo - start) // period_b
                if crossed > 1:
                    break
            else:  # the wall itself is the only hyperplane crossed
                facets.append((vec_scale(sign, key), sign * level, vec_scale(sign, rr.coroot)))
    return tuple(facets)


def translations_oracle(td):
    """``rational_alcove(td)[1]`` from one rational inverse of the whole
    restricted Cartan matrix C[a][b] = <a, bcheck>: per simple restricted
    root a, w = period(a) (row a of C^-1) . keys and t = step(a) acheck."""
    simples = td.simple_restricted
    inverse = invert_matrix([[pair(a.fiber[0], b.coroot) for b in simples] for a in simples])
    out = []
    for a, row in zip(simples, inverse):
        w = (Fraction(0),) * td.base.rank
        for c, b in zip(row, simples):
            w = vec_add(w, vec_scale(c * a.jump_set.step.denominator, b.key))
        out.append((w, vec_scale(a.jump_set.step, a.coroot)))
    return tuple(out)


def rational_alcove(td):
    """``alcove_facets(td)`` and ``td.translations`` in Fractions: (facets,
    translations), a facet (key, level, coroot) with key(x) >= level inside
    and a translation the pair (w, t) of ``alcove_reduce``."""
    q = td.affine_rows[0]
    facets = tuple(
        (tuple(Fraction(c, q) for c in key), Fraction(level, q), coroot)
        for key, level, coroot in alcove_facets(td)
    )
    translations = tuple(
        (tuple(Fraction(c, p) for c in w), tuple(Fraction(c, q) for c in t))
        for w, p, t in td.translations
    )
    return facets, translations


def alcove_vertices_by_subsets(td):
    """The vertices of the closed base alcove, sorted: each rank-element set
    of the facet equations key(x) = level, in the coordinates of the
    restricted simple coroots, that has one solution gives a vertex.  That
    is C(rank + c, rank) solves for c irreducible components."""
    basis = td.simple_coroots
    vertices = set()
    for subset in combinations(alcove_facets(td), len(basis)):
        red, pivots = rref([[pair(key, b) for b in basis] + [level] for key, level, _ in subset])
        if pivots == list(range(len(basis))):
            vertices.add(point_from_simple_coroots(td, [row[-1] for row in red]))
    return tuple(sorted(vertices, key=attrgetter("coords")))


def barycenter_oracle(td):
    """The barycenter as the sum of one mean per component over every
    coordinate, the zeros off the component included."""
    means = [[Fraction(sum(c), len(part)) for c in zip(*part)] for part in alcove_parts(td)]
    return point_from_simple_coroots(td, list(map(sum, zip(*means))))


def translation_representative(td, x):
    """x less the floor of pair(w, x) times t for each translation (w, t),
    in Fraction vectors: one point per class of x modulo the translations."""
    v = x.coords
    for w, t in rational_alcove(td)[1]:
        v = vec_sub(v, vec_scale(floor(pair(w, v)), t))
    return v


def alcove_reduce_oracle(td, x):
    """Translate by the exact lattice floor, then reflect across violated
    facets, in Fraction vectors."""
    facets, _ = rational_alcove(td)
    v = translation_representative(td, x)
    for _ in range(ALCOVE_ITERATION_CAP):
        moved = False
        for key, level, coroot in facets:
            t = pair(key, v) - level
            if t < 0:
                v = vec_sub(v, vec_scale(t, coroot))
                moved = True
        if not moved:
            return ApartmentPoint.from_coords(v)
    raise EchelonnageError("alcove reduction did not terminate")


def affine_reflect(td, x, rr, level):
    """Reflection of x across the hyperplane where the affine root
    a(.) + level vanishes (level must lie in the jump set of a)."""
    level = Fraction(level)
    if not rr.jump_set.member(level):
        raise EchelonnageError("level is not an affine-root level for this root")
    t = evaluate(rr.key, x) + level
    return ApartmentPoint.from_coords(vec_sub(x.coords, vec_scale(t, rr.coroot)))


def point_from_simple_coroots_oracle(td, coefficients):
    by_key = td.by_key
    simples = td.simple_keys
    coeffs = [Fraction(c) for c in coefficients]
    if len(coeffs) != len(simples):
        raise EchelonnageError(
            f"expected {len(simples)} coordinates (one per restricted simple coroot)"
        )
    acc = tuple(Fraction(0) for _ in range(td.base.rank))
    for c, key in zip(coeffs, simples):
        acc = vec_add(acc, vec_scale(c, by_key[key].coroot))
    if mat_vec(td.twist.matrix, acc) != acc:
        raise EchelonnageError("apartment point is not fixed by the twist")
    return ApartmentPoint.from_coords(acc)
