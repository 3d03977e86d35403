"""The apartment-point geometry in ``Fraction`` vectors: the depth table by
one rational pairing per restricted root, alcove reduction by rational
reflections, and points built from rational coroot multiples.

Kept as an oracle for the integer forms in ``echelonnage``, which must give
the same point order, the same bins (root order included) and the same
reduced points.
"""
from fractions import Fraction
from math import floor, lcm

from parahoric.echelonnage import (
    ALCOVE_ITERATION_CAP,
    ApartmentPoint,
    EchelonnageError,
    evaluate,
    restrict,
    restricted_by_key,
    simple_restricted_keys,
)
from parahoric.exactmath import mat_vec, pair, vec_add, vec_scale, vec_sub


def depth_table_oracle(td, x):
    """(order, bins) with bins the residue -> restricted roots map of
    ``depth_table``, from Fraction values a(x - x0)."""
    roots = restrict(td)
    values = [evaluate(rr.key, x) for rr in roots]
    n = 1
    for rr, val in zip(roots, values):
        js = rr.jump_set
        n = lcm(n, js.step.denominator, *((val + off).denominator for off in js.offsets))
    bins = {}
    for rr, val in zip(roots, values):
        step = rr.jump_set.step * n
        if step.denominator != 1 or n % step.numerator:
            raise EchelonnageError("valuation step does not divide 1")
        for off in rr.jump_set.offsets:
            start = ((val + off) * n).numerator % step.numerator
            for k in range(start, n, step.numerator):
                bins.setdefault(k, []).append(rr)
    return n, {k: tuple(v) for k, v in bins.items()}


def alcove_reduce_oracle(td, x):
    """Translate by the exact lattice floor, then reflect across violated
    facets, in Fraction vectors."""
    v = x.coords
    for w, t in td.translations:
        v = vec_sub(v, vec_scale(floor(pair(w, v)), t))
    facets = td.walls
    for _ in range(ALCOVE_ITERATION_CAP):
        moved = False
        for f in facets:
            t = pair(f.key, v) - f.level
            if t < 0:
                v = vec_sub(v, vec_scale(t, f.coroot))
                moved = True
        if not moved:
            return ApartmentPoint(v)
    raise EchelonnageError("alcove reduction did not terminate")


def point_from_simple_coroots_oracle(td, coefficients):
    by_key = restricted_by_key(td)
    simples = simple_restricted_keys(td)
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
    return ApartmentPoint(acc)
