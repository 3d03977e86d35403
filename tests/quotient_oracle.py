"""The reductive-quotient checks that the simple-reflection walk of
``ReductiveQuotientDatum.positive_coordinates`` replaced, kept as oracles:
reflection closure by the reflection of every root applied to every root
(|S|^2 pairings on the integer keys), and the positive roots' simple-root
coordinates by C^-1, one solve per root (``scaled_coordinates``).

It also holds the Weyl dimension of a weight, which only the tests ask of a
quotient datum: the package reads dimensions off the quotient type by top
labels.

It also holds the maximality scan that the raise lists of
``TwistedDatum.raises`` replaced: every shift added to every support weight.
"""
from operator import add, mul

from parahoric.exactmath import pair
from parahoric.mpquotient import QuotientError
from parahoric.weylmod import _dimension


def reflection_closed(h) -> bool:
    """Whether the reflection of each root, by its own coroot, maps every
    integer key of h to one: the all-pairs loop ``quotient_datum`` ran."""
    keys = set(h.integer_roots)
    e = pair(h.integer_roots[0], h.coroots[0]) // 2 if keys else 1
    for a, ac in zip(h.integer_roots, h.coroots):
        for other in keys:
            # the reflection moves other by t a, and fixes it when t = 0
            t = sum(map(mul, other, ac)) // e
            if t and tuple(o - t * x for o, x in zip(other, a)) not in keys:
                return False
    return True


def positive_coordinates(h) -> tuple[tuple[int, ...], ...]:
    """The positive roots, in order, as integer simple-root coordinates,
    each solved by C^-1 and checked to be a nonnegative integer combination
    of the simple roots with no residual."""
    scale = h.coordinate_denominator
    out = []
    for a, k, p in zip(h.roots, h.integer_roots, h.positives):
        if not p:
            continue
        residual, c = h.scaled_coordinates(k)
        if any(residual) or any(x % scale or x < 0 for x in c):
            raise QuotientError(
                f"positive root {a} is not a nonnegative integer "
                "combination of the simple roots"
            )
        out.append(tuple(x // scale for x in c))
    return tuple(out)


def simple_roots(h) -> tuple:
    """The positive roots whose coordinates are the unit vectors, in the
    order of the coordinates."""
    by_coordinates = dict(zip(positive_coordinates(h), h.positive_roots))
    n = len(h.simple_coroots)
    return tuple(by_coordinates[tuple(int(i == j) for j in range(n))] for i in range(n))


def cartan(h) -> tuple[tuple, ...]:
    """C[i][j] = <alpha_j, acheck_i> on the rational simple roots of
    ``simple_roots`` and their coroots."""
    simple = simple_roots(h)
    return tuple(tuple(pair(a, h.coroot_of(b)) for a in simple) for b in simple)


def weyl_dimension(h, lam) -> int:
    """The dimension of the module of highest weight lam, from its Dynkin
    labels on the quotient type of h."""
    return _dimension(h.quotient_type, [pair(lam, ac) for ac in h.simple_coroots])


def maximal(support, shifts) -> frozenset:
    """The integer keys s of the support with s + t outside it for every
    shift t: the all-shifts scan ``weylmod`` ran, once per reading."""
    return frozenset(
        s for s in support if not any(tuple(map(add, s, t)) in support for t in shifts)
    )
