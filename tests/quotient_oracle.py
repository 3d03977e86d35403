"""The reductive-quotient checks that the walk of the quotient type
(``rootdata.root_walk`` on the Cartan matrix) replaced, kept as oracles on
the datum itself: reflection closure by the reflection of every root
applied to every root (|S|^2 pairings on the integer keys), the positive
roots' simple-root coordinates by C^-1, one rational solve per root, and
the half norms from the datum's own coroots.

It also holds the Weyl dimension of a weight and the coroot of a root,
which only the tests ask of a quotient datum: the package reads dimensions
off the quotient type by top labels.
"""
from fractions import Fraction
from operator import mul

from parahoric.exactmath import integer_inverse, pair
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
    den, inverse = integer_inverse(h.cartan)
    out = []
    for a, p in zip(h.roots, h.positives):
        if not p:
            continue
        pairings = [pair(a, ac) for ac in h.simple_coroots]
        c = [Fraction(pair(row, pairings), den) for row in inverse]
        residual = [x - sum(ci * b[i] for ci, b in zip(c, h.simple_roots)) for i, x in enumerate(a)]
        if any(residual) or any(x.denominator != 1 or x < 0 for x in c):
            raise QuotientError(
                f"positive root {a} is not a nonnegative integer "
                "combination of the simple roots"
            )
        out.append(tuple(map(int, c)))
    return tuple(out)


def half_norms(h) -> tuple[int, ...]:
    """d_j = (alpha_j, alpha_j)/2 for the Weyl-invariant form
    (chi, psi) = sum over the roots a of <chi, acheck><psi, acheck>: the sum
    over the positive a of <alpha_j, acheck>^2, an integer, on the integer
    simple roots (times e) and the datum's coroots."""
    pos = [c for c, p in zip(h.coroots, h.positives) if p]
    out = []
    for a in h.simple_integer_roots:
        d, rem = divmod(sum(pair(a, c) ** 2 for c in pos), h._scale**2)
        if rem:
            raise QuotientError("simple root pairs non-integrally with a coroot")
        out.append(d)
    return tuple(out)


def coroot_of(h, key):
    """The coroot of the root ``key`` of the quotient datum h."""
    return h.coroots[h.roots.index(key)]


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
    return tuple(tuple(pair(a, coroot_of(h, b)) for a in simple) for b in simple)


def weyl_dimension(h, lam) -> int:
    """The dimension of the module of highest weight lam, from its Dynkin
    labels on the quotient type of h."""
    return _dimension(h.quotient_type, [pair(lam, ac) for ac in h.simple_coroots])
