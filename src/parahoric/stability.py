"""Elliptic Z-regular elements in twisted Weyl cosets and the stable-vector
verdict: a point passes when it reduces to the distinguished barycenter
x0 + rho_check/m, its first jump is 1/m, and the twisted Weyl coset contains
an elliptic Z-regular element of order m.

No verdict enumerates the coset.  The orders come from the degrees of W and the
twist's eigenvalues on the basic invariants by Springer's criterion
(``rootdata.regular_orders``).  The regular elements of one order form one
W-conjugacy class (Springer, Regular elements of finite reflection groups,
1974), so the witness of an order, its lexicographically least element, is
the least element of the class of any one of them, a seed, closed under
conjugation by the simple reflections.  The seed is a power of the twisted
Coxeter element or of a word of ``rootdata.REGULAR_WORDS`` on every
irreducible coset; only a sum can need a walk through the coset by length.
The seed and the size of its class are checked.

Z-regularity is implemented as free action of the cyclic group on the roots,
with an independent eigenvector criterion used as a cross-check: the
primitive eigenspaces of an element a of order N are the image of
prod_p (a^(N/p) - I) over the primes p dividing N, tested against the root
hyperplanes.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .catalog import named_point
from .echelonnage import (
    ApartmentPoint,
    TranslationClass,
    TwistedDatum,
    translation_class,
    twisted,
)
from .exactmath import (
    IntMatrix,
    PropertyViolation,
    closure,
    frozen_record,
    identity_matrix,
    kept,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix_order,
    matrix_rank,
    sub_identity,
    transpose,
)
from .rootdata import (
    REGULAR_WORDS,
    WEYL_CAP_DEFAULT,
    DiagramAutomorphism,
    RootDatum,
    check_weyl_cap,
    cycles,
    reflect_left,
    reflect_right,
    weyl_elements,
    weyl_walk,
)


class StabilityError(PropertyViolation):
    pass


def _root_cycles(a: IntMatrix, datum: RootDatum) -> list[int]:
    """Cycle lengths of the permutation that a induces on the roots."""
    index = datum.root_index
    perm = [index.get(mat_vec(a, r)) for r in datum.roots]
    if None in perm or len(set(perm)) < len(perm):
        raise StabilityError("matrix does not permute the roots")
    return [len(c) for c in cycles(perm)]


def acts_freely_on_roots(a: IntMatrix, datum: RootDatum, order: int) -> bool:
    """Every orbit of the cyclic group generated by a on the roots has full
    size equal to the order of a."""
    return all(length == order for length in _root_cycles(a, datum))


def regular_by_eigenvector(a: IntMatrix, datum: RootDatum, order: int) -> bool:
    """Eigenvector criterion, with ``order`` the order of a (only a^order = I
    is checked: a multiple of the order has no primitive eigenvalue): some
    primitive order-th root of unity is an eigenvalue of a whose eigenspace
    avoids every root hyperplane.  The primitive eigenspaces together are the
    image of P = prod_p (a^(order/p) - I) over the primes p dividing the
    order: the factor of p kills the eigenvalues whose order divides order/p,
    and every factor is invertible on the primitive ones.  Galois permutes
    those eigenspaces and the hyperplane of a coroot is rational, so one
    eigenspace lies in it exactly when the image of P does: P^T coroot = 0."""
    n = len(a)
    if mat_pow(a, order) != identity_matrix(n):
        raise StabilityError(f"the matrix to the power {order} is not the identity")
    image = identity_matrix(n)
    for p in range(2, order + 1):
        if order % p == 0 and all(p % q for q in range(2, p)):
            image = mat_mul(image, sub_identity(mat_pow(a, order // p)))
    columns = transpose(image)
    return any(map(any, columns)) and all(any(mat_vec(columns, c)) for c in datum.coroots)


def _is_elliptic(a: IntMatrix) -> bool:
    """No invariant vectors: a - I has full rank."""
    return matrix_rank(sub_identity(a)) == len(a)


def _regular_order(a: IntMatrix, datum: RootDatum) -> int:
    """The order of a when a is elliptic and Z-regular, else 0.

    The datum is semisimple, so its roots span and a is determined by the
    permutation it induces on them: the order of a is the lcm of the root
    cycle lengths, and a is Z-regular when every cycle has that length, which
    is the predicate of ``acts_freely_on_roots``.
    """
    if not _is_elliptic(a):
        return 0
    lengths = _root_cycles(a, datum)
    order = lcm(*lengths)
    return order if all(length == order for length in lengths) else 0


def _candidates(datum: RootDatum, twist: DiagramAutomorphism):
    """The w of the candidate seeds w*twist: the twisted Coxeter element (one
    simple reflection per twist orbit of nodes, by least node), the coset's
    ``REGULAR_WORDS``, and last the walk of W by length, started lazily."""
    words = [[c[0] for c in cycles(twist.permutation)]]
    words += REGULAR_WORDS.get((datum.descriptor.strip(), twist.order), ())
    simple = datum.simple_reflections
    for word in words:
        yield reduce(reflect_right, (simple[int(i)] for i in word), identity_matrix(datum.rank))
    yield from weyl_walk(datum)


def _seed(datum: RootDatum, twist: DiagramAutomorphism, m: int) -> IntMatrix:
    """An elliptic Z-regular element of order m in the coset W*twist: the
    power a^k of the first candidate a (``_candidates``) whose order M is a
    multiple of m, with gcd(M, k) = M/m, and k = 1 modulo the twist order so
    that a^k stays in the coset.  Only a sum reaches the walk: when its
    factors' Coxeter numbers differ (its Coxeter element is then not regular)
    or m needs a table word on each factor, as on D4+D4 at m = 4."""
    t = twist.order
    for w in _candidates(datum, twist):
        a = twist.follow(w)
        order = _regular_order(a, datum)
        if order and order % m == 0:
            for k in range(1, order + 1):
                if (k - 1) % t == 0 and gcd(order, k) == order // m:
                    return mat_pow(a, k)
    raise StabilityError(f"the coset has no elliptic Z-regular element of order {m}")


def regular_witness(td: TwistedDatum, m: int) -> IntMatrix:
    """The lexicographically least elliptic Z-regular element of order m in
    the coset W*twist, for m in ``td.regular_orders``: the least element of
    the W-conjugacy class of a seed, closed under conjugation by the simple
    reflections.  The class has |W| / (centralizer order) elements.  Kept
    per datum and order (``TwistedDatum.results``)."""
    return kept(td.results, ("witness", m), lambda: _least_regular(td, m))


def _least_regular(td: TwistedDatum, m: int) -> IntMatrix:
    datum = td.base
    seed = _seed(datum, td.twist, m)
    if not (_is_elliptic(seed) and acts_freely_on_roots(seed, datum, m)):
        raise StabilityError(f"the seed of order {m} is not elliptic Z-regular")
    simple = datum.simple_reflections
    found = set(closure([seed], lambda a: [reflect_right(reflect_left(a, s), s) for s in simple]))
    size = datum.weyl_order // td.regular_orders[m]
    if len(found) != size:
        raise StabilityError(
            f"the regular class of order {m} has {len(found)} elements, not |W| / "
            f"{td.regular_orders[m]} = {size}"
        )
    return min(found)


def elliptic_zregular_orders(
    datum: RootDatum, twist: DiagramAutomorphism, cap: int = WEYL_CAP_DEFAULT
) -> dict:
    """Map from each attained order m to its witness, the lexicographically
    least element w*twist of order m that is elliptic (no invariant vectors)
    and Z-regular (free on the roots): ``regular_witness``, kept on the
    twisted datum."""
    check_weyl_cap(datum, cap)
    td = twisted(datum, twist)
    return {m: regular_witness(td, m) for m in sorted(td.regular_orders)}


def zregularity_criteria_agree(
    datum: RootDatum, twist: DiagramAutomorphism, cap: int = WEYL_CAP_DEFAULT
) -> bool:
    """Cross-validate the free-action and eigenvector readings of regularity
    on the whole coset; disagreement raises with a diagnostic."""
    for w in weyl_elements(datum, cap):
        a = twist.follow(w)
        order = matrix_order(a)
        free = acts_freely_on_roots(a, datum, order)
        eigen = regular_by_eigenvector(a, datum, order)
        if free != eigen:
            raise StabilityError(
                f"Z-regularity criteria disagree on an element of order {order}: "
                f"free-action {free}, eigenvector {eigen}"
            )
    return True


@frozen_record
class StabilityVerdict:
    m: int
    conjugacy_ok: bool
    depth_ok: bool
    regular_ok: bool
    verdict: bool
    witness: IntMatrix | None
    reduced_point: tuple
    reduced_reference: tuple
    first_jump: Fraction


def stable_verdict(
    td: TwistedDatum, x: ApartmentPoint, cap: int = WEYL_CAP_DEFAULT
) -> StabilityVerdict:
    """Stable-vector criterion at the first jump of x.  Every point of a
    translation class (``echelonnage.TranslationClass``) reduces to the same
    alcove point and has the same depth table, so the verdict is a function
    of the class: it is kept whole on it (``exactmath.kept``), and the cap is
    checked on every call, before the lookup."""
    if not td.base.is_semisimple:
        raise StabilityError(
            "stability verdicts need a semisimple datum; central directions "
            "make ellipticity vacuous"
        )
    cls = translation_class(td, x)
    m = cls.table.order
    if m in td.regular_orders:  # only a regular order builds a witness
        check_weyl_cap(td.base, cap)
    return kept(cls.results, "stable_verdict", lambda: _verdict(td, cls, m))


def _verdict(td: TwistedDatum, cls: TranslationClass, m: int) -> StabilityVerdict:
    table = cls.table
    reduced_ref = kept(  # the distinguished barycenter, kept on the datum
        td.results,
        ("reference", m),
        lambda: translation_class(td, named_point(td, "rho_over_m", m)).reduced,
    )
    conjugacy_ok = cls.reduced == reduced_ref
    jump = table.first_jump
    depth_ok = jump.numerator == 1 and jump.denominator == m
    regular_ok = m in td.regular_orders
    verdict = conjugacy_ok and depth_ok and regular_ok
    if verdict:
        part, torus = table.at(jump)
        if len(part) + torus <= 0:
            raise StabilityError("verdict true but the first quotient is zero")
        # the span rank is a function of the table and the jump: kept on it
        span = table.kept("span_rank", jump, lambda: matrix_rank([rr.integer_key for rr in part]))
        if span != td.restricted_rank:
            raise StabilityError(
                "verdict true but the first quotient weights do not span"
            )
    return StabilityVerdict(
        m=m,
        conjugacy_ok=conjugacy_ok,
        depth_ok=depth_ok,
        regular_ok=regular_ok,
        verdict=verdict,
        witness=regular_witness(td, m) if regular_ok else None,
        reduced_point=cls.reduced.coords,
        reduced_reference=reduced_ref.coords,
        first_jump=jump,
    )
