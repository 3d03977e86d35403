"""Elliptic Z-regular elements in twisted Weyl cosets and the stable-vector
verdict: a point passes when it reduces to the distinguished barycenter
x0 + rho_check/m, its first jump is 1/m, and the twisted Weyl coset contains
an elliptic Z-regular element of order m.  The Weyl group code is here, next
to its one reader: the simple reflections on matrices, the walk of W (the
oracle of the closed forms), Springer's criterion and ``REGULAR_WORDS``.

No verdict enumerates W.  The orders come from the degrees of W and the
twist's eigenvalues on the basic invariants by Springer's criterion
(``regular_orders``, kept on the twisted datum by ``coset_orders``).  The
regular elements of one order form one W-conjugacy class (Springer, Regular
elements of finite reflection groups, 1974), of |W| / (centralizer order)
elements.  Its seed is built per twist orbit of factors from the twisted
Coxeter element and ``REGULAR_WORDS``; the witness is the least element of
the class, closed under conjugation by the simple reflections, when that has
at most ``CLASS_LIMIT`` elements, else the seed.  The seed is checked by the
definition and a closed class by its size.

Z-regularity is implemented as free action of the cyclic group on the roots,
with an independent eigenvector criterion used as a cross-check: the
primitive eigenspaces of an element a of order N are the image of
prod_p (a^(N/p) - I) over the primes p dividing N, tested against the root
hyperplanes.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod

from .alcove import reduced
from .catalog import named_point
from .echelonnage import ApartmentPoint, TranslationClass, TwistedDatum, translation_class, twisted
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
    matrix_rank,
    sub_identity,
    transpose,
)
from .rootdata import DiagramAutomorphism, RootDatum, build_automorphism, build_datum, cycles

# Reduced words w, as node indices, of length 2N / M with w * twist elliptic
# Z-regular of an order M (the comment) that does not divide the twisted
# Coxeter number, keyed by (type, twist order): with the powers of the twisted
# Coxeter element they give every regular order of every irreducible coset.
REGULAR_WORDS = {
    ("A5", 2): ("12010",),  # 6
    ("A6", 2): ("2312010",),  # 6
    ("D4", 1): ("312010",),  # 4
    ("D5", 2): ("3242312010",),  # 4
    ("D6", 1): ("5342312010",),  # 6
    ("D7", 2): ("54645342312010",),  # 6
    ("D8", 1): ("75645342312010",),  # 8
    ("E6", 1): ("53413210",),  # 9
    ("E6", 2): ("230210",),  # 12
    ("E7", 1): ("653413210",),  # 14
    ("E8", 1): ("7653413210", "763453413210"),  # 24, 20
    ("F4", 1): ("321210",),  # 8
}

# The largest class closed for its least element; every witness a test or a
# digest pins lies in a class of at most 384 (B5 and 2D5 at m = 10).
CLASS_LIMIT = 1000


class StabilityError(PropertyViolation):
    pass


def reflect_left(w: IntMatrix, reflection) -> IntMatrix:
    """s w = w - alpha (acheck^T w): a rank-one update of the rows of w."""
    alpha, acheck = reflection
    (k, c), *rest = acheck
    row = [c * y for y in w[k]]
    for k, c in rest:
        row = [x + c * y for x, y in zip(row, w[k])]
    out = list(w)
    for i, c in alpha:
        out[i] = tuple(x - c * y for x, y in zip(w[i], row))
    return tuple(out)


def reflect_right(w: IntMatrix, reflection) -> IntMatrix:
    """w s = w - (w alpha) acheck^T: a rank-one update of the columns of w."""
    alpha, acheck = reflection
    out = []
    for row in w:
        u = 0
        for i, c in alpha:
            u += row[i] * c
        if u:
            row = list(row)
            for k, c in acheck:
                row[k] -= u * c
            row = tuple(row)
        out.append(row)
    return tuple(out)


def weyl_walk(datum: RootDatum):
    """The Weyl group elements as matrices on X by length, lazily: the
    closure of the identity under the simple reflections acting on the left."""
    simple = datum.simple_reflections
    return closure([identity_matrix(datum.rank)], lambda w: [reflect_left(w, s) for s in simple])


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[IntMatrix, ...]:
    """All Weyl group elements, sorted: the oracle of the closed forms, run
    by ``selftest`` and the tests on small types only."""
    return tuple(sorted(weyl_walk(datum)))


def follow(twist: DiagramAutomorphism, w) -> IntMatrix:
    """w times the twist's matrix: column j of the product is column perm[j] of w."""
    return tuple(tuple(row[p] for p in twist.permutation) for row in w)


def _factor_regular_orders(letter: str, degrees: tuple[int, ...], t: int) -> dict[int, int]:
    """Springer's criterion on one simple factor with a diagram twist of
    order t: m is an elliptic regular order iff t | m and, for some primitive
    m-th root of unity z, the degrees d_i with eps_i z^d_i = 1 are as many as
    those with eps_i z^(d_i - 2) = 1, at least one, and no eps_i z^(d_i - 1)
    is 1.  The eps_i are the eigenvalues of the twist on the basic invariants
    (Springer 1974, section 6), held as exponents k_i of exp(2 pi i k_i / t).
    The map sends m to the product of the d_i with eps_i z^d_i = 1, the order
    of the centralizer in W of a regular element of order m."""
    ks = [0] * len(degrees)
    if t == 3:  # triality of D4 (degrees 2, 4, 4, 6): both cube roots on degree 4
        ks[1], ks[2] = 1, 2
    elif t == 2 and letter == "D":  # -1 on one degree-n invariant of D_n
        ks[degrees.index(len(degrees))] = 1
    elif t == 2:  # the twist is -w0 on A_n and E6: (-1)^d
        ks = [d % 2 for d in degrees]
    out = {}
    for m in range(t, t * degrees[-1] + 1, t):
        for j in range(1, m + 1):
            if gcd(j, m) > 1:
                continue

            def hits(shift):
                return [d for d, k in zip(degrees, ks) if (k * (m // t) + j * (d - shift)) % m == 0]

            fixed = hits(0)
            if fixed and len(fixed) == len(hits(2)) and not hits(1):
                out[m] = prod(fixed)
                break
    return out


def factor_orbits(datum: RootDatum, twist: DiagramAutomorphism) -> list[tuple[int, int, tuple[int, ...]]]:
    """Each twist orbit of simple factors as (its first factor F, the number k
    of factors in it, the return permutation): the twist to the k-th power on
    the nodes of F, numbered from F's first node."""
    factor_of = {node: f for f, (_, nodes, _) in enumerate(datum.factors) for node in nodes}
    perm = twist.permutation
    out = []
    for cycle in cycles([factor_of[perm[nodes.start]] for _, nodes, _ in datum.factors]):
        nodes, k = datum.factors[cycle[0]][1], len(cycle)
        back = tuple(reduce(lambda i, _: perm[i], range(k), i) - nodes.start for i in nodes)
        out.append((cycle[0], k, back))
    return out


def regular_orders(datum: RootDatum, twist: DiagramAutomorphism) -> dict[int, int]:
    """The orders of the elliptic Z-regular elements of the coset W*twist,
    each mapped to the order of the centralizer in W of one of them (Springer,
    Regular elements of finite reflection groups, 1974).  A twist orbit of k
    factors (``factor_orbits``) whose return twist has order t contributes k
    times the orders of its first factor with that twist, and the coset has
    the orders every orbit admits."""
    out = None
    for f, k, back in factor_orbits(datum, twist):
        letter, _, degrees = datum.factors[f]
        t = lcm(*map(len, cycles(back)))
        orders = {k * m: c for m, c in _factor_regular_orders(letter, degrees, t).items()}
        out = orders if out is None else {m: out[m] * c for m, c in orders.items() if m in out}
    return out


def coset_orders(td: TwistedDatum) -> dict[int, int]:
    """``regular_orders`` of the coset of td, kept on it (``TwistedDatum.results``)."""
    return kept(td.results, ("regular_orders", None), lambda: regular_orders(td.base, td.twist))


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
    """The w of the candidate seeds w*twist of an irreducible coset: the
    twisted Coxeter element (one simple reflection per twist orbit of nodes,
    by least node), then the coset's ``REGULAR_WORDS``."""
    words = [[c[0] for c in cycles(twist.permutation)]]
    words += REGULAR_WORDS.get((datum.descriptor.strip(), twist.order), ())
    simple = datum.simple_reflections
    for word in words:
        yield reduce(reflect_right, (simple[int(i)] for i in word), identity_matrix(datum.rank))


def _factor_seed(datum: RootDatum, twist: DiagramAutomorphism, m: int) -> IntMatrix:
    """The w of an elliptic Z-regular w*twist of order m on an irreducible
    coset: the power a^k = w*twist of the first candidate a whose order M is
    a multiple of m, with gcd(M, k) = M/m and k = 1 modulo the twist order."""
    t = twist.order
    for w in _candidates(datum, twist):
        a = follow(twist, w)
        order = _regular_order(a, datum)
        if order and order % m == 0:
            for k in range(1, order + 1):
                if (k - 1) % t == 0 and gcd(order, k) == order // m:
                    return tuple(tuple(row[j] for j in twist.sources) for row in mat_pow(a, k))
    raise StabilityError(f"the coset has no elliptic Z-regular element of order {m}")


def _seed(datum: RootDatum, twist: DiagramAutomorphism, m: int) -> IntMatrix:
    """An elliptic Z-regular element of order m in W*twist, per twist orbit of
    k factors (``factor_orbits``) with return twist tau on its first factor F:
    (w, 1, ..., 1)*twist has order m when w*tau, F's ``_factor_seed``, has m/k."""
    w = [list(row) for row in identity_matrix(datum.rank)]
    for f, k, back in factor_orbits(datum, twist):
        letter, nodes, _ = datum.factors[f]
        factor = build_datum(f"{letter}{len(nodes)}", datum.isogeny)
        block = _factor_seed(factor, build_automorphism(factor, back), m // k)
        for row, values in zip(nodes, block):
            w[row][nodes.start : nodes.stop] = values
    return follow(twist, w)


def regular_witness(td: TwistedDatum, m: int) -> IntMatrix:
    """The witness of order m, for m in ``coset_orders(td)``: the
    lexicographically least elliptic Z-regular element of order m in the
    coset W*twist when its class has at most ``CLASS_LIMIT`` elements, else
    the seed.  Kept per datum and order (``TwistedDatum.results``)."""
    return kept(td.results, ("witness", m), lambda: _least_regular(td, m))


def _least_regular(td: TwistedDatum, m: int) -> IntMatrix:
    datum = td.base
    seed = _seed(datum, td.twist, m)
    if not (_is_elliptic(seed) and acts_freely_on_roots(seed, datum, m)):
        raise StabilityError(f"the seed of order {m} is not elliptic Z-regular")
    centralizer = coset_orders(td)[m]
    size = datum.weyl_order // centralizer
    if size > CLASS_LIMIT:
        return seed
    simple = datum.simple_reflections
    found = set(closure([seed], lambda a: [reflect_right(reflect_left(a, s), s) for s in simple]))
    if len(found) != size:
        raise StabilityError(
            f"the regular class of order {m} has {len(found)} elements, not |W| / "
            f"{centralizer} = {size}"
        )
    return min(found)


def elliptic_zregular_orders(datum: RootDatum, twist: DiagramAutomorphism) -> dict:
    """Map from each attained order m to its witness, an element w*twist of
    order m that is elliptic (no invariant vectors) and Z-regular (free on
    the roots): ``regular_witness``, kept on the twisted datum."""
    td = twisted(datum, twist)
    return {m: regular_witness(td, m) for m in sorted(coset_orders(td))}


def zregularity_criteria_agree(datum: RootDatum, twist: DiagramAutomorphism) -> bool:
    """Cross-validate the free-action and eigenvector readings of regularity
    on the whole coset (``selftest``); disagreement raises with a diagnostic."""
    from .spectra import matrix_order

    for w in weyl_elements(datum):
        a = follow(twist, w)
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
    witness_is_least: bool | None
    reduced_point: tuple
    reduced_reference: tuple
    first_jump: Fraction


def stable_verdict(td: TwistedDatum, x: ApartmentPoint) -> StabilityVerdict:
    """Stable-vector criterion at the first jump of x.  Every point of a
    translation class (``echelonnage.TranslationClass``) reduces to the same
    alcove point and has the same depth table, so the verdict is a function
    of the class: it is kept whole on it (``exactmath.kept``)."""
    if not td.base.is_semisimple:
        raise StabilityError(
            "stability verdicts need a semisimple datum; central directions "
            "make ellipticity vacuous"
        )
    cls = translation_class(td, x)
    m = cls.table.order
    return kept(cls.results, "stable_verdict", lambda: _verdict(td, cls, m))


def _verdict(td: TwistedDatum, cls: TranslationClass, m: int) -> StabilityVerdict:
    table = cls.table
    reduced_ref = kept(  # the distinguished barycenter, kept on the datum
        td.results,
        ("reference", m),
        lambda: reduced(translation_class(td, named_point(td, "rho_over_m", m))),
    )
    point = reduced(cls)
    conjugacy_ok = point == reduced_ref
    jump = table.first_jump
    depth_ok = jump.numerator == 1 and jump.denominator == m
    orders = coset_orders(td)
    regular_ok = m in orders
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
        witness_is_least=td.base.weyl_order // orders[m] <= CLASS_LIMIT if regular_ok else None,
        reduced_point=point.coords,
        reduced_reference=reduced_ref.coords,
        first_jump=jump,
    )
