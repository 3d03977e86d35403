"""Elliptic Z-regular elements in twisted Weyl cosets and the stable-vector
verdict: a point passes when it reduces to the distinguished barycenter
x0 + rho_check/m, its first jump is 1/m, and the twisted Weyl coset contains
an elliptic Z-regular element of order m.

Z-regularity is implemented as free action of the cyclic group on the roots,
with an independent eigenvector criterion (rational kernels of cyclotomic
evaluations against the root hyperplanes) used as a cross-check.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .echelonnage import (
    DEPTH_TABLE_CACHE,
    ApartmentPoint,
    TwistedDatum,
    alcove_reduce,
    apartment_point,
    depth_table,
    point_order,
)
from .exactmath import (
    IntMatrix,
    cyclotomic_multiplicities,
    cyclotomic_polynomial,
    det_bareiss,
    frozen_record,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_order,
    matrix_rank,
    pair,
)
from .mpquotient import first_jump
from .rootdata import (
    WEYL_CAP_DEFAULT,
    DiagramAutomorphism,
    RootDatum,
    cycle_lengths,
    weyl_elements,
)


class StabilityError(RuntimeError):
    pass


def is_semisimple(datum: RootDatum) -> bool:
    return datum.is_semisimple


def acts_freely_on_roots(a: IntMatrix, datum: RootDatum, order: int) -> bool:
    """Every orbit of the cyclic group generated by a on the roots has full
    size equal to the order of a."""
    rootset = set(datum.roots)
    seen = set()
    for r in datum.roots:
        if r in seen:
            continue
        orbit = [r]
        cur = tuple(mat_vec(a, r))
        if cur not in rootset:
            raise StabilityError("matrix does not permute the roots")
        while cur != r:
            orbit.append(cur)
            cur = tuple(mat_vec(a, cur))
        if len(orbit) != order:
            return False
        seen |= set(orbit)
    return True


def regular_by_eigenvector(a: IntMatrix, datum: RootDatum, order: int) -> bool:
    """Eigenvector criterion: the spectrum contains a primitive eigenvalue of
    full order whose eigenspace avoids every root hyperplane.  Over the
    rationals this reads off the kernel of the cyclotomic evaluation: the
    eigenspace lies in a root hyperplane exactly when the whole kernel does
    (the hyperplane is rational and Galois permutes the eigenspaces)."""
    mult = cyclotomic_multiplicities(a)
    if mult.get(order, 0) == 0:
        return False
    n = len(a)
    phi = cyclotomic_polynomial(order)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = identity_matrix(n)
    for coeff in phi:
        if coeff:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += coeff * power[i][j]
        power = mat_mul(power, a)
    kernel = kernel_basis(acc)
    if not kernel:
        return False
    for acheck in datum.coroots:
        if all(pair(v, acheck) == 0 for v in kernel):
            return False
    return True


@lru_cache(maxsize=None)
def elliptic_zregular_orders(
    datum: RootDatum, twist: DiagramAutomorphism, cap: int = WEYL_CAP_DEFAULT
) -> dict:
    """Map from attained order m to a witness matrix w*twist that is elliptic
    (no invariant vectors) and Z-regular (free on the roots); the smallest
    witness in lexicographic order is kept per order.

    Ellipticity is det(I - a) != 0.  The datum is semisimple, so its roots
    span and a is determined by the permutation it induces on them: the order
    of a is the lcm of the root cycle lengths, and a is Z-regular when every
    cycle has that length, which is the predicate of ``acts_freely_on_roots``.
    """
    eye = identity_matrix(datum.rank)
    index = datum.root_index
    witnesses: dict[int, IntMatrix] = {}
    for w in weyl_elements(datum, cap):
        a = mat_mul(w, twist.matrix)
        if det_bareiss(
            tuple(tuple(e - x for e, x in zip(er, ar)) for er, ar in zip(eye, a))
        ) == 0:
            continue  # eigenvalue 1: not elliptic
        lengths = cycle_lengths([index[mat_vec(a, r)] for r in datum.roots])
        order = lcm(*lengths)
        if any(length != order for length in lengths):
            continue
        if order not in witnesses or a < witnesses[order]:
            witnesses[order] = a
    return witnesses


def zregularity_criteria_agree(
    datum: RootDatum, twist: DiagramAutomorphism, cap: int = WEYL_CAP_DEFAULT
) -> bool:
    """Cross-validate the free-action and eigenvector readings of regularity
    on the whole coset; disagreement raises with a diagnostic."""
    for w in weyl_elements(datum, cap):
        a = mat_mul(w, twist.matrix)
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


@lru_cache(maxsize=DEPTH_TABLE_CACHE)
def _reduced_reference(td: TwistedDatum, m: int) -> ApartmentPoint:
    """The distinguished barycenter x0 + rho_check/m, reduced into the base
    alcove."""
    return alcove_reduce(
        td, apartment_point(td, tuple(Fraction(c) / m for c in td.base.rho_check))
    )


def stable_verdict(
    td: TwistedDatum, x: ApartmentPoint, cap: int = WEYL_CAP_DEFAULT
) -> StabilityVerdict:
    """Stable-vector criterion at the first jump of x."""
    if not is_semisimple(td.base):
        raise StabilityError(
            "stability verdicts need a semisimple datum; central directions "
            "make ellipticity vacuous"
        )
    m = point_order(td, x)
    reduced_x = alcove_reduce(td, x)
    reduced_ref = _reduced_reference(td, m)
    conjugacy_ok = reduced_x == reduced_ref
    jump = first_jump(td, x)
    depth_ok = jump == Fraction(1, m)
    orders = elliptic_zregular_orders(td.base, td.twist, cap)
    regular_ok = m in orders
    verdict = conjugacy_ok and depth_ok and regular_ok
    if verdict:
        part, torus = depth_table(td, x).at(jump)
        if len(part) + torus <= 0:
            raise StabilityError("verdict true but the first quotient is zero")
        if matrix_rank([td.integer_keys[rr.index] for rr in part]) != td.restricted_rank:
            raise StabilityError(
                "verdict true but the first quotient weights do not span"
            )
    return StabilityVerdict(
        m=m,
        conjugacy_ok=conjugacy_ok,
        depth_ok=depth_ok,
        regular_ok=regular_ok,
        verdict=verdict,
        witness=orders.get(m),
        reduced_point=reduced_x.coords,
        reduced_reference=reduced_ref.coords,
        first_jump=jump,
    )
