"""Z/M-gradings of a Chevalley algebra under the composition of a pinned
diagram automorphism with a torus element, the degree-zero root set, and the
independent crosscheck against the filtration-quotient dimensions.

The grading is computed orbit by orbit: a twist orbit O of size k on the
roots, with weight sum c_O against the defining cocharacter and sign eps_O
(the sign of the k-th power of the pinned lift on the root vectors of O),
contributes one dimension to every degree d with
k*d = c_O + (M/2)*[eps_O = -1] mod M.  The Cartan contributes the eigenvalue
multiplicities of the twist on the cocharacter lattice.  No Lie algebra is
built: with tau = sigma^k, the least power of sigma fixing the roots of O,
eps_O = -1 exactly when a root alpha of O is beta + tau(beta) for a root
beta that tau moves, i.e. when O restricts to a divisible restricted root
(the A2-type orbits of an A_{2n} factor flipped by tau; Steinberg, Lectures
on Chevalley Groups, 1967).  The orbits and their restriction classes are
read from the restricted roots of the twisted datum (``echelonnage``).
"""
from __future__ import annotations

from math import gcd, lcm

from .echelonnage import ApartmentPoint, TranslationClass, TwistedDatum, translation_class, twisted
from .exactmath import InputError, PropertyViolation, clear_denominators, frozen_record, kept, pair
from .mpquotient import quotient_datum
from .rootdata import DiagramAutomorphism, RootDatum


# The grading allocates one bin per degree and the crosscheck reads one
# quotient per degree: both are O(M) in the modulus M.
MODULUS_CAP = 100_000


class GradingError(InputError):
    pass


class ModulusCapExceeded(PropertyViolation):
    pass


def _check_modulus(m: int, why: str = "") -> None:
    if m > MODULUS_CAP:
        raise ModulusCapExceeded(
            f"grading modulus M = {m} is above the cap {MODULUS_CAP} "
            f"(vinberg.MODULUS_CAP){why}"
        )


@frozen_record
class GradedDecomposition:
    modulus: int
    dims: tuple[int, ...]
    zero_degree_roots: frozenset
    negative_sign_orbits: tuple

    @property
    def total(self) -> int:
        return sum(self.dims)


def _degrees(k: int, target: int, m: int) -> list[int]:
    """The degrees d in [0, M) with k*d = target mod M, in increasing order:
    g = gcd(k, M) of them, M/g apart, if g divides the target, else none."""
    g = gcd(k, m)
    if target % g:
        return []
    step = m // g
    first = target // g * pow(k // g, -1, step) % step
    return [first + j * step for j in range(g)]


def grading(
    datum: RootDatum,
    twist: DiagramAutomorphism,
    lam,
    modulus: int,
) -> GradedDecomposition:
    """Graded dimensions for the order-M operator built from the pinned lift
    of the twist and the cocharacter lam (which must pair integrally with
    every root)."""
    m = int(modulus)
    den, (lam_num,) = clear_denominators(lam)
    td = twisted(datum, twist)
    dims, zero, negative_orbits = _graded(td, den, lam_num, m)
    return GradedDecomposition(
        modulus=m,
        dims=dims,
        zero_degree_roots=frozenset(td.restricted[i].key for i in zero),
        negative_sign_orbits=negative_orbits,
    )


def _graded(td: TwistedDatum, den: int, lam_num, m: int):
    """The grading for the cocharacter lam_num / den: the graded dimensions,
    the positions of the degree-zero orbits among the restricted roots, and
    the orbits with sign -1.  Integrality is checked on the simple roots,
    which span the roots over Z, and an orbit O's weight is one pairing of
    its integer key: its orbit sum is key * |O| / e
    (``RestrictedRoot.integer_key``)."""
    datum, twist = td.base, td.twist
    if m <= 0:
        raise GradingError("modulus must be positive")
    _check_modulus(m)
    if any(pair(a, lam_num) % den for a in datum.simple_roots):
        raise GradingError("cocharacter does not pair integrally with the roots")
    scale = twist.order * den
    dims = [0] * m
    zero = []
    negative_orbits = []
    for rr in td.restricted:
        k = rr.orbit_size
        c = pair(rr.integer_key, lam_num) * k // scale
        if rr.cls == "divisible":
            if m % 2 != 0:
                raise GradingError("orbit with sign -1 requires an even modulus")
            c += m // 2
            negative_orbits.append(rr.fiber[0])
        hits = [c % m] if k == 1 else _degrees(k, c, m)
        if len(hits) != k:
            raise GradingError(
                "orbit does not distribute over the expected degrees; "
                "the modulus must be a multiple of the twist order and point order"
            )
        for d in hits:
            dims[d] += 1
        if 0 in hits:
            zero.append(rr.index)
    eigen = twist.spectrum
    for d in range(m):
        dims[d] += eigen.get(m // gcd(d, m), 0)
    total = len(datum.roots) + datum.rank
    if sum(dims) != total:
        raise GradingError("graded dimensions do not sum to the algebra dimension")
    return tuple(dims), zero, tuple(sorted(negative_orbits))


@frozen_record
class CrosscheckResult:
    ok: bool
    modulus: int
    dims: tuple[int, ...]
    quotient_dims: tuple[int, ...]
    first_mismatch: int | None
    roots_match: bool
    negative_sign_orbits: tuple

    def __bool__(self) -> bool:
        return self.ok


def crosscheck(td: TwistedDatum, x: ApartmentPoint, modulus: int) -> CrosscheckResult:
    """Compare the graded dimensions at x with the filtration quotients:
    degree (M - d) mod M against depth d/M, and the degree-zero root set
    against the reductive-quotient roots.  Requires a tame datum and a
    modulus divisible by both the twist order and the point order, checked
    on every call.  Every field of the result is a function of the point of
    x's translation class (``echelonnage.TranslationClass``), its table and
    M, so the result is kept whole on the class per modulus
    (``exactmath.kept``)."""
    if not td.is_tame:
        raise GradingError(
            "crosscheck requires a tame datum (all lambda valuations zero); "
            "shift the point with companion_shift first"
        )
    m = int(modulus)
    e = td.twist.order
    cls = translation_class(td, x)
    order = cls.table.order
    if m % e != 0 or m % order != 0:
        raise GradingError(
            f"modulus {m} must be a common multiple of the twist order {e} "
            f"and the point order {order}"
        )
    if m > MODULUS_CAP:
        base = lcm(order, e)
        _check_modulus(
            m,
            f"; M is {'the lcm' if m == base else f'a multiple of the lcm {base}'} "
            f"of the point order {order} and the twist order {e}",
        )
    return kept(cls.results, ("crosscheck", m), lambda: _crosscheck(td, x, cls, m))


def _crosscheck(td: TwistedDatum, x: ApartmentPoint, cls: TranslationClass, m: int):
    # the grading at the class point: a translation moves every degree by a
    # multiple of M, so it is the grading at x.  It reads the point, never
    # the table it checks.
    den, nums = cls.point.scaled
    dims, zero, negative_orbits = _graded(td, den, [m * c for c in nums], m)
    quotient = cls.table.column(m)
    first_mismatch = next((d for d in range(m) if dims[-d % m] != quotient[d]), None)
    h = quotient_datum(td, x)  # that of the class table, which x reads
    roots_match = frozenset(h.integer_roots) == {td.restricted[i].integer_key for i in zero}
    ok = first_mismatch is None and roots_match
    return CrosscheckResult(
        ok=ok,
        modulus=m,
        dims=dims,
        quotient_dims=quotient,
        first_mismatch=first_mismatch,
        roots_match=roots_match,
        negative_sign_orbits=negative_orbits,
    )
