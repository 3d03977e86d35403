"""The grading computed from the explicit lift of the twist to the Chevalley
algebra: the orbit signs come from ``chevalley.orbit_sign`` on a built
``PinnedAutomorphism`` instead of the closed form in ``vinberg.grading``, and
the Cartan part from the characteristic polynomial of the twist.

Kept as an oracle for the closed form: it needs the structure constants and
the bracket check of the lift, so it is only run on small ranks.
"""
from fractions import Fraction
from math import gcd

from parahoric.chevalley import ChevalleyAlgebra, PinnedAutomorphism, orbit_sign
from parahoric.exactmath import cyclotomic_multiplicities, pair
from parahoric.vinberg import GradedDecomposition, GradingError, _check_modulus, _degrees


def lift_twist_orbits(alg: ChevalleyAlgebra, pinned: PinnedAutomorphism):
    datum = alg.datum
    seen = set()
    orbits = []
    for r in datum.roots:
        if r in seen:
            continue
        orbit = [r]
        cur = pinned.twist.apply(r)
        while cur != r:
            orbit.append(cur)
            cur = pinned.twist.apply(cur)
        seen |= set(orbit)
        orbits.append(tuple(orbit))
    return orbits


def lift_grading(
    alg: ChevalleyAlgebra,
    pinned: PinnedAutomorphism,
    lam,
    modulus: int,
) -> GradedDecomposition:
    """Graded dimensions for the order-M operator built from the pinned
    automorphism and the cocharacter lam (which must pair integrally with
    every root)."""
    lam = tuple(Fraction(c) for c in lam)
    datum = alg.datum
    m = int(modulus)
    if m <= 0:
        raise GradingError("modulus must be positive")
    _check_modulus(m)
    for root in datum.roots:
        w = pair(root, lam)
        if Fraction(w).denominator != 1:
            raise GradingError("cocharacter does not pair integrally with the roots")
    dims = [0] * m
    zero_roots = set()
    negative_orbits = []
    for orbit in lift_twist_orbits(alg, pinned):
        k = len(orbit)
        c = sum(int(pair(root, lam)) for root in orbit)
        eps = orbit_sign(alg, pinned, orbit[0])
        shift = 0
        if eps == -1:
            if m % 2 != 0:
                raise GradingError(
                    "orbit with sign -1 requires an even modulus"
                )
            shift = m // 2
        hits = _degrees(k, c + shift, m)
        if len(hits) != k:
            raise GradingError(
                "orbit does not distribute over the expected degrees; "
                "the modulus must be a multiple of the twist order and point order"
            )
        for d in hits:
            dims[d] += 1
        if 0 in hits:
            key = tuple(
                Fraction(sum(v[i] for v in orbit), k) for i in range(datum.rank)
            )
            zero_roots.add(key)
        if eps == -1:
            negative_orbits.append(orbit[0])
    eigen = cyclotomic_multiplicities(pinned.twist.matrix)
    for d in range(m):
        k_d = m // gcd(d, m)
        dims[d] += eigen.get(k_d, 0)
    total = len(datum.roots) + datum.rank
    if sum(dims) != total:
        raise GradingError("graded dimensions do not sum to the algebra dimension")
    return GradedDecomposition(
        modulus=m,
        dims=tuple(dims),
        zero_degree_roots=frozenset(zero_roots),
        negative_sign_orbits=tuple(sorted(negative_orbits)),
    )
