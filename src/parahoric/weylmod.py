"""Highest-weight bookkeeping over the reductive quotient: exact characters
via Freudenthal's recursion, decomposition of a filtration quotient by
repeated character subtraction, and a sampled span oracle for the split case.

Weights live in the same rational coordinate space as the restricted roots;
multiplicities are exact integers throughout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .chevalley import exp_ad, structure_constants
from .echelonnage import ApartmentPoint, TwistedDatum, depth_table, restrict
from .exactmath import (
    RowEchelon,
    Vec,
    pair,
    reflection_orbit,
    solve_linear,
    vec_add,
    vec_scale,
    vec_sub,
)
from .mpquotient import (
    MPQuotientReport,
    ReductiveQuotientDatum,
    mp_quotient,
    quotient_datum,
)


class WeylModuleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# root-set filters


def phi_xr(td: TwistedDatum, x: ApartmentPoint, r) -> frozenset:
    """Restricted roots a with r - a(x - x0) in the jump set of a."""
    return frozenset(rr.key for rr in depth_table(td, x).at(r)[0])


def phi_xr_max(
    td: TwistedDatum,
    x: ApartmentPoint,
    r,
    h: ReductiveQuotientDatum,
    positives=None,
) -> frozenset:
    """Members a of phi_xr with a + b outside phi_xr for every positive b.

    ``positives`` defaults to the positive roots of the quotient datum h; pass
    the ambient positive restricted roots to test the other reading.
    """
    support = phi_xr(td, x, r)
    if positives is None:
        positives = h.positive_roots
    out = set()
    for a in support:
        if not any(vec_add(a, b) in support for b in positives):
            out.add(a)
    return frozenset(out)


def ambient_positive_keys(td: TwistedDatum) -> tuple[Vec, ...]:
    return tuple(rr.key for rr in restrict(td) if rr.positive)


# ---------------------------------------------------------------------------
# Weyl group of the quotient and dominance


def _simple_data(h: ReductiveQuotientDatum):
    return tuple(zip(h.simple_roots, h.simple_coroots))


def dominant_rep(h: ReductiveQuotientDatum, mu: Vec) -> Vec:
    simples = _simple_data(h)
    cur = tuple(Fraction(c) for c in mu)
    moved = True
    while moved:
        moved = False
        for a, ac in simples:
            val = pair(cur, ac)
            if val < 0:
                cur = vec_sub(cur, vec_scale(val, a))
                moved = True
    return cur


def is_dominant_integral(h: ReductiveQuotientDatum, mu: Vec) -> bool:
    for _, ac in _simple_data(h):
        val = pair(mu, ac)
        if val < 0 or val.denominator != 1:
            return False
    return True


def weyl_orbit(h: ReductiveQuotientDatum, mu: Vec) -> frozenset:
    return frozenset(
        reflection_orbit(tuple(Fraction(c) for c in mu), _simple_data(h))
    )


def dominance_ge(h: ReductiveQuotientDatum, nu: Vec, mu: Vec) -> bool:
    """nu >= mu when nu - mu is a nonnegative rational combination of the
    simple roots of h; weights outside the root span are incomparable."""
    diff = vec_sub(nu, mu)
    simples = h.simple_roots
    if not simples:
        return all(x == 0 for x in diff)
    rows = [[Fraction(s[i]) for s in simples] for i in range(len(diff))]
    sol = solve_linear(rows, list(diff))
    if sol is None:
        return False
    recon = tuple(
        sum((c * Fraction(s[i]) for c, s in zip(sol, simples)), Fraction(0))
        for i in range(len(diff))
    )
    if recon != tuple(Fraction(x) for x in diff):
        return False
    return all(c >= 0 for c in sol)


# ---------------------------------------------------------------------------
# characters


def _norm_form(h: ReductiveQuotientDatum):
    def b(chi, psi) -> Fraction:
        return sum(
            (pair(chi, ac) * pair(psi, ac) for ac in h.coroots), Fraction(0)
        )

    return b


def weyl_dimension(h: ReductiveQuotientDatum, lam: Vec) -> int:
    rho = tuple(
        sum((Fraction(a[i], 2) for a in h.positive_roots), Fraction(0))
        for i in range(len(lam))
    )
    dim = Fraction(1)
    for a in h.positive_roots:
        ac = h.coroot_of(a)
        dim *= pair(vec_add(lam, rho), ac) / pair(rho, ac)
    if dim.denominator != 1 or dim <= 0:
        raise WeylModuleError("Weyl dimension formula gave a non-positive integer")
    return int(dim)


def weyl_character(h: ReductiveQuotientDatum, lam) -> tuple[dict, int]:
    """Weight multiplicities and dimension of the highest-weight module of a
    dominant integral weight, by Freudenthal's recursion on dominant weights
    and Weyl-orbit expansion."""
    lam = tuple(Fraction(c) for c in lam)
    if not is_dominant_integral(h, lam):
        raise WeylModuleError(f"weight {lam} is not dominant integral")
    if not h.roots:
        return {lam: 1}, 1
    b = _norm_form(h)
    rho = tuple(
        sum((Fraction(a[i], 2) for a in h.positive_roots), Fraction(0))
        for i in range(len(lam))
    )
    lam_norm = b(vec_add(lam, rho), vec_add(lam, rho))

    simples = h.simple_roots
    anti = _antidominant(h, lam)
    rows = [[Fraction(s[i]) for s in simples] for i in range(len(lam))]
    level_coords = solve_linear(rows, list(vec_sub(lam, anti)))
    if level_coords is None:
        raise WeylModuleError("antidominant representative is not below lambda")
    depth = sum(level_coords)
    if depth.denominator != 1:
        raise WeylModuleError("non-integral lowering depth")
    max_level = int(depth)

    by_level: dict[int, set] = {0: {lam}}
    for level in range(1, max_level + 1):
        cur = set()
        for mu in by_level[level - 1]:
            for a in simples:
                cur.add(vec_sub(mu, a))
        by_level[level] = cur

    mult: dict[Vec, int] = {lam: 1}
    dominant_mult: dict[Vec, int] = {lam: 1}
    for level in range(1, max_level + 1):
        for mu in sorted(by_level[level]):
            if not is_dominant_integral(h, mu):
                continue
            mu_rho = vec_add(mu, rho)
            denom = lam_norm - b(mu_rho, mu_rho)
            if denom <= 0:
                continue
            acc = Fraction(0)
            for a in h.positive_roots:
                k = 1
                while True:
                    nu = vec_add(mu, vec_scale(k, a))
                    nu_rho = vec_add(nu, rho)
                    if b(nu_rho, nu_rho) > lam_norm:
                        break
                    m_nu = mult.get(dominant_rep(h, nu), 0)
                    if m_nu:
                        acc += m_nu * b(nu, a)
                    k += 1
            val = 2 * acc / denom
            if val.denominator != 1:
                raise WeylModuleError("Freudenthal recursion gave a non-integer")
            if val:
                mult[mu] = int(val)
                dominant_mult[mu] = int(val)

    weights: dict[Vec, int] = {}
    for mu, m in dominant_mult.items():
        for nu in weyl_orbit(h, mu):
            weights[nu] = weights.get(nu, 0) + m
    dim = sum(weights.values())
    expected = weyl_dimension(h, lam)
    if dim != expected:
        raise WeylModuleError(
            f"character dimension {dim} disagrees with the Weyl formula {expected}"
        )
    return weights, dim


def _antidominant(h: ReductiveQuotientDatum, mu: Vec) -> Vec:
    simples = _simple_data(h)
    cur = mu
    moved = True
    while moved:
        moved = False
        for a, ac in simples:
            val = pair(cur, ac)
            if val > 0:
                cur = vec_sub(cur, vec_scale(val, a))
                moved = True
    return cur


# ---------------------------------------------------------------------------
# decomposition by character subtraction


@dataclass(frozen=True)
class Decomposition:
    items: tuple  # ((weight, multiplicity), ...)
    total_dim: int
    quotient: MPQuotientReport
    maximal_set: frozenset
    nondominant_maximal: frozenset
    ambient_reading_differs: bool

    def dimensions_match(self) -> bool:
        return self.total_dim == self.quotient.total_dim


def decompose(td: TwistedDatum, x: ApartmentPoint, r) -> Decomposition:
    """Decompose the depth-r quotient into highest-weight pieces for the
    reductive quotient by exact character subtraction."""
    r = Fraction(r)
    h = quotient_datum(td, x)
    report = mp_quotient(td, x, r)
    weights: dict[Vec, int] = {}
    for key in report.root_part:
        weights[key] = weights.get(key, 0) + 1
    if report.torus_dim:
        zero = tuple(Fraction(0) for _ in range(td.base.rank))
        weights[zero] = weights.get(zero, 0) + report.torus_dim

    maximal = phi_xr_max(td, x, r, h)
    ambient = phi_xr_max(td, x, r, h, positives=ambient_positive_keys(td))
    nondominant = frozenset(
        a for a in maximal if not is_dominant_integral(h, a)
    )

    items = []
    total = 0
    while weights:
        support = sorted(weights)
        tops = [
            mu
            for mu in support
            if not any(
                nu != mu and dominance_ge(h, nu, mu) for nu in support
            )
        ]
        mu = max(tops)
        if not is_dominant_integral(h, mu):
            raise WeylModuleError(
                f"maximal support weight {mu} is not dominant integral"
            )
        count = weights[mu]
        if count <= 0:
            raise WeylModuleError("nonpositive multiplicity at a maximal weight")
        char, dim = weyl_character(h, mu)
        for nu, m in char.items():
            new = weights.get(nu, 0) - count * m
            if new < 0:
                raise WeylModuleError(
                    "character subtraction produced a negative multiplicity"
                )
            if new:
                weights[nu] = new
            elif nu in weights:
                del weights[nu]
        items.append((mu, count))
        total += count * dim
    return Decomposition(
        items=tuple(items),
        total_dim=total,
        quotient=report,
        maximal_set=maximal,
        nondominant_maximal=nondominant,
        ambient_reading_differs=maximal != ambient,
    )


# ---------------------------------------------------------------------------
# split span oracle


SPAN_PARAMETER_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(1, 3),
    Fraction(-2),
)


def split_span_check(datum, x: ApartmentPoint, r, samples: int = 80, seed: int = 0) -> bool:
    """For a split datum and non-integral depth, check that products of at
    most three root-group exponentials applied to the maximal-root vectors
    span the whole depth-r root space.  Sampling is seeded and deterministic.
    """
    from .echelonnage import twisted

    r = Fraction(r)
    if r.denominator == 1:
        raise WeylModuleError("span oracle needs a non-integral depth")
    td = twisted(datum)
    h = quotient_datum(td, x)
    support = phi_xr(td, x, r)
    target = len(support)
    if target == 0:
        return True
    maximal = phi_xr_max(td, x, r, h)
    alg = structure_constants(datum)
    as_root = lambda key: tuple(int(c) for c in key)
    starters = [alg.x(as_root(key)) for key in sorted(maximal)]
    h_roots = [as_root(key) for key in sorted(h.roots)]

    echelon = RowEchelon()
    for elt in starters:
        echelon.add(alg.to_vector(elt))
        if echelon.rank == target:
            return True
    if not h_roots:
        return echelon.rank == target
    rng = random.Random(seed)
    for _ in range(samples):
        ops = [
            exp_ad(alg, rng.choice(h_roots), rng.choice(SPAN_PARAMETER_POOL))
            for _ in range(rng.randint(1, 3))
        ]
        for elt in starters:
            moved = elt
            for op in ops:
                moved = op.apply(moved)
            echelon.add(alg.to_vector(moved))
            if echelon.rank == target:
                return True
    return echelon.rank == target
