"""Built-in property suite: the one implementation of each property that
``parahoric selftest`` and ``tests/test_acceptance.py`` check.  Each check
takes the seed and, where the acceptance criteria use a larger scope, its
data, number of random points and ``max_den`` as keyword arguments whose
defaults are the selftest's scope.  A check raises ``AssertionError`` on a violation
and returns the number of instances it checked (``check_decomposition`` also the
number of split random ones).  ``run`` writes a line per check (to stdout,
or through ``write``) and returns whether all passed (the CLI's exit code)."""
from __future__ import annotations

import itertools
import random
import sys
import traceback
from fractions import Fraction as F
from math import lcm

from .alcove import alcove_reduce, in_base_alcove
from .catalog import CATALOG, NAMED_POINTS, catalog_datum, catalog_ids, named_point
from .chevalley import pinned_automorphism, structure_constants
from .echelonnage import (
    algebra_dimension,
    companion_shift,
    evaluate,
    point_from_simple_coroots,
    point_order,
    restrict,
    twisted,
)
from .mpquotient import (
    dimension_sum_over_period,
    first_jump,
    jump_values,
    mp_quotient,
    quotient_datum,
)
from .rootdata import build_automorphism, build_datum, identity_automorphism
from .stability import elliptic_zregular_orders, stable_verdict, weyl_elements, zregularity_criteria_agree
from .vinberg import crosscheck
from .weylmod import decompose, split_span_check


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def named_points(cid: str) -> dict:
    """The origin, the barycenter and rho_check/m (catalog m) of a catalog datum, by name."""
    td = catalog_datum(cid)
    return {name: named_point(td, name, CATALOG[cid]["rho_m"]) for name in NAMED_POINTS}


def _random_point(td, rng: random.Random, max_den: int):
    """A twist-fixed point: random multiples of 1/D (D <= max_den) of the simple coroots."""
    den = rng.randint(1, max_den)
    coeffs = [F(rng.randint(-2 * max_den, 2 * max_den), den) for _ in td.simple_coroots]
    return point_from_simple_coroots(td, coeffs)


def check_sum_rule(*, points=3, max_den=6, seed=0) -> int:
    """The quotient dimensions over one period sum to dim G, at the named
    points and at random points (of denominator <= max_den) of each datum."""
    rng = random.Random(seed)
    checked = 0
    for cid in catalog_ids():
        td = catalog_datum(cid)
        dim = algebra_dimension(td)
        randoms = [_random_point(td, rng, max_den) for _ in range(points)]
        _require(all(x.den <= max_den for x in randoms), f"{cid}: a denominator > {max_den}")
        for x in [*named_points(cid).values(), *randoms]:
            got = dimension_sum_over_period(td, x)
            _require(got == dim, f"{cid}: period sum {got} != {dim}")
            checked += 1
    return checked


def check_vinberg_crosscheck(*, seed=0) -> int:
    """At each named point of each (tame) datum, the grading of modulus M
    equals the quotient dimensions, for M the point order and twice it."""
    checked = 0
    for cid in catalog_ids():
        td = catalog_datum(cid)
        _require(td.is_tame, f"{cid}: not tame")
        for name, x in named_points(cid).items():
            base = lcm(point_order(td, x), td.twist.order)
            for modulus in (base, 2 * base):
                res = crosscheck(td, x, modulus)
                _require(res.ok, f"{cid}@{name}, M={modulus}: mismatch at d={res.first_mismatch}")
                checked += 1
    return checked


def check_companion_invariance(*, points=25, max_den=4, seed=0) -> int:
    """On A2 with the swap twist and each lambda-valuation, the companion
    shift keeps every affine-root membership and the quotient datum."""
    rng = random.Random(seed)
    a2 = build_datum("A2")
    flip = build_automorphism(a2, (1, 0))
    checked = 0
    for lam in (F(-1, 2), F(-1), F(-3, 2)):
        td = twisted(a2, flip, {0: lam})
        for _ in range(points):
            x = _random_point(td, rng, max_den)
            tame, xq = companion_shift(td, x)
            shifted = {rr.key: rr for rr in restrict(tame)}
            for rr in restrict(td):
                r = F(rng.randint(-3 * max_den, 3 * max_den), rng.randint(1, 2 * max_den))
                lhs = rr.jump_set.member(r - evaluate(rr.key, x))
                rhs = shifted[rr.key].jump_set.member(r - evaluate(rr.key, xq))
                _require(lhs == rhs, f"membership differs at {rr.key}, r={r}")
            same = quotient_datum(td, x).roots == quotient_datum(tame, xq).roots
            _require(same, "quotient data differ across the shift")
            checked += 1
    return checked


def check_decomposition(*, points=0, seed=0) -> tuple:
    """Each decomposition has its quotient's dimension, at each datum's rho_check/m and
    first jump and at ``points`` random instances.  On split data at a fractional depth
    (at least a tenth of the random instances) the highest weights are the maximal set."""
    rng = random.Random(seed)
    ids = catalog_ids()
    instances = []
    for cid in ids:
        x = named_points(cid)["rho_over_m"]
        instances.append((cid, x, first_jump(catalog_datum(cid), x)))
    for i in range(points):
        cid = ids[i % len(ids)]
        td = catalog_datum(cid)
        x = _random_point(td, rng, 4)
        instances.append((cid, x, rng.choice(jump_values(td, x)) + rng.randint(0, 1)))
    split = 0
    for i, (cid, x, r) in enumerate(instances):
        td = catalog_datum(cid)
        dec = decompose(td, x, r)
        _require(dec.total_dim == mp_quotient(td, x, r).total_dim, f"{cid}: total {dec.total_dim}")
        _require(dec.dimensions_match(), f"{cid}: decomposition dimension mismatch")
        if td.twist.is_identity and r.denominator != 1:
            weights = sorted(w for w, _ in dec.items)
            _require(weights == sorted(dec.maximal_set), f"{cid}: highest weights != maximal set")
            _require(all(m == 1 for _, m in dec.items), f"{cid}: a highest weight repeats")
            if i >= len(ids):  # a random instance
                split += 1
    _require(split >= points // 10, f"only {split} of {points} random instances are split")
    return len(instances), split


def check_span_oracle(*, ids=("A2", "B2", "G2"), points=0, seed=0) -> int:
    """On split data the root-step closure of the maximal set spans the root space, at
    rho_check/m and its first jump and at ``points`` random fractional instances per datum."""
    rng = random.Random(seed)
    checked = 0
    for cid in ids:
        td = catalog_datum(cid)
        x = named_points(cid)["rho_over_m"]
        instances = [(x, first_jump(td, x))]
        while len(instances) <= points:
            x = _random_point(td, rng, 4)
            fractional = [r for r in jump_values(td, x) if r.denominator != 1]
            if fractional:
                instances.append((x, rng.choice(fractional)))
        for x, r in instances:
            _require(split_span_check(td.base, x, r), f"{cid}: span check failed at r={r}")
        checked += len(instances)
    return checked


def check_regularity(
    *,
    cosets=(("A1", None), ("A2", None), ("A2", (1, 0)), ("B2", None)),
    coxeter={"A1": 2, "A2": 3, "B2": 4, "C3": 6, "D4": 6, "G2": 6},
    seed=0,
) -> int:
    """Springer's orders contain each Coxeter number and are exactly {2, 6}
    on twisted A2 (2 is not one on A2); the free-action and eigenvector
    criteria agree on every element of each coset, whose sizes are returned."""
    for desc, h in coxeter.items():
        d = build_datum(desc)
        _require(h in elliptic_zregular_orders(d, identity_automorphism(d)), f"{desc} lacks {h}")
    a2 = build_datum("A2")
    _require(2 not in elliptic_zregular_orders(a2, identity_automorphism(a2)), "A2: order 2")
    swapped = elliptic_zregular_orders(a2, build_automorphism(a2, (1, 0)))
    _require(set(swapped) == {2, 6}, f"twisted A2 orders {sorted(swapped)} != [2, 6]")
    elements = 0
    for desc, perm in cosets:
        d = build_datum(desc)
        auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
        _require(zregularity_criteria_agree(d, auto), f"{desc} {perm}: criteria disagree")
        elements += len(weyl_elements(d))
    return elements


def check_stability_verdicts(*, seed=0) -> int:
    """A1 at rho/2 and A2 at rho/3 are stable; A2 at rho/2 is not."""
    cases = (("A1", 2, True), ("A2", 2, False), ("A2", 3, True))
    for cid, m, stable in cases:
        td = catalog_datum(cid)
        verdict = stable_verdict(td, named_point(td, "rho_over_m", m)).verdict
        _require(verdict == stable, f"{cid} at rho/{m}: verdict {verdict}")
    return len(cases)


def check_algebra_integrity(*, types=("A2", "B2", "G2"), twists=("3D4",), seed=0) -> int:
    """The Jacobi identity on every triple of basis elements of each type's
    Chevalley algebra, and a pinned lift of each catalog twist whose order is
    a multiple of the twist's; returns the number of triples."""
    triples = 0
    for desc in types:
        alg = structure_constants(build_datum(desc))
        e = alg.basis_element
        for a, b, c in itertools.combinations(alg.labels, 3):
            total = {}
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                for label, val in alg.bracket(alg.bracket(e(u), e(v)), e(w)).items():
                    total[label] = total.get(label, 0) + val
            _require(not any(total.values()), f"{desc}: Jacobi fails on {a},{b},{c}")
            triples += 1
    for cid in twists:
        td = catalog_datum(cid)
        pinned = pinned_automorphism(structure_constants(td.base), td.twist)
        _require(pinned.order % td.twist.order == 0, f"{cid}: lift order {pinned.order}")
    return triples


def check_alcove_reduction(*, seed=0) -> int:
    """Alcove reduction of random points lands in the base alcove, idempotently."""
    rng = random.Random(seed)
    cases = itertools.product(("A2", "B2", "2A2", "2A3"), range(10))
    for checked, (cid, _) in enumerate(cases, 1):
        td = catalog_datum(cid)
        reduced = alcove_reduce(td, _random_point(td, rng, 4))
        _require(in_base_alcove(td, reduced), f"{cid}: reduction left the alcove")
        _require(alcove_reduce(td, reduced) == reduced, f"{cid}: reduction is not idempotent")
    return checked


CHECKS = (
    ("sum_rule", check_sum_rule),
    ("vinberg_crosscheck", check_vinberg_crosscheck),
    ("companion_invariance", check_companion_invariance),
    ("weyl_decomposition", check_decomposition),
    ("split_span_oracle", check_span_oracle),
    ("regularity", check_regularity),
    ("stability_verdicts", check_stability_verdicts),
    ("algebra_integrity", check_algebra_integrity),
    ("alcove_reduction", check_alcove_reduction),
)


def run(seed: int = 0, write=None) -> bool:
    write = write or sys.stdout.write
    ok = True
    for name, fn in CHECKS:
        try:
            fn(seed=seed)
            line = f"PASS {name}\n"
        except Exception:
            ok = False
            line = f"FAIL {name}\n{traceback.format_exc(limit=3)}\n"
        write(line)
    write(("selftest: all checks passed\n") if ok else ("selftest: FAILURES\n"))
    return ok
