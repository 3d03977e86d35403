"""Built-in property suite: one deterministic pass/fail line per check,
runnable without pytest.  Returns overall success so the CLI can map the
result onto its exit code."""
from __future__ import annotations

import random
import sys
import traceback
from fractions import Fraction
from math import lcm

from .catalog import catalog_datum, catalog_ids, named_point, CATALOG
from .echelonnage import (
    apartment_point,
    companion_shift,
    evaluate,
    point_order,
    restrict,
    twisted,
)
from .mpquotient import (
    algebra_dimension,
    dimension_sum_over_period,
    first_jump,
    quotient_datum,
)
from .rootdata import build_automorphism, build_datum, identity_automorphism
from .stability import (
    elliptic_zregular_orders,
    stable_verdict,
    zregularity_criteria_agree,
)
from .vinberg import crosscheck
from .weylmod import decompose, split_span_check

F = Fraction


def _random_fixed_point(td, rng, max_den=6):
    from .exactmath import mat_vec

    coords = tuple(
        F(rng.randint(-3 * max_den, 3 * max_den), max_den)
        for _ in range(td.base.rank)
    )
    e = td.twist.order
    acc = coords
    total = list(coords)
    for _ in range(e - 1):
        acc = tuple(mat_vec(td.twist.matrix, acc))
        total = [a + b for a, b in zip(total, acc)]
    return apartment_point(td, tuple(F(t, e) for t in total))


def check_sum_rule(seed: int = 0) -> None:
    rng = random.Random(seed)
    for cid in catalog_ids():
        td = catalog_datum(cid)
        dim = algebra_dimension(td)
        points = [named_point(td, "origin"), named_point(td, "barycenter")]
        points.append(named_point(td, "rho_over_m", CATALOG[cid]["rho_m"]))
        points.extend(_random_fixed_point(td, rng) for _ in range(3))
        for x in points:
            got = dimension_sum_over_period(td, x)
            if got != dim:
                raise AssertionError(f"{cid}: period sum {got} != {dim}")


def check_vinberg_crosscheck(seed: int = 0) -> None:
    for cid in catalog_ids():
        td = catalog_datum(cid)
        for name in ("origin", "barycenter", "rho_over_m"):
            x = (
                named_point(td, name)
                if name != "rho_over_m"
                else named_point(td, name, CATALOG[cid]["rho_m"])
            )
            base = lcm(point_order(td, x), td.twist.order)
            for modulus in (base, 2 * base):
                res = crosscheck(td, x, modulus)
                if not res.ok:
                    raise AssertionError(
                        f"{cid}@{name}, M={modulus}: mismatch at d={res.first_mismatch}"
                    )


def check_companion_invariance(seed: int = 0) -> None:
    rng = random.Random(seed)
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    for lam in (F(-1, 2), F(-1), F(-3, 2)):
        td = twisted(d, auto, {0: lam})
        roots = restrict(td)
        coroot = None
        for rr in roots:
            if rr.cls == "multipliable" and rr.positive:
                coroot = rr.coroot
        for _ in range(25):
            t = F(rng.randint(-8, 8), rng.choice((1, 2, 4)))
            x = apartment_point(td, tuple(t * c for c in coroot))
            td_tame, xq = companion_shift(td, x)
            tame_roots = restrict(td_tame)
            for rr, rr_t in zip(roots, tame_roots):
                r = F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
                lhs = rr.jump_set.member(r - evaluate(rr.key, x))
                rhs = rr_t.jump_set.member(r - evaluate(rr_t.key, xq))
                if lhs != rhs:
                    raise AssertionError(f"membership differs at {rr.key}, r={r}")
            if quotient_datum(td, x).roots != quotient_datum(td_tame, xq).roots:
                raise AssertionError("quotient data differ across the shift")


def check_decomposition(seed: int = 0) -> None:
    rng = random.Random(seed)
    for cid in catalog_ids():
        td = catalog_datum(cid)
        x = named_point(td, "rho_over_m", CATALOG[cid]["rho_m"])
        r = first_jump(td, x)
        dec = decompose(td, x, r)
        if not dec.dimensions_match():
            raise AssertionError(f"{cid}: decomposition dimension mismatch")
        if td.twist.is_identity and r.denominator != 1:
            weights = {w for w, _ in dec.items}
            if weights != set(dec.maximal_set):
                raise AssertionError(f"{cid}: split highest weights != maximal set")


def check_span_oracle(seed: int = 0) -> None:
    for cid in ("A2", "B2", "G2"):
        td = catalog_datum(cid)
        x = named_point(td, "rho_over_m", CATALOG[cid]["rho_m"])
        r = first_jump(td, x)
        if not split_span_check(td.base, x, r):
            raise AssertionError(f"{cid}: span oracle failed")


def check_regularity(seed: int = 0) -> None:
    coxeter = {"A1": 2, "A2": 3, "B2": 4, "C3": 6, "D4": 6, "G2": 6}
    for cid, h in coxeter.items():
        d = build_datum(cid)
        orders = elliptic_zregular_orders(d, identity_automorphism(d))
        if h not in orders:
            raise AssertionError(f"{cid}: Coxeter number {h} missing")
    a2 = build_datum("A2")
    if 2 in elliptic_zregular_orders(a2, identity_automorphism(a2)):
        raise AssertionError("A2 must not admit an elliptic regular order 2")
    swapped = elliptic_zregular_orders(a2, build_automorphism(a2, (1, 0)))
    if set(swapped) != {2, 6}:
        raise AssertionError(f"twisted A2 orders {sorted(swapped)} != [2, 6]")
    for desc, perm in (("A1", None), ("A2", None), ("A2", (1, 0)), ("B2", None)):
        d = build_datum(desc)
        auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
        zregularity_criteria_agree(d, auto)


def check_stability_verdicts(seed: int = 0) -> None:
    a1 = catalog_datum("A1")
    if not stable_verdict(a1, named_point(a1, "rho_over_m", 2)).verdict:
        raise AssertionError("A1 at rho/2 should be stable")
    a2 = catalog_datum("A2")
    if stable_verdict(a2, named_point(a2, "rho_over_m", 2)).verdict:
        raise AssertionError("A2 at rho/2 should not be stable")
    if not stable_verdict(a2, named_point(a2, "rho_over_m", 3)).verdict:
        raise AssertionError("A2 at rho/3 should be stable")


def check_algebra_integrity(seed: int = 0) -> None:
    import itertools

    from .chevalley import pinned_automorphism, structure_constants

    for desc in ("A2", "B2", "G2"):
        alg = structure_constants(build_datum(desc))
        for a, b, c in itertools.combinations(alg.labels, 3):
            total = {}
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                term = alg.bracket(
                    alg.bracket(alg.basis_element(u), alg.basis_element(v)),
                    alg.basis_element(w),
                )
                for l, val in term.items():
                    acc = total.get(l, 0) + val
                    if acc:
                        total[l] = acc
                    elif l in total:
                        del total[l]
            if total:
                raise AssertionError(f"{desc}: Jacobi fails on {a},{b},{c}")
    d = build_datum("D4")
    alg = structure_constants(d)
    pinned_automorphism(alg, build_automorphism(d, (2, 1, 3, 0)))


def check_alcove_reduction(seed: int = 0) -> None:
    from .echelonnage import alcove_reduce, in_base_alcove

    rng = random.Random(seed)
    for cid in ("A2", "B2", "2A2", "2A3"):
        td = catalog_datum(cid)
        for _ in range(10):
            x = _random_fixed_point(td, rng, max_den=4)
            reduced = alcove_reduce(td, x)
            if not in_base_alcove(td, reduced):
                raise AssertionError(f"{cid}: reduction left the alcove")
            if alcove_reduce(td, reduced) != reduced:
                raise AssertionError(f"{cid}: reduction is not idempotent")


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


def run(seed: int = 0, stream=None) -> bool:
    stream = stream or sys.stdout
    ok = True
    for name, fn in CHECKS:
        try:
            fn(seed)
            stream.write(f"PASS {name}\n")
        except Exception:
            ok = False
            stream.write(f"FAIL {name}\n{traceback.format_exc(limit=3)}\n")
    stream.write(("selftest: all checks passed\n") if ok else ("selftest: FAILURES\n"))
    return ok
