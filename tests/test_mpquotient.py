import random
from fractions import Fraction
from math import lcm

import pytest

from parahoric.catalog import CATALOG, catalog_datum, catalog_ids
from parahoric.echelonnage import (
    TwistedDatum,
    apartment_point,
    companion_shift,
    depth_table,
    evaluate,
    origin,
    point_from_simple_coroots,
    point_order,
    restrict,
    simple_restricted_keys,
    twisted,
)
from parahoric.exactmath import cyclotomic_multiplicities
from parahoric.mpquotient import (
    QuotientError,
    algebra_dimension,
    dimension_sum_over_period,
    first_jump,
    jump_values,
    mp_quotient,
    quotient_datum,
    torus_jump_dim,
)
from parahoric.rootdata import build_automorphism, build_datum
from parahoric.weylmod import phi_xr

F = Fraction


def td_2a2(lam=None):
    d = build_datum("A2")
    return twisted(d, build_automorphism(d, (1, 0)), lam)


def rho_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def test_quotient_datum_2a2_origin():
    td = td_2a2()
    h = quotient_datum(td, origin(td))
    assert len(h.roots) == 2
    assert h.rank == 1
    a = h.positive_roots[0]
    assert tuple(-x for x in a) in h.roots
    assert h.simple_roots == (a,)


def test_quotient_datum_split_origin_is_everything():
    d = build_datum("B2")
    td = twisted(d)
    h = quotient_datum(td, origin(td))
    assert len(h.roots) == len(d.roots)
    assert h.rank == d.rank


def test_quotient_datum_generic_point_is_torus():
    td = twisted(build_datum("A2"))
    h = quotient_datum(td, rho_point(td, 3))
    assert h.roots == ()
    assert h.rank == 2


def test_torus_jump_dims():
    td = twisted(build_datum("A2"))
    assert torus_jump_dim(td, 0) == 2
    assert torus_jump_dim(td, 1) == 2
    assert torus_jump_dim(td, F(1, 2)) == 0
    td2 = td_2a2()
    assert torus_jump_dim(td2, F(1, 2)) == 1
    assert torus_jump_dim(td2, F(3, 2)) == 1
    assert torus_jump_dim(td2, 0) == 1
    assert torus_jump_dim(td2, F(1, 3)) == 0
    d4 = build_datum("D4")
    td3 = twisted(d4, build_automorphism(d4, (2, 1, 3, 0)))
    assert torus_jump_dim(td3, F(1, 3)) == 1
    assert torus_jump_dim(td3, F(2, 3)) == 1
    assert torus_jump_dim(td3, 0) == 2


def test_mp_quotient_examples():
    td = td_2a2()
    x0 = origin(td)
    rep0 = mp_quotient(td, x0, 0)
    assert (rep0.torus_dim, len(rep0.root_part), rep0.total_dim) == (1, 2, 3)
    rep_half = mp_quotient(td, x0, F(1, 2))
    assert (rep_half.torus_dim, len(rep_half.root_part), rep_half.total_dim) == (1, 4, 5)

    a1 = twisted(build_datum("A1"))
    x = rho_point(a1, 2)
    rep = mp_quotient(a1, x, F(1, 2))
    assert (rep.torus_dim, len(rep.root_part), rep.total_dim) == (0, 2, 2)


def test_first_jump_examples():
    a1 = twisted(build_datum("A1"))
    assert first_jump(a1, origin(a1)) == 1
    assert first_jump(a1, rho_point(a1, 2)) == F(1, 2)
    a2 = twisted(build_datum("A2"))
    assert first_jump(a2, rho_point(a2, 3)) == F(1, 3)
    td = td_2a2()
    assert first_jump(td, origin(td)) == F(1, 2)


def test_first_jump_is_minimal():
    rng = random.Random(17)
    for td in (twisted(build_datum("B2")), td_2a2()):
        for _ in range(20):
            coords = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
            fixed = tuple(
                F(a + b, 2)
                for a, b in zip(coords, coords[::-1] if not td.twist.is_identity else coords)
            )
            x = apartment_point(td, fixed)
            r0 = first_jump(td, x)
            assert mp_quotient(td, x, r0).total_dim > 0
            for r in jump_values(td, x):
                assert r == 0 or r >= r0


def test_sum_rule_over_one_period():
    rng = random.Random(29)
    data = [
        twisted(build_datum("A2")),
        twisted(build_datum("B2")),
        td_2a2(),
        td_2a2({0: F(-1, 2)}),
    ]
    for td in data:
        dim = algebra_dimension(td)
        assert dimension_sum_over_period(td, origin(td)) == dim
        for _ in range(10):
            t = F(rng.randint(-12, 12), rng.randint(1, 12))
            rr = next(r for r in restrict(td) if r.positive)
            coroot = rr.coroot
            x = apartment_point(td, tuple(t * c for c in coroot))
            assert dimension_sum_over_period(td, x) == dim


def test_quotient_is_depth_zero_root_part():
    td = td_2a2()
    for x in (origin(td), rho_point(td, 2)):
        h = quotient_datum(td, x)
        rep = mp_quotient(td, x, 0)
        assert h.roots == rep.root_part


def test_companion_invariance_of_quotients():
    td = td_2a2({0: F(-3, 2)})
    x = origin(td)
    td_tame, xq = companion_shift(td, x)
    assert quotient_datum(td, x).roots == quotient_datum(td_tame, xq).roots
    for r in (0, F(1, 2), F(1, 4), F(3, 4), 1):
        assert (
            mp_quotient(td, x, r).root_part == mp_quotient(td_tame, xq, r).root_part
        )


# ---------------------------------------------------------------------------
# Per-root rescans: the implementations that the depth table replaced, kept
# as oracles.  Each scans every restricted root with Fraction arithmetic.


def oracle_torus_dim(td, r):
    return cyclotomic_multiplicities(td.twist.matrix).get((F(r) % 1).denominator, 0)


def oracle_point_order(td, x):
    m = 1
    for rr in restrict(td):
        val = evaluate(rr.key, x)
        m = lcm(m, (val + rr.jump_set.offset).denominator, rr.jump_set.step.denominator)
    return m


def oracle_quotient_roots(td, x):
    return tuple(
        sorted(rr.key for rr in restrict(td) if rr.jump_set.member(evaluate(rr.key, x)))
    )


def oracle_mp_quotient(td, x, r):
    r = F(r)
    part = tuple(
        sorted(
            rr.key for rr in restrict(td) if rr.jump_set.member(r - evaluate(rr.key, x))
        )
    )
    torus = oracle_torus_dim(td, r)
    return r, torus, part, torus + len(part)


def oracle_first_jump(td, x):
    candidates = []
    for rr in restrict(td):
        val = evaluate(rr.key, x)
        candidates.append(val + rr.jump_set.min_above(-val))
    for k in cyclotomic_multiplicities(td.twist.matrix):
        candidates.append(F(1, k))
    return min(candidates)


def oracle_jump_values(td, x):
    values = set()
    for rr in restrict(td):
        val = evaluate(rr.key, x)
        js = rr.jump_set
        cur = (val + js.offset) % js.step
        while cur < 1:
            values.add(cur)
            cur += js.step
    for k in cyclotomic_multiplicities(td.twist.matrix):
        if k == 1:
            values.add(F(0))
        else:
            for j in range(1, k):
                if F(j, k).denominator == k:
                    values.add(F(j, k))
    return tuple(sorted(values))


def td_2a4(lam):
    d = build_datum("A4")
    return twisted(d, build_automorphism(d, (3, 2, 1, 0)), lam)


WILD = {
    "2A2w": (lambda: td_2a2({0: F(-1, 2)}), 6),
    "2A4w": (lambda: td_2a4({0: F(-1, 2), 1: F(-1, 2)}), 10),
}


def oracle_points(name, td):
    m = CATALOG[name]["rho_m"] if name in CATALOG else WILD[name][1]
    points = [origin(td), rho_point(td, m)]
    rng = random.Random(name)
    count = len(simple_restricted_keys(td))
    for _ in range(5):
        coeffs = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(count)]
        points.append(point_from_simple_coroots(td, coeffs))
    return points


@pytest.mark.parametrize("name", catalog_ids() + tuple(WILD))
def test_depth_table_matches_rescan(name):
    td = catalog_datum(name) if name in CATALOG else WILD[name][0]()
    for x in oracle_points(name, td):
        n = point_order(td, x)
        assert n == oracle_point_order(td, x)
        assert jump_values(td, x) == oracle_jump_values(td, x)
        assert first_jump(td, x) == oracle_first_jump(td, x)
        assert quotient_datum(td, x).roots == oracle_quotient_roots(td, x)
        depths = [F(k, n) for k in range(-n, 2 * n)] + [F(1, 2 * n)]
        for r in depths:
            rep = mp_quotient(td, x, r)
            expected = oracle_mp_quotient(td, x, r)
            assert (rep.r, rep.torus_dim, rep.root_part, rep.total_dim) == expected
            assert phi_xr(td, x, r) == frozenset(expected[2])
        assert dimension_sum_over_period(td, x) == sum(
            oracle_mp_quotient(td, x, r)[3] for r in oracle_jump_values(td, x)
        )


def test_depth_table_stores_only_occupied_residues():
    td = twisted(build_datum("A2"))
    x = rho_point(td, 10**5)
    table = depth_table(td, x)
    assert table.order == oracle_point_order(td, x) == 10**5
    assert len(table.roots) <= len(restrict(td)) and all(table.roots.values())
    assert jump_values(td, x) == oracle_jump_values(td, x)
    assert first_jump(td, x) == oracle_first_jump(td, x)
    for r in jump_values(td, x):
        rep = mp_quotient(td, x, r)
        assert (rep.r, rep.torus_dim, rep.root_part, rep.total_dim) == oracle_mp_quotient(td, x, r)


def test_quotient_closure_check_fires():
    # unequal valuations on one Weyl orbit, which twisted() rejects
    tame = td_2a4(None)
    td = TwistedDatum(tame.base, tame.twist, (F(-1, 2), F(-1)))
    for _ in range(2):  # a failed check is not cached
        with pytest.raises(QuotientError, match="reflection closed"):
            quotient_datum(td, origin(td))


def test_points_with_equal_depth0_roots_share_the_quotient():
    td = twisted(build_datum("A2"))
    at_origin = quotient_datum(td, origin(td))
    translated = point_from_simple_coroots(td, (1, -2))  # every root is integral
    assert quotient_datum(td, translated) is at_origin
    torus = quotient_datum(td, rho_point(td, 3))
    assert torus is not at_origin and not torus.roots
    assert quotient_datum(td, rho_point(td, 3)) is torus
