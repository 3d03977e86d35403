import random
from fractions import Fraction

import pytest

from parahoric.catalog import catalog_datum
from parahoric.echelonnage import (
    EchelonnageError,
    _walls,
    affine_reflect,
    alcove_reduce,
    apartment_point,
    companion_shift,
    evaluate,
    in_base_alcove,
    origin,
    point_from_simple_coroots,
    point_order,
    restrict,
    restricted_by_key,
    simple_restricted_keys,
    twisted,
)
from parahoric.exactmath import ValuationSet, pair, vec_add, vec_scale, vec_sub
from parahoric.rootdata import build_automorphism, build_datum

F = Fraction


def td_2a2(lam=None):
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    return twisted(d, auto, lam)


def td_2a3():
    d = build_datum("A3")
    auto = build_automorphism(d, (2, 1, 0))
    return twisted(d, auto)


def rho_check_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def test_restrict_2a2_tame():
    td = td_2a2()
    roots = restrict(td)
    by_cls = {}
    for rr in roots:
        by_cls.setdefault(rr.cls, []).append(rr)
    assert len(by_cls["multipliable"]) == 2
    assert len(by_cls["divisible"]) == 2
    assert "plain" not in by_cls
    for rr in by_cls["multipliable"]:
        assert rr.orbit_size == 2
        assert rr.jump_set == ValuationSet.lattice(F(1, 2))
    for rr in by_cls["divisible"]:
        assert rr.orbit_size == 1
        assert rr.jump_set == ValuationSet.lattice(1, F(1, 2))


def test_restrict_untwisted_is_plain():
    d = build_datum("A2")
    td = twisted(d)
    roots = restrict(td)
    assert len(roots) == 6
    for rr in roots:
        assert rr.cls == "plain"
        assert rr.jump_set == ValuationSet.lattice(1)
        assert tuple(int(x) for x in rr.key) in set(d.roots)


def test_restrict_2a3_is_c2():
    td = td_2a3()
    roots = restrict(td)
    assert len(roots) == 8
    assert all(rr.cls == "plain" for rr in roots)
    steps = sorted(rr.jump_set.step for rr in roots)
    assert steps == [F(1, 2)] * 4 + [1] * 4
    for rr in roots:
        expected = F(1, rr.orbit_size)
        assert rr.jump_set == ValuationSet.lattice(expected)


def test_lambda_validation():
    with pytest.raises(EchelonnageError):
        td_2a2({0: F(1, 2)})
    with pytest.raises(EchelonnageError):
        td_2a2({0: F(-1, 3)})
    with pytest.raises(EchelonnageError):
        td_2a2({5: F(-1, 2)})
    td = td_2a2({0: F(-1, 2)})
    assert not td.is_tame


def test_lambda_constant_on_weyl_orbits():
    d = build_datum("A4")
    auto = build_automorphism(d, (3, 2, 1, 0))
    with pytest.raises(EchelonnageError, match="Weyl orbit"):
        twisted(d, auto, {0: F(-1, 2), 1: F(-1)})
    assert not twisted(d, auto, {0: F(-1, 2), 1: F(-1, 2)}).is_tame


def test_wild_jump_sets():
    td = td_2a2({0: F(-1, 2)})
    for rr in restrict(td):
        if rr.cls == "multipliable":
            assert rr.jump_set == ValuationSet.lattice(F(1, 2), F(-1, 4))
        else:
            assert rr.jump_set == ValuationSet.lattice(1)


def test_doubling_disjointness():
    rng = random.Random(5)
    for lam in (0, F(-1, 2), F(-1), F(-3, 2)):
        td = td_2a2({0: lam} if lam else None)
        by_key = restricted_by_key(td)
        mult = [rr for rr in by_key.values() if rr.cls == "multipliable"]
        for rr in mult:
            double = by_key[tuple(2 * x for x in rr.key)]
            for _ in range(200):
                q = F(rng.randint(-60, 60), rng.choice((1, 2, 4)))
                if rr.jump_set.member(q):
                    assert not double.jump_set.member(2 * q)


def test_restricted_coroots_pair_to_two():
    for td in (td_2a2(), td_2a3(), twisted(build_datum("G2"))):
        for rr in restrict(td):
            assert evaluate(rr.key, apartment_point(td, rr.coroot)) == 2


def test_point_order_examples():
    a2 = twisted(build_datum("A2"))
    assert point_order(a2, rho_check_point(a2, 3)) == 3
    assert point_order(a2, origin(a2)) == 1
    td = td_2a2()
    assert point_order(td, origin(td)) == 2


def test_alcove_reduce_split_a1():
    td = twisted(build_datum("A1"))
    alpha_check = td.base.simple_coroots[0]
    x = apartment_point(td, tuple(F(7, 3) * c for c in alpha_check))
    alpha = restrict(td)[1].key if restrict(td)[1].positive else restrict(td)[0].key
    reduced = alcove_reduce(td, x)
    assert evaluate(alpha, x) == F(14, 3)
    assert evaluate(alpha, reduced) == F(2, 3)
    assert alcove_reduce(td, reduced) == reduced
    assert in_base_alcove(td, reduced)


def test_alcove_reduce_idempotent_and_invariant():
    rng = random.Random(23)
    for td in (twisted(build_datum("A2")), td_2a2(), td_2a3()):
        positives = [rr for rr in restrict(td) if rr.positive]
        base_pt = rho_check_point(td, 3)
        reduced = alcove_reduce(td, base_pt)
        assert in_base_alcove(td, reduced)
        assert alcove_reduce(td, reduced) == reduced
        for _ in range(50):
            x = base_pt
            for _ in range(rng.randint(1, 6)):
                rr = rng.choice(positives)
                level = rng.choice(rr.jump_set.offsets) + rng.randint(-2, 2) * rr.jump_set.step
                x = affine_reflect(td, x, rr, level)
            assert alcove_reduce(td, x) == reduced


def test_alcove_reduce_translation_invariance():
    td = twisted(build_datum("A2"))
    x = rho_check_point(td, 3)
    by_key = restricted_by_key(td)
    some = next(rr for rr in by_key.values() if rr.positive)
    coroot = some.coroot
    translated = apartment_point(
        td, tuple(a + b for a, b in zip(x.coords, coroot))
    )
    assert alcove_reduce(td, translated) == alcove_reduce(td, x)


def test_companion_shift_trivial_when_tame():
    td = td_2a2()
    x = origin(td)
    td2, x2 = companion_shift(td, x)
    assert td2 == td
    assert x2 == x


def test_companion_shift_2a2_displacement():
    td = td_2a2({0: F(-1, 2)})
    td_tame, xq = companion_shift(td, origin(td))
    assert td_tame.is_tame
    by_key = restricted_by_key(td)
    mult = next(rr for rr in by_key.values() if rr.cls == "multipliable" and rr.positive)
    coroot = mult.coroot
    expected = tuple(F(1, 8) * c for c in coroot)
    assert xq.coords == expected


@pytest.mark.parametrize("lam", [F(-1, 2), F(-1), F(-3, 2)])
def test_companion_shift_membership_equivalence(lam):
    td = td_2a2({0: lam})
    rng = random.Random(int(lam * 2))
    by_key = restricted_by_key(td)
    mult = next(rr for rr in by_key.values() if rr.cls == "multipliable" and rr.positive)
    coroot = mult.coroot
    for _ in range(50):
        t = F(rng.randint(-8, 8), rng.choice((1, 2, 4, 8)))
        x = apartment_point(td, tuple(t * c for c in coroot))
        td_tame, xq = companion_shift(td, x)
        tame_by_key = restricted_by_key(td_tame)
        key = rng.choice(list(by_key))
        r = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 8)))
        lhs = by_key[key].jump_set.member(r - evaluate(key, x))
        rhs = tame_by_key[key].jump_set.member(r - evaluate(key, xq))
        assert lhs == rhs
        assert point_order(td, x) == point_order(td_tame, xq)


def test_point_from_simple_coroots():
    td = td_2a2()
    simples = simple_restricted_keys(td)
    assert len(simples) == 1
    x = point_from_simple_coroots(td, [F(1, 8)])
    by_key = restricted_by_key(td)
    mult = by_key[simples[0]]
    assert mult.cls == "multipliable"
    assert evaluate(mult.key, x) == F(1, 4)


def fold_only(td, x):
    """Alcove reduction by folding across violated walls alone."""
    v = x.coords
    moved = True
    while moved:
        moved = False
        for w in _walls(td):
            t = pair(w.key, v)
            level = w.lo if t < w.lo else w.hi if t > w.hi else t
            if level != t:
                v = vec_sub(v, vec_scale(t - level, w.coroot))
                moved = True
    return apartment_point(td, v)


@pytest.mark.parametrize("cid", ["A2", "B2", "2A2", "2A3"])
def test_alcove_reduce_huge_translation(cid):
    td = catalog_datum(cid)
    rng = random.Random(cid)
    positives = [rr for rr in restrict(td) if rr.positive]
    count = len(simple_restricted_keys(td))
    for _ in range(5):
        coeffs = [F(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(count)]
        x = point_from_simple_coroots(td, coeffs)
        reduced = alcove_reduce(td, x)
        assert reduced == fold_only(td, x)
        # step(a) * acheck is the product of the reflections in two adjacent
        # walls of a, so the sum below lies in the affine Weyl group
        shift = (0,) * td.base.rank
        for rr in positives:
            n = rng.choice((-1, 1)) * 10**400 + rng.randint(-9, 9)
            shift = vec_add(shift, vec_scale(n * rr.jump_set.step, rr.coroot))
        assert alcove_reduce(td, apartment_point(td, vec_add(x.coords, shift))) == reduced
