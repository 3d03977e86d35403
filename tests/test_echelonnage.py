import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, lcm

import pytest

from parahoric import echelonnage
from parahoric.catalog import catalog_datum, catalog_ids, named_point
from parahoric.echelonnage import (
    EchelonnageError,
    TwistedDatum,
    _scaffold,
    alcove_reduce,
    alcove_vertices,
    apartment_point,
    companion_shift,
    evaluate,
    in_base_alcove,
    origin,
    point_from_simple_coroots,
    point_order,
    restrict,
    twisted,
)
from parahoric.exactmath import (
    ExactMathError,
    ValuationSet,
    mat_vec,
    matrix_rank,
    pair,
    vec_add,
    vec_scale,
    vec_sub,
)
from parahoric.rootdata import _RANK_RANGE, ISOGENIES, build_automorphism, build_datum

from matrix_oracle import invert_matrix, kernel_basis
from point_oracle import (
    affine_reflect,
    alcove_vertices_by_subsets,
    crossing_alcove_oracle,
    max_below,
    min_above,
    rational_alcove,
    scaffold_oracle,
    translations_oracle,
    walls_oracle,
)

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
    with pytest.raises(EchelonnageError, match="^lambda valuation must be nonpositive$"):
        td_2a2({0: F(1, 2)})
    with pytest.raises(EchelonnageError, match=r"^lambda valuation -1/3 is not in \(1/2\)Z$"):
        td_2a2({0: F(-1, 3)})
    with pytest.raises(
        EchelonnageError,
        match=r"^lambda valuation index 5 out of range \(have 1 positive multipliable",
    ):
        td_2a2({5: F(-1, 2)})
    td = td_2a2({0: F(-1, 2)})
    assert not td.is_tame


def test_lambda_constant_on_weyl_orbits():
    d = build_datum("A4")
    auto = build_automorphism(d, (3, 2, 1, 0))
    with pytest.raises(EchelonnageError, match="Weyl orbit"):
        twisted(d, auto, {0: F(-1, 2), 1: F(-1)})
    assert not twisted(d, auto, {0: F(-1, 2), 1: F(-1, 2)}).is_tame


def td_2a4(lam=None):
    d = build_datum("A4")
    return twisted(d, build_automorphism(d, (3, 2, 1, 0)), lam)


def test_wild_jump_sets():
    td = td_2a2({0: F(-1, 2)})
    for rr in restrict(td):
        if rr.cls == "multipliable":
            assert rr.jump_set == ValuationSet.lattice(F(1, 2), F(-1, 4))
        else:
            assert rr.jump_set == ValuationSet.lattice(1)
    # 2A4 (BC2) with lambda = -1/2 on both positive multipliable roots: each
    # class against the formulas of ``TwistedDatum.restricted``, the orbit
    # size of a divisible root's valuation set being that of its half
    lam = F(-1, 2)
    td = td_2a4({0: lam, 1: lam})
    expected = {
        "plain": ValuationSet.lattice(F(1, 2)),
        "multipliable": ValuationSet.lattice(F(1, 2), F(-1, 4)),
        "divisible": ValuationSet.lattice(1),
    }
    seen = []
    for rr in restrict(td):
        e = rr.orbit_size
        if rr.cls == "plain":
            formula = ValuationSet.lattice(F(1, e))
        elif rr.cls == "multipliable":
            formula = ValuationSet.lattice(F(1, e), lam / 2)
        else:
            half = td.by_key[tuple(c / 2 for c in rr.key)]
            assert half.cls == "multipliable"
            e = half.orbit_size
            formula = ValuationSet.lattice(F(2, e), lam + F(1, e))
        assert rr.jump_set == formula == expected[rr.cls], rr.key
        seen.append((rr.cls, rr.orbit_size))
    assert sorted(seen) == sorted(
        [("divisible", 1)] * 4 + [("multipliable", 2)] * 4 + [("plain", 2)] * 4
    )


def test_doubling_disjointness():
    rng = random.Random(5)
    for lam in (0, F(-1, 2), F(-1), F(-3, 2)):
        td = td_2a2({0: lam} if lam else None)
        by_key = td.by_key
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
                level = rr.jump_set.offset + rng.randint(-2, 2) * rr.jump_set.step
                x = affine_reflect(td, x, rr, level)
            assert alcove_reduce(td, x) == reduced


def test_alcove_reduce_translation_invariance():
    td = twisted(build_datum("A2"))
    x = rho_check_point(td, 3)
    by_key = td.by_key
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
    by_key = td.by_key
    mult = next(rr for rr in by_key.values() if rr.cls == "multipliable" and rr.positive)
    coroot = mult.coroot
    expected = tuple(F(1, 8) * c for c in coroot)
    assert xq.coords == expected


@pytest.mark.parametrize("lam", [F(-1, 2), F(-1), F(-3, 2)])
def test_companion_shift_membership_equivalence(lam):
    td = td_2a2({0: lam})
    rng = random.Random(int(lam * 2))
    by_key = td.by_key
    mult = next(rr for rr in by_key.values() if rr.cls == "multipliable" and rr.positive)
    coroot = mult.coroot
    for _ in range(50):
        t = F(rng.randint(-8, 8), rng.choice((1, 2, 4, 8)))
        x = apartment_point(td, tuple(t * c for c in coroot))
        td_tame, xq = companion_shift(td, x)
        tame_by_key = td_tame.by_key
        key = rng.choice(list(by_key))
        r = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 8)))
        lhs = by_key[key].jump_set.member(r - evaluate(key, x))
        rhs = tame_by_key[key].jump_set.member(r - evaluate(key, xq))
        assert lhs == rhs
        assert point_order(td, x) == point_order(td_tame, xq)


def test_point_from_simple_coroots():
    td = td_2a2()
    simples = td.simple_keys
    assert len(simples) == 1
    x = point_from_simple_coroots(td, [F(1, 8)])
    by_key = td.by_key
    mult = by_key[simples[0]]
    assert mult.cls == "multipliable"
    assert evaluate(mult.key, x) == F(1, 4)


# ---------------------------------------------------------------------------
# oracles: the base alcove from all 2|positive roots| walls, two-sided


@dataclass(frozen=True)
class _Wall:
    key: tuple
    coroot: tuple
    lo: Fraction
    hi: Fraction


@lru_cache(maxsize=None)
def _walls(td):
    """For each positive restricted root, the pair of hyperplane levels that
    bound the alcove of the reference point."""
    positives = [rr for rr in restrict(td) if rr.positive]
    direction = tuple(F(0) for _ in range(td.base.rank))
    for rr in positives:
        direction = vec_add(direction, rr.coroot)
    delta = None
    heights = {}
    for rr in positives:
        h = pair(rr.key, direction)
        assert h > 0
        heights[rr.key] = h
        bound = min_above(rr.jump_set, 0) / h
        if delta is None or bound < delta:
            delta = bound
    ref_scale = delta / 2
    return tuple(
        _Wall(
            key=rr.key,
            coroot=rr.coroot,
            lo=max_below(rr.jump_set, ref_scale * heights[rr.key]),
            hi=min_above(rr.jump_set, ref_scale * heights[rr.key]),
        )
        for rr in positives
    )


def in_base_alcove_oracle(td, x):
    return all(w.lo <= pair(w.key, x.coords) <= w.hi for w in _walls(td))


def fixed_space_basis(td):
    """Rational basis of the twist-fixed subspace of the cocharacter space."""
    n = td.base.rank
    p = td.twist.matrix
    return tuple(kernel_basis([[F(p[i][j] - (i == j)) for j in range(n)] for i in range(n)]))


def alcove_vertices_oracle(td):
    """Solve every maximal system of wall equalities inside the twist-fixed
    subspace and keep the solutions that satisfy all wall constraints.  A
    system holding both levels of one wall is singular, so each nonsingular
    system is a nonsingular set of walls with one level chosen for each."""
    basis = fixed_space_basis(td)
    dim = len(basis)
    walls = _walls(td)
    rows = [[pair(w.key, b) for b in basis] for w in walls]
    vertices = set()
    for subset in itertools.combinations(range(len(walls)), dim):
        try:
            inverse = invert_matrix([rows[i] for i in subset])
        except ExactMathError:
            continue
        for levels in itertools.product(*((walls[i].lo, walls[i].hi) for i in subset)):
            sol = mat_vec(inverse, levels)
            if all(w.lo <= pair(row, sol) <= w.hi for w, row in zip(walls, rows)):
                vertices.add(tuple(
                    sum((sol[j] * F(basis[j][i]) for j in range(dim)), F(0))
                    for i in range(td.base.rank)
                ))
    return tuple(sorted(vertices))


def alcove_reduce_oracle(td, x):
    """Translate by the exact lattice floor, then fold across all walls."""
    v = x.coords
    for w, t in rational_alcove(td)[1]:
        v = vec_sub(v, vec_scale(floor(pair(w, v)), t))
    return fold_only(td, apartment_point(td, v))


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
    count = len(td.simple_keys)
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


def _alcove_data():
    """(datum, number of irreducible components of its restricted roots)."""
    for cid in catalog_ids():
        yield cid, (catalog_datum(cid), 1)
    for d, c in (("A4", 1), ("B3", 1), ("C2", 1), ("D3", 1), ("A2+A2", 2), ("A1+A1+A1", 3), ("B2+G2", 2)):
        yield d, (twisted(build_datum(d)), c)
    for d in ("A2", "A3", "B3", "C3", "G2"):
        yield f"sc{d}", (twisted(build_datum(d, "simply_connected")), 1)
    for lam in (F(-1, 2), F(-1), F(-3, 2)):
        yield f"2A2 lambda={lam}", (td_2a2({0: lam}), 1)
    a4 = build_datum("A4")
    flip = build_automorphism(a4, (3, 2, 1, 0))
    yield "2A4", (twisted(a4, flip), 1)
    yield "2A4 lambda=-1/2", (twisted(a4, flip, {0: F(-1, 2), 1: F(-1, 2)}), 1)
    for d, perm, lam, c in (
        ("A2+A2", (2, 3, 0, 1), None, 1),
        ("B3+B3", (3, 4, 5, 0, 1, 2), None, 1),
        ("A2+A2", (1, 0, 2, 3), {0: F(-1, 2)}, 2),
    ):
        base = build_datum(d)
        yield f"{d} {perm} lambda={lam}", (twisted(base, build_automorphism(base, perm), lam), c)


ALCOVE_DATA = dict(_alcove_data())


def _stated_progression(td, rr):
    """The valuation set of ``rr`` as ``TwistedDatum.restricted`` states it."""
    mult = [b.key for b in restrict(td) if b.cls == "multipliable" and b.positive]

    def lam(key):
        return td.lambda_valuations[mult.index(key if key in mult else vec_scale(-1, key))]

    if rr.cls == "plain":
        return ValuationSet.lattice(F(1, rr.orbit_size))
    if rr.cls == "multipliable":
        return ValuationSet.lattice(F(1, rr.orbit_size), lam(rr.key) / 2)
    half = td.by_key[tuple(c / 2 for c in rr.key)]
    return ValuationSet.lattice(F(2, half.orbit_size), lam(half.key) + F(1, half.orbit_size))


@pytest.mark.parametrize("name", list(ALCOVE_DATA))
def test_each_valuation_set_is_one_stated_progression(name):
    """One progression per root, and for a multipliable a the a-levels miss
    the halved 2a-levels: the base-alcove search counts the hyperplanes of a
    and of 2a separately."""
    td, _ = ALCOVE_DATA[name]
    by_key = td.by_key
    for rr in restrict(td):
        assert rr.jump_set == _stated_progression(td, rr)
        if rr.cls != "multipliable":
            continue
        js = rr.jump_set
        double = by_key[tuple(2 * c for c in rr.key)].jump_set
        step = double.step / 2
        # both progressions repeat with the lcm of their steps
        period = F(
            lcm(js.step.numerator * step.denominator, step.numerator * js.step.denominator),
            js.step.denominator * step.denominator,
        )
        halved = [double.offset / 2 + k * step for k in range(int(period / step))]
        assert halved and not any(js.member(h) for h in halved), (rr.key, js, double)


@pytest.mark.parametrize("name", list(ALCOVE_DATA))
def test_base_alcove_matches_all_walls_oracle(name):
    td, components = ALCOVE_DATA[name]
    rank = len(td.simple_keys)
    assert len(td.components) == components
    assert len(td.integer_alcove.facets) == rank + components
    assert {(key, level) for key, level, _ in rational_alcove(td)[0]} == walls_oracle(td)
    assert tuple(v.coords for v in alcove_vertices(td)) == alcove_vertices_oracle(td)
    assert_vertices_and_barycenter_match_the_subset_search(td)
    rng = random.Random(name)
    for _ in range(40):
        x = point_from_simple_coroots(td, [F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(rank)])
        reduced = alcove_reduce(td, x)
        assert reduced == alcove_reduce_oracle(td, x)
        assert in_base_alcove(td, reduced) and in_base_alcove_oracle(td, reduced)
        assert in_base_alcove(td, x) == in_base_alcove_oracle(td, x)
    # a 10**400-scale translation in the affine Weyl group, as in
    # test_alcove_reduce_huge_translation
    shift = (0,) * td.base.rank
    for rr in restrict(td):
        if rr.positive:
            n = rng.choice((-1, 1)) * 10**400 + rng.randint(-9, 9)
            shift = vec_add(shift, vec_scale(n * rr.jump_set.step, rr.coroot))
    far = apartment_point(td, vec_add(x.coords, shift))
    assert alcove_reduce(td, far) == alcove_reduce_oracle(td, far) == reduced


def assert_vertices_and_barycenter_match_the_subset_search(td):
    vertices = alcove_vertices_by_subsets(td)
    assert alcove_vertices(td) == vertices
    mean = [sum(c) / len(vertices) for c in zip(*(v.coords for v in vertices))]
    assert named_point(td, "barycenter") == apartment_point(td, mean)


@pytest.mark.parametrize("dynkin,auto,components", [
    ("A1+A1+A1", None, 3), ("A1+A1+A1+A1+A1+A1", None, 6), ("A2+B2+G2", None, 3),
    ("G2+A1+C3", None, 3), ("B3+B3", (3, 4, 5, 0, 1, 2), 1), ("A2+A3", (1, 0, 4, 3, 2), 2),
])
def test_product_vertices_and_barycenter_match_the_subset_search(dynkin, auto, components):
    # a vertex is one part per component: 2^6 of them on A1^6
    datum = build_datum(dynkin)
    td = twisted(datum, None if auto is None else build_automorphism(datum, auto))
    assert len(td.alcove_parts) == components
    assert_vertices_and_barycenter_match_the_subset_search(td)


@pytest.mark.parametrize("dynkin,auto", [
    ("F4", None), ("B6", None), ("E6", None), ("E7", None), ("E8", None),
    ("E6", (5, 1, 4, 3, 2, 0)),
])
def test_barycenter_reach(dynkin, auto):
    datum = build_datum(dynkin)
    td = twisted(datum, None if auto is None else build_automorphism(datum, auto))
    assert {(key, level) for key, level, _ in rational_alcove(td)[0]} == walls_oracle(td)
    assert len(alcove_vertices(td)) == len(td.simple_keys) + 1
    assert_vertices_and_barycenter_match_the_subset_search(td)
    x = named_point(td, "barycenter")
    assert in_base_alcove(td, x)
    assert alcove_reduce(td, x) == x


def _closed_form_cosets():
    """(isogeny, type, node permutation or None, lambda-valuation or None)
    for the closed-form base alcove against its oracles: every supported
    irreducible type in both isogenies, the twisted ones, sums that the
    twist permutes or leaves alone, and the wild 2A2n at each lambda."""
    for letter, (lo, hi) in _RANK_RANGE.items():
        for n in range(lo, hi + 1):
            for isogeny in ISOGENIES:
                yield isogeny, f"{letter}{n}", None, None
    for n in range(2, 9):
        yield "adjoint", f"A{n}", tuple(range(n - 1, -1, -1)), None
    for n in range(4, 9):
        yield "adjoint", f"D{n}", (*range(n - 2), n - 1, n - 2), None
    triality = ((2, 1, 3, 0), (3, 1, 0, 2))
    e6 = (5, 1, 4, 3, 2, 0)
    yield from (("adjoint", "D4", perm, None) for perm in triality)
    yield "adjoint", "E6", e6, None
    for d, perm in (("A3", (2, 1, 0)), ("D4", (0, 1, 3, 2)), ("D4", triality[0]), ("E6", e6)):
        yield "simply_connected", d, perm, None
    for d, perm in (
        ("A2+A2", (2, 3, 0, 1)),
        ("B3+B3", (3, 4, 5, 0, 1, 2)),
        ("D4+D4", (*range(4, 8), *range(4))),
        ("E6+E6", (*range(6, 12), *range(6))),
        ("A2+A2+A2", (2, 3, 4, 5, 0, 1)),
        *((d, None) for d in ("A1+B2+A1", "B2+G2", "E8+A1", "D4+D4")),
    ):
        yield "adjoint", d, perm, None
    for n in (2, 4, 6, 8):
        for lam in (F(-1, 2), F(-1), F(-3, 2), F(-2), F(-5, 2)):
            yield "adjoint", f"A{n}", tuple(range(n - 1, -1, -1)), lam


@pytest.mark.parametrize(
    "isogeny,dynkin,perm,lam", [pytest.param(*c, id=" ".join(map(str, c))) for c in _closed_form_cosets()]
)
def test_closed_form_alcove_matches_the_oracles(isogeny, dynkin, perm, lam):
    """The facets against the crossing count, the translations against the
    whole-matrix inverse, and the vertices and the barycenter against the
    search over facet subsets."""
    base = build_datum(dynkin, isogeny)
    td = twisted(base, None if perm is None else build_automorphism(base, perm))
    if lam is not None:
        td = twisted(base, td.twist, [lam] * len(td.lambda_valuations))
    assert set(td.integer_alcove.facets) == set(crossing_alcove_oracle(td))
    assert rational_alcove(td)[1] == translations_oracle(td)
    assert_vertices_and_barycenter_match_the_subset_search(td)


def _pairings_in_integer_alcove(monkeypatch, dynkin):
    """The ``pair`` calls of one fresh ``integer_alcove`` of ``dynkin``,
    once its rows and components are built."""
    td = twisted(build_datum(dynkin))
    td.affine_rows, td.components  # built before the count starts
    calls = []

    def counted(chi, mu):
        calls.append(None)
        return pair(chi, mu)

    monkeypatch.setattr(echelonnage, "pair", counted)
    TwistedDatum.integer_alcove.func(td)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("factor,count", [("E8", 2), ("A1", 32)])
def test_integer_alcove_work_at_most_doubles_with_the_factors(monkeypatch, factor, count):
    # one pairing per positive root: the search never pairs a root with
    # another root's coroot, nor with every simple coroot
    small = _pairings_in_integer_alcove(monkeypatch, "+".join([factor] * count))
    large = _pairings_in_integer_alcove(monkeypatch, "+".join([factor] * 2 * count))
    assert large <= 2 * small, (small, large)


def _scaffold_cosets():
    """(base, twist) for the integer scaffold against its oracle: every
    catalog entry, then (isogeny, type, node permutation or None)."""
    for cid in catalog_ids():
        td = catalog_datum(cid)
        yield pytest.param(td.base, td.twist, id=cid)
    flips = [("adjoint", f"A{n}", tuple(range(n - 1, -1, -1))) for n in range(2, 9)]
    for isogeny, d, perm in (
        *flips,
        ("adjoint", "D5", (0, 1, 2, 4, 3)),
        ("adjoint", "E6", (5, 1, 4, 3, 2, 0)),
        ("adjoint", "D4", (2, 1, 3, 0)),
        *(("adjoint", d, None) for d in ("B6", "F4", "E6", "E7", "E8")),
        ("adjoint", "A2+A2", (2, 3, 0, 1)),
        ("adjoint", "A2+A2", (2, 3, 1, 0)),
        ("adjoint", "A2+A2", (1, 0, 3, 2)),
        ("simply_connected", "A3", None),
        ("simply_connected", "A3", (2, 1, 0)),
        ("simply_connected", "D4", None),
        ("simply_connected", "D4", (2, 1, 3, 0)),
    ):
        base = build_datum(d, isogeny)
        twist = build_automorphism(base, perm or range(base.rank))
        yield pytest.param(base, twist, id=f"{isogeny} {d} {perm}")


def assert_integer_keys_scale_the_keys(td):
    """Each integer key is e times its key, and each ``affine_rows`` key is
    q times it."""
    e = td.twist.order
    for rr in td.restricted:
        assert rr.integer_key == tuple(e * c for c in rr.key), rr.key
    q, _, rows = td.affine_rows
    assert q % e == 0
    assert [row[0] for row in rows] == list(td.restricted)
    for rr, key_q, *_ in rows:
        assert key_q == tuple(q * c for c in rr.key), rr.key


def assert_restricted_rank_is_the_simple_count(td):
    """The simple restricted roots are a basis of the span of the restricted
    roots: the rank of that span, by elimination, is their count."""
    rank = matrix_rank([rr.integer_key for rr in td.restricted])
    assert td.restricted_rank == len(td.simple_keys) == rank


@pytest.mark.parametrize("base,twist", _scaffold_cosets())
def test_integer_scaffold_matches_the_fraction_oracle(base, twist):
    scaffold, oracle = _scaffold(base, twist), scaffold_oracle(base, twist)
    for field in scaffold._fields:
        assert getattr(scaffold, field) == getattr(oracle, field), field
    td = twisted(base, twist)
    assert [rr.key for rr in td.restricted] == [key for key, *_ in oracle.roots]
    assert [
        (rr.integer_key, rr.coroot, rr.fiber, rr.orbit_size, rr.cls, rr.positive, rr.index)
        for rr in td.restricted
    ] == [
        (integer_key, coroot, fiber, len(fiber), cls, positive, index)
        for index, (_, integer_key, coroot, fiber, cls, positive) in enumerate(oracle.roots)
    ]
    multipliable = [rr for rr in td.restricted if rr.cls == "multipliable" and rr.positive]
    assert [td.restricted[i] for i in scaffold.lambda_roots] == multipliable
    assert_integer_keys_scale_the_keys(td)
    assert_restricted_rank_is_the_simple_count(td)


@pytest.mark.parametrize("lam", [F(-1, 2), F(-3, 2)])
def test_integer_keys_scale_the_keys_on_wild_data(lam):
    for td in (td_2a2({0: lam}), td_2a4({0: lam, 1: lam})):
        assert not td.is_tame
        assert_integer_keys_scale_the_keys(td)
        assert_restricted_rank_is_the_simple_count(td)
