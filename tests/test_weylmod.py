import random
from fractions import Fraction

import pytest

from parahoric import mpquotient, weylmod
from parahoric.catalog import CATALOG, catalog_datum, catalog_ids, named_point
from parahoric.echelonnage import (
    apartment_point,
    companion_shift,
    depth_table,
    origin,
    point_from_simple_coroots,
    point_order,
    restrict,
    translation_class,
    twisted,
)
from parahoric.exactmath import (
    pair,
    reflection_orbit,
    vec_add,
    vec_scale,
    vec_sub,
)
from parahoric.mpquotient import (
    QuotientError,
    QuotientType,
    ReductiveQuotientDatum,
    first_jump,
    jump_values,
    mp_quotient,
    quotient_datum,
)
from parahoric.rootdata import build_automorphism, build_datum
from parahoric.stability import regular_witness, stable_verdict
from parahoric.vinberg import crosscheck
from parahoric.weylmod import (
    Decomposition,
    WeylModuleError,
    decompose,
    dominance_ge,
    is_dominant_integral,
    phi_xr,
    phi_xr_max,
    split_span_check,
    weyl_character,
)

from matrix_oracle import solve_linear
from point_oracle import translation_representative
from quotient_oracle import weyl_dimension
from warm_points import perfbench_module, warm_sweep

F = Fraction


def td_2a2():
    d = build_datum("A2")
    return twisted(d, build_automorphism(d, (1, 0)))


def rho_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def key_of(td, root):
    root = tuple(root)
    for rr in restrict(td):
        if root in rr.fiber:
            return rr.key
    raise AssertionError


def test_phi_xr_examples():
    a2 = twisted(build_datum("A2"))
    x = rho_point(a2, 3)
    got = phi_xr(a2, x, F(1, 3))
    heights = {a2.base.height(tuple(int(c) for c in k)) for k in got}
    assert len(got) == 3 and heights == {1, -2}

    a1 = twisted(build_datum("A1"))
    assert phi_xr(a1, origin(a1), F(1, 2)) == frozenset()

    td = td_2a2()
    assert len(phi_xr(td, origin(td), F(1, 2))) == 4


def test_phi_xr_max_examples():
    a2 = twisted(build_datum("A2"))
    x = rho_point(a2, 3)
    h = quotient_datum(a2, x)
    assert phi_xr_max(a2, x, F(1, 3), h) == phi_xr(a2, x, F(1, 3))

    a1 = twisted(build_datum("A1"))
    xh = rho_point(a1, 2)
    h1 = quotient_datum(a1, xh)
    assert phi_xr_max(a1, xh, F(1, 2), h1) == phi_xr(a1, xh, F(1, 2))

    td = td_2a2()
    x0 = origin(td)
    h2 = quotient_datum(td, x0)
    maximal = phi_xr_max(td, x0, F(1, 2), h2)
    pos_mult = next(rr for rr in restrict(td) if rr.cls == "multipliable" and rr.positive)
    a = pos_mult.key
    two_a = tuple(2 * c for c in a)
    neg_a = tuple(-c for c in a)
    assert maximal == frozenset({two_a, neg_a})


def test_weyl_character_a1_dims():
    a1 = twisted(build_datum("A1"))
    h = quotient_datum(a1, origin(a1))
    alpha = h.positive_roots[0]
    half = tuple(c / 2 for c in alpha)
    char, dim = weyl_character(h, half)
    assert dim == 2
    char, dim = weyl_character(h, tuple(2 * c for c in alpha))
    assert dim == 5
    assert weyl_dimension(h, tuple(2 * c for c in alpha)) == 5


def test_weyl_character_adjoint_a2():
    a2 = twisted(build_datum("A2"))
    h = quotient_datum(a2, origin(a2))
    theta = max(h.positive_roots, key=lambda r: sum(r))
    char, dim = weyl_character(h, theta)
    assert dim == 8
    zero = tuple(F(0) for _ in theta)
    assert char[zero] == 2
    for a in h.roots:
        assert char[a] == 1


def test_weyl_character_rejects_nondominant():
    a2 = twisted(build_datum("A2"))
    h = quotient_datum(a2, origin(a2))
    neg = tuple(-c for c in h.positive_roots[0])
    with pytest.raises(WeylModuleError):
        weyl_character(h, neg)


def test_weyl_character_invariant_under_weyl():
    g2 = twisted(build_datum("G2"))
    h = quotient_datum(g2, origin(g2))
    theta = max(h.positive_roots, key=lambda r: sum(r))
    char, dim = weyl_character(h, theta)
    assert dim == 14
    from parahoric.exactmath import pair, vec_scale, vec_sub

    for a, ac in zip(h.simple_roots, h.simple_coroots):
        for mu, m in char.items():
            refl = vec_sub(mu, vec_scale(pair(mu, ac), a))
            assert char.get(refl) == m


def test_decompose_split_a1_torus_case():
    a1 = twisted(build_datum("A1"))
    x = rho_point(a1, 2)
    dec = decompose(a1, x, F(1, 2))
    assert dec.dimensions_match()
    assert dec.total_dim == 2
    weights = sorted(w for w, _ in dec.items)
    assert len(weights) == 2
    assert weights[0] == tuple(-c for c in weights[1])


def test_decompose_2a2_half():
    td = td_2a2()
    dec = decompose(td, origin(td), F(1, 2))
    assert dec.dimensions_match()
    assert dec.total_dim == 5
    assert len(dec.items) == 1
    (w, mult), = dec.items
    assert mult == 1
    pos_mult = next(rr for rr in restrict(td) if rr.cls == "multipliable" and rr.positive)
    assert w == tuple(2 * c for c in pos_mult.key)
    assert dec.nondominant_maximal == frozenset({tuple(-c for c in pos_mult.key)})


def test_decompose_split_a2_integral_r():
    a2 = twisted(build_datum("A2"))
    dec = decompose(a2, origin(a2), 1)
    assert dec.dimensions_match()
    assert dec.total_dim == 8
    (w, mult), = dec.items
    assert mult == 1
    assert a2.base.height(tuple(int(c) for c in w)) == 2


def test_decompose_random_bookkeeping():
    rng = random.Random(31)
    data = [
        twisted(build_datum("A2")),
        twisted(build_datum("B2")),
        td_2a2(),
    ]
    for _ in range(30):
        td = rng.choice(data)
        coords = tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2))
        mat = td.twist.matrix
        from parahoric.exactmath import mat_vec

        fixed = tuple(
            F(a + b, 2) for a, b in zip(coords, mat_vec(mat, coords))
        )
        x = apartment_point(td, fixed)
        r = F(rng.randint(0, 12), rng.randint(1, 6))
        dec = decompose(td, x, r)
        assert dec.dimensions_match()
        assert dec.total_dim == mp_quotient(td, x, r).total_dim


def test_split_highest_weights_match_maximal_set():
    rng = random.Random(37)
    for desc in ("A2", "B2", "C3"):
        d = build_datum(desc)
        td = twisted(d)
        for _ in range(5):
            denom = rng.choice((2, 3, 4))
            coords = tuple(F(rng.randint(-3, 3), denom) for _ in range(d.rank))
            x = apartment_point(td, coords)
            r = F(rng.randint(1, denom * 2 - 1), denom)
            if r.denominator == 1:
                continue
            dec = decompose(td, x, r)
            assert dec.dimensions_match()
            weights = {w for w, _ in dec.items}
            assert weights == set(dec.maximal_set)
            assert all(m == 1 for _, m in dec.items)


def test_dominant_maximal_members_appear_as_highest_weights():
    from parahoric.weylmod import is_dominant_integral

    rng = random.Random(41)
    data = [twisted(build_datum("A2")), twisted(build_datum("B2")), td_2a2()]
    checked = 0
    for _ in range(40):
        td = rng.choice(data)
        from parahoric.exactmath import mat_vec

        coords = tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2))
        fixed = tuple(F(a + b, 2) for a, b in zip(coords, mat_vec(td.twist.matrix, coords)))
        x = apartment_point(td, fixed)
        r = F(rng.randint(0, 8), rng.randint(1, 4))
        dec = decompose(td, x, r)
        h = quotient_datum(td, x)
        tops = {w for w, _ in dec.items}
        for a in dec.maximal_set:
            if is_dominant_integral(h, a):
                assert a in tops
                checked += 1
    assert checked


def test_dominance_order_basics():
    a2 = twisted(build_datum("A2"))
    h = quotient_datum(a2, origin(a2))
    theta = max(h.positive_roots, key=lambda r: sum(r))
    a1 = h.simple_roots[0]
    assert dominance_ge(h, theta, a1)
    assert not dominance_ge(h, a1, theta)
    assert dominance_ge(h, a1, a1)


def test_split_span_check_examples():
    a2 = build_datum("A2")
    td = twisted(a2)
    x = rho_point(td, 3)
    assert split_span_check(a2, x, F(1, 3))

    g2 = build_datum("G2")
    tdg = twisted(g2)
    xg = apartment_point(tdg, tuple(c / 2 for c in g2.rho_check))
    assert split_span_check(g2, xg, F(1, 2))

    b2 = build_datum("B2")
    tdb = twisted(b2)
    xb = apartment_point(tdb, tuple(c / 2 for c in b2.rho_check))
    assert split_span_check(b2, xb, F(1, 2))


def test_split_span_check_rejects_integral_r():
    a2 = build_datum("A2")
    td = twisted(a2)
    with pytest.raises(WeylModuleError):
        split_span_check(a2, origin(td), 1)


# ---------------------------------------------------------------------------
# The Fraction kernel that the integer simple-root kernel replaced, kept as
# test-local oracles: Freudenthal's recursion on ambient Fraction vectors with
# the norm form summed over all coroots, dominant and antidominant
# representatives by simple reflections, Weyl orbits by reflection closure,
# the Weyl dimension formula on ambient coroots, and dominance by a rational
# solve.


def oracle_simple_data(h):
    return tuple(zip(h.simple_roots, h.simple_coroots))


def oracle_dominant_rep(h, mu):
    cur = tuple(F(c) for c in mu)
    moved = True
    while moved:
        moved = False
        for a, ac in oracle_simple_data(h):
            val = pair(cur, ac)
            if val < 0:
                cur = vec_sub(cur, vec_scale(val, a))
                moved = True
    return cur


def oracle_antidominant(h, mu):
    cur = mu
    moved = True
    while moved:
        moved = False
        for a, ac in oracle_simple_data(h):
            val = pair(cur, ac)
            if val > 0:
                cur = vec_sub(cur, vec_scale(val, a))
                moved = True
    return cur


def oracle_norm_form(h):
    def b(chi, psi):
        return sum((pair(chi, ac) * pair(psi, ac) for ac in h.coroots), F(0))

    return b


def oracle_weyl_orbit(h, mu):
    return frozenset(reflection_orbit(tuple(F(c) for c in mu), oracle_simple_data(h)))


def oracle_dominance_ge(h, nu, mu):
    diff = vec_sub(nu, mu)
    simples = h.simple_roots
    if not simples:
        return all(x == 0 for x in diff)
    rows = [[F(s[i]) for s in simples] for i in range(len(diff))]
    sol = solve_linear(rows, list(diff))
    if sol is None:
        return False
    recon = tuple(
        sum((c * F(s[i]) for c, s in zip(sol, simples)), F(0)) for i in range(len(diff))
    )
    if recon != tuple(F(x) for x in diff):
        return False
    return all(c >= 0 for c in sol)


def oracle_weyl_dimension(h, lam):
    rho = tuple(
        sum((F(a[i], 2) for a in h.positive_roots), F(0)) for i in range(len(lam))
    )
    dim = F(1)
    for a in h.positive_roots:
        ac = h.coroot_of(a)
        dim *= pair(vec_add(lam, rho), ac) / pair(rho, ac)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def oracle_weyl_character(h, lam):
    lam = tuple(F(c) for c in lam)
    if not is_dominant_integral(h, lam):
        raise WeylModuleError(f"weight {lam} is not dominant integral")
    if not h.roots:
        return {lam: 1}, 1
    b = oracle_norm_form(h)
    rho = tuple(
        sum((F(a[i], 2) for a in h.positive_roots), F(0)) for i in range(len(lam))
    )
    lam_norm = b(vec_add(lam, rho), vec_add(lam, rho))
    simples = h.simple_roots
    anti = oracle_antidominant(h, lam)
    rows = [[F(s[i]) for s in simples] for i in range(len(lam))]
    level_coords = solve_linear(rows, list(vec_sub(lam, anti)))
    depth = sum(level_coords)
    assert depth.denominator == 1
    max_level = int(depth)

    by_level = {0: {lam}}
    for level in range(1, max_level + 1):
        by_level[level] = {vec_sub(mu, a) for mu in by_level[level - 1] for a in simples}

    mult = {lam: 1}
    for level in range(1, max_level + 1):
        for mu in sorted(by_level[level]):
            if not is_dominant_integral(h, mu):
                continue
            mu_rho = vec_add(mu, rho)
            denom = lam_norm - b(mu_rho, mu_rho)
            if denom <= 0:
                continue
            acc = F(0)
            for a in h.positive_roots:
                k = 1
                while True:
                    nu = vec_add(mu, vec_scale(k, a))
                    nu_rho = vec_add(nu, rho)
                    if b(nu_rho, nu_rho) > lam_norm:
                        break
                    m_nu = mult.get(oracle_dominant_rep(h, nu), 0)
                    if m_nu:
                        acc += m_nu * b(nu, a)
                    k += 1
            val = 2 * acc / denom
            assert val.denominator == 1
            if val:
                mult[mu] = int(val)

    weights = {}
    for mu, m in mult.items():
        for nu in oracle_weyl_orbit(h, mu):
            weights[nu] = weights.get(nu, 0) + m
    dim = sum(weights.values())
    assert dim == oracle_weyl_dimension(h, lam)
    return weights, dim


def ambient_positive_keys(td):
    """The positive restricted roots: the ambient reading of maximality."""
    return tuple(rr.key for rr in restrict(td) if rr.positive)


def oracle_maximal(td, x, r, positives):
    """Members a of phi_xr with a + b outside phi_xr for every b in
    ``positives``, by Fraction sums."""
    support = phi_xr(td, x, r)
    return frozenset(a for a in support if not any(vec_add(a, b) in support for b in positives))


def oracle_decompose(td, x, r):
    """The decomposition by character subtraction on the oracles; also
    returns the oracle dominance on every ordered pair of the initial support
    and the characters subtracted."""
    r = F(r)
    h = quotient_datum(td, x)
    report = mp_quotient(td, x, r)
    weights = {}
    for key in report.root_part:
        weights[key] = weights.get(key, 0) + 1
    if report.torus_dim:
        zero = tuple(F(0) for _ in range(td.base.rank))
        weights[zero] = weights.get(zero, 0) + report.torus_dim
    ge = {(nu, mu): oracle_dominance_ge(h, nu, mu) for nu in weights for mu in weights}
    maximal = oracle_maximal(td, x, r, h.positive_roots)
    ambient = oracle_maximal(td, x, r, ambient_positive_keys(td))
    items = []
    chars = {}
    total = 0
    while weights:
        support = sorted(weights)
        tops = [
            mu
            for mu in support
            if not any(nu != mu and ge[nu, mu] for nu in support)
        ]
        mu = max(tops)
        count = weights[mu]
        char, dim = chars[mu] = oracle_weyl_character(h, mu)
        for nu, m in char.items():
            new = weights.get(nu, 0) - count * m
            assert new >= 0
            if new:
                weights[nu] = new
            else:
                weights.pop(nu, None)
        items.append((mu, count))
        total += count * dim
    dec = Decomposition(
        items=tuple(items),
        total_dim=total,
        quotient=report,
        maximal_set=maximal,
        nondominant_maximal=frozenset(a for a in maximal if not is_dominant_integral(h, a)),
        ambient_reading_differs=maximal != ambient,
    )
    return dec, ge, chars


def oracle_datum(name):
    if name in CATALOG:
        return catalog_datum(name), CATALOG[name]["rho_m"]
    d = build_datum(ORACLE_EXTRA[name][0])
    perm, lam, m = ORACLE_EXTRA[name][1:]
    return twisted(d, perm and build_automorphism(d, perm), lam), m


# name -> (Dynkin type, node permutation, lambda valuations, Coxeter number)
ORACLE_EXTRA = {
    "A4": ("A4", None, None, 5),
    "B3": ("B3", None, None, 6),
    "B4": ("B4", None, None, 8),
    "2A4": ("A4", (3, 2, 1, 0), None, 10),
    "2A2w": ("A2", (1, 0), {0: F(-1, 2)}, 6),
    "2A4w": ("A4", (3, 2, 1, 0), {0: F(-1, 2), 1: F(-1, 2)}, 10),
}


@pytest.mark.parametrize("name", catalog_ids() + tuple(ORACLE_EXTRA))
def test_integer_kernel_matches_fraction_oracle(name):
    td, m = oracle_datum(name)
    rng = random.Random(name)
    count = len(td.simple_keys)
    points = [origin(td), rho_point(td, m)] + [
        point_from_simple_coroots(
            td, [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(count)]
        )
        for _ in range(5)
    ]
    subtracted = 0
    for x in points:
        h = quotient_datum(td, x)
        for r in (first_jump(td, x), F(1, 2)):
            expected, ge, chars = oracle_decompose(td, x, r)
            assert decompose(td, x, r) == expected
            assert phi_xr_max(td, x, r, h) == expected.maximal_set
            ambient = ambient_positive_keys(td)
            assert phi_xr_max(td, x, r, h, ambient) == oracle_maximal(td, x, r, ambient)
            for (nu, mu), answer in ge.items():
                assert dominance_ge(h, nu, mu) == answer
            for mu, char in chars.items():
                assert weyl_character(h, mu) == char
                assert weyl_dimension(h, mu) == char[1]
                subtracted += 1
    assert subtracted


def assert_both_maximal_readings_match_the_oracle(td, x, r):
    """Both maximal readings of the all-shifts scan, by the positive roots of
    the quotient and by every positive restricted root, against
    ``oracle_maximal``'s Fraction sums; returns the size of the support."""
    h = quotient_datum(td, x)
    ambient = ambient_positive_keys(td)
    assert phi_xr_max(td, x, r, h) == oracle_maximal(td, x, r, h.positive_roots), (td, x, r)
    assert phi_xr_max(td, x, r, h, ambient) == oracle_maximal(td, x, r, ambient), (td, x, r)
    return len(phi_xr(td, x, r))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_maximal_sets_match_the_oracle_on_the_warm_sweep(seed):
    # every table of the warm sweep, at each of its jumps
    tables, compared = {}, 0  # the tables, held so that no id is reused
    for td, x in warm_sweep(seed):
        table = depth_table(td, x)
        if id(table) not in tables:
            tables[id(table)] = table
            compared += sum(
                assert_both_maximal_readings_match_the_oracle(td, x, r) for r in table.jumps()
            )
    assert compared and len(tables) > 200


@pytest.mark.parametrize("dynkin, m", [("E8", None), ("E8", 30), ("B6", 12)])
def test_both_maximal_sets_match_the_oracle_on_large_types(dynkin, m):
    td = twisted(build_datum(dynkin))
    x = origin(td) if m is None else named_point(td, "rho_over_m", m)
    depths = {first_jump(td, x), F(1, 2), *jump_values(td, x)[:4]}
    assert sum(assert_both_maximal_readings_match_the_oracle(td, x, r) for r in depths)


@pytest.mark.parametrize("name", ["B4", "2A4"])
def test_decompose_hashes_fractions_only_for_its_results(name, monkeypatch):
    # Inside decompose a weight is an integer key: once the quotient datum,
    # the depth table and the characters exist, the only Fraction hashes are
    # those of the returned weights entering the maximal sets.  The results
    # the table keeps are cleared first, so the decomposition is computed
    # again; serving the kept one (at a depth on the grid of the jumps)
    # hashes no Fraction at all.
    td, m = oracle_datum(name)
    rank = td.base.rank
    real = Fraction.__hash__
    calls = []

    def counting(self):
        calls.append(self)
        return real(self)

    seen = served = 0
    for x in (rho_point(td, m), origin(td)):
        for r in (first_jump(td, x), F(1, 2)):
            decompose(td, x, r)
            depth_table(td, x).results.clear()
            calls.clear()
            monkeypatch.setattr(Fraction, "__hash__", counting)
            dec = decompose(td, x, r)
            monkeypatch.undo()
            assert len(calls) <= rank * (len(dec.maximal_set) + len(dec.items)), (x, r)
            seen += len(calls)
            calls.clear()
            monkeypatch.setattr(Fraction, "__hash__", counting)
            kept = decompose(td, x, r)
            monkeypatch.undo()
            if ("decompose", r.numerator, r.denominator) in depth_table(td, x).results:
                assert kept is dec and not calls, (x, r)
                served += 1
            else:
                assert kept == dec, (x, r)
    assert seen and served  # the wrapper was live, and kept results served


def test_memoized_character_equals_a_fresh_one(monkeypatch):
    td = twisted(build_datum("B3"))
    for x in (origin(td), point_from_simple_coroots(td, (0, 0, F(1, 3)))):
        h = quotient_datum(td, x)
        dec = decompose(td, x, first_jump(td, x))
        memo = h.quotient_type.characters
        assert memo  # decompose filled the memo of the shared type
        assert mpquotient._TYPES[h.cartan] is h.quotient_type
        with monkeypatch.context() as m:  # built again, on empty memos
            m.setitem(vars(td), "results", {})
            m.setattr(mpquotient, "_TYPES", {})
            fresh = quotient_datum(td, x)
        assert fresh == h and fresh is not h and fresh.quotient_type is not h.quotient_type
        assert fresh.quotient_type == h.quotient_type and not fresh.quotient_type.characters
        for mu, _ in dec.items:
            cached = len(memo)
            assert weyl_character(h, mu) == weyl_character(fresh, mu)
            assert len(memo) == cached  # served from the memo
        assert fresh.quotient_type.characters.keys() <= memo.keys()


def test_sweep_builds_one_quotient_per_root_set(monkeypatch):
    # decompose, crosscheck and the verdict at 60 points share one datum per
    # depth-0 root set instead of building one per call.  The sweep runs
    # twice over the same points, forgetting the quotients before each; the
    # depth tables are held across both, with the decompositions the first
    # sweep kept on them, and must not serve a stale quotient: in each sweep
    # decompose and quotient_datum, called first at every point, build the
    # datum of each new root set and nothing else, and no datum of the first
    # sweep comes back in the second.
    from parahoric import mpquotient

    original = mpquotient.ReductiveQuotientDatum
    builds = []

    def counting(*args, **kwargs):
        builds.append(kwargs["roots"])
        return original(*args, **kwargs)

    monkeypatch.setattr(mpquotient, "ReductiveQuotientDatum", counting)
    td = twisted(build_datum("B3"))
    rng = random.Random("B3 sweep")
    points = [
        point_from_simple_coroots(td, [F(rng.randint(-12, 12), 4) for _ in range(3)])
        for _ in range(60)
    ]
    tables = [depth_table(td, x) for x in points]  # kept past the clear below
    sweeps = []
    for _ in range(2):
        td.results.clear()  # forget the quotients of earlier tests and sweeps
        builds.clear()
        root_sets = set()
        decompositions, data = [], []
        for x in points:
            before = len(builds)
            decompositions.append(decompose(td, x, first_jump(td, x)))
            data.append(quotient_datum(td, x))
            built = len(builds) - before
            roots = frozenset(data[-1].roots)
            assert built == (roots not in root_sets)
            assert crosscheck(td, x, point_order(td, x))
            stable_verdict(td, x)
            root_sets.add(roots)
        assert builds and len(builds) == len(root_sets) < 60
        sweeps.append((decompositions, data))
    (first, first_data), (second, second_data) = sweeps
    assert second == first
    assert all(a is not b for a, b in zip(first_data, second_data))
    assert len({id(t) for t in tables}) < 60  # points shared tables


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_tables_decompose_like_a_fresh_quotient_datum(seed, monkeypatch):
    # the shared quotient datum and its type (its characters, its coordinate
    # data) are filled by earlier points; a quotient datum built again with
    # an empty quotient memo and an empty type map must give the same answer
    fields = ("items", "maximal_set", "nondominant_maximal", "ambient_reading_differs")
    compared = 0
    for td, x in warm_sweep(seed, 20):
        for r in (first_jump(td, x), F(1, 2)):
            decompose(td, x, r)
            warm = decompose(td, x, r)
            h = quotient_datum(td, x)
            with monkeypatch.context() as m:
                m.setitem(vars(td), "results", {})
                m.setattr(mpquotient, "_TYPES", {})
                depth_table(td, x).results.clear()  # so decompose reads fresh
                cold = decompose(td, x, r)
                fresh = quotient_datum(td, x)
                assert fresh == h and fresh is not h
                assert fresh.quotient_type is not h.quotient_type
            assert quotient_datum(td, x) is h
            assert cold is not warm  # computed again, with fresh
            assert [getattr(cold, f) for f in fields] == [getattr(warm, f) for f in fields]
            assert cold == warm
            compared += 1
    assert compared >= 16 * 20 * 2


# ---------------------------------------------------------------------------
# Quotient types: the quotient data with one Cartan matrix share one
# QuotientType for the process, its inverse and its characters.  Every shared
# value must equal one computed from scratch for each datum of the type: a
# standalone datum of the same roots, which makes its own type, inverse and
# characters under an empty type map.

# name -> (Dynkin type, node permutation), checked at the origin and at rho_check/h
TYPE_EXTRA = {
    "F4": ("F4", None),
    "B6": ("B6", None),
    "E6": ("E6", None),
    "E7": ("E7", None),
    "E8": ("E8", None),
    "2E6": ("E6", (5, 1, 4, 3, 2, 0)),
    "3D4": ("D4", (2, 1, 3, 0)),
}


def weight_of_labels(h, top, dim):
    """The weight in the root span of h, of ambient dimension ``dim``, with
    Dynkin labels ``top``: sum c_i alpha_i with C c = top, by a rational
    solve."""
    c = solve_linear([[F(x) for x in row] for row in h.cartan], [F(t) for t in top]) if top else ()
    return tuple(sum((ci * a[i] for ci, a in zip(c, h.simple_roots)), F(0)) for i in range(dim))


def quotients(td):
    """The quotient data kept on td, one per depth-0 root set."""
    return [h for (reader, _), h in td.results.items() if reader == "quotient"]


def assert_types_match_scratch(td):
    """The type of each quotient datum of td against the datum computed
    from scratch."""
    checked = 0
    for h in quotients(td):
        kind = h.quotient_type
        assert mpquotient._TYPES[h.cartan] is kind
        scratch = ReductiveQuotientDatum(**{f: getattr(h, f) for f in h._fields})
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mpquotient, "_TYPES", {})
            own = scratch.quotient_type
        assert own is not kind and not own.characters
        den, inverse = kind.inverse
        assert kind.inverse == own.inverse
        assert [[pair(row, col) for col in zip(*inverse)] for row in h.cartan] == [
            [den * (i == j) for j in range(len(h.cartan))] for i in range(len(h.cartan))
        ]
        assert (kind.cartan, kind.half_norms) == (h.cartan, h.half_norms)
        assert kind.positive_coordinates == tuple(sorted(h.positive_coordinates))
        for top, (mult, dim) in list(kind.characters.items()):
            lam = weight_of_labels(h, top, td.base.rank)
            assert tuple(pair(lam, ac) for ac in h.simple_coroots) == top
            assert weyl_character(scratch, lam) == weyl_character(h, lam)
            assert own.characters[top] == (mult, dim)
            assert weyl_dimension(h, lam) == oracle_weyl_dimension(h, lam) == dim
            checked += 1
    return checked


def test_warm_quotient_types_match_scratch():
    # every type the seed 0-2 warm sweeps meet
    child = perfbench_module("child")
    import parahoric

    tds, checked = set(), 0
    for seed in (0, 1, 2):
        for td, x in warm_sweep(seed):
            child.sweep_point(parahoric, td, x, len(td.base.roots) + td.base.rank)
            tds |= {td, twisted(td.base, td.twist)}
    for td in tds:
        checked += assert_types_match_scratch(td)
    data = [h for td in tds for h in quotients(td)]
    types = {id(h.quotient_type) for h in data}
    assert len(data) > len(types) == len({h.cartan for h in data})  # one type per matrix
    assert checked >= 94


@pytest.mark.parametrize("name", tuple(TYPE_EXTRA))
def test_large_quotient_types_match_scratch(name):
    desc, perm = TYPE_EXTRA[name]
    d = build_datum(desc)
    td = twisted(d, perm and build_automorphism(d, perm))
    for x in (origin(td), rho_point(td, len(d.roots) // d.rank)):
        for r in (first_jump(td, x), F(1, 2)):
            decompose(td, x, r)
    assert assert_types_match_scratch(td) >= 2


def test_a_datum_that_differs_from_its_type_is_refused(monkeypatch):
    td = twisted(build_datum("B3"))
    x = origin(td)
    h = quotient_datum(td, x)
    kind = h.quotient_type
    forged = {
        "half norms": QuotientType(
            kind.cartan, tuple(2 * d for d in kind.half_norms), kind.positive_coordinates
        ),
        "positive coordinates": QuotientType(
            kind.cartan, kind.half_norms, kind.positive_coordinates[1:]
        ),
    }
    for what, bad in forged.items():
        with monkeypatch.context() as m:
            m.setitem(mpquotient._TYPES, h.cartan, bad)
            scratch = ReductiveQuotientDatum(**{f: getattr(h, f) for f in h._fields})
            with pytest.raises(QuotientError, match="differ"):
                scratch.quotient_type
            m.setitem(vars(td), "results", {})
            with pytest.raises(QuotientError, match="differ"):
                quotient_datum(td, x)
            assert not td.results, what  # a failed check is not kept
    assert quotient_datum(td, x) is h and h.quotient_type is kind is mpquotient._TYPES[h.cartan]


def test_a_warm_pass_computes_each_shared_result_once(monkeypatch):
    # The seed-0 warm pass, the benchmark's own per-point work, on empty
    # type, depth-table and translation-class memos and with only the
    # witnesses left in each datum's results: Freudenthal runs once per
    # (type, top labels), the integer inverse once per Cartan matrix, the
    # quotient datum once per (datum, depth-0 root set), the verdict's span
    # rank once per (depth table, jump), the decomposition once per (depth
    # table, first jump), the whole crosscheck (its grading and its column)
    # and the alcove reduction at most once per translation class, counted
    # here by the Fraction oracle.  Every datum
    # still runs its own checks, and every character computed is checked
    # against the Weyl dimension formula.
    import parahoric
    from parahoric import echelonnage, exactmath, stability, vinberg

    child = perfbench_module("child")
    points = list(warm_sweep(0))
    tds = {t for td, _ in points for t in (td, twisted(td.base, td.twist))}
    calls = {
        "freudenthal": 0, "dimension": 0, "inverse": 0, "rank": 0,
        "graded": 0, "column": 0, "reduce": 0, "decompose": 0, "quotient": 0,
    }

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    asked, held = set(), []

    def character(h, top):
        held.append(h)
        asked.add((id(h.quotient_type), top))
        return real_character(h, top)

    real_character = weylmod._character
    # the witnesses are per-datum results outside this count, and their seeds
    # (a power of the twisted Coxeter element or of a table word; the walk of
    # W only on some sums) test ellipticity by a rank: made first and kept
    for td, x in points:
        if point_order(td, x) in td.regular_orders:
            regular_witness(td, point_order(td, x))
    translation_class.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(mpquotient, "_TYPES", {})
        for td in tds:
            witnesses = {k: v for k, v in td.results.items() if k[0] == "witness"}
            m.setitem(vars(td), "results", witnesses)
            m.setitem(vars(td), "depth_tables", type(td.depth_tables)())
            m.setitem(vars(td), "translation_classes", type(td.translation_classes)())
        m.setattr(weylmod, "_freudenthal", counting("freudenthal", weylmod._freudenthal))
        m.setattr(weylmod, "_dimension", counting("dimension", weylmod._dimension))
        m.setattr(weylmod, "_character", character)
        m.setattr(weylmod, "_decompose", counting("decompose", weylmod._decompose))
        m.setattr(mpquotient, "integer_inverse", counting("inverse", exactmath.integer_inverse))
        m.setattr(mpquotient, "_checked", counting("quotient", mpquotient._checked))
        m.setattr(stability, "matrix_rank", counting("rank", exactmath.matrix_rank))
        m.setattr(vinberg, "_graded", counting("graded", vinberg._graded))
        m.setattr(echelonnage.DepthTable, "column", counting("column", echelonnage.DepthTable.column))
        m.setattr(echelonnage, "alcove_reduce", counting("reduce", echelonnage.alcove_reduce))
        spans, jumps = set(), set()
        for td, x in points:
            result = child.sweep_point(parahoric, td, x, len(td.base.roots) + td.base.rank)
            # a (table, jump) pair by the table's binning: no table is held
            # here, so a table dropped and binned again would count twice
            table = depth_table(td, x)
            binned = (td, table.order, tuple(sorted(table.roots.items())), first_jump(td, x))
            jumps.add(binned)
            if result["verdict"]:
                spans.add(binned)
        data = [h for td in tds for h in quotients(td)]
        types = len(mpquotient._TYPES)
    translation_class.cache_clear()  # its classes are not in the restored intern maps
    assert 0 < calls["freudenthal"] == len(asked) <= 63
    assert calls["dimension"] == calls["freudenthal"]
    assert calls["inverse"] == types == len({id(h.quotient_type) for h in data}) <= 30
    assert types == len({h.cartan for h in data})  # one type per Cartan matrix
    assert 0 < calls["rank"] == len(spans) <= 51
    assert 0 < calls["decompose"] == len(jumps)
    assert calls["quotient"] == len(data) == 204 > types
    checks = ("cartan", "half_norms", "positive_coordinates", "quotient_type")
    assert all(name in vars(h) for h in data for name in checks)
    # the classes of the points graded (the tame shifts) and of the points
    # reduced (the sweep's points and the barycenter of each point order)
    tame = [(td, x) if td.is_tame else companion_shift(td, x) for td, x in points]
    references = {(td, named_point(td, "rho_over_m", point_order(td, x))) for td, x in points}
    graded = {(td, translation_representative(td, x)) for td, x in tame}
    reduced = {(td, translation_representative(td, x)) for td, x in {*points, *references}}
    assert len(points) == 960 and len(set(points)) == 826 and len(graded) == 351
    assert 0 < calls["column"] <= len(graded)  # the crosscheck is kept whole per class
    assert 0 < calls["graded"] <= len(graded)
    assert calls["graded"] == calls["column"]
    assert 0 < calls["reduce"] <= len(reduced) < len(set(points))
