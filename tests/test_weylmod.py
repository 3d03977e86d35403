import random
from fractions import Fraction

import pytest

from parahoric.echelonnage import (
    apartment_point,
    origin,
    restrict,
    twisted,
)
from parahoric.mpquotient import mp_quotient, quotient_datum
from parahoric.rootdata import build_automorphism, build_datum
from parahoric.weylmod import (
    WeylModuleError,
    ambient_positive_keys,
    decompose,
    dominance_ge,
    phi_xr,
    phi_xr_max,
    split_span_check,
    weyl_character,
    weyl_dimension,
)

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
