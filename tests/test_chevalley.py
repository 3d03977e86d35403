import itertools
import random
from fractions import Fraction

import pytest

from parahoric.chevalley import (
    exp_ad,
    orbit_sign,
    pinned_automorphism,
    structure_constants,
)
from parahoric.exactmath import mat_vec
from parahoric.rootdata import build_automorphism, build_datum, identity_automorphism

F = Fraction


def jacobi_holds(alg):
    labels = alg.labels
    for a, b, c in itertools.combinations(labels, 3):
        ea, eb, ec = (alg.basis_element(l) for l in (a, b, c))
        total = {}
        for u, v, w in ((ea, eb, ec), (eb, ec, ea), (ec, ea, eb)):
            term = alg.bracket(alg.bracket(u, v), w)
            for l, x in term.items():
                val = total.get(l, 0) + x
                if val:
                    total[l] = val
                elif l in total:
                    del total[l]
        if total:
            return False
    return True


def test_a1_sl2_relations():
    d = build_datum("A1")
    alg = structure_constants(d)
    assert alg.dimension == 3
    alpha = d.simple_roots[0]
    e = alg.x(alpha)
    f = alg.x(tuple(-x for x in alpha))
    h = alg.bracket(e, f)
    assert h == {("h", 0): 1}
    assert alg.bracket(h, e) == {("x", alpha): 2}
    assert alg.bracket(h, f) == {("x", tuple(-x for x in alpha)): -2}


def test_a2_constants_and_jacobi():
    d = build_datum("A2")
    alg = structure_constants(d)
    a1, a2 = d.simple_roots
    n = alg.structure_constant(a1, a2)
    assert n in (1, -1)
    assert alg.structure_constant(a2, a1) == -n
    assert jacobi_holds(alg)


def test_g2_has_large_constants():
    d = build_datum("G2")
    alg = structure_constants(d)
    values = set()
    for alpha in d.roots:
        for beta in d.roots:
            values.add(abs(alg.structure_constant(alpha, beta)))
    assert 2 in values and 3 in values
    assert jacobi_holds(alg)


def test_antisymmetry_and_opposite_rule():
    d = build_datum("B2")
    alg = structure_constants(d)
    neg = lambda r: tuple(-x for x in r)
    for alpha in d.roots:
        for beta in d.roots:
            n = alg.structure_constant(alpha, beta)
            assert alg.structure_constant(beta, alpha) == -n
            assert alg.structure_constant(neg(alpha), neg(beta)) == -n


def test_exp_ad_identity_at_zero():
    d = build_datum("A2")
    alg = structure_constants(d)
    op = exp_ad(alg, d.simple_roots[0], 0)
    for label in alg.labels:
        assert op.apply(alg.basis_element(label)) == alg.basis_element(label)


def test_exp_ad_sl2_expansion():
    d = build_datum("A1")
    alg = structure_constants(d)
    alpha = d.simple_roots[0]
    neg = tuple(-x for x in alpha)
    t = F(3, 2)
    out = exp_ad(alg, alpha, t).apply(alg.x(neg))
    assert out == {("x", neg): 1, ("h", 0): t, ("x", alpha): -t * t}


def test_exp_ad_is_automorphism():
    d = build_datum("B2")
    alg = structure_constants(d)
    rng = random.Random(2)
    labels = list(alg.labels)
    pool = [F(1), F(-1), F(1, 2), F(2), F(-1, 3)]
    for _ in range(100):
        root = rng.choice(d.roots)
        t = rng.choice(pool)
        op = exp_ad(alg, root, t)
        u = {rng.choice(labels): F(rng.randint(-3, 3))}
        v = {rng.choice(labels): F(rng.randint(-3, 3))}
        lhs = op.apply(alg.bracket(u, v))
        rhs = alg.bracket(op.apply(u), op.apply(v))
        assert lhs == rhs


def test_weyl_triple_normalizes_cartan():
    for desc in ("A2", "B2"):
        d = build_datum(desc)
        alg = structure_constants(d)
        for idx in d.simple_indices:
            alpha = d.roots[idx]
            acheck = d.coroots[idx]
            neg = tuple(-x for x in alpha)
            ops = (exp_ad(alg, alpha, 1), exp_ad(alg, neg, -1), exp_ad(alg, alpha, 1))

            def act(elt):
                for op in ops:
                    elt = op.apply(elt)
                return elt

            for i in range(d.rank):
                img = act(alg.basis_element(("h", i)))
                assert all(l[0] == "h" for l in img)
            for beta in d.roots:
                img = act(alg.x(beta))
                (label, coeff), = img.items()
                from parahoric.exactmath import pair

                reflected = tuple(
                    b - pair(beta, acheck) * a for a, b in zip(alpha, beta)
                )
                assert label == ("x", reflected)
                assert coeff in (1, -1)


def test_pinned_identity_is_identity():
    d = build_datum("A2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    assert pinned.order == 1
    assert all(s == 1 for s in pinned.signs.values())


def test_pinned_a2_swap_sign():
    d = build_datum("A2")
    alg = structure_constants(d)
    auto = build_automorphism(d, (1, 0))
    pinned = pinned_automorphism(alg, auto)
    a1, a2 = d.simple_roots
    theta = tuple(x + y for x, y in zip(a1, a2))
    n12 = alg.structure_constant(a1, a2)
    n21 = alg.structure_constant(a2, a1)
    assert pinned.signs[theta] == n21 // n12 == -1
    assert orbit_sign(alg, pinned, a1) == 1
    assert orbit_sign(alg, pinned, theta) == pinned.signs[theta]
    assert pinned.order == 2


def test_pinned_d4_triality_order():
    d = build_datum("D4")
    alg = structure_constants(d)
    auto = build_automorphism(d, (2, 1, 3, 0))
    pinned = pinned_automorphism(alg, auto)
    assert pinned.order == 3
    ident = {r: 1 for r in d.roots}
    for root in d.roots:
        elt = alg.x(root)
        for _ in range(3):
            elt = pinned.apply(elt)
        assert elt == alg.x(root)


def test_orbit_signs_untwisted_positive():
    d = build_datum("A3")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    for root in d.roots:
        assert orbit_sign(alg, pinned, root) == 1


def powered_order_and_signs(pinned, roots):
    """The order of the lift by applying it to every root vector until all
    return unsigned, and each root's orbit sign by walking its twist orbit:
    the loops that the cycle decomposition of the roots replaced."""
    def image(r):
        return mat_vec(pinned.twist.matrix, r)

    current, order = {r: (r, 1) for r in roots}, 0
    while order == 0 or any(img != r or sign != 1 for r, (img, sign) in current.items()):
        order += 1
        assert order <= 4 * pinned.twist.order
        current = {r: (image(img), sign * pinned.signs[img]) for r, (img, sign) in current.items()}
    signs = {}
    for root in roots:
        sign, cur = pinned.signs[root], image(root)
        while cur != root:
            sign, cur = sign * pinned.signs[cur], image(cur)
        signs[root] = sign
    return order, signs


@pytest.mark.parametrize("desc,perm", [
    ("A2", (1, 0)),
    ("A4", (3, 2, 1, 0)),
    ("D4", (2, 1, 3, 0)),
    ("E6", (5, 1, 4, 3, 2, 0)),
    ("A2+A2", (2, 3, 1, 0)),
    ("A2+A2", (1, 0, 3, 2)),
    ("A3+A3", (3, 4, 5, 2, 1, 0)),
])
def test_pinned_order_and_orbit_signs_from_the_root_cycles(desc, perm):
    d = build_datum(desc)
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, build_automorphism(d, perm))
    order, signs = powered_order_and_signs(pinned, d.roots)
    assert pinned.order == order
    assert {r: orbit_sign(alg, pinned, r) for r in d.roots} == signs
