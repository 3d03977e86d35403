import random
from math import factorial

import pytest

from matrix_oracle import dual_action
from parahoric import rootdata
from parahoric.exactmath import mat_vec, matrix_order, pair
from parahoric.rootdata import (
    RootDatumError,
    build_automorphism,
    build_datum,
    classical_root_count,
    cycles,
    factor_orbits,
    identity_automorphism,
    parse_descriptor,
    weyl_elements,
    weyl_walk,
)

# |W| per simple type in closed form: the oracle for ``RootDatum.weyl_order``,
# the product of the degrees
WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def classical_weyl_order(descriptor: str) -> int:
    out = 1
    for letter, rank in parse_descriptor(descriptor):
        out *= WEYL_ORDERS[letter](rank)
    return out


def test_a1_adjoint():
    d = build_datum("A1")
    assert set(d.roots) == {(1,), (-1,)}
    alpha = d.simple_roots[0]
    assert pair(alpha, d.coroot_of(alpha)) == 2


def test_a2_cartan_pairings():
    d = build_datum("A2")
    assert len(d.roots) == 6
    a1, a2 = d.simple_roots
    c1, c2 = d.simple_coroots
    assert pair(a1, c1) == 2 and pair(a2, c2) == 2
    assert pair(a1, c2) == -1 and pair(a2, c1) == -1


def test_g2_long_short():
    d = build_datum("G2")
    assert len(d.roots) == 12
    a1, a2 = d.simple_roots
    c1, c2 = d.simple_coroots
    off_diagonal = {pair(a1, c2), pair(a2, c1)}
    assert off_diagonal == {-1, -3}


@pytest.mark.parametrize(
    "descriptor",
    ["A1", "A4", "B2", "B4", "C3", "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2", "A2+A2"],
)
def test_root_counts_and_invariants(descriptor):
    d = build_datum(descriptor)
    assert len(d.roots) == classical_root_count(descriptor)
    rootset = set(d.roots)
    for r in d.roots:
        assert tuple(-x for x in r) in rootset
        assert tuple(2 * x for x in r) not in rootset
        coeff = d.coeffs[d.root_index[r]]
        assert all(c >= 0 for c in coeff) or all(c <= 0 for c in coeff)
    for alpha, acheck in zip(d.simple_roots, d.simple_coroots):
        for r in d.roots:
            refl = tuple(a - pair(r, acheck) * b for a, b in zip(r, alpha))
            assert refl in rootset


def test_simply_connected_convention():
    d = build_datum("A2", "simply_connected")
    assert set(d.simple_coroots) == {(1, 0), (0, 1)}
    for r, cr in zip(d.roots, d.coroots):
        assert pair(r, cr) == 2


@pytest.mark.parametrize(
    "descriptor,order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("D4", 192)]
)
def test_weyl_sizes(descriptor, order):
    d = build_datum(descriptor)
    assert len(weyl_elements(d)) == order == classical_weyl_order(descriptor) == d.weyl_order


@pytest.mark.parametrize(
    "descriptor,degrees",
    [
        ("A4", (2, 3, 4, 5)),
        ("B5", (2, 4, 6, 8, 10)),
        ("C3", (2, 4, 6)),
        ("D4", (2, 4, 4, 6)),
        ("D5", (2, 4, 5, 6, 8)),
        ("D6", (2, 4, 6, 6, 8, 10)),
        ("E6", (2, 5, 6, 8, 9, 12)),
        ("E7", (2, 6, 8, 10, 12, 14, 18)),
        ("E8", (2, 8, 12, 14, 18, 20, 24, 30)),
        ("F4", (2, 6, 8, 12)),
        ("G2", (2, 6)),
    ],
)
def test_degrees_from_root_heights(descriptor, degrees):
    for isogeny in ("adjoint", "simply_connected"):
        ((letter, nodes, found),) = build_datum(descriptor, isogeny).factors
        assert found == degrees and letter == descriptor[0] and len(nodes) == len(degrees)


def test_degree_products_are_the_weyl_orders():
    ranges = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (3, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    for letter, (lo, hi) in ranges.items():
        for rank in range(lo, hi + 1):
            descriptor = f"{letter}{rank}"
            product = 1
            for _, _, degrees in build_datum(descriptor).factors:
                for d in degrees:
                    product *= d
            assert product == classical_weyl_order(descriptor) == build_datum(descriptor).weyl_order
    assert build_datum("A2+B3").weyl_order == classical_weyl_order("A2+B3") == 6 * 48
    factors = build_datum("A2+B3").factors
    assert [(f[0], f[1], f[2]) for f in factors] == [("A", range(0, 2), (2, 3)), ("B", range(2, 5), (2, 4, 6))]


def test_weyl_walk_is_by_length():
    d = build_datum("B3")
    lengths = [sum(1 for r in d.positive_roots if not d.is_positive(mat_vec(w, r))) for w in weyl_walk(d)]
    assert lengths == sorted(lengths) and len(lengths) == classical_weyl_order("B3")



def test_weyl_cap_checked_before_enumerating(monkeypatch):
    # |W(E7)| = 2903040 is known in closed form, so the size of a regular class,
    # |W| over its centralizer, is weighed against CLASS_LIMIT before any
    # element is built; enumerating W(E7) would take minutes
    def refuse(*args, **kwargs):
        raise AssertionError("weyl_walk called")

    monkeypatch.setattr(rootdata, "weyl_walk", refuse)
    assert build_datum("E7").weyl_order == 2903040
    assert build_datum("A2").weyl_order == 6
    monkeypatch.undo()
    assert len(weyl_elements(build_datum("A2"))) == 6

@pytest.mark.parametrize(
    "descriptor,perm,orbits",
    [
        ("A2", (1, 0), [(0, 1, (1, 0))]),
        ("D4+A3", None, [(0, 1, (0, 1, 2, 3)), (1, 1, (0, 1, 2))]),
        # a swap of two factors: the return twist is the identity
        ("A2+A2", (2, 3, 0, 1), [(0, 2, (0, 1))]),
        # a swap that flips one factor on the way: the return twist flips it
        ("A2+A2", (2, 3, 1, 0), [(0, 2, (1, 0))]),
        ("A1+D4+D4+D4", (0, *range(5, 13), *range(1, 5)), [(0, 1, (0,)), (1, 3, (0, 1, 2, 3))]),
    ],
)
def test_factor_orbits(descriptor, perm, orbits):
    d = build_datum(descriptor)
    auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
    assert factor_orbits(d, auto) == orbits


def test_weyl_preserves_roots_and_pairing():
    d = build_datum("B2")
    rootset = set(d.roots)
    elements = weyl_elements(d)
    rng = random.Random(11)
    for w in elements:
        assert {mat_vec(w, r) for r in d.roots} == rootset
    for _ in range(100):
        w = rng.choice(elements)
        wd = dual_action(w)
        chi = tuple(rng.randint(-4, 4) for _ in range(d.rank))
        mu = tuple(rng.randint(-4, 4) for _ in range(d.rank))
        assert pair(mat_vec(w, chi), mat_vec(wd, mu)) == pair(chi, mu)


def test_weyl_orbits_partition_roots():
    d = build_datum("G2")
    elements = weyl_elements(d)
    seen = set()
    orbits = 0
    for r in d.roots:
        if r in seen:
            continue
        orbit = {mat_vec(w, r) for w in elements}
        assert not orbit & seen
        seen |= orbit
        orbits += 1
    assert seen == set(d.roots)
    assert orbits == 2


def test_a2_swap_automorphism():
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    assert auto.order == 2
    a1, a2 = d.simple_roots
    assert mat_vec(auto.matrix, a1) == a2
    theta = tuple(x + y for x, y in zip(a1, a2))
    assert mat_vec(auto.matrix, theta) == theta
    assert matrix_order(auto.matrix) == 2
    ident = identity_automorphism(d)
    assert ident.order == 1 and ident.is_identity


def test_d4_triality_orbits():
    d = build_datum("D4")
    auto = build_automorphism(d, (2, 1, 3, 0))
    assert auto.order == 3
    seen = set()
    sizes = []
    for r in d.roots:
        if r in seen:
            continue
        orbit = {r}
        cur = mat_vec(auto.matrix, r)
        while cur not in orbit:
            orbit.add(cur)
            cur = mat_vec(auto.matrix, cur)
        seen |= orbit
        sizes.append(len(orbit))
    assert sorted(sizes) == [1] * 6 + [3] * 6


def test_cycles_in_walk_order_by_least_member():
    assert cycles([]) == []
    assert cycles([0]) == [(0,)]
    # 0 -> 3 -> 1 -> 0, 2 fixed, 4 <-> 5
    assert cycles([3, 0, 2, 1, 5, 4]) == [(0, 3, 1), (2,), (4, 5)]
    rng = random.Random(5)
    for _ in range(50):
        perm = list(range(rng.randint(1, 12)))
        rng.shuffle(perm)
        found = cycles(perm)
        assert sorted(i for c in found for i in c) == list(range(len(perm)))
        assert [c[0] for c in found] == sorted(min(c) for c in found)
        for c in found:
            assert all(perm[a] == b for a, b in zip(c, c[1:] + c[:1]))


def test_twist_orders_and_spectra_from_cycles():
    d = build_datum("D4")
    triality = build_automorphism(d, (2, 1, 3, 0))
    assert cycles(triality.permutation) == [(0, 2, 3), (1,)]
    assert triality.order == 3 and triality.spectrum == {1: 2, 3: 1}
    a2a2 = build_automorphism(build_datum("A2+A2"), (2, 3, 1, 0))
    assert cycles(a2a2.permutation) == [(0, 2, 1, 3)]
    assert a2a2.order == 4 and a2a2.spectrum == {1: 1, 2: 1, 4: 1}


def test_bad_automorphism_rejected():
    d = build_datum("A3")
    with pytest.raises(RootDatumError):
        build_automorphism(d, (1, 0, 2))
    build_automorphism(d, (2, 1, 0))


def test_unknown_type_rejected():
    with pytest.raises(RootDatumError):
        build_datum("H3")
    with pytest.raises(RootDatumError):
        build_datum("A9")
    with pytest.raises(RootDatumError):
        build_datum("A2", "weird")


def test_datum_hash_is_stable_and_agrees_with_equality():
    from parahoric.echelonnage import twisted
    from parahoric.rootdata import RootDatum

    d = build_datum("E8")
    copy = RootDatum(*(getattr(d, name) for name in RootDatum._fields))
    assert copy == d and copy is not d
    assert hash(copy) == hash(d) == hash(d) == hash(tuple(getattr(d, n) for n in d._fields))
    td = twisted(d)
    assert twisted(copy) == td and hash(twisted(copy)) == hash(td) == hash(td)
    assert hash(td) == hash(tuple(getattr(td, n) for n in td._fields))
    other = build_datum("E7")
    assert other != d and twisted(other) != td
