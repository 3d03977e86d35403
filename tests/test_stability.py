from fractions import Fraction
from math import lcm

import pytest

from parahoric.catalog import CATALOG
from parahoric.echelonnage import apartment_point, origin, twisted
from parahoric.exactmath import cyclotomic_multiplicities, identity_matrix, mat_mul
from parahoric.rootdata import (
    build_automorphism,
    build_datum,
    identity_automorphism,
    weyl_elements,
)
from parahoric.stability import (
    StabilityError,
    acts_freely_on_roots,
    elliptic_zregular_orders,
    is_semisimple,
    stable_verdict,
    zregularity_criteria_agree,
)

F = Fraction

COXETER_NUMBERS = {
    "A1": 2,
    "A2": 3,
    "A3": 4,
    "A4": 5,
    "B2": 4,
    "B3": 6,
    "B4": 8,
    "C3": 6,
    "C4": 8,
    "D4": 6,
    "F4": 12,
    "G2": 6,
}


def rho_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def test_a1_orders():
    d = build_datum("A1")
    orders = elliptic_zregular_orders(d, identity_automorphism(d))
    assert set(orders) == {2}
    w = orders[2]
    assert w == ((-1,),)


def test_a2_orders_no_order_two():
    d = build_datum("A2")
    orders = elliptic_zregular_orders(d, identity_automorphism(d))
    assert 3 in orders
    assert 2 not in orders


def test_2a2_orders_exactly_two_and_six():
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    orders = elliptic_zregular_orders(d, auto)
    assert set(orders) == {2, 6}
    minus_one = tuple(tuple(-1 if i == j else 0 for j in range(2)) for i in range(2))
    assert orders[2] == minus_one


@pytest.mark.parametrize("desc", sorted(COXETER_NUMBERS))
def test_coxeter_number_detected(desc):
    d = build_datum(desc)
    orders = elliptic_zregular_orders(d, identity_automorphism(d))
    assert COXETER_NUMBERS[desc] in orders


def test_criteria_agree_small_cosets():
    cases = [
        ("A1", None),
        ("A2", None),
        ("A2", (1, 0)),
        ("A3", None),
        ("A3", (2, 1, 0)),
        ("B2", None),
        ("C3", None),
    ]
    for desc, perm in cases:
        d = build_datum(desc)
        auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
        assert zregularity_criteria_agree(d, auto)


def test_stable_verdict_split_a1():
    td = twisted(build_datum("A1"))
    verdict = stable_verdict(td, rho_point(td, 2))
    assert verdict.verdict
    assert verdict.m == 2
    assert verdict.conjugacy_ok and verdict.depth_ok and verdict.regular_ok
    assert verdict.witness == ((-1,),)
    assert verdict.first_jump == F(1, 2)


def test_stable_verdict_split_a2_edge_barycenter_false():
    td = twisted(build_datum("A2"))
    verdict = stable_verdict(td, rho_point(td, 2))
    assert not verdict.verdict
    assert verdict.conjugacy_ok and verdict.depth_ok
    assert not verdict.regular_ok


def test_stable_verdict_split_a2_coxeter_point():
    td = twisted(build_datum("A2"))
    verdict = stable_verdict(td, rho_point(td, 3))
    assert verdict.verdict
    assert verdict.m == 3


def test_stable_verdict_translated_point():
    td = twisted(build_datum("A2"))
    x = rho_point(td, 3)
    coroot = td.base.simple_coroots[0]
    moved = apartment_point(td, tuple(a + 2 * b for a, b in zip(x.coords, coroot)))
    verdict = stable_verdict(td, moved)
    assert verdict.verdict and verdict.m == 3


def test_stable_verdict_2a2():
    d = build_datum("A2")
    td = twisted(d, build_automorphism(d, (1, 0)))
    x = rho_point(td, 2)
    verdict = stable_verdict(td, x)
    assert verdict.m == 2
    assert verdict.regular_ok
    verdict6 = stable_verdict(td, rho_point(td, 6))
    assert verdict6.m == 6
    assert verdict6.verdict


def test_semisimple_guard():
    assert is_semisimple(build_datum("B2"))


# ---------------------------------------------------------------------------
# brute-force oracles: the plain matrix-product Weyl closure and the
# charpoly-per-element coset scan that the fast paths replace


def reference_weyl_elements(datum):
    n = datum.rank
    gens = [
        tuple(
            tuple((1 if i == j else 0) - alpha[i] * acheck[j] for j in range(n))
            for i in range(n)
        )
        for alpha, acheck in zip(datum.simple_roots, datum.simple_coroots)
    ]
    found = {identity_matrix(n)}
    frontier = list(found)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                prod = mat_mul(g, w)
                if prod not in found:
                    found.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(found))


def reference_zregular_orders(datum, twist):
    witnesses = {}
    for w in reference_weyl_elements(datum):
        a = mat_mul(w, twist.matrix)
        mult = cyclotomic_multiplicities(a)
        if mult.get(1, 0):
            continue
        order = lcm(*mult)
        if not acts_freely_on_roots(a, datum, order):
            continue
        if order not in witnesses or a < witnesses[order]:
            witnesses[order] = a
    return witnesses


ORACLE_COSETS = [
    (info["dynkin"], info["automorphism"]) for _, info in sorted(CATALOG.items())
] + [("A4", None), ("B4", None), ("C4", None), ("F4", None)]


@pytest.mark.parametrize("desc,perm", ORACLE_COSETS)
def test_orders_match_charpoly_oracle(desc, perm):
    d = build_datum(desc)
    auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
    assert elliptic_zregular_orders(d, auto) == reference_zregular_orders(d, auto)


@pytest.mark.parametrize("desc", ["A4", "B4", "D4", "G2"])
def test_weyl_elements_match_matrix_product_closure(desc):
    for isogeny in ("adjoint", "simply_connected"):
        d = build_datum(desc, isogeny)
        assert weyl_elements(d) == reference_weyl_elements(d)


def test_semisimple_check_is_cached_per_datum(monkeypatch):
    from parahoric import rootdata

    original = rootdata.matrix_rank
    ranks = []
    monkeypatch.setattr(rootdata, "matrix_rank", lambda rows: ranks.append(rows) or original(rows))
    d = build_datum("B3")
    vars(d).pop("is_semisimple", None)  # forget an earlier answer on the interned datum
    assert is_semisimple(d) and is_semisimple(build_datum("B3"))
    assert build_datum("B3") is d
    assert len(ranks) == 1  # computed once, then read off the datum
