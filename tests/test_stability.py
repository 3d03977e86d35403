import functools
import re
from fractions import Fraction
from math import lcm

import pytest

from coset_oracle import scan_zregular_orders
from matrix_oracle import (
    charpoly,
    charpoly_multiplicities,
    det_bareiss,
    integer_charpoly,
    kernel_regular,
)
from parahoric import rootdata, stability
from parahoric.catalog import CATALOG, catalog_datum, catalog_ids
from parahoric.echelonnage import apartment_point, twisted
from parahoric.exactmath import (
    cyclotomic_multiplicities,
    identity_matrix,
    mat_mul,
    mat_vec,
    matrix_order,
    sub_identity,
)
from parahoric.rootdata import (
    build_automorphism,
    build_datum,
    identity_automorphism,
    regular_orders,
    weyl_elements,
)
from parahoric.stability import (
    StabilityError,
    acts_freely_on_roots,
    elliptic_zregular_orders,
    regular_by_eigenvector,
    regular_witness,
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


def test_root_readings_reject_a_matrix_that_does_not_permute_the_roots():
    # a root sent off the roots, and the roots sent onto half of them; the
    # negatives are elliptic, so the order reading gets to the roots too
    d = build_datum("A1+A1")
    assert stability._regular_order(((0, 1), (-1, 0)), d) == 4
    for a in (((2, 0), (0, 1)), ((1, 1), (0, 0))):
        with pytest.raises(StabilityError, match="^matrix does not permute the roots$"):
            acts_freely_on_roots(a, d, 2)
        with pytest.raises(StabilityError, match="^matrix does not permute the roots$"):
            stability._regular_order(tuple(tuple(-x for x in row) for row in a), d)


def test_eigenvector_criterion_checks_the_order():
    d = build_datum("A2")
    rotation = ((0, -1), (1, -1))  # order 3 on the roots of A2
    assert matrix_order(rotation) == 3
    assert regular_by_eigenvector(rotation, d, 3)
    assert not regular_by_eigenvector(rotation, d, 6)  # a multiple: no primitive 6th root
    with pytest.raises(StabilityError, match="power 2 is not the identity"):
        regular_by_eigenvector(rotation, d, 2)


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
    assert build_datum("B2").is_semisimple


# ---------------------------------------------------------------------------
# brute-force oracles: the plain matrix-product Weyl closure and the
# charpoly-per-element coset scan that the fast paths replace


def coset(desc, perm=None):
    d = build_datum(desc)
    return d, identity_automorphism(d) if perm is None else build_automorphism(d, perm)


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


@functools.cache
def reference_spectra(desc, perm):
    """(a, its charpoly multiplicities, its order, the kernel eigenvector
    verdict) for every element a of the coset, from the polynomial oracle."""
    d, auto = coset(desc, perm)
    out = []
    for w in reference_weyl_elements(d):
        a = mat_mul(w, auto.matrix)
        mult = charpoly_multiplicities(a)
        order = lcm(*mult)
        out.append((a, mult, order, kernel_regular(a, d.coroots, order)))
    return out


def reference_zregular_orders(desc, perm):
    d, _ = coset(desc, perm)
    witnesses = {}
    for a, mult, order, _ in reference_spectra(desc, perm):
        if mult.get(1, 0) or not acts_freely_on_roots(a, d, order):
            continue
        if order not in witnesses or a < witnesses[order]:
            witnesses[order] = a
    return witnesses


@pytest.mark.parametrize("cid", catalog_ids())
def test_catalog_rho_m_is_the_twisted_coxeter_number(cid):
    # the hand-entered default m of rho_over_m is the largest elliptic
    # regular order of the coset by Springer's criterion, the (twisted)
    # Coxeter number
    assert CATALOG[cid]["rho_m"] == max(catalog_datum(cid).regular_orders)


@pytest.mark.parametrize("desc,perm", [("A2", None), ("B2", None), ("G2", None), ("A2", (1, 0))])
def test_integer_charpoly_matches_interpolation(desc, perm):
    # the oracle of the oracle: the Faddeev-LeVerrier recursion that
    # charpoly_multiplicities reads against the interpolated determinant, on
    # every element of the coset
    d, auto = coset(desc, perm)
    elements = reference_weyl_elements(d)
    assert len(elements) == d.weyl_order
    for w in elements:
        a = mat_mul(w, auto.matrix)
        assert integer_charpoly(a) == charpoly(a), a


ORACLE_COSETS = [
    (info["dynkin"], info["automorphism"]) for _, info in sorted(CATALOG.items())
] + [("A4", None), ("B4", None), ("C4", None), ("F4", None)]


@pytest.mark.parametrize("desc,perm", [("A3", None), ("B3", None), ("G2", None), ("D4", (2, 1, 3, 0))])
def test_ellipticity_by_rank_matches_the_determinant(desc, perm):
    # I - a has full rank exactly when det(I - a) != 0, on every element of
    # the coset: the rank test against the Bareiss determinant it replaced
    d, auto = coset(desc, perm)
    elliptic = 0
    for w in weyl_elements(d):
        a = mat_mul(w, auto.matrix)
        assert stability._is_elliptic(a) == (det_bareiss(sub_identity(a)) != 0), a
        elliptic += stability._is_elliptic(a)
    assert 0 < elliptic < d.weyl_order


@pytest.mark.parametrize("desc,perm", ORACLE_COSETS)
def test_orders_match_charpoly_oracle(desc, perm):
    d, auto = coset(desc, perm)
    assert elliptic_zregular_orders(d, auto) == reference_zregular_orders(desc, perm)


@pytest.mark.parametrize("desc,perm", ORACLE_COSETS)
def test_spectra_match_charpoly_and_kernel_oracles(desc, perm):
    # on every coset element: the multiplicities read off ranks of powers,
    # the order, and the eigenvector criterion on the image of
    # prod_p (a^(N/p) - I), against the factorised characteristic polynomial
    # and the rational kernel of Phi_N(a)
    d, _ = coset(desc, perm)
    for a, mult, order, regular in reference_spectra(desc, perm):
        assert cyclotomic_multiplicities(a) == mult, a
        assert matrix_order(a) == order, a
        assert regular_by_eigenvector(a, d, order) == regular, a


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
    assert d.is_semisimple and build_datum("B3").is_semisimple
    assert build_datum("B3") is d
    assert len(ranks) == 1  # computed once, then read off the datum


# ---------------------------------------------------------------------------
# Springer's criterion and the class-minimum witnesses against the coset scan


SCAN_COSETS = sorted(
    {(info["dynkin"], info["automorphism"]) for info in CATALOG.values()}
    | {(desc, None) for desc in "A1 A2 A3 A4 A5 B2 B3 B4 B5 C3 C4 D4 D5 F4 G2".split()}
    | {
        ("A3", (2, 1, 0)),
        ("A4", (3, 2, 1, 0)),
        ("A5", (4, 3, 2, 1, 0)),
        ("D4", (0, 1, 3, 2)),
        ("D5", (0, 1, 2, 4, 3)),
        ("D4", (2, 1, 3, 0)),
        ("A2+A2", (2, 3, 1, 0)),
        ("A2+A2", (2, 3, 0, 1)),
        ("A2+A2", None),
    },
    key=str,
)


@pytest.mark.parametrize("desc,perm", SCAN_COSETS)
def test_orders_and_witnesses_match_the_coset_scan(desc, perm):
    d, auto = coset(desc, perm)
    assert elliptic_zregular_orders(d, auto) == scan_zregular_orders(d, auto)


@pytest.mark.parametrize(
    "desc,perm,orders",
    [
        # a cycle of k factors has k times the orders of its return twist
        ("A2+A2", (2, 3, 1, 0), {4, 12}),  # 2 * {2, 6}
        ("A2+A2", (2, 3, 0, 1), {6}),  # 2 * {3}
        # the sets the full coset scan gave; the scans take 8-12 s each
        ("B6", None, {2, 4, 6, 12}),
        ("E6", None, {3, 6, 9, 12}),
        ("E6", (5, 1, 4, 3, 2, 0), {2, 4, 6, 12, 18}),
        # beyond any scan (|W| of 2.9 M and 697 M): the criterion alone
        ("E7", None, {2, 6, 14, 18}),
        ("E8", None, {2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30}),
    ],
)
def test_order_sets(desc, perm, orders):
    assert set(regular_orders(*coset(desc, perm))) == orders


def test_a_seed_that_is_not_regular_is_refused(monkeypatch):
    td = twisted(*coset("B3"))
    monkeypatch.setitem(vars(td), "results", {})
    monkeypatch.setattr(stability, "_seed", lambda datum, twist, m: identity_matrix(3))
    with pytest.raises(StabilityError, match="seed of order 6 is not elliptic Z-regular"):
        regular_witness(td, 6)


def test_a_class_of_the_wrong_size_is_refused(monkeypatch):
    # the regular class of order 8 in D5 has |W| / 8 = 1920 / 8 = 240 elements
    td = twisted(*coset("D5"))
    assert td.regular_orders == {8: 8}
    monkeypatch.setitem(vars(td), "results", {})
    monkeypatch.setitem(vars(td), "regular_orders", {8: 4})
    with pytest.raises(StabilityError, match=re.escape("240 elements, not |W| / 4 = 480")):
        regular_witness(td, 8)


def refuse_the_walks(monkeypatch):
    """Make every enumeration of W, whole or lazy, fail the test."""
    for name in ("weyl_elements", "weyl_walk"):

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        for module in (rootdata, stability):
            monkeypatch.setattr(module, name, refuse, raising=False)


@pytest.mark.parametrize(
    "desc,perm,m",
    [
        ("F4", None, 12),
        ("D5", (0, 1, 2, 4, 3), 10),
        ("D4", (2, 1, 3, 0), 3),
        ("F4", None, 8),  # a table word: 8 does not divide h = 12
        ("D4", None, 4),  # a table word: 4 does not divide h = 6
    ],
)
def test_stable_verdict_never_enumerates_w(desc, perm, m, monkeypatch):
    d, auto = coset(desc, perm)
    expected = scan_zregular_orders(d, auto)[m]
    td = twisted(d, auto)
    monkeypatch.setitem(vars(td), "results", {})
    refuse_the_walks(monkeypatch)
    verdict = stable_verdict(td, rho_point(td, m))
    assert verdict.verdict and verdict.m == m
    assert verdict.witness == expected


# ---------------------------------------------------------------------------
# the closed-form seeds: the twisted Coxeter element and the table words


def _diagram_twists(letter, rank):
    """Every nontrivial diagram symmetry of a connected Dynkin diagram."""
    if letter == "A" and rank > 1:
        return [tuple(reversed(range(rank)))]
    if letter == "D" and rank == 4:
        return [(0, 1, 3, 2), (2, 1, 0, 3), (3, 1, 2, 0), (2, 1, 3, 0), (3, 1, 0, 2)]
    if letter == "D":
        return [(*range(rank - 2), rank - 1, rank - 2)]
    if letter == "E" and rank == 6:
        return [(5, 1, 4, 3, 2, 0)]
    return []


IRREDUCIBLE_COSETS = [
    (f"{letter}{rank}", perm)
    for letter, (lo, hi) in rootdata._RANK_RANGE.items()
    for rank in range(lo, hi + 1)
    for perm in [None, *_diagram_twists(letter, rank)]
]


@pytest.mark.parametrize("desc,perm", IRREDUCIBLE_COSETS)
def test_every_irreducible_seed_is_closed_form(desc, perm, monkeypatch):
    d, auto = coset(desc, perm)
    orders = regular_orders(d, auto)
    refuse_the_walks(monkeypatch)
    for m in orders:
        a = stability._seed(d, auto, m)
        assert stability._is_elliptic(a) and acts_freely_on_roots(a, d, m), (desc, perm, m)


SUM_COSETS = [
    ("A1+B2", None),  # the factors' Coxeter numbers differ
    ("D4+A3", None),
    ("D4+D4", None),  # m = 4 needs a table word on each factor
    ("E8+A1", None),  # m = 2 is a power of E8's Coxeter element
    ("A2+A2", (2, 3, 0, 1)),  # the twist swaps the factors
    ("A2+A2", (2, 3, 1, 0)),  # and flips one on the way
    ("B3+B3", (3, 4, 5, 0, 1, 2)),
    ("E6+E6", (*range(6, 12), *range(6))),
]


@pytest.mark.parametrize("desc,perm", SUM_COSETS)
def test_no_sum_walks(desc, perm, monkeypatch):
    # one closed-form seed per twist orbit of factors: rho_check/m is stable
    # at every regular order m, with a witness elliptic Z-regular of order m
    d, auto = coset(desc, perm)
    td = twisted(d, auto)
    refuse_the_walks(monkeypatch)
    for m in td.regular_orders:
        a = stability._seed(d, auto, m)
        assert stability._is_elliptic(a) and acts_freely_on_roots(a, d, m), (desc, perm, m)
        verdict = stable_verdict(td, rho_point(td, m))
        assert verdict.verdict and acts_freely_on_roots(verdict.witness, d, m), (desc, perm, m)


@pytest.mark.parametrize(
    "desc,perm",
    [("A1+B2", None), ("D4+A3", None), ("A2+A2", (2, 3, 0, 1)), ("A2+A2", (2, 3, 1, 0)), ("B3+B3", (3, 4, 5, 0, 1, 2))],
)
def test_sum_witnesses_match_the_coset_scan(desc, perm):
    # the seeds of the orbits, closed to the least element of the class
    d, auto = coset(desc, perm)
    assert elliptic_zregular_orders(d, auto) == scan_zregular_orders(d, auto)


@pytest.mark.parametrize("desc,perm", IRREDUCIBLE_COSETS)
def test_every_irreducible_regular_order_is_stable(desc, perm, monkeypatch):
    # rho_check/m is stable at every regular order m, and the witness is
    # elliptic Z-regular of order m, whatever the size of its class
    d, auto = coset(desc, perm)
    td = twisted(d, auto)
    refuse_the_walks(monkeypatch)
    for m in td.regular_orders:
        verdict = stable_verdict(td, rho_point(td, m))
        assert verdict.verdict and verdict.m == m, (desc, perm, m)
        a = verdict.witness
        assert stability._is_elliptic(a) and acts_freely_on_roots(a, d, m), (desc, perm, m)
        assert verdict.witness_is_least == (d.weyl_order // td.regular_orders[m] <= stability.CLASS_LIMIT)


def test_a_class_above_the_limit_is_witnessed_by_its_seed():
    # A7 at m = 8: a class of 8! / 8 = 5040 elements, above CLASS_LIMIT
    d, auto = coset("A7")
    td = twisted(d, auto)
    assert d.weyl_order // td.regular_orders[8] == 5040 > stability.CLASS_LIMIT
    verdict = stable_verdict(td, rho_point(td, 8))
    assert verdict.verdict and verdict.witness_is_least is False
    assert verdict.witness == stability._seed(d, auto, 8)
    # the Coxeter element itself: the regular order is the Coxeter number
    assert verdict.witness == mat_mul(next(stability._candidates(d, auto)), auto.matrix)


@pytest.mark.parametrize("desc,t", sorted(rootdata.REGULAR_WORDS))
def test_table_words_are_reduced_of_length_2n_over_m(desc, t):
    d, auto = coset(desc, None if t == 1 else _diagram_twists(desc[0], int(desc[1:]))[0])
    assert auto.order == t
    h = max(regular_orders(d, auto))
    for word in rootdata.REGULAR_WORDS[desc, t]:
        w = identity_matrix(d.rank)
        for i in word:
            w = rootdata.reflect_right(w, d.simple_reflections[int(i)])
        order = stability._regular_order(mat_mul(w, auto.matrix), d)
        assert order in regular_orders(d, auto) and h % order, (desc, word)
        inversions = sum(not d.is_positive(mat_vec(w, r)) for r in d.positive_roots)
        assert inversions == len(word) == 2 * len(d.positive_roots) // order, (desc, word)


@pytest.mark.parametrize(
    "desc,perm",
    IRREDUCIBLE_COSETS
    + [
        ("D4+D4", None),
        ("A2+A2", (2, 3, 0, 1)),
        ("A2+A2", (2, 3, 1, 0)),
        ("B3+B3", (3, 4, 5, 0, 1, 2)),
        ("E6+E6", (*range(6, 12), *range(6))),
    ],
)
def test_twisted_coxeter_element_is_regular_of_the_largest_order(desc, perm):
    d, auto = coset(desc, perm)
    a = mat_mul(next(stability._candidates(d, auto)), auto.matrix)
    assert stability._is_elliptic(a)
    assert stability._regular_order(a, d) == max(regular_orders(d, auto))
