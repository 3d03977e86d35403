from fractions import Fraction
from math import gcd, lcm

import pytest

from parahoric.catalog import CATALOG, NAMED_POINTS, catalog_datum, catalog_ids, named_point
from parahoric.chevalley import pinned_automorphism, structure_constants
from parahoric.echelonnage import apartment_point, origin, point_order, twisted
from parahoric.exactmath import pair
from parahoric.rootdata import build_automorphism, build_datum, identity_automorphism
from parahoric.vinberg import GradingError, _degrees, _twist_orbits, crosscheck, grading

F = Fraction


def td_2a2():
    d = build_datum("A2")
    return twisted(d, build_automorphism(d, (1, 0)))


def rho_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def test_grading_a1_rho_mod_2():
    d = build_datum("A1")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    lam = d.rho_check
    gd = grading(alg, pinned, lam, 2)
    assert gd.dims == (1, 2)
    assert gd.zero_degree_roots == frozenset()


def test_grading_2a2_pinned_swap():
    d = build_datum("A2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, build_automorphism(d, (1, 0)))
    gd = grading(alg, pinned, (0, 0), 2)
    assert gd.dims == (3, 5)
    assert len(gd.negative_sign_orbits) == 2
    fixed = gd.zero_degree_roots
    assert len(fixed) == 2


def test_grading_trivial_modulus():
    d = build_datum("B2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    gd = grading(alg, pinned, (0, 0), 1)
    assert gd.dims == (len(d.roots) + d.rank,)


def test_grading_rejects_odd_modulus_with_sign():
    d = build_datum("A2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, build_automorphism(d, (1, 0)))
    with pytest.raises(GradingError):
        grading(alg, pinned, (0, 0), 3)


def test_grading_conservation_and_galois_symmetry():
    d = build_datum("A2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    lam = tuple(2 * c for c in d.rho_check)
    for m in (2, 3, 4, 6):
        gd = grading(alg, pinned, tuple(m * c / 2 for c in lam), m) if m % 2 == 0 else None
    gd = grading(alg, pinned, tuple(6 * c for c in rho_point(twisted(d), 3).coords), 6)
    assert gd.total == 8


def test_fixed_roots_split_a2_rho3():
    td = twisted(build_datum("A2"))
    alg = structure_constants(td.base)
    pinned = pinned_automorphism(alg, td.twist)
    x = rho_point(td, 3)
    gd = grading(alg, pinned, tuple(3 * c for c in x.coords), 3)
    assert gd.zero_degree_roots == frozenset()
    assert gd.dims == (2, 3, 3)


def test_crosscheck_examples():
    td = td_2a2()
    res = crosscheck(td, origin(td), 2)
    assert res.ok
    assert res.dims == (3, 5)
    assert res.quotient_dims == (3, 5)

    a1 = twisted(build_datum("A1"))
    res = crosscheck(a1, rho_point(a1, 2), 2)
    assert res.ok
    assert res.dims == (1, 2)

    a2 = twisted(build_datum("A2"))
    res = crosscheck(a2, rho_point(a2, 3), 3)
    assert res.ok
    assert res.dims == (2, 3, 3)


def test_crosscheck_larger_moduli():
    td = td_2a2()
    for m in (2, 4, 8):
        assert crosscheck(td, origin(td), m).ok
    d4 = build_datum("D4")
    td3 = twisted(d4, build_automorphism(d4, (2, 1, 3, 0)))
    assert crosscheck(td3, origin(td3), 3).ok
    assert crosscheck(td3, origin(td3), 6).ok


def test_crosscheck_rejects_wild_and_bad_modulus():
    d = build_datum("A2")
    wild = twisted(d, build_automorphism(d, (1, 0)), {0: F(-1, 2)})
    with pytest.raises(GradingError):
        crosscheck(wild, origin(wild), 2)
    tame = td_2a2()
    with pytest.raises(GradingError):
        crosscheck(tame, origin(tame), 3)


def test_sign_convention_independence():
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    baseline = None
    for seed in (None, 1, 2):
        alg = structure_constants(d, seed)
        pinned = pinned_automorphism(alg, auto)
        gd = grading(alg, pinned, (0, 0), 2)
        if baseline is None:
            baseline = gd
        else:
            assert gd == baseline


def test_cartan_contribution_galois_symmetry():
    # the Cartan part of the grading depends on d only through gcd(d, M)
    from parahoric.exactmath import cyclotomic_multiplicities

    d4 = build_datum("D4")
    for perm in ((0, 1, 2, 3), (0, 1, 3, 2), (2, 1, 3, 0)):
        auto = build_automorphism(d4, perm)
        eigen = cyclotomic_multiplicities(auto.matrix)
        for m in (6, 12):
            contrib = [eigen.get(m // gcd(d, m), 0) for d in range(m)]
            for d1 in range(m):
                for d2 in range(m):
                    if gcd(d1, m) == gcd(d2, m):
                        assert contrib[d1] == contrib[d2]


def test_degree_zero_is_subalgebra():
    # For M = 2 the degree-zero piece is the rational fixed space of the
    # order-2 operator theta; verify it is closed under the bracket.
    from parahoric.exactmath import RowEchelon, kernel_basis
    from parahoric.exactmath import pair

    cases = [
        ("A2", (1, 0), (0, 0)),
        ("A1", (0,), tuple(build_datum("A1").rho_check)),
        ("B2", (0, 1), tuple(build_datum("B2").rho_check)),
    ]
    for desc, perm, lam in cases:
        d = build_datum(desc)
        alg = structure_constants(d)
        pinned = pinned_automorphism(alg, build_automorphism(d, perm))

        def theta(elt):
            moved = pinned.apply(elt)
            out = {}
            for label, coeff in moved.items():
                if label[0] == "x":
                    w = int(pair(label[1], lam))
                    coeff = coeff * (-1) ** (w % 2)
                if coeff:
                    out[label] = coeff
            return out

        # theta is a bracket automorphism
        for a in alg.labels[:6]:
            for b in alg.labels[:6]:
                ea, eb = alg.basis_element(a), alg.basis_element(b)
                assert theta(alg.bracket(ea, eb)) == alg.bracket(theta(ea), theta(eb))

        n = alg.dimension
        cols = [alg.to_vector(theta(alg.basis_element(l))) for l in alg.labels]
        rows = [
            [cols[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        fixed = kernel_basis(rows)
        gd = grading(alg, pinned, tuple(F(c) for c in lam), 2)
        assert len(fixed) == gd.dims[0]
        span = RowEchelon()
        for v in fixed:
            span.add(v)
        for u in fixed:
            for v in fixed:
                eu = {l: c for l, c in zip(alg.labels, u) if c}
                ev = {l: c for l, c in zip(alg.labels, v) if c}
                w = alg.to_vector(alg.bracket(eu, ev))
                assert not span.add(w)


def test_grading_modulus_cap():
    from parahoric.vinberg import MODULUS_CAP, ModulusCapExceeded

    d = build_datum("A2")
    alg = structure_constants(d)
    pinned = pinned_automorphism(alg, identity_automorphism(d))
    with pytest.raises(ModulusCapExceeded, match=f"M = {MODULUS_CAP + 1} is above the cap"):
        grading(alg, pinned, (0, 0), MODULUS_CAP + 1)
    td = twisted(d)
    with pytest.raises(ModulusCapExceeded, match="a multiple of the lcm 1"):
        crosscheck(td, origin(td), MODULUS_CAP + 1)


def scan_degrees(k, target, m):
    """Oracle: every degree d in [0, M) with k*d = target mod M, by scanning."""
    return [d for d in range(m) if (k * d - target) % m == 0]


def test_orbit_degrees_closed_form_small():
    for m in range(1, 25):
        for k in range(1, 7):
            for target in range(-2 * m, 2 * m):
                assert _degrees(k, target, m) == scan_degrees(k, target, m)


@pytest.mark.parametrize("cid", catalog_ids())
def test_orbit_degrees_match_scan(cid):
    td = catalog_datum(cid)
    alg = structure_constants(td.base)
    pinned = pinned_automorphism(alg, td.twist)
    orbits = _twist_orbits(alg, pinned)
    for name in NAMED_POINTS:
        x = named_point(td, name, CATALOG[cid]["rho_m"])
        base = lcm(point_order(td, x), td.twist.order)
        for m in (base, 2 * base):
            lam = tuple(m * c for c in x.coords)
            for orbit in orbits:
                c = sum(int(pair(root, lam)) for root in orbit)
                for target in (c, c + m // 2):
                    assert _degrees(len(orbit), target, m) == scan_degrees(len(orbit), target, m)
            grading(alg, pinned, lam, m)
