import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from parahoric import chevalley
from parahoric.catalog import CATALOG, NAMED_POINTS, catalog_datum, catalog_ids, named_point
from parahoric.chevalley import orbit_sign, pinned_automorphism, structure_constants
from parahoric.cli import main
from parahoric.echelonnage import (
    _scaffold,
    apartment_point,
    depth_table,
    origin,
    point_from_simple_coroots,
    point_order,
    twisted,
)
from parahoric.exactmath import cyclotomic_multiplicities, mat_vec, pair
from parahoric.rootdata import (
    build_automorphism,
    build_datum,
    identity_automorphism,
)
from parahoric.vinberg import GradingError, _degrees, _graded, crosscheck, grading

from lift_oracle import lift_grading

F = Fraction


def td_2a2():
    d = build_datum("A2")
    return twisted(d, build_automorphism(d, (1, 0)))


def rho_point(td, m):
    return apartment_point(td, tuple(c / m for c in td.base.rho_check))


def test_grading_a1_rho_mod_2():
    d = build_datum("A1")
    lam = d.rho_check
    gd = grading(d, identity_automorphism(d), lam, 2)
    assert gd.dims == (1, 2)
    assert gd.zero_degree_roots == frozenset()


def test_grading_2a2_pinned_swap():
    d = build_datum("A2")
    gd = grading(d, build_automorphism(d, (1, 0)), (0, 0), 2)
    assert gd.dims == (3, 5)
    assert len(gd.negative_sign_orbits) == 2
    fixed = gd.zero_degree_roots
    assert len(fixed) == 2


def test_grading_trivial_modulus():
    d = build_datum("B2")
    gd = grading(d, identity_automorphism(d), (0, 0), 1)
    assert gd.dims == (len(d.roots) + d.rank,)


def test_grading_rejects_odd_modulus_with_sign():
    d = build_datum("A2")
    with pytest.raises(GradingError):
        grading(d, build_automorphism(d, (1, 0)), (0, 0), 3)


def test_grading_rejects_non_integral_cocharacter():
    d = build_datum("A2")
    with pytest.raises(GradingError, match="pair integrally"):
        grading(d, identity_automorphism(d), (F(1, 2), 0), 2)


def test_grading_conservation_and_galois_symmetry():
    d = build_datum("A2")
    auto = identity_automorphism(d)
    lam = tuple(2 * c for c in d.rho_check)
    for m in (2, 3, 4, 6):
        gd = grading(d, auto, tuple(m * c / 2 for c in lam), m) if m % 2 == 0 else None
    gd = grading(d, auto, tuple(6 * c for c in rho_point(twisted(d), 3).coords), 6)
    assert gd.total == 8


def test_fixed_roots_split_a2_rho3():
    td = twisted(build_datum("A2"))
    x = rho_point(td, 3)
    gd = grading(td.base, td.twist, tuple(3 * c for c in x.coords), 3)
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
    # the lift-based grading under permuted root orders equals the closed form
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    baseline = grading(d, auto, (0, 0), 2)
    for seed in (None, 1, 2):
        alg = structure_constants(d, seed)
        pinned = pinned_automorphism(alg, auto)
        gd = lift_grading(alg, pinned, (0, 0), 2)
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
    from matrix_oracle import kernel_basis
    from span_oracle import RowEchelon
    from parahoric.exactmath import pair

    cases = [
        ("A2", (1, 0), (0, 0)),
        ("A1", (0,), tuple(build_datum("A1").rho_check)),
        ("B2", (0, 1), tuple(build_datum("B2").rho_check)),
    ]
    for desc, perm, lam in cases:
        d = build_datum(desc)
        auto = build_automorphism(d, perm)
        alg = structure_constants(d)
        pinned = pinned_automorphism(alg, auto)

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
        gd = grading(d, auto, tuple(F(c) for c in lam), 2)
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
    with pytest.raises(ModulusCapExceeded, match=f"M = {MODULUS_CAP + 1} is above the cap"):
        grading(d, identity_automorphism(d), (0, 0), MODULUS_CAP + 1)
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
    orbits = _scaffold(td.base, td.twist).fibers
    for name in NAMED_POINTS:
        x = named_point(td, name, CATALOG[cid]["rho_m"])
        base = lcm(point_order(td, x), td.twist.order)
        for m in (base, 2 * base):
            lam = tuple(m * c for c in x.coords)
            for orbit in orbits:
                c = sum(int(pair(root, lam)) for root in orbit)
                for target in (c, c + m // 2):
                    assert _degrees(len(orbit), target, m) == scan_degrees(len(orbit), target, m)
            grading(td.base, td.twist, lam, m)


# ---------------------------------------------------------------------------
# oracles for the closed-form orbit signs, the integer-residue quotient column
# and the cycle-length twist spectrum

def reversal(n):
    return tuple(range(n - 1, -1, -1))


# twists that permute the components: in the first two, sigma^k flips each A2
# factor on the roots of a size-k orbit; in the last, sigma^2 is the identity
# (descriptor, node permutation, expected count of sign -1 orbits)
COMPOSITE_TWISTS = (
    ("A2+A2", (2, 3, 1, 0), 2),
    ("A2+A2+A2", (2, 3, 4, 5, 1, 0), 2),
    ("A2+A2", (3, 2, 1, 0), 0),
)

# (descriptor, node permutation or None, expected count of sign -1 orbits)
SIGN_TWISTS = tuple(
    (CATALOG[cid]["dynkin"], CATALOG[cid]["automorphism"], 2 if cid == "2A2" else 0)
    for cid in catalog_ids()
) + (
    ("A4", reversal(4), 4),
    ("A6", reversal(6), 6),
    ("A8", reversal(8), 8),
    ("D5", (0, 1, 2, 4, 3), 0),
    ("E6", (5, 1, 4, 3, 2, 0), 0),
) + COMPOSITE_TWISTS


def orbit_of(auto, root):
    orbit = [root]
    while (nxt := mat_vec(auto.matrix, orbit[-1])) != root:
        orbit.append(nxt)
    return orbit


def seeded_points(td, count, seed=0, max_den=4):
    rng = random.Random(seed)
    n = len(td.simple_keys)
    points = []
    for _ in range(count):
        den = rng.randint(1, max_den)
        coeffs = [F(rng.randint(-2 * max_den, 2 * max_den), den) for _ in range(n)]
        points.append(point_from_simple_coroots(td, coeffs))
    return points


@pytest.mark.parametrize("desc, perm, count", SIGN_TWISTS)
def test_closed_form_sign_matches_orbit_sign(desc, perm, count):
    d = build_datum(desc)
    auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
    negative = grading(d, auto, (0,) * d.rank, 2 * auto.order).negative_sign_orbits
    assert len(negative) == count
    negative_roots = {r for root in negative for r in orbit_of(auto, root)}
    for seed in (None, 7, 11):
        alg = structure_constants(d, seed)
        pinned = pinned_automorphism(alg, auto)
        for root in d.roots:
            expected = -1 if root in negative_roots else 1
            assert orbit_sign(alg, pinned, root) == expected, (desc, seed, root)


def assert_grading_matches_lift(td, points):
    alg = structure_constants(td.base)
    pinned = pinned_automorphism(alg, td.twist)
    for x in points + seeded_points(td, 5):
        base = lcm(point_order(td, x), td.twist.order)
        for m in (base, 2 * base):
            lam = tuple(m * c for c in x.coords)
            assert grading(td.base, td.twist, lam, m) == lift_grading(alg, pinned, lam, m)


@pytest.mark.parametrize("cid", catalog_ids())
def test_closed_form_grading_matches_lift(cid):
    td = catalog_datum(cid)
    assert_grading_matches_lift(
        td, [named_point(td, name, CATALOG[cid]["rho_m"]) for name in NAMED_POINTS]
    )


@pytest.mark.parametrize("desc, perm, count", COMPOSITE_TWISTS)
def test_closed_form_grading_matches_lift_composite(desc, perm, count):
    d = build_datum(desc)
    td = twisted(d, build_automorphism(d, perm))
    assert_grading_matches_lift(td, [named_point(td, name, 4) for name in NAMED_POINTS])
    for x in (origin(td), named_point(td, "barycenter")):
        res = crosscheck(td, x, 2 * lcm(point_order(td, x), td.twist.order))
        assert res.ok
        assert len(res.negative_sign_orbits) == count


@pytest.mark.parametrize("cid", catalog_ids())
def test_crosscheck_quotient_column_matches_depth_table(cid):
    td = catalog_datum(cid)
    points = [origin(td), named_point(td, "rho_over_m", CATALOG[cid]["rho_m"])]
    for x in points + seeded_points(td, 5, seed=1):
        table = depth_table(td, x)
        base = lcm(point_order(td, x), td.twist.order)
        for m in (base, 2 * base):
            res = crosscheck(td, x, m)
            assert res.quotient_dims == tuple(table.dim(F(d, m)) for d in range(m))


def test_twist_spectrum_matches_charpoly():
    cases = [
        (CATALOG[cid]["dynkin"], CATALOG[cid]["automorphism"], "adjoint") for cid in catalog_ids()
    ]
    cases += [(f"A{n}", reversal(n), "adjoint") for n in range(4, 9)]
    cases += [("D5", (0, 1, 2, 4, 3), "adjoint"), ("E6", (5, 1, 4, 3, 2, 0), "adjoint")]
    cases += [
        ("A3", (2, 1, 0), "simply_connected"),
        ("D4", (2, 1, 3, 0), "simply_connected"),
        ("D4", (0, 1, 3, 2), "simply_connected"),
    ]
    for desc, perm, isogeny in cases:
        d = build_datum(desc, isogeny)
        auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
        assert auto.spectrum == cyclotomic_multiplicities(auto.matrix), (desc, perm)


@pytest.mark.parametrize(
    "spec, negative",
    [
        ({"dynkin": "E8", "point": {"name": "rho_over_m", "m": 30}}, 0),
        ({"dynkin": "A4", "automorphism": [3, 2, 1, 0]}, 4),
    ],
)
def test_grade_builds_no_lie_algebra(spec, negative, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("grade built the Lie algebra")

    monkeypatch.setattr(chevalley, "structure_constants", refuse)
    monkeypatch.setattr(chevalley, "pinned_automorphism", refuse)
    monkeypatch.setattr(chevalley.ChevalleyAlgebra, "__init__", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["grade", "--spec", str(path)]) == 0
    grading_section = json.loads(capsys.readouterr().out)["grading"]
    assert grading_section["crosscheck"]
    assert grading_section["negative_sign_orbit_count"] == negative


# ---------------------------------------------------------------------------
# the per-orbit grading against the per-root loop it replaced


def graded_per_root(datum, twist, den, lam_num, m):
    """``vinberg._graded`` as one pairing and one weight per root: the orbit
    weight is the sum of the weights of its roots."""
    if m <= 0:
        raise GradingError("modulus must be positive")
    weight = {}
    for root in datum.roots:
        w, rem = divmod(pair(root, lam_num), den)
        if rem:
            raise GradingError("cocharacter does not pair integrally with the roots")
        weight[root] = w
    dims = [0] * m
    zero = []
    negative_orbits = []
    scaff = _scaffold(datum, twist)
    for index, (orbit, cls) in enumerate(zip(scaff.fibers, scaff.classes)):
        k = len(orbit)
        c = sum(weight[root] for root in orbit)
        if cls == "divisible":
            if m % 2 != 0:
                raise GradingError("orbit with sign -1 requires an even modulus")
            c += m // 2
            negative_orbits.append(orbit[0])
        hits = _degrees(k, c, m)
        if len(hits) != k:
            raise GradingError("orbit does not distribute over the expected degrees")
        for d in hits:
            dims[d] += 1
        if 0 in hits:
            zero.append(index)
    for d in range(m):
        dims[d] += twist.spectrum.get(m // gcd(d, m), 0)
    assert sum(dims) == len(datum.roots) + datum.rank
    return tuple(dims), zero, tuple(sorted(negative_orbits))


SPLIT_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
TWISTED_TYPES = (
    [(f"A{n}", reversal(n)) for n in range(2, 9)]
    + [(f"D{n}", tuple(range(n - 2)) + (n - 1, n - 2)) for n in range(4, 9)]
    + [("D4", (2, 1, 3, 0)), ("E6", (5, 1, 4, 3, 2, 0))]
)
GRADING_DATA = (
    [f"catalog:{cid}" for cid in catalog_ids()]
    + SPLIT_TYPES
    + [f"{desc}:{','.join(map(str, perm))}" for desc, perm in TWISTED_TYPES]
)


def grading_datum(name):
    if name.startswith("catalog:"):
        return catalog_datum(name[len("catalog:"):])
    desc, _, perm = name.partition(":")
    d = build_datum(desc)
    return twisted(d, build_automorphism(d, tuple(map(int, perm.split(",")))) if perm else None)


@pytest.mark.parametrize("name", GRADING_DATA)
def test_per_orbit_grading_matches_per_root_loop(name):
    td = grading_datum(name)
    datum, twist = td.base, td.twist
    h = len(datum.roots) // datum.rank
    points = [origin(td), named_point(td, "barycenter"), rho_point(td, h)]
    points += seeded_points(td, 3, seed=name)
    for x in points:
        den, nums = x.scaled
        base = lcm(point_order(td, x), twist.order)
        for m in (base, 2 * base):
            lam_num = [m * c for c in nums]
            dims, zero, negative = _graded(td, den, lam_num, m)
            assert (dims, zero, negative) == graded_per_root(datum, twist, den, lam_num, m)
    # 2 / 4 on the first simple root: both readings refuse the cocharacter
    with pytest.raises(GradingError, match="does not pair integrally"):
        _graded(td, 4, datum.simple_coroots[0], 2 * twist.order)
    with pytest.raises(GradingError, match="does not pair integrally"):
        graded_per_root(datum, twist, 4, datum.simple_coroots[0], 2 * twist.order)
