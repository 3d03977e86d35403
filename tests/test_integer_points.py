"""The integer apartment points against the Fraction oracles of
``point_oracle``: equal point orders, equal depth-table bins (root order
included) and equal reduced points, on every catalog datum and on the data
of the warm benchmark sweep."""
import random
from fractions import Fraction

import pytest

from parahoric.catalog import CATALOG, catalog_datum, catalog_ids, named_point
from parahoric.echelonnage import (
    ApartmentPoint,
    EchelonnageError,
    alcove_reduce,
    apartment_point,
    depth_table,
    evaluate,
    in_base_alcove,
    origin,
    point_from_simple_coroots,
    restrict,
    simple_restricted_keys,
    twisted,
)
from parahoric.exactmath import mat_vec, vec_add, vec_scale
from parahoric.rootdata import build_automorphism, build_datum
from point_oracle import (
    alcove_reduce_oracle,
    depth_table_oracle,
    point_from_simple_coroots_oracle,
)

F = Fraction


def _twisted(dynkin, auto=None, lam=None):
    d = build_datum(dynkin)
    return twisted(d, None if auto is None else build_automorphism(d, auto), lam)


# name -> (datum, m for the point rho_check/m: the twisted Coxeter number)
DATA = {cid: (lambda cid=cid: catalog_datum(cid), CATALOG[cid]["rho_m"]) for cid in catalog_ids()}
DATA.update({
    "A4": (lambda: _twisted("A4"), 5),
    "B3": (lambda: _twisted("B3"), 6),
    "B4": (lambda: _twisted("B4"), 8),
    "2A4": (lambda: _twisted("A4", (3, 2, 1, 0)), 10),
    "2A2w": (lambda: _twisted("A2", (1, 0), {0: F(-1, 2)}), 6),
    "2A4w": (lambda: _twisted("A4", (3, 2, 1, 0), {0: F(-1, 2), 1: F(-1, 2)}), 10),
    # an integral facet level under a twisted denominator: the A1 wall
    "A1+2A2": (lambda: _twisted("A1+A2", (0, 2, 1)), 6),
})
BIG_PRIME = 1_000_000_007


def _coefficients(name, td):
    """40 seeded coefficient lists, then two over 1/1000000007 and two of
    size 10**400."""
    rng = random.Random(name)
    count = len(simple_restricted_keys(td))
    out = [[F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(count)] for _ in range(40)]
    out += [[F(rng.randint(-BIG_PRIME, BIG_PRIME), BIG_PRIME) for _ in range(count)] for _ in range(2)]
    out += [[F(rng.choice((-1, 1)) * 10**400 + rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(count)]
            for _ in range(2)]
    return out


def _far(td, x, rng):
    """x moved by a 10**400-scale translation of the affine Weyl group: a
    sum of step(a) * acheck over the positive restricted roots a."""
    shift = (0,) * td.base.rank
    for rr in restrict(td):
        if rr.positive:
            n = rng.choice((-1, 1)) * 10**400 + rng.randint(-9, 9)
            shift = vec_add(shift, vec_scale(n * rr.jump_set.step, rr.coroot))
    return apartment_point(td, vec_add(x.coords, shift))


def _points(name, td, m):
    points = [origin(td), named_point(td, "barycenter"), named_point(td, "rho_over_m", m)]
    points += [point_from_simple_coroots(td, c) for c in _coefficients(name, td)]
    rng = random.Random(f"{name} far")
    points += [_far(td, x, rng) for x in points[:6]]
    return points


@pytest.mark.parametrize("name", list(DATA))
def test_point_construction_matches_oracle(name):
    td = DATA[name][0]()
    for coeffs in _coefficients(name, td):
        x = point_from_simple_coroots(td, coeffs)
        assert x == point_from_simple_coroots_oracle(td, coeffs)
        assert apartment_point(td, x.coords) == x


@pytest.mark.parametrize("name", list(DATA))
def test_depth_table_and_alcove_reduce_match_oracles(name):
    make, m = DATA[name]
    td = make()
    for x in _points(name, td, m):
        table = depth_table(td, x)
        order, bins = depth_table_oracle(td, x)
        assert table.order == order
        assert list(table.roots.items()) == list(bins.items())
        reduced = alcove_reduce(td, x)
        assert reduced == alcove_reduce_oracle(td, x)
        assert in_base_alcove(td, reduced)


@pytest.mark.parametrize("name", ["2A2", "2A3", "3D4", "2A2w"])
def test_point_off_the_fixed_subspace_evaluates_like_pair(name):
    # built directly, so the twist-fixed check of apartment_point is skipped
    td = DATA[name][0]()
    rng = random.Random(name)
    for _ in range(10):
        x = ApartmentPoint.from_coords(
            [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(td.base.rank)]
        )
        assert mat_vec(td.twist.matrix, x.coords) != x.coords
        table = depth_table(td, x)
        assert (table.order, table.roots) == depth_table_oracle(td, x)
        for k, roots in table.roots.items():
            for rr in roots:
                assert rr.jump_set.member(F(k, table.order) - evaluate(rr.key, x))
        assert alcove_reduce(td, x) == alcove_reduce_oracle(td, x)


def test_point_hash_is_cached_and_agrees_with_equality():
    td = catalog_datum("2A3")
    x = point_from_simple_coroots(td, (F(1, 3), F(-2, 5)))
    same = apartment_point(td, x.coords)
    assert same is not x and same == x
    assert hash(same) == hash(x) == hash((x.den, x.nums))
    assert x.__dict__["_hash"] == hash(x)  # computed once, then read back
    assert x.scaled == same.scaled == (15, tuple(int(c * 15) for c in x.coords))
    zero = ApartmentPoint.from_coords((0,) * td.base.rank)
    assert zero == origin(td) and hash(zero) == hash(origin(td))
    assert zero.scaled == origin(td).scaled == (1, (0,) * td.base.rank)
    assert x != origin(td)
    # the fields are in lowest terms: equality and hashing agree with coords
    points = [x, same, zero, origin(td), point_from_simple_coroots(td, (F(2, 6), F(-4, 10))),
              alcove_reduce(td, x), ApartmentPoint.from_coords(x.coords)]
    for p in points:
        for q in points:
            assert (p == q) is (p.coords == q.coords)
            assert p != q or hash(p) == hash(q)


def test_point_constructor_takes_lowest_terms_and_rejects_a_nonpositive_denominator():
    # (D, numerators) given by hand is reduced, so it is the record of its coords
    x = ApartmentPoint(2, (2, 0))
    assert x.scaled == (1, (1, 0)) and x == ApartmentPoint(1, (1, 0))
    assert hash(x) == hash(ApartmentPoint(1, (1, 0))) == hash(ApartmentPoint(6, [6, 0]))
    assert x.coords == (F(1), F(0)) and isinstance(x.nums, tuple)
    assert ApartmentPoint(4, (2, -6)).scaled == (2, (1, -3))
    assert ApartmentPoint(3, (0, 0)).scaled == (1, (0, 0))
    for den in (0, -2):
        with pytest.raises(EchelonnageError, match="denominator must be positive"):
            ApartmentPoint(den, (1, 0))
