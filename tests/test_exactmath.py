import random
from fractions import Fraction
from itertools import count, islice
from math import lcm

import pytest

from parahoric import exactmath
from parahoric.exactmath import (
    ExactMathError,
    ValuationSet,
    clear_denominators,
    closure,
    cyclotomic_multiplicities,
    identity_matrix,
    integer_inverse,
    mat_mul,
    matrix_order,
    matrix_rank,
    reflection_orbit,
    rref,
)
from parahoric.mpquotient import quotient_datum
from parahoric.rootdata import (
    build_automorphism,
    build_datum,
    cartan_matrix,
)

from matrix_oracle import (
    charpoly,
    charpoly_multiplicities,
    cyclotomic_polynomial,
    det_bareiss,
    dual_action,
    euler_phi,
    integer_charpoly,
    invert_matrix,
    invert_unimodular,
    kernel_basis,
    solve_linear,
)
from matrix_oracle import rref as rref_oracle
from point_oracle import max_below, min_above
from span_oracle import RowEchelon
from warm_points import warm_sweep

F = Fraction


def test_kept_builds_once_and_keeps_no_failure():
    memo, built = {}, []

    def build(value):
        built.append(value)
        if value is None:
            raise ExactMathError("refused")
        return value

    assert exactmath.kept(memo, "a", lambda: build(0)) == 0
    assert exactmath.kept(memo, "a", lambda: build(1)) == 0  # a falsy value is kept too
    for _ in range(2):  # a failed build stores nothing and runs again
        with pytest.raises(ExactMathError, match="refused"):
            exactmath.kept(memo, "b", lambda: build(None))
    assert memo == {"a": 0} and built == [0, None, None]


def test_closure_yields_the_starts_first_and_each_element_once():
    # the starts in order, a repeated start dropped; then the new images only
    steps = {1: [2, 3], 4: [1, 5], 2: [1], 3: [6], 5: [], 6: [6]}
    assert list(closure([4, 1, 4], steps.__getitem__)) == [4, 1, 5, 2, 3, 6]
    assert list(closure([], steps.__getitem__)) == []
    assert list(closure(iter([6]), steps.__getitem__)) == [6]


def test_closure_walks_layer_by_layer():
    # on a 6-cycle from 0 by +-1, distance 0, 1, 1, 2, 2, 3
    walk = list(closure([0], lambda k: ((k + 1) % 6, (k - 1) % 6)))
    assert walk == [0, 1, 5, 2, 4, 3]
    # the layers of a binary tree, each in the order of the layer above
    assert list(islice(closure([""], lambda w: (w + "0", w + "1")), 7)) == [
        "", "0", "1", "00", "01", "10", "11",
    ]


def test_closure_is_lazy():
    # an infinite walk, and a step with infinitely many images
    assert next(closure([0], lambda k: (k + 1,))) == 0
    assert list(islice(closure([0], lambda k: (k + 1,)), 4)) == [0, 1, 2, 3]
    assert list(islice(closure([0], lambda k: count(k + 1)), 4)) == [0, 1, 2, 3]


def test_reflection_orbit_on_rational_and_integer_keys():
    # A2 with simple roots (1, 0), (0, 1) and Cartan rows as coroots: the
    # orbit of the first fundamental weight has 3 members, on Fraction vectors
    # and on the same vectors times 3, the roots too, with scale 3
    reflections = [((1, 0), (2, -1)), ((0, 1), (-1, 2))]
    omega = (Fraction(2, 3), Fraction(1, 3))
    orbit = reflection_orbit(omega, reflections)
    assert orbit == {omega, (Fraction(-1, 3), Fraction(1, 3)), (Fraction(-1, 3), Fraction(-2, 3))}
    scaled = reflection_orbit((2, 1), [((3, 0), (2, -1)), ((0, 3), (-1, 2))], 3)
    assert scaled == {tuple(int(3 * c) for c in v) for v in orbit}


def test_det_and_charpoly():
    a = ((2, 1), (1, 2))
    assert det_bareiss(a) == 3
    assert charpoly(a) == integer_charpoly(a) == (3, -4, 1)
    b = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert det_bareiss(b) == 1
    assert charpoly(b) == integer_charpoly(b) == (-1, 0, 0, 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_multiplicities_examples():
    assert cyclotomic_multiplicities(identity_matrix(2)) == {1: 2}
    assert cyclotomic_multiplicities(((0, 1), (1, 0))) == {1: 1, 2: 1}
    cyc3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert cyclotomic_multiplicities(cyc3) == {1: 1, 3: 1}
    assert matrix_order(cyc3) == 3


def test_cyclotomic_multiplicities_rejects_infinite_order(monkeypatch):
    # unipotent, a non-unit eigenvalue, singular, and hyperbolic: one error
    for a in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 0), (0, 1)), ((2, 1), (1, 1))):
        for spectrum in (cyclotomic_multiplicities, matrix_order):
            with pytest.raises(ExactMathError, match="^matrix has infinite order$"):
                spectrum(a)
    # at rank 16 the exponent is 367,567,200: a unipotent climbs all the way
    # with polynomial entries, a hyperbolic block stops at its first power
    unipotent = tuple(tuple(int(j in (i, i + 1)) for j in range(16)) for i in range(16))
    with pytest.raises(ExactMathError, match="infinite order"):
        matrix_order(unipotent)
    hyperbolic = tuple(
        tuple((2, 1, 1, 1)[2 * i + j] if i < 2 and j < 2 else int(i == j) for j in range(16))
        for i in range(16)
    )
    powers = []
    original = exactmath.mat_pow

    def counted(a, k):  # fails before the climb's entries grow large
        powers.append(k)
        assert len(powers) < 4, "the climb did not stop at a trace above the rank"
        return original(a, k)

    monkeypatch.setattr(exactmath, "mat_pow", counted)
    with pytest.raises(ExactMathError, match="infinite order"):
        matrix_order(hyperbolic)
    assert powers == [2]


def test_cyclotomic_multiplicities_random_signed_permutations():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = identity_matrix(n)
        for _ in range(rng.randint(1, 4)):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            g = tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                for i in range(n)
            )
            m = mat_mul(m, g)
        mult = cyclotomic_multiplicities(m)
        assert sum(cnt * euler_phi(k) for k, cnt in mult.items()) == n
        assert mult == charpoly_multiplicities(m) and list(mult) == sorted(mult)
        assert matrix_order(m) == lcm(*mult)


def test_rational_linear_algebra():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert matrix_rank(rows) == 1
    ker = kernel_basis(rows)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 + v[1] * 2 == 0
    sol = solve_linear([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol == (F(2), F(1))
    assert invert_unimodular(((1, 1), (0, 1))) == ((1, -1), (0, 1))


def test_clear_denominators_reads_any_rational():
    # ints and Fractions as they are, anything else through Fraction
    assert clear_denominators((1, F(1, 2)), ("2/3", 0.25)) == (12, ((12, 6), (8, 3)))
    assert clear_denominators(()) == (1, ((),))


def test_fraction_free_rank_matches_rref():
    rng = random.Random(13)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:  # rank-deficient: combinations of a few rows
            basis = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rng.randint(0, 3))]
            rows = [
                [sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(ncols)]
                for _ in range(nrows)
            ]
        else:
            rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert matrix_rank(rows) == len(rref_oracle(rows)[1])
        halves = [[F(c, rng.randint(1, 4)) for c in row] for row in rows]
        assert matrix_rank(halves) == len(rref_oracle(halves)[1])
        assert rref(rows) == rref_oracle(rows) and rref(halves) == rref_oracle(halves)
    assert matrix_rank([]) == 0


def test_row_echelon_rank():
    ech = RowEchelon()
    assert ech.add([F(1), F(0), F(1)])
    assert not ech.add([F(2), F(0), F(2)])
    assert ech.add([F(0), F(1), F(0)])
    assert ech.rank == 2


def test_vset_examples():
    z = ValuationSet.lattice(1)
    assert z.member(3)
    half_shift = ValuationSet.lattice(1, F(1, 2))
    assert not half_shift.member(1)
    half = ValuationSet.lattice(F(1, 2))
    assert half.member(F(-5, 2))
    assert min_above(z, 0) == 1
    assert min_above(half_shift, 0) == F(1, 2)
    assert min_above(half_shift, F(3, 2)) == F(5, 2)


def test_vset_canonical_form():
    odd = ValuationSet.lattice(1, F(1, 2))
    assert odd.step == 1 and odd.offset == F(1, 2)
    assert ValuationSet.lattice(1, F(-3, 2)) == odd
    assert ValuationSet.lattice(F(1, 2), F(-1, 4)) == ValuationSet.lattice(F(1, 2), F(1, 4))
    with pytest.raises(ExactMathError):
        ValuationSet.lattice(0)
    with pytest.raises(ExactMathError):
        ValuationSet.lattice(F(-1, 2))


def test_vset_min_above_is_tight():
    rng = random.Random(3)
    progressions = ((1, 0), (F(1, 2), F(1, 6)), (F(3, 4), F(1, 4)), (F(2, 3), F(-5, 3)), (F(1, 6), F(1, 12)))
    for step, offset in progressions:
        s = ValuationSet.lattice(step, offset)
        for _ in range(200):
            t = F(rng.randint(-40, 40), rng.randint(1, 9))
            nxt, prev = min_above(s, t), max_below(s, t)
            assert nxt > t and s.member(nxt)
            assert prev < t and s.member(prev)
            probe_step = s.step / 24
            probe = prev + probe_step
            while probe < nxt:
                assert not s.member(probe) or probe == t
                probe += probe_step


def test_vset_max_below_symmetry():
    s = ValuationSet.lattice(F(1, 2), F(1, 4))
    assert max_below(s, F(1, 4)) == F(-1, 4)
    assert min_above(s, F(-1, 4)) == F(1, 4)


# ---------------------------------------------------------------------------
# the fraction-free inverse and characteristic polynomial against the
# Fraction oracles


SPLIT_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A2+A2", "A1+B3"]
)


def test_integer_inverse_matches_fraction_oracle():
    matrices = [cartan_matrix(desc) for desc in SPLIT_TYPES]
    matrices += sorted({quotient_datum(td, x).cartan for td, x in warm_sweep(0)})
    assert len(matrices) > len(SPLIT_TYPES) + 20
    for c in matrices:
        den, inverse = integer_inverse(c)
        assert (den, inverse) == clear_denominators(*invert_matrix(c))
        assert den > 0 and mat_mul(c, inverse) == tuple(
            tuple(den * x for x in row) for row in identity_matrix(len(c))
        )
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            expected = clear_denominators(*invert_matrix(a))
        except ExactMathError:
            assert det_bareiss(a) == 0
            with pytest.raises(ExactMathError, match="singular"):
                integer_inverse(a)
        else:
            assert integer_inverse(a) == expected
    for singular in (((0,),), ((1, 2), (2, 4)), ((1, 0, 1), (0, 1, 1), (1, 1, 2))):
        with pytest.raises(ExactMathError, match="singular"):
            integer_inverse(singular)


def _reflection(alpha, acheck):
    n = len(alpha)
    return tuple(tuple(int(i == j) - alpha[i] * acheck[j] for j in range(n)) for i in range(n))


def test_dual_action_matches_fraction_oracle():
    def oracle(w):
        inverse = invert_matrix(w)
        assert all(x.denominator == 1 for row in inverse for x in row)
        return tuple(zip(*(tuple(map(int, row)) for row in inverse)))

    for desc in SPLIT_TYPES:
        for isogeny in ("adjoint", "simply_connected"):
            d = build_datum(desc, isogeny)
            reflections = [_reflection(a, c) for a, c in zip(d.simple_roots, d.simple_coroots)]
            products = [mat_mul(a, b) for a, b in zip(reflections, reflections[1:])]
            for w in reflections + products + [identity_matrix(d.rank)]:
                assert dual_action(w) == oracle(w)
    for desc, perm in (("A5", (4, 3, 2, 1, 0)), ("D4", (2, 1, 3, 0)), ("E6", (5, 1, 4, 3, 2, 0))):
        twist = build_automorphism(build_datum(desc), perm).matrix
        assert dual_action(twist) == oracle(twist)
    with pytest.raises(ExactMathError, match="not integral"):
        dual_action(((2, 0), (0, 1)))
