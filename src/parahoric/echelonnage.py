"""Restricted root systems of twisted root data, their valuation sets,
apartment points, the depth table of a point, the base alcove (its facets,
i.e. the simple affine roots, its vertices and the reduction of a point into
it), and the companion shift that absorbs nonzero lambda-valuations into a
point displacement.

A twisted datum is a root datum together with a diagram automorphism and a
lambda-valuation (a nonpositive rational in (1/e)Z) for each positive
multipliable restricted root; zero valuations model the tame situation.

The per-point geometry runs on integers.  An apartment point is its
numerators over their least common denominator D (``ApartmentPoint.den``
and ``.nums``); its ``Fraction`` coordinates are a view for the reports.  A
restricted root is the orbit average of its fiber, so its value at x is the
integer orbit sum paired with the numerators, over e D; the depth table
puts every value and valuation offset over one denominator and reads the
point order and the residues off integer ``gcd`` and ``//``.  Every
valuation set is one arithmetic progression, so the base alcove is found on
those same integer rows: its facets and translations are held over their
denominator q, and alcove reduction is an integer floor division and
integer folds.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, mul
from weakref import WeakValueDictionary

from .exactmath import (
    InputError,
    ValuationSet,
    Vec,
    as_ratio,
    clear_denominators,
    frozen_record,
    integer_inverse,
    mat_vec,
    matrix_rank,
    pair,
    reflection_orbit,
    rref,
    vec_add,
    vec_scale,
    vec_sub,
)
from .rootdata import (
    DiagramAutomorphism,
    RootDatum,
    cycles,
    identity_automorphism,
    regular_orders,
)

ALCOVE_ITERATION_CAP = 100_000
# Per-point results kept for reuse (``depth_table`` and the stability
# reference point): the calls about one point come together, so a few recent
# points suffice.  Per-datum tables live on the interned datum instead.
DEPTH_TABLE_CACHE = 32
_TWISTED: dict[tuple, TwistedDatum] = {}  # ``twisted`` interns its results


class EchelonnageError(InputError):
    pass


@frozen_record
class RestrictedRoot:
    """One restricted root: the orbit average of its fiber of absolute roots,
    with its coroot (the fiber coroot sum, doubled in the multipliable case so
    that it pairs to 2 with the key)."""

    key: Vec
    coroot: tuple[int, ...]
    fiber: tuple
    orbit_size: int
    cls: str  # plain | multipliable | divisible
    jump_set: ValuationSet
    positive: bool
    index: int  # position in ``restrict(td)``, i.e. in key order


@frozen_record
class _Scaffold:
    keys: tuple[Vec, ...]
    # the keys times the twist order e: each orbit sum times e / orbit size
    integer_keys: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    fibers: tuple[tuple, ...]
    orbit_sizes: tuple[int, ...]
    classes: tuple[str, ...]
    positives: tuple[bool, ...]
    positive_mult_keys: tuple[Vec, ...]
    # indices into positive_mult_keys, one tuple per restricted Weyl orbit
    lambda_orbits: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _scaffold(base: RootDatum, twist: DiagramAutomorphism) -> _Scaffold:
    """The restricted roots of (base, twist), one per twist orbit of roots (a
    cycle of the permutation the twist induces on them), found on integer
    keys: the key of an orbit, its average, is held as the orbit sum times
    e / orbit size, e the twist order.  The integer keys sort as the keys do,
    a key k is multipliable iff 2k is a key and divisible iff k/2 is, and a
    coroot pairs to 2 with k iff to 2e with its integer key.  The
    ``Fraction`` keys are built once, at the end."""
    e = twist.order
    keyed: dict[tuple[int, ...], tuple] = {}
    index = base.root_index
    for cycle in cycles([index[mat_vec(twist.matrix, r)] for r in base.roots]):
        orbit = tuple(base.roots[i] for i in cycle)
        weight = e // len(orbit)
        key = tuple(weight * sum(c) for c in zip(*orbit))
        if key in keyed:
            raise EchelonnageError(
                "two distinct twist orbits share a restriction; "
                "this configuration is not supported"
            )
        keyed[key] = orbit

    integer_keys = sorted(keyed)
    classes = []
    coroots = []
    for key in integer_keys:
        if tuple(2 * c for c in key) in keyed:
            cls = "multipliable"
        elif not any(c % 2 for c in key) and tuple(c // 2 for c in key) in keyed:
            cls = "divisible"
        else:
            cls = "plain"
        coroot = (0,) * base.rank
        for alpha in keyed[key]:
            coroot = vec_add(coroot, base.coroot_of(alpha))
        if cls == "multipliable":
            coroot = vec_scale(2, coroot)
        if pair(key, coroot) != 2 * e:
            raise EchelonnageError("restricted coroot does not pair to 2")
        classes.append(cls)
        coroots.append(coroot)
    fibers = tuple(keyed[k] for k in integer_keys)
    positives = tuple(base.is_positive(fiber[0]) for fiber in fibers)
    pos_mult = [i for i, (c, p) in enumerate(zip(classes, positives)) if c == "multipliable" and p]
    reflections = [(k, c) for k, c, p in zip(integer_keys, coroots, positives) if p]
    lambda_orbits = set()
    for i in pos_mult:
        orbit = reflection_orbit(integer_keys[i], reflections, e)
        lambda_orbits.add(tuple(j for j, b in enumerate(pos_mult) if integer_keys[b] in orbit))
    fraction = {c: Fraction(c, e) for c in {c for k in integer_keys for c in k}}
    keys = tuple(tuple(fraction[c] for c in k) for k in integer_keys)
    return _Scaffold(
        keys=keys,
        integer_keys=tuple(integer_keys),
        coroots=tuple(coroots),
        fibers=fibers,
        orbit_sizes=tuple(map(len, fibers)),
        classes=tuple(classes),
        positives=positives,
        positive_mult_keys=tuple(keys[i] for i in pos_mult),
        lambda_orbits=tuple(sorted(lambda_orbits)),
    )


@frozen_record
class TwistedDatum:
    """A root datum with a diagram automorphism and lambda-valuations, interned
    by ``twisted``: the per-datum tables below are computed once per datum."""

    base: RootDatum
    twist: DiagramAutomorphism
    lambda_valuations: tuple[Fraction, ...]

    @property
    def is_tame(self) -> bool:
        return all(v == 0 for v in self.lambda_valuations)

    @cached_property
    def restricted(self) -> tuple[RestrictedRoot, ...]:
        """Restricted roots with their valuation sets, one arithmetic
        progression each:

        plain a:        (1/e_a) Z
        multipliable a: v(lambda)/2 + (1/e_a) Z
        divisible 2a:   (1/e) Z minus (v(lambda) + (2/e) Z), e the orbit size
                        of the multipliable root below; the difference is the
                        single progression v(lambda) + 1/e + (2/e) Z.

        Halved, the levels of 2a are v(lambda)/2 + 1/(2e) + (1/e) Z, disjoint
        from those of a: no hyperplane of 2a is one of a.
        """
        scaff = _scaffold(self.base, self.twist)
        out = []
        for index, (key, coroot, fiber, e, cls, positive) in enumerate(zip(
            scaff.keys, scaff.coroots, scaff.fibers,
            scaff.orbit_sizes, scaff.classes, scaff.positives,
        )):
            if cls == "plain":
                jumps = ValuationSet.lattice(Fraction(1, e))
            elif cls == "multipliable":
                jumps = ValuationSet.lattice(Fraction(1, e), _lambda_for_key(self, key) / 2)
            else:
                half = tuple(x / 2 for x in key)
                e_mult = scaff.orbit_sizes[scaff.keys.index(half)]
                jumps = ValuationSet.lattice(
                    Fraction(2, e_mult), _lambda_for_key(self, half) + Fraction(1, e_mult)
                )
            out.append(RestrictedRoot(key, coroot, fiber, e, cls, jumps, positive, index))
        return tuple(out)

    @cached_property
    def by_key(self) -> dict:
        return {rr.key: rr for rr in self.restricted}

    @cached_property
    def simple_keys(self) -> tuple[Vec, ...]:
        """Restrictions of the simple roots, one per twist orbit of nodes."""
        simple = set(self.base.simple_roots)
        return tuple(rr.key for rr in self.restricted if not simple.isdisjoint(rr.fiber))

    @cached_property
    def simple_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.by_key[key].coroot for key in self.simple_keys)

    @cached_property
    def integer_keys(self) -> tuple[tuple[int, ...], ...]:
        """Every restricted key times the twist order e, in the order of
        ``restricted``: its orbit sum times e / orbit size."""
        return _scaffold(self.base, self.twist).integer_keys

    @cached_property
    def restricted_rank(self) -> int:
        return matrix_rank(self.integer_keys)

    @cached_property
    def depth_tables(self) -> WeakValueDictionary:
        """The depth tables of this datum by binning key, filled by
        ``depth_table``: points with the same binning share one table.  The
        map is weak, so a table lives only while a point's cache entry or a
        caller holds it."""
        return WeakValueDictionary()

    @cached_property
    def quotients(self) -> dict:
        """Reductive quotient data by depth-0 root set (the indices of its
        roots in ``restricted``), filled by ``mpquotient``."""
        return {}

    @cached_property
    def regular_orders(self) -> dict[int, int]:
        """Orders of the elliptic Z-regular elements of the twisted Weyl coset,
        each with the centralizer order of one (``rootdata.regular_orders``)."""
        return regular_orders(self.base, self.twist)

    @cached_property
    def regular_witnesses(self) -> dict:
        """The least elliptic Z-regular element of each order asked for,
        filled by ``stability``."""
        return {}

    @cached_property
    def affine_rows(self):
        """The affine-root data of ``depth_table`` and the base alcove over
        one denominator q, the lcm of the orbit sizes and of every valuation
        offset and step denominator: (q, q / lcm of the periods, rows).  A
        row is (restricted root, integer orbit sum = key * e, q / e,
        offset * q, period = 1 / step)."""
        roots = self.restricted
        for rr in roots:
            if rr.jump_set.step.numerator != 1:
                raise EchelonnageError("valuation step does not divide 1")
        q = lcm(
            *(rr.orbit_size for rr in roots),
            *(rr.jump_set.offset.denominator for rr in roots),
            *(rr.jump_set.step.denominator for rr in roots),
        )
        rows = tuple(
            (
                rr,
                tuple(map(sum, zip(*rr.fiber))),
                q // rr.orbit_size,
                (rr.jump_set.offset * q).numerator,
                rr.jump_set.step.denominator,
            )
            for rr in roots
        )
        return q, q // lcm(*(row[4] for row in rows)), rows

    @cached_property
    def integer_alcove(self) -> _IntegerAlcove:
        """The base alcove on the rows of ``affine_rows``, over their q.

        Its facets are its simple affine roots: rank + c of them for a
        restricted root system with c irreducible components.  The alcove
        holds p = (the sum of the positive coroots) / T.  With H_a = q a(T p)
        and l_a the least positive level of a in units of 1/q, T exceeds
        every H_a / l_a, so every positive root lies strictly between its
        levels l_a - step and l_a at p, and in units of 1/(q T) every value
        and level is an integer.  Each of those two levels is a facet iff its
        hyperplane is the only one strictly between p and the reflection of
        p across it: the reflection in any other wall has length above one
        in the affine Weyl group.  The levels of a and of 2a are disjoint
        (``restricted``), so the hyperplanes between two points are counted
        root by root, each by floor division.
        """
        q, _, rows = self.affine_rows
        positives = [row for row in rows if row[0].positive]
        if not positives:
            raise EchelonnageError("restricted root system is empty")
        direction = (0,) * self.base.rank
        for row in positives:
            direction = vec_add(direction, row[0].coroot)
        # (root, key * q, H_a, step * q, l_a * q); the offset lies in
        # [0, step), so l_a is the offset unless that is 0
        table = [
            (rr, vec_scale(weight, orbit_sum), weight * pair(orbit_sum, direction),
             q // period, offset or q // period)
            for rr, orbit_sum, weight, offset, period in positives
        ]
        if min(row[2] for row in table) <= 0:
            raise EchelonnageError("reference direction is not regular")
        big_t = 1 + max(h // least for _, _, h, _, least in table)
        facets = []
        for rr, key, h, step, least in table:
            for sign, level in ((1, least - step), (-1, least)):
                # b(image) = b(p) - (a(p) - level) <b, acheck>; the twist keeps
                # the pairing and fixes acheck, so any root of b's fiber gives it
                t = h - big_t * level
                crossed = 0
                for b, _, hb, step_b, least_b in table:
                    lo, hi = sorted((hb, hb - t * pair(b.fiber[0], rr.coroot)))
                    start, period_b = big_t * least_b, big_t * step_b
                    crossed += (hi - start) // period_b - (lo - start) // period_b
                    if crossed > 1:
                        break
                else:  # the wall itself is the only hyperplane crossed
                    facets.append((vec_scale(sign, key), sign * level, vec_scale(sign, rr.coroot)))
        simple = set(self.simple_keys)
        simples = [row for row in rows if row[0].key in simple]
        # w = period * (row of C^-1) . keys = w_num / (den e) on the integer keys
        den, inverse = integer_inverse(
            [[pair(a.fiber[0], b.coroot) for b, *_ in simples] for a, *_ in simples]
        )
        den *= self.twist.order
        columns = list(zip(*(self.integer_keys[b.index] for b, *_ in simples)))
        translations = []
        for (rr, *_, period), coefficients in zip(simples, inverse):
            w = [period * pair(coefficients, column) for column in columns]
            g = gcd(den, *w)
            translations.append(
                (tuple(c // g for c in w), den // g, vec_scale(q // period, rr.coroot))
            )
        return _IntegerAlcove(q, tuple(facets), tuple(translations))

    @cached_property
    def alcove_vertices(self) -> tuple[ApartmentPoint, ...]:
        """Vertices of the closed base alcove, in sorted order.

        In the coordinates of the restricted simple coroots, which span the
        twist-fixed subspace, each vertex solves rank of the facet equations
        key(x) = level, read over q off ``integer_alcove``.  A set of rank
        facets is independent iff it leaves out exactly one facet of each
        irreducible component, and then its solution is a vertex.
        """
        basis = self.simple_coroots
        vertices = set()
        for subset in combinations(self.integer_alcove.facets, len(basis)):
            red, pivots = rref([[pair(key, b) for b in basis] + [level] for key, level, _ in subset])
            if pivots == list(range(len(basis))):
                vertices.add(point_from_simple_coroots(self, [row[-1] for row in red]))
        return tuple(sorted(vertices, key=attrgetter("coords")))


def twisted(
    base: RootDatum,
    twist: DiagramAutomorphism | None = None,
    lambda_valuations=None,
) -> TwistedDatum:
    """Assemble a twisted datum, validating the lambda-valuations; one object
    per (base, twist, valuations).

    ``lambda_valuations`` maps the index of a positive multipliable restricted
    root (in sorted key order) to a nonpositive rational in (1/e)Z; missing
    entries default to zero.  Roots in one restricted Weyl orbit must share
    their valuation; otherwise the valuation sets are not Weyl-invariant and
    the quotient root systems are not reflection closed.
    """
    if twist is None:
        twist = identity_automorphism(base)
    scaff = _scaffold(base, twist)
    count = len(scaff.positive_mult_keys)
    values = [Fraction(0)] * count
    if lambda_valuations:
        items = (
            lambda_valuations.items()
            if hasattr(lambda_valuations, "items")
            else enumerate(lambda_valuations)
        )
        for idx, val in items:
            idx = int(idx)
            if not 0 <= idx < count:
                raise EchelonnageError(
                    f"lambda valuation index {idx} out of range (have {count} "
                    "positive multipliable restricted roots)"
                )
            values[idx] = Fraction(val)
    for idx, val in enumerate(values):
        key = scaff.positive_mult_keys[idx]
        e = scaff.orbit_sizes[scaff.keys.index(key)]
        if val > 0:
            raise EchelonnageError("lambda valuation must be nonpositive")
        if (val * e).denominator != 1:
            raise EchelonnageError(
                f"lambda valuation {val} is not in (1/{e})Z"
            )
    for orbit in scaff.lambda_orbits:
        if len({values[i] for i in orbit}) > 1:
            raise EchelonnageError(
                f"lambda valuations at indices {list(orbit)} differ, but those "
                "roots lie in one restricted Weyl orbit"
            )
    key = (base, twist, tuple(values))
    return _TWISTED.setdefault(key, TwistedDatum(*key))


def _lambda_for_key(td: TwistedDatum, key: Vec) -> Fraction:
    scaff = _scaffold(td.base, td.twist)
    if key in scaff.positive_mult_keys:
        return td.lambda_valuations[scaff.positive_mult_keys.index(key)]
    neg = tuple(-x for x in key)
    if neg in scaff.positive_mult_keys:
        return td.lambda_valuations[scaff.positive_mult_keys.index(neg)]
    raise EchelonnageError("key is not a multipliable restricted root")


def restrict(td: TwistedDatum) -> tuple[RestrictedRoot, ...]:
    return td.restricted


@frozen_record
class ApartmentPoint:
    """Displacement x - x0, a rational vector fixed by the twist, as integer
    numerators over their least common denominator D > 0: equal points are
    equal records, hashed on integers; ``coords`` is the ``Fraction`` view."""

    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        """Lowest terms with D > 0, so that equal points are equal records."""
        if self.den <= 0:
            raise EchelonnageError("apartment point denominator must be positive")
        g = gcd(self.den, *self.nums)
        self.__dict__.update(den=self.den // g, nums=tuple(c // g for c in self.nums))

    @staticmethod
    def from_coords(coords) -> "ApartmentPoint":
        """The point with these rational coordinates, unchecked."""
        den, (nums,) = clear_denominators(coords)
        return ApartmentPoint(den, nums)

    @property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        return self.den, self.nums

    @cached_property
    def coords(self) -> Vec:
        return tuple(Fraction(c, self.den) for c in self.nums)


def _fixed_point(td: TwistedDatum, den: int, nums) -> ApartmentPoint:
    """The point nums / den, after checking it on the integer numerators."""
    nums = tuple(nums)
    if len(nums) != td.base.rank:
        raise EchelonnageError("apartment point has the wrong dimension")
    if mat_vec(td.twist.matrix, nums) != nums:
        raise EchelonnageError("apartment point is not fixed by the twist")
    return ApartmentPoint(den, nums)


def apartment_point(td: TwistedDatum, coords) -> ApartmentPoint:
    den, (nums,) = clear_denominators(coords)
    return _fixed_point(td, den, nums)


def origin(td: TwistedDatum) -> ApartmentPoint:
    return ApartmentPoint(1, (0,) * td.base.rank)


def point_from_simple_coroots(td: TwistedDatum, coefficients) -> ApartmentPoint:
    """The sum of the coefficients times the restricted simple coroots, added
    as integer coroot multiples over the coefficients' common denominator."""
    coroots = td.simple_coroots
    den, (coeffs,) = clear_denominators(coefficients)
    if len(coeffs) != len(coroots):
        raise EchelonnageError(
            f"expected {len(coroots)} coordinates (one per restricted simple coroot)"
        )
    acc = (0,) * td.base.rank
    for c, coroot in zip(coeffs, coroots):
        acc = vec_add(acc, vec_scale(c, coroot))
    return _fixed_point(td, den, acc)


def evaluate(key: Vec, point: ApartmentPoint) -> Fraction:
    return pair(key, point.coords)


def torus_jump_dim(td: TwistedDatum, r) -> int:
    """Dimension of the torus part at depth r: the multiplicity of the twist
    eigenvalue of angle -r, which depends only on the denominator of r mod 1,
    that of r."""
    return td.twist.spectrum.get(as_ratio(r)[1], 0)


# ---------------------------------------------------------------------------
# depth table


@frozen_record
class DepthTable:
    """The filtration quotients at a point, binned by depth.

    N = ``order`` is the point order.  Depth k/N carries one line for each
    restricted root a with k/N - a(x - x0) in the valuation set of a
    (``roots[k]``, in key order; empty residues are left out) and a torus
    part of dimension ``torus_jump_dim``.  Every valuation step divides 1, so
    the root part repeats mod 1, and a depth off the (1/N)Z grid has none.

    The table is interned per binning (``depth_table``), so what is read
    off it alone is computed once for all the points that share it: its
    jumps, and the results its readers keep with ``kept``.
    """

    td: TwistedDatum
    order: int
    roots: dict[int, tuple[RestrictedRoot, ...]]

    @cached_property
    def results(self) -> dict:
        """The results kept by ``kept``, keyed by reader and depth."""
        return {}

    @cached_property
    def unit(self) -> int:
        """The common denominator of the jumps: the point order and the
        orders of the twist eigenvalues."""
        return lcm(self.order, *self.td.twist.spectrum)

    def kept(self, name: str, r: Fraction, build):
        """``build()``, the result of reader ``name`` at depth r, which must
        be a function of this table and r alone.  It is kept for a depth in
        [0, 1] over ``unit`` (every jump, and 1, the first jump of a point
        with none in (0, 1)), so a table keeps at most unit + 1 results per
        reader however many depths its points are asked about; any other
        depth is built afresh.  The key holds integers, not a Fraction."""
        num, den = r.numerator, r.denominator
        if not (0 <= num <= den and self.unit % den == 0):
            return build()
        key = name, num, den
        result = self.results.get(key)
        if result is None:
            result = self.results[key] = build()
        return result

    def at(self, r) -> tuple[tuple[RestrictedRoot, ...], int]:
        """The roots and the torus dimension of the quotient at depth r."""
        num, den = as_ratio(r)
        n = self.order
        roots = self.roots.get(num * (n // den) % n, ()) if n % den == 0 else ()
        return roots, torus_jump_dim(self.td, r)

    def dim(self, r) -> int:
        """Dimension of the quotient at depth r."""
        roots, torus = self.at(r)
        return len(roots) + torus

    def column(self, m: int) -> tuple[int, ...]:
        """Dimensions of the quotients at the depths d/m, 0 <= d < m, for a
        multiple m of the point order: d/m is on the grid iff m/N divides d,
        and the torus part depends on the reduced denominator m/gcd(d, m)."""
        step = m // self.order
        spectrum = self.td.twist.spectrum
        return tuple(
            (0 if d % step else len(self.roots.get(d // step, ())))
            + spectrum.get(m // gcd(d, m), 0)
            for d in range(m)
        )

    def jumps(self) -> tuple[Fraction, ...]:
        """All depths in [0, 1) with a nonzero quotient: the root residues and
        the angles j/d, gcd(j, d) = 1, of the twist eigenvalues of order d."""
        return self._jumps

    @cached_property
    def _jumps(self) -> tuple[Fraction, ...]:
        spectrum = self.td.twist.spectrum
        unit = self.unit  # the depths as integers over unit
        depths = {k * (unit // self.order) for k in self.roots}
        for d in spectrum:
            depths.update(j * (unit // d) for j in range(d) if gcd(j, d) == 1)
        return tuple(Fraction(u, unit) for u in sorted(depths))


@lru_cache(maxsize=DEPTH_TABLE_CACHE)
def depth_table(td: TwistedDatum, x: ApartmentPoint) -> DepthTable:
    """Bin every affine root at x by its depth, once per (datum, point), and
    once per binning: the table is interned in ``td.depth_tables``.

    N is the lcm of the denominators of every affine-root value a(x - x0) + o
    (o the offset of the valuation set of a) and of every valuation step, so
    each progression a(x - x0) + o + step*Z is a residue class of N*step in
    (1/N)Z.  A root lands in 1/step residues, whatever N is.

    With x = nums / D, every value and step times T = q D is an integer u
    (a(x - x0) = <orbit sum, nums> / (e D)), so N = T / gcd(T, the u) and the
    residue of a progression is u / gcd mod N*step.  N and the first residue
    of each root fix the bins: they are the key of the table.
    """
    q, unit, rows = td.affine_rows
    den, nums = x.scaled
    values = []
    g = den * unit  # gcd(T, every step times T)
    for _, orbit_sum, weight, offset, _ in rows:
        u = weight * sum(map(mul, orbit_sum, nums)) + offset * den
        g = gcd(g, u)
        values.append(u)
    n = q * den // g
    key = (n, *(u // g % (n // row[4]) for row, u in zip(rows, values)))
    table = td.depth_tables.get(key)
    if table is None:
        bins: dict[int, list[RestrictedRoot]] = {}
        for (rr, *_, period), first in zip(rows, key[1:]):
            for k in range(first, n, n // period):
                bins.setdefault(k, []).append(rr)
        table = td.depth_tables[key] = DepthTable(td, n, {k: tuple(v) for k, v in bins.items()})
    return table


def point_order(td: TwistedDatum, x: ApartmentPoint) -> int:
    """Least m with every affine-root value at x in (1/m)Z."""
    return depth_table(td, x).order


# ---------------------------------------------------------------------------
# the base alcove


def in_base_alcove(td: TwistedDatum, x: ApartmentPoint) -> bool:
    den, nums = x.scaled
    return all(_excess(f, nums, den) >= 0 for f in td.integer_alcove.facets)


def alcove_vertices(td: TwistedDatum) -> tuple[ApartmentPoint, ...]:
    return td.alcove_vertices


@frozen_record
class _IntegerAlcove:
    """The base alcove over the q of ``TwistedDatum.affine_rows``, one
    facet per simple affine root.  ``facets`` holds (key * q, level * q,
    coroot) per facet, held one-sided: key(x) >= level inside, the key a
    restricted root, negated for an upper wall, with its coroot.
    ``translations`` holds (w * p, p, t * q) per simple restricted root a:
    t = step(a) * acheck, a translation in the affine Weyl group (the product
    of the reflections in the parallel walls a = l and a = l + step), and w
    the dual functional, so that a fixed point v equals the sum of
    pair(w, v) * t; p is the least common denominator of w."""

    q: int
    facets: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]
    translations: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]


def _excess(facet, nums, den: int) -> int:
    """q den (key(x) - level) at x = nums / den: negative iff x is on the
    wrong side of the facet."""
    key, level, _ = facet
    return pair(key, nums) - level * den


def alcove_reduce(td: TwistedDatum, x: ApartmentPoint) -> ApartmentPoint:
    """The unique representative of the affine-Weyl orbit of x in the closed
    base alcove: translate by the lattice part with an exact floor, then
    reflect across violated facets.  The point is held as integers over a
    multiple of q, which every translation and fold keeps on the twist-fixed
    subspace (there key(x) is the value of a root of its fiber)."""
    table = td.integer_alcove
    q = table.q
    d, nums = x.scaled
    den = lcm(d, q)
    v = vec_scale(den // d, nums)
    for w, p, t in table.translations:
        k = pair(w, v) // (p * den)
        if k:
            v = vec_sub(v, vec_scale(k * (den // q), t))
    for _ in range(ALCOVE_ITERATION_CAP):
        moved = False
        for facet in table.facets:
            t = _excess(facet, v, den)
            if t < 0:
                k, rem = divmod(t, q)
                if rem:  # off the twist-fixed subspace: refine the denominator
                    v, den, k = vec_scale(q, v), q * den, t
                v = vec_sub(v, vec_scale(k, facet[2]))
                moved = True
        if not moved:
            return ApartmentPoint(den, v)
    raise EchelonnageError(
        f"field 'point': alcove reduction did not terminate within "
        f"{ALCOVE_ITERATION_CAP} passes"
    )


# ---------------------------------------------------------------------------
# companion shift


def companion_shift(td: TwistedDatum, x: ApartmentPoint):
    """Trade the lambda-valuations for a point displacement.

    Returns (td_tame, x_shifted) with all lambda-valuations zero and
    x_shifted - x0 = (x - x0) - (1/4) sum over positive multipliable b of
    v(lambda_b) * bcheck.  Membership of r - a(x - x0) in the valuation set
    of a is preserved for every restricted root a and rational r.
    """
    den, v = x.scaled
    for lam, key in zip(td.lambda_valuations, _scaffold(td.base, td.twist).positive_mult_keys):
        if lam:  # v / den - c bcheck for c = lam / 4, over den times c.denominator
            c, coroot = lam / 4, td.by_key[key].coroot
            v = vec_sub(vec_scale(c.denominator, v), vec_scale(c.numerator * den, coroot))
            den *= c.denominator
    return twisted(td.base, td.twist), ApartmentPoint(den, v)
