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
point order and the residues off integer ``gcd`` and ``//``.  The base
alcove is read off those same integer rows in closed form, one irreducible
component at a time: its facets are the simple affine roots and its vertices
the scaled fundamental coweights (Kac coordinates).  Its facets and
translations are held over their denominator q, and alcove reduction is an
integer floor division and integer folds.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from operator import attrgetter, mul
from weakref import WeakValueDictionary

from .exactmath import (
    InputError,
    ValuationSet,
    Vec,
    as_ratio,
    clear_denominators,
    closure,
    frozen_record,
    integer_inverse,
    kept,
    mat_vec,
    pair,
    reflection_orbit,
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
# Translation classes kept per point for reuse (``translation_class``),
# each with its depth table.  The calls about one point come together, but a
# sweep over one datum comes back to its classes: 96 points hold each class
# of the benchmark's warm sweep (60 points a datum, and a wild datum's tame
# shifts beside them) until its last point at seeds 0 to 6, where 32 lose
# some.  Per-datum tables live on the interned datum instead.
DEPTH_TABLE_CACHE = 96
_TWISTED: dict[tuple, TwistedDatum] = {}  # ``twisted`` interns its results


class EchelonnageError(InputError):
    pass


@frozen_record
class RestrictedRoot:
    """One restricted root: the orbit average of its fiber of absolute roots,
    with its coroot (the fiber coroot sum, doubled in the multipliable case so
    that it pairs to 2 with the key)."""

    key: Vec
    integer_key: tuple[int, ...]  # the key times the twist order e
    coroot: tuple[int, ...]
    fiber: tuple
    orbit_size: int
    cls: str  # plain | multipliable | divisible
    jump_set: ValuationSet
    positive: bool
    index: int  # position in ``restrict(td)``, i.e. in key order


@frozen_record
class _Scaffold:
    # (key, integer key, coroot, fiber, class, positive) per twist orbit of
    # roots, in key order: a restricted root without its valuation set
    roots: tuple[tuple, ...]
    # the positions in ``roots`` of the positive multipliable roots, in the
    # order of the lambda-valuations
    lambda_roots: tuple[int, ...]
    # indices into lambda_roots, one tuple per restricted Weyl orbit
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

    roots = []
    for key in sorted(keyed):
        if tuple(2 * c for c in key) in keyed:
            cls = "multipliable"
        elif not any(c % 2 for c in key) and tuple(c // 2 for c in key) in keyed:
            cls = "divisible"
        else:
            cls = "plain"
        fiber = keyed[key]
        coroot = (0,) * base.rank
        for alpha in fiber:
            coroot = vec_add(coroot, base.coroot_of(alpha))
        if cls == "multipliable":
            coroot = vec_scale(2, coroot)
        if pair(key, coroot) != 2 * e:
            raise EchelonnageError("restricted coroot does not pair to 2")
        roots.append((key, coroot, fiber, cls, base.is_positive(fiber[0])))
    lambda_roots = tuple(
        i for i, (*_, cls, positive) in enumerate(roots) if cls == "multipliable" and positive
    )
    reflections = [(key, coroot) for key, coroot, *_, positive in roots if positive]
    lambda_orbits = set()
    for i in lambda_roots:
        orbit = reflection_orbit(roots[i][0], reflections, e)
        lambda_orbits.add(tuple(j for j, b in enumerate(lambda_roots) if roots[b][0] in orbit))
    fraction = {c: Fraction(c, e) for c in {c for k in keyed for c in k}}
    return _Scaffold(
        roots=tuple((tuple(fraction[c] for c in key), key, *rest) for key, *rest in roots),
        lambda_roots=lambda_roots,
        lambda_orbits=tuple(sorted(lambda_orbits)),
    )


@frozen_record
class TwistedDatum:
    """A root datum with a diagram automorphism and lambda-valuations, interned
    by ``twisted``: the per-datum tables below are computed once per datum.
    The quotient types are not among them: a type is a function of its
    Cartan matrix alone, so ``mpquotient`` interns one per matrix."""

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
        # the lambda-valuation and the orbit size of each multipliable root,
        # by integer key, of either sign
        mult = {}
        for lam, i in zip(self.lambda_valuations, scaff.lambda_roots):
            _, key, _, fiber, *_ = scaff.roots[i]
            mult[key] = mult[tuple(-c for c in key)] = lam, len(fiber)
        out = []
        for index, (key, integer_key, coroot, fiber, cls, positive) in enumerate(scaff.roots):
            e = len(fiber)
            if cls == "plain":
                jumps = ValuationSet.lattice(Fraction(1, e))
            elif cls == "multipliable":
                jumps = ValuationSet.lattice(Fraction(1, e), mult[integer_key][0] / 2)
            else:
                lam, e_mult = mult[tuple(c // 2 for c in integer_key)]
                jumps = ValuationSet.lattice(Fraction(2, e_mult), lam + Fraction(1, e_mult))
            out.append(RestrictedRoot(key, integer_key, coroot, fiber, e, cls, jumps, positive, index))
        return tuple(out)

    @cached_property
    def by_key(self) -> dict:
        return {rr.key: rr for rr in self.restricted}

    @cached_property
    def simple_restricted(self) -> tuple[RestrictedRoot, ...]:
        """Restrictions of the simple roots, one per twist orbit of nodes."""
        simple = set(self.base.simple_roots)
        return tuple(rr for rr in self.restricted if not simple.isdisjoint(rr.fiber))

    @cached_property
    def simple_keys(self) -> tuple[Vec, ...]:
        return tuple(rr.key for rr in self.simple_restricted)

    @cached_property
    def simple_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(rr.coroot for rr in self.simple_restricted)

    @cached_property
    def coroot_columns(self) -> tuple[tuple[int, ...], ...]:
        """The matrix with the simple coroots as its columns."""
        return tuple(zip(*self.simple_coroots))

    @cached_property
    def restricted_rank(self) -> int:
        """The rank of the span of the restricted roots, which the simple
        restricted roots are a basis of."""
        return len(self.simple_keys)

    @cached_property
    def depth_tables(self) -> WeakValueDictionary:
        """The depth tables of this datum by binning key, filled by
        ``translation_class``: points with the same binning share one table.
        The map is weak, so a table lives only while a translation class or a
        caller holds it."""
        return WeakValueDictionary()

    @cached_property
    def translation_classes(self) -> WeakValueDictionary:
        """The translation classes of this datum by representative point,
        filled by ``translation_class``; weak, as ``depth_tables`` is."""
        return WeakValueDictionary()

    @cached_property
    def results(self) -> dict:
        """The readings of this datum kept by ``exactmath.kept``, keyed by
        (reader, key)."""
        return {}

    @cached_property
    def regular_orders(self) -> dict[int, int]:
        """Orders of the elliptic Z-regular elements of the twisted Weyl coset,
        each with the centralizer order of one (``rootdata.regular_orders``)."""
        return regular_orders(self.base, self.twist)

    @cached_property
    def affine_rows(self):
        """The affine-root data of ``depth_table`` and the base alcove over
        one denominator q, the lcm of the twist order e (the lcm of the
        orbit sizes) and of every valuation offset and step denominator:
        (q, q / lcm of the periods, rows).  A row is (restricted root,
        key * q = integer key * (q / e), offset * q, period = 1 / step)."""
        roots = self.restricted
        for rr in roots:
            if rr.jump_set.step.numerator != 1:
                raise EchelonnageError("valuation step does not divide 1")
        e = self.twist.order
        q = lcm(
            e,
            *(rr.jump_set.offset.denominator for rr in roots),
            *(rr.jump_set.step.denominator for rr in roots),
        )
        rows = tuple(
            (
                rr,
                vec_scale(q // e, rr.integer_key),
                (rr.jump_set.offset * q).numerator,
                rr.jump_set.step.denominator,
            )
            for rr in roots
        )
        return q, q // lcm(*(row[3] for row in rows)), rows

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The positions in ``simple_restricted`` of the simple roots of each
        irreducible component, linked by nonzero Cartan entries <a, bcheck>.
        An entry sums the base entries between the node orbits of a and b,
        never positive off the diagonal, so the base diagram has the links."""
        simple = self.simple_restricted
        position = {self.base.simple_roots.index(alpha): j for j, rr in enumerate(simple) for alpha in rr.fiber}
        linked = [set() for _ in simple]
        for i, row in enumerate(self.base.cartan):
            linked[position[i]].update(position[k] for k, c in enumerate(row) if c)
        return tuple(sorted({tuple(sorted(closure([j], linked.__getitem__))) for j in range(len(simple))}))

    @cached_property
    def cartan_inverses(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """(D, D C^-1) per component, C its Cartan block, C[a][b] = <a, bcheck>."""
        s = self.simple_restricted
        blocks = ([[pair(s[a].fiber[0], s[b].coroot) for b in js] for a in js] for js in self.components)
        return tuple(map(integer_inverse, blocks))

    @cached_property
    def integer_alcove(self) -> _IntegerAlcove:
        """The base alcove on the rows of ``affine_rows``, over their q.

        Its facets are its simple affine roots, in closed form: first a lower
        wall a = 0 per simple restricted root a, on the row of a or of 2a
        whose valuation set holds 0 (their levels are disjoint), then an
        upper wall per component, in the order of ``components``: the first
        hyperplane a = l_a (l_a the least positive level of a) that the ray
        from x0 along the sum of the positive coroots meets, that of the
        positive root of the component with the largest H_a / l_a, where
        H_a = q a(the sum).  A root lies in the component of its support.
        """
        q, _, rows = self.affine_rows
        positives = [row for row in rows if row[0].positive]
        if not positives:
            raise EchelonnageError("restricted root system is empty")
        direction = tuple(map(sum, zip(*(row[0].coroot for row in positives))))
        base, simple = self.base, self.simple_restricted
        component = {}  # by node of the base
        for c, js in enumerate(self.components):
            component.update((base.simple_roots.index(alpha), c) for j in js for alpha in simple[j].fiber)
        top = [(0, 1, None, None)] * len(self.components)  # best (H_a, l_a * q, a, key * q)
        for rr, key, offset, period in positives:
            # the offset lies in [0, step), so l_a is the offset unless that is 0
            h, least = pair(key, direction), offset or q // period
            if h <= 0:
                raise EchelonnageError("reference direction is not regular")
            c = component[next(i for i, x in enumerate(base.coeffs[base.root_index[rr.fiber[0]]]) if x)]
            if h * top[c][1] > top[c][0] * least:
                top[c] = h, least, rr, key
        facets = []
        for a in simple:  # 0 is a level of a, or of 2a if the offset of a is not 0
            rr = self.by_key[vec_scale(2, a.key)] if rows[a.index][2] else a
            facets.append((rows[rr.index][1], 0, rr.coroot))
        for _, least, rr, key in top:
            facets.append((vec_scale(-1, key), -least, vec_scale(-1, rr.coroot)))
        return _IntegerAlcove(q, tuple(facets))

    @cached_property
    def translations(self) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
        """(w * p, p, t * q) per simple restricted root a, q that of
        ``affine_rows``: t = step(a) * acheck, a translation in the affine
        Weyl group (the product of the reflections in the parallel walls
        a = l and a = l + step), and w the dual functional, so that a fixed
        point v equals the sum of pair(w, v) * t; p is the least common
        denominator of w.  Every restricted root b pairs with t into its own
        step lattice, so t fixes the level set of every affine root.  w is
        read off a's Cartan block (``cartan_inverses``)."""
        q, _, rows = self.affine_rows
        simple = self.simple_restricted
        translations = {}
        for js, (den, inverse) in zip(self.components, self.cartan_inverses):
            # w = period * (row of C^-1) . keys = w_num / (den e) on the integer keys
            den *= self.twist.order
            columns = list(zip(*(simple[b].integer_key for b in js)))
            for a, coefficients in zip(js, inverse):
                rr, *_, period = rows[simple[a].index]
                w = [period * pair(coefficients, column) for column in columns]
                g = gcd(den, *w)
                translations[a] = (tuple(c // g for c in w), den // g, vec_scale(q // period, rr.coroot))
        return tuple(translations[a] for a in range(len(simple)))

    @cached_property
    def alcove_parts(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The vertices of the base alcove of each irreducible component, in
        restricted-simple-coroot coordinates and zero off the component: each
        vertex of the closed base alcove is a sum of one part per component.
        A component's vertices are x0 and, per simple root i, the point where
        the other simple roots vanish and the upper wall's root reaches its
        level (Kac coordinates): column i of the inverse Cartan block, scaled."""
        n = len(self.simple_restricted)
        parts = []
        uppers = self.integer_alcove.facets[n:]
        for js, (_, inverse), (key, level, _) in zip(self.components, self.cartan_inverses, uppers):
            values = [pair(key, self.simple_coroots[j]) for j in js]  # at each bcheck
            part = [(0,) * n]
            for column in zip(*inverse):
                at, h = dict(zip(js, column)), pair(column, values)
                part.append(tuple(Fraction(level * at[j], h) if j in at else 0 for j in range(n)))
            parts.append(tuple(part))
        return tuple(parts)


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
    count = len(scaff.lambda_roots)
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
    for val, i in zip(values, scaff.lambda_roots):
        e = len(scaff.roots[i][3])  # the orbit size, that of the fiber
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
    return kept(_TWISTED, key, lambda: TwistedDatum(*key))


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
    """The sum of the coefficients times the restricted simple coroots: one
    integer mat-vec of the coroot columns (``TwistedDatum.coroot_columns``)
    with the coefficients over their common denominator."""
    count = len(td.simple_restricted)
    den, (coeffs,) = clear_denominators(coefficients)
    if len(coeffs) != count:
        raise EchelonnageError(
            f"expected {count} coordinates (one per restricted simple coroot)"
        )
    return _fixed_point(td, den, mat_vec(td.coroot_columns, coeffs))


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

    The table is interned per binning (``translation_class``), so what is read
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
        be a function of this table and r alone.  Only a depth in [0, 1] over
        ``unit`` (every jump, and 1, the first jump of a point with none in
        (0, 1)) goes to ``exactmath.kept``, keyed by (name, numerator,
        denominator), so a table keeps at most unit + 1 results per reader
        however many depths its points are asked about; any other depth is
        built afresh."""
        num, den = r.numerator, r.denominator
        if not (0 <= num <= den and self.unit % den == 0):
            return build()
        return kept(self.results, (name, num, den), build)

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

    @property
    def first_jump(self) -> Fraction:
        """Least positive depth with a nonzero quotient.  Depth 0 always
        carries the fixed torus and the quotients repeat mod 1, so the answer
        is at most 1."""
        return next((r for r in self._jumps if r), None) or Fraction(1)

    @cached_property
    def _jumps(self) -> tuple[Fraction, ...]:
        spectrum = self.td.twist.spectrum
        unit = self.unit  # the depths as integers over unit
        depths = {k * (unit // self.order) for k in self.roots}
        for d in spectrum:
            depths.update(j * (unit // d) for j in range(d) if gcd(j, d) == 1)
        return tuple(Fraction(u, unit) for u in sorted(depths))


@frozen_record
class TranslationClass:
    """The points x + t, t in the lattice of ``TwistedDatum.translations``,
    held by the one point of them that ``_translated`` gives.  A translation
    fixes the level set of every affine root, so the points of a class share
    their depth table (binned at ``point``, and shared by every class with
    its binning), their alcove reduction and every reading that is a
    function of ``point``, its table and the reader's key."""

    point: ApartmentPoint
    table: DepthTable

    @cached_property
    def results(self) -> dict:
        """The readings of the class by key, kept by ``exactmath.kept``: the
        crosscheck per modulus (``vinberg``) and the verdict
        (``stability``)."""
        return {}

    @cached_property
    def reduced(self) -> ApartmentPoint:
        """The point of the class in the closed base alcove."""
        return alcove_reduce(self.table.td, self.point)


@lru_cache(maxsize=DEPTH_TABLE_CACHE)
def translation_class(td: TwistedDatum, x: ApartmentPoint) -> TranslationClass:
    """The translation class of x, once per (datum, point), and interned in
    ``td.translation_classes`` by its point."""
    point = ApartmentPoint(*_translated(td, x))
    return kept(td.translation_classes, point, lambda: TranslationClass(point, _binned(td, point)))


def depth_table(td: TwistedDatum, x: ApartmentPoint) -> DepthTable:
    """The depth table of x: that of its translation class, which x's own
    values would bin alike."""
    return translation_class(td, x).table


def _binned(td: TwistedDatum, x: ApartmentPoint) -> DepthTable:
    """Bin every affine root at x by its depth, once per binning: the table
    is interned in ``td.depth_tables``.

    N is the lcm of the denominators of every affine-root value a(x - x0) + o
    (o the offset of the valuation set of a) and of every valuation step, so
    each progression a(x - x0) + o + step*Z is a residue class of N*step in
    (1/N)Z.  A root lands in 1/step residues, whatever N is.

    With x = nums / D, every value and step times T = q D is an integer u
    (q a(x - x0) = <key * q, nums> / D), so N = T / gcd(T, the u) and the
    residue of a progression is u / gcd mod N*step.  N and the first residue
    of each root fix the bins: they are the key of the table.
    """
    q, unit, rows = td.affine_rows
    den, nums = x.scaled
    values = []
    g = den * unit  # gcd(T, every step times T)
    for _, key_q, offset, _ in rows:
        u = sum(map(mul, key_q, nums)) + offset * den
        g = gcd(g, u)
        values.append(u)
    n = q * den // g
    key = (n, *(u // g % (n // row[3]) for row, u in zip(rows, values)))

    def build():
        bins: dict[int, list[RestrictedRoot]] = {}
        for (rr, *_, period), first in zip(rows, key[1:]):
            for k in range(first, n, n // period):
                bins.setdefault(k, []).append(rr)
        return DepthTable(td, n, {k: tuple(v) for k, v in bins.items()})

    return kept(td.depth_tables, key, build)


def point_order(td: TwistedDatum, x: ApartmentPoint) -> int:
    """Least m with every affine-root value at x in (1/m)Z."""
    return depth_table(td, x).order


# ---------------------------------------------------------------------------
# the base alcove


def in_base_alcove(td: TwistedDatum, x: ApartmentPoint) -> bool:
    den, nums = x.scaled
    return all(_excess(f, nums, den) >= 0 for f in td.integer_alcove.facets)


def alcove_vertices(td: TwistedDatum) -> tuple[ApartmentPoint, ...]:
    """Vertices of the closed base alcove, sorted: the sums over the product
    of the component parts (``TwistedDatum.alcove_parts``)."""
    sums = (list(map(sum, zip(*choice))) for choice in product(*td.alcove_parts))
    return tuple(sorted((point_from_simple_coroots(td, c) for c in sums), key=attrgetter("coords")))


@frozen_record
class _IntegerAlcove:
    """The base alcove over the q of ``TwistedDatum.affine_rows``, one
    facet per simple affine root.  ``facets`` holds (key * q, level * q,
    coroot) per facet, held one-sided: key(x) >= level inside, the key a
    restricted root, negated for an upper wall, with its coroot."""

    q: int
    facets: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]


def _excess(facet, nums, den: int) -> int:
    """q den (key(x) - level) at x = nums / den: negative iff x is on the
    wrong side of the facet."""
    key, level, _ = facet
    return pair(key, nums) - level * den


def _translated(td: TwistedDatum, x: ApartmentPoint) -> tuple[int, tuple[int, ...]]:
    """x less the integer part of pair(w, x) times t for each translation
    (w, t) (``TwistedDatum.translations``), by an exact floor, as integers
    over a multiple of the q of ``affine_rows``.  The w are dual to the t,
    so each floor is read off x itself and the result is the same for every
    point of x's translation class."""
    q = td.affine_rows[0]
    d, nums = x.scaled
    den = lcm(d, q)
    v = vec_scale(den // d, nums)
    for w, p, t in td.translations:
        k = pair(w, v) // (p * den)
        if k:
            v = vec_sub(v, vec_scale(k * (den // q), t))
    return den, v


def alcove_reduce(td: TwistedDatum, x: ApartmentPoint) -> ApartmentPoint:
    """The unique representative of the affine-Weyl orbit of x in the closed
    base alcove: translate by the lattice part with an exact floor
    (``_translated``), then reflect across violated facets.  The point is
    held as integers over a multiple of q, which every translation and fold
    keeps on the twist-fixed subspace (there key(x) is the value of a root
    of its fiber)."""
    table = td.integer_alcove
    q = table.q
    den, v = _translated(td, x)
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
    for lam, i in zip(td.lambda_valuations, _scaffold(td.base, td.twist).lambda_roots):
        if lam:  # v / den - c bcheck for c = lam / 4, over den times c.denominator
            c, coroot = lam / 4, td.restricted[i].coroot
            v = vec_sub(vec_scale(c.denominator, v), vec_scale(c.numerator * den, coroot))
            den *= c.denominator
    return twisted(td.base, td.twist), ApartmentPoint(den, v)
