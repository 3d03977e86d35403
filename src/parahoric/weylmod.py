"""Highest-weight bookkeeping over the reductive quotient: exact characters
via Freudenthal's recursion, decomposition of a filtration quotient by
repeated character subtraction, and an exact span check for the split case:
a closure of the maximal roots under root steps of the quotient.  Weyl
orbits of weights and the span are walked by ``exactmath.closure``.

The public functions take and return weights in the rational coordinate
space of the restricted roots.  Inside, a character is an integer map from
n to the multiplicity of lam - sum n_i alpha_i, memoized on the shared
quotient datum by the Dynkin labels of lam.  ``decompose`` and the span
check hold weights on one integer scale, the integer keys (key times the
twist order) of the depth table, from maximality through ordering and
character subtraction; ``Fraction`` weights appear only in what they
return.  Multiplicities are exact integers throughout.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, ge, mul, sub

from .echelonnage import (
    ApartmentPoint,
    TwistedDatum,
    depth_table,
    twisted,
)
from .exactmath import PropertyViolation, Vec, clear_denominators, closure, frozen_record, pair
from .mpquotient import (
    MPQuotientReport,
    ReductiveQuotientDatum,
    mp_quotient,
    quotient_datum,
)


class WeylModuleError(PropertyViolation):
    pass


# ---------------------------------------------------------------------------
# root-set filters


def phi_xr(td: TwistedDatum, x: ApartmentPoint, r) -> frozenset:
    """Restricted roots a with r - a(x - x0) in the jump set of a."""
    return frozenset(rr.key for rr in depth_table(td, x).at(r)[0])


# The maximality tests run on the integer keys, the keys times the twist
# order e (``TwistedDatum.integer_keys``; the quotient datum holds its roots
# the same way, ``integer_roots``): a key is the average of a twist orbit
# whose size divides e, so key * e is an integer vector.


def _support(td: TwistedDatum, x: ApartmentPoint, r) -> dict:
    """phi_xr as integer keys -> keys."""
    keys = td.integer_keys
    return {keys[rr.index]: rr.key for rr in depth_table(td, x).at(r)[0]}


def _positive_steps(h: ReductiveQuotientDatum) -> list:
    """The positive roots of h as integer keys."""
    return [k for k, p in zip(h.integer_roots, h.positives) if p]


def _maximal(support, shifts) -> frozenset:
    """The integer keys s of the support with s + t outside it for every shift t."""
    return frozenset(
        s for s in support if not any(tuple(map(add, s, t)) in support for t in shifts)
    )


def phi_xr_max(
    td: TwistedDatum,
    x: ApartmentPoint,
    r,
    h: ReductiveQuotientDatum,
    positives=None,
) -> frozenset:
    """Members a of phi_xr with a + b outside phi_xr for every positive b.

    ``positives`` defaults to the positive roots of the quotient datum h; pass
    the ambient positive restricted roots to test the other reading.
    """
    if positives is None:
        shifts = _positive_steps(h)
    else:
        shifts = [td.integer_keys[td.by_key[b].index] for b in positives]
    support = _support(td, x, r)
    return frozenset(support[s] for s in _maximal(support, shifts))


# ---------------------------------------------------------------------------
# dominance
#
# A weight v has simple-root coordinates (residual, c): v = residual +
# sum c_i alpha_i with the residual pairing to zero with the simple coroots,
# read in integers off v times a common denominator
# (``ReductiveQuotientDatum.scaled_coordinates``).


def is_dominant_integral(h: ReductiveQuotientDatum, mu: Vec) -> bool:
    for ac in h.simple_coroots:
        val = pair(mu, ac)
        if val < 0 or val.denominator != 1:
            return False
    return True


def dominance_ge(h: ReductiveQuotientDatum, nu: Vec, mu: Vec) -> bool:
    """nu >= mu when nu - mu is a nonnegative rational combination of the
    simple roots of h (equal residuals and c(nu) >= c(mu) coordinatewise);
    weights outside the root span are incomparable."""
    _, nums = clear_denominators(nu, mu)
    (upper, c_nu), (lower, c_mu) = map(h.scaled_coordinates, nums)
    return upper == lower and all(map(ge, c_nu, c_mu))


# ---------------------------------------------------------------------------
# characters
#
# A weight of the module of highest weight lam is mu = lam - sum n_i alpha_i,
# held as the integer vector n together with its Dynkin labels
# <mu, acheck_j> = <lam, acheck_j> - (C n)_j.  The invariant form is
# (chi, psi) = sum over the roots a of <chi, acheck><psi, acheck>; against a
# simple root it is (chi, alpha_j) = d_j <chi, acheck_j> with the integer
# d_j = (alpha_j, alpha_j)/2 (``ReductiveQuotientDatum.half_norms``).  So
# every quantity of Freudenthal's recursion is an integer:
#   (mu, a) = sum_j k_j d_j <mu, acheck_j>   for a = sum k_j alpha_j,
#   |lam + rho|^2 - |mu + rho|^2
#       = sum_i n_i d_i (<lam, acheck_i> + <mu, acheck_i> + 2).


def _reflect(n: tuple, labels: tuple, j: int, drops) -> tuple[tuple, tuple]:
    """s_j mu = mu - <mu, acheck_j> alpha_j on (n, labels)."""
    t = labels[j]
    return (
        n[:j] + (n[j] + t,) + n[j + 1:],
        tuple(x - t * c for x, c in zip(labels, drops[j])),
    )


def _orbit(n: tuple, labels: tuple, drops) -> dict:
    """The Weyl orbit of a dominant weight, n -> labels: every other member
    is reached by lowering reflections (those with a positive label), and the
    labels of a weight are fixed by its n."""

    def lower(weight):
        n, labels = weight
        return (_reflect(n, labels, j, drops) for j, t in enumerate(labels) if t > 0)

    return dict(closure([(n, labels)], lower))


def _dimension(h: ReductiveQuotientDatum, labels) -> int:
    """prod over positive a of <lam + rho, acheck> / <rho, acheck>, which is
    (lam + rho, a) / (rho, a) with <rho, acheck_j> = 1, from the Dynkin
    labels of lam."""
    shifted = [t + 1 for t in labels]
    num = den = 1
    for k in h.positive_coordinates:
        dk = tuple(map(mul, k, h.half_norms))
        num *= sum(map(mul, dk, shifted))
        den *= sum(dk)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise WeylModuleError("Weyl dimension formula gave a non-positive integer")
    return dim


def weyl_dimension(h: ReductiveQuotientDatum, lam: Vec) -> int:
    return _dimension(h, [pair(lam, ac) for ac in h.simple_coroots])


def _freudenthal(h: ReductiveQuotientDatum, top: tuple[int, ...]) -> dict:
    """n -> multiplicity of lam - sum n_i alpha_i in the module of highest
    weight lam with Dynkin labels ``top``, by Freudenthal's recursion on
    dominant weights level by level (level = sum n) and Weyl-orbit
    expansion."""
    rank = len(top)
    drops = tuple(zip(*h.cartan))  # drops[i]: the Dynkin labels of alpha_i
    d = h.half_norms
    positives = []  # (k, (k_j d_j)_j, (a, a)) per positive root a
    for k in h.positive_coordinates:
        dk = tuple(map(mul, k, d))
        norm = sum(map(mul, dk, (pair(row, k) for row in h.cartan)))
        positives.append((k, dk, norm))

    mult: dict[tuple, int] = {}  # every weight found so far
    by_level: dict[int, list] = {}

    def record(n, labels, m):
        for w, lab in _orbit(n, labels, drops).items():
            mult[w] = m
            by_level.setdefault(sum(w), []).append((w, lab))

    record((0,) * rank, top, 1)
    # the orbit of lam reaches the lowest weight w0 lam, at the deepest level
    for level in range(1, max(by_level) + 1):
        # every weight below lam is some weight one level up minus a simple root
        dominant = {}
        for w, lab in by_level.get(level - 1, ()):
            for i in range(rank):
                new = tuple(map(sub, lab, drops[i]))
                if min(new) >= 0:
                    dominant[w[:i] + (w[i] + 1,) + w[i + 1:]] = new
        for n, labels in dominant.items():
            # positive: n >= 0 is nonzero, every d_i > 0 and both labels dominant
            denom = sum(
                ni * di * (t + s + 2) for ni, di, t, s in zip(n, d, top, labels)
            )
            acc = 0
            for k, dk, norm in positives:
                base = sum(map(mul, dk, labels))
                step = 1
                w = tuple(map(sub, n, k))
                # the weights on mu + N a form an unbroken string
                while m := mult.get(w):
                    acc += m * (base + step * norm)
                    step += 1
                    w = tuple(map(sub, w, k))
            val, rem = divmod(2 * acc, denom)
            if rem:
                raise WeylModuleError("Freudenthal recursion gave a non-integer")
            if val:
                record(n, labels, val)
    return mult


def _character(h: ReductiveQuotientDatum, top: tuple[int, ...]) -> tuple[dict, int]:
    """The integer character (n -> multiplicity) and the dimension of the
    module with dominant Dynkin labels ``top``, memoized on h and checked
    against the Weyl dimension formula when first computed."""
    hit = h.characters.get(top)
    if hit is None:
        mult = _freudenthal(h, top)
        dim = sum(mult.values())
        expected = _dimension(h, top)
        if dim != expected:
            raise WeylModuleError(
                f"character dimension {dim} disagrees with the Weyl formula {expected}"
            )
        hit = h.characters[top] = mult, dim
    return hit


def weyl_character(h: ReductiveQuotientDatum, lam) -> tuple[dict, int]:
    """Weight multiplicities and dimension of the highest-weight module of a
    dominant integral weight."""
    lam = tuple(Fraction(c) for c in lam)
    if not is_dominant_integral(h, lam):
        raise WeylModuleError(f"weight {lam} is not dominant integral")
    mult, dim = _character(h, tuple(int(pair(lam, ac)) for ac in h.simple_coroots))
    den, (lam_num, *simple_num) = clear_denominators(lam, *h.simple_roots)
    weights: dict[Vec, int] = {}
    for n, m in mult.items():
        v = lam_num
        for ni, a in zip(n, simple_num):
            if ni:
                v = tuple(x - ni * y for x, y in zip(v, a))
        weights[tuple(Fraction(x, den) for x in v)] = m
    return weights, dim


# ---------------------------------------------------------------------------
# decomposition by character subtraction


@frozen_record
class Decomposition:
    items: tuple  # ((weight, multiplicity), ...)
    total_dim: int
    quotient: MPQuotientReport
    maximal_set: frozenset
    nondominant_maximal: frozenset
    ambient_reading_differs: bool

    def dimensions_match(self) -> bool:
        return self.total_dim == self.quotient.total_dim


def decompose(td: TwistedDatum, x: ApartmentPoint, r) -> Decomposition:
    """Decompose the depth-r quotient into highest-weight pieces for the
    reductive quotient by exact character subtraction.

    The decomposition reads only the depth table of x and the quotient
    datum, itself fixed by that table, so it is kept on the table for every
    point that shares it."""
    r = r if isinstance(r, Fraction) else Fraction(r)
    return depth_table(td, x).kept("decompose", r, lambda: _decompose(td, x, r))


def _decompose(td: TwistedDatum, x: ApartmentPoint, r: Fraction) -> Decomposition:
    h = quotient_datum(td, x)
    report = mp_quotient(td, x, r)
    support = _support(td, x, r)

    def weight(num) -> Vec:
        """The weight of the integer key num: a key of the bin, or zero."""
        return support.get(num) or tuple(Fraction(0) for _ in num)

    # One line per root of the depth-r bin (a root lands in a bin at most
    # once) and the torus at zero, all on the integer-key scale.  A weight
    # gets the key (residual, D c) with c its simple-root coordinates and
    # D = h.coordinate_denominator, so lam - sum n_i alpha_i has the key
    # (residual of lam, D c(lam) - D n) and the Dynkin labels of lam are
    # C (D c) / D.
    weights = dict.fromkeys(support, 1)
    if report.torus_dim:
        weights[(0,) * td.base.rank] = report.torus_dim
    scale = h.coordinate_denominator
    key_of = {num: h.scaled_coordinates(num) for num in sorted(weights, reverse=True)}
    order = list(key_of.items())  # descending in the weights
    left = {key: weights[num] for num, key in order}  # multiplicity still to account for

    def dominant_labels(c) -> tuple | None:
        """The Dynkin labels C c / D, or None unless nonnegative integers."""
        top = []
        for row in h.cartan:
            t, rem = divmod(pair(row, c), scale)
            if rem or t < 0:
                return None
            top.append(t)
        return tuple(top)

    maximal = _maximal(support, _positive_steps(h))
    ambient = _maximal(support, [k for k, rr in zip(td.integer_keys, td.restricted) if rr.positive])
    nondominant = [s for s in maximal if dominant_labels(key_of[s][1]) is None]

    items = []
    total = 0
    while left:
        # subtraction only ever shrinks the support: the first weight no
        # other one dominates is the largest maximal weight
        order = [(num, key) for num, key in order if key in left]
        for num, key in order:
            residual, c = key
            if not any(
                other != key and other[0] == residual and all(map(ge, other[1], c))
                for other in left
            ):
                break
        top = dominant_labels(c)
        if top is None:
            raise WeylModuleError(
                f"maximal support weight {weight(num)} is not dominant integral"
            )
        count = left[key]
        if count <= 0:
            raise WeylModuleError("nonpositive multiplicity at a maximal weight")
        char, dim = _character(h, top)
        for n, m in char.items():
            nu = (residual, tuple(ci - scale * ni for ci, ni in zip(c, n)))
            new = left.get(nu, 0) - count * m
            if new < 0:
                raise WeylModuleError(
                    "character subtraction produced a negative multiplicity"
                )
            if new:
                left[nu] = new
            elif nu in left:
                del left[nu]
        items.append((weight(num), count))
        total += count * dim
    return Decomposition(
        items=tuple(items),
        total_dim=total,
        quotient=report,
        maximal_set=frozenset(support[s] for s in maximal),
        nondominant_maximal=frozenset(support[s] for s in nondominant),
        ambient_reading_differs=maximal != ambient,
    )


# ---------------------------------------------------------------------------
# split span check
#
# Over Q, ad X_b maps X_c to +-(p + 1) X_{b + c}, which is nonzero whenever
# b + c is a root (Chevalley basis), and the torus acts diagonally.  So the
# H-module generated by the maximal-root vectors is spanned by the root
# vectors reached from the maximal set by steps along the roots of H that
# stay inside phi_xr.


def split_span_check(datum, x: ApartmentPoint, r) -> bool:
    """For a split datum and non-integral depth, check that the maximal-root
    vectors generate the whole depth-r root space under the reductive
    quotient: an exact closure on integer root vectors."""
    r = Fraction(r)
    if r.denominator == 1:
        raise WeylModuleError("span check needs a non-integral depth")
    td = twisted(datum)
    h = quotient_datum(td, x)
    support = _support(td, x, r)

    def step(s):
        return (nxt for t in h.integer_roots if (nxt := tuple(map(add, s, t))) in support)

    return len(set(closure(_maximal(support, _positive_steps(h)), step))) == len(support)
