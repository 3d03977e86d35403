"""Exact rational linear algebra (fraction-free Bareiss elimination for the
rank, the inverse and the echelon form), valuation sets (arithmetic
progressions of rationals), ``closure``, the one breadth-first orbit walk of
the package, and ``kept``, its one memo rule.  The order and cyclotomic
multiplicities of a finite-order integer matrix are in ``spectra``, which no
report loads; this module still resolves their names.

Everything here is exact: integers and ``fractions.Fraction`` only, no floats.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter, mul, sub

from . import InputError, PropertyViolation  # noqa: F401 (the exit-code bases, re-exported)

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]


class ExactMathError(InputError):
    """Bad input to an exact-arithmetic routine (e.g. infinite-order matrix)."""


# ---------------------------------------------------------------------------
# immutable records


def frozen_record(cls):
    """Make ``cls`` an immutable record of its annotated fields, as
    ``@dataclass(frozen=True)`` without defaults would, but without compiling
    generated code at import.  ``cls._fields`` names the fields in order; the
    constructor takes them by position or keyword; equality and the hash use
    the tuple of field values, and the hash is computed on first use and kept
    in ``__dict__`` as ``_hash``; the ``repr`` is the dataclass one.
    ``cached_property`` still works: it writes ``__dict__``.  The class's
    ``__post_init__``, if any, runs after the fields are set and may rewrite them there."""
    names = tuple(cls.__annotations__)
    name_set = frozenset(names)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda obj: (get(obj),)
    wrong = f"{cls.__qualname__}() takes the fields {', '.join(names)}"
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs:
            given = len(args) + len(kwargs)
            kwargs.update(zip(names, args))
            if given != len(names) or kwargs.keys() != name_set:
                raise TypeError(wrong)
            self.__dict__.update(kwargs)
        elif len(args) == len(names):
            self.__dict__.update(zip(names, args))
        else:
            raise TypeError(wrong)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({inner})"

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(values(self))
        return h

    def _frozen(self, name, *value):
        raise AttributeError(f"{cls.__qualname__} is frozen: cannot change {name!r}")

    cls._fields = names
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def kept(memo: dict, key, build):
    """``memo[key]``, made by ``build()`` and stored there on first use: the
    one memo rule of the package.  A build that raises stores nothing, so a
    failed check raises again on the next call."""
    try:
        return memo[key]
    except KeyError:
        pass
    result = memo[key] = build()
    return result


# ---------------------------------------------------------------------------
# vectors and the pairing of characters with cocharacters
#
# The pairing is the coordinate dot product.  Integer inputs give integer
# results; a Fraction anywhere gives a Fraction.


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def pair(chi, mu):
    return sum(map(mul, chi, mu))


def as_ratio(r) -> tuple[int, int]:
    """(numerator, denominator) of the rational r in lowest terms, read off
    an ``int`` or a ``Fraction`` as it is; anything else goes through
    ``Fraction(r)``."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return r.numerator, r.denominator


def clear_denominators(*vectors) -> tuple[int, tuple[IntVec, ...]]:
    """(D, vectors times D) for rational vectors, D their least common
    denominator: the same rationals as integers over one denominator.  An
    entry that is not an ``int`` or a ``Fraction`` is read by ``Fraction``."""
    vectors = [[c if isinstance(c, int | Fraction) else Fraction(c) for c in v] for v in vectors]
    den = lcm(*(c.denominator for v in vectors for c in v))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors)


def closure(starts, step):
    """The breadth-first closure of the starts under ``step``, which maps x to
    an iterable of its images, yielded lazily and once each: the starts, then
    each new image, one layer of the walk after another.  Every orbit the
    package walks is one: Weyl orbits, conjugacy classes and root-step
    spans."""
    found = set()
    fresh = starts
    while True:
        layer = []
        for y in fresh:
            if y not in found:
                found.add(y)
                layer.append(y)
                yield y
        if not layer:
            return
        fresh = (y for x in layer for y in step(x))


def reflection_orbit(vec, reflections, scale=1) -> set:
    """Orbit of ``vec`` under the group generated by the reflections
    v -> v - (<v, acheck> / scale) a, one per pair (a, acheck).  A scale
    above 1 is for integer vectors that stand for rational ones times the
    scale, such as integer keys: every pairing is then a multiple of it."""

    def step(v):
        for a, acheck in reflections:
            c = pair(v, acheck)
            yield vec_sub(v, vec_scale(c // scale if scale != 1 else c, a))

    return set(closure([vec], step))


# ---------------------------------------------------------------------------
# integer matrices


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def mat_pow(a, k: int):
    """a^k for k >= 0, by repeated squaring."""
    result = identity_matrix(len(a))
    while k:
        if k & 1:
            result = mat_mul(result, a)
        k >>= 1
        if k:
            a = mat_mul(a, a)
    return result


def _bareiss(m: list[list[int]], jordan: bool = False):
    """Fraction-free (Bareiss) elimination of the integer rows m in place, each
    entry a minor of the input: a pivot clears its column below it (and above
    it when ``jordan``); a column without one is skipped.  Returns the rank
    and the last pivot."""
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pick = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m[rank], m[pick] = m[pick], m[rank]
        # below the pivot the columns left of c are zero already
        lo = 0 if jordan else c
        p, pivot = m[rank][c], m[rank][lo:]
        for i in range(0 if jordan else rank + 1, len(m)):
            if i != rank:
                row = m[i]
                f = row[c]
                row[lo:] = [(x * p - f * y) // prev for x, y in zip(row[lo:], pivot)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank, prev


def sub_identity(a: IntMatrix) -> IntMatrix:
    """a - I."""
    return tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(a))


# ---------------------------------------------------------------------------
# rational linear algebra


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row times the least common denominator of its entries."""
    return [list(clear_denominators(row)[1][0]) for row in rows]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns of rational rows: after the
    fraction-free Gauss-Jordan elimination every pivot is the last one, d, so
    the form is the integer rows over d."""
    m = _integer_rows(rows)
    rank, d = _bareiss(m, jordan=True)
    pivots = [next(j for j, x in enumerate(row) if x) for row in m[:rank]]
    return [[Fraction(x, d) for x in row] for row in m], pivots


def matrix_rank(rows) -> int:
    """Rank by fraction-free elimination of the rows scaled to integers."""
    return _bareiss(_integer_rows(rows))[0]


def integer_inverse(a: IntMatrix) -> tuple[int, IntMatrix]:
    """(D, D a^-1), D > 0 the least common denominator of the inverse: the
    elimination of [a | I] leaves d I on the left and d a^-1 on the right, or
    a zero on the left diagonal where a is singular."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    _, d = _bareiss(m, jordan=True)
    if not all(m[i][i] for i in range(n)):
        raise ExactMathError("matrix is singular")
    g = gcd(d, *(x for row in m for x in row[n:])) * (1 if d > 0 else -1)
    return d // g, tuple(tuple(x // g for x in row[n:]) for row in m)


# ---------------------------------------------------------------------------
# valuation sets


@frozen_record
class ValuationSet:
    """The arithmetic progression offset + step * Z of rationals, with a
    positive step and the offset reduced mod the step, so that equal sets
    are equal records."""

    step: Fraction
    offset: Fraction

    @staticmethod
    def lattice(step, offset=0) -> "ValuationSet":
        step = Fraction(step)
        if step <= 0:
            raise ExactMathError("progression step must be positive")
        return ValuationSet(step, Fraction(offset) % step)

    def member(self, q) -> bool:
        return (q - self.offset) % self.step == 0


def __getattr__(name):  # tests and perfbench/tracing.py read these two here
    if name not in ("matrix_order", "cyclotomic_multiplicities"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectra

    return getattr(spectra, name)
