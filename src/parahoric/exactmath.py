"""Exact rational linear algebra, cyclotomic multiplicity counting, and
valuation sets (finite unions of arithmetic progressions of rationals).

Everything here is exact: integers and ``fractions.Fraction`` only, no floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]

DEFAULT_ORDER_BOUND = 10_000


class ExactMathError(ValueError):
    """Bad input to an exact-arithmetic routine (e.g. infinite-order matrix)."""


# ---------------------------------------------------------------------------
# integer matrices


def freeze_matrix(rows) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


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
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def det_bareiss(a: IntMatrix) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a: IntMatrix) -> tuple[int, ...]:
    """Monic characteristic polynomial det(t*I - a), coefficients low to high.

    Evaluates the determinant at n+1 integer points with Bareiss elimination
    and interpolates; all arithmetic is exact.
    """
    n = len(a)
    points = list(range(n + 1))
    values = []
    for x in points:
        shifted = tuple(
            tuple((x if i == j else 0) - a[i][j] for j in range(n)) for i in range(n)
        )
        values.append(det_bareiss(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for j, y in zip(points, values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k in points:
            if k == j:
                continue
            basis = poly_mul(basis, [Fraction(-k), Fraction(1)])
            denom *= j - k
        scale = Fraction(y) / denom
        for idx, c in enumerate(basis):
            coeffs[idx] += scale * c
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ExactMathError("characteristic polynomial interpolation failed")
        out.append(c.numerator)
    if out[-1] != 1:
        raise ExactMathError("characteristic polynomial is not monic")
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials (dense, low degree first)


def poly_mul(p, q):
    out = [0 * (p[0] + q[0])] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials; quotient coefficients must stay integral
    at every step (true whenever den is monic)."""
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        lead = num[-1] // den[-1]
        if lead * den[-1] != num[-1]:
            return q, num
        q[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def euler_phi(k: int) -> int:
    result = k
    d = 2
    m = k
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            q, r = poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if any(r):
                raise ExactMathError("cyclotomic recursion failed")
            poly = q
    return tuple(poly)


def _cyclotomic_factorization(p: tuple[int, ...]) -> dict[int, int] | None:
    """Factor a monic integer polynomial as a product of cyclotomics, or None."""
    n = len(p) - 1
    rem = list(p)
    mult: dict[int, int] = {}
    k = 1
    while len(rem) > 1 and k <= 2 * n * n + 2:
        if euler_phi(k) <= len(rem) - 1:
            while len(rem) > 1:
                q, r = poly_divmod_int(rem, list(cyclotomic_polynomial(k)))
                if any(r):
                    break
                rem = q
                mult[k] = mult.get(k, 0) + 1
        k += 1
    if len(rem) != 1 or rem[0] != 1:
        return None
    return mult


def cyclotomic_multiplicities(
    a: IntMatrix, order_bound: int = DEFAULT_ORDER_BOUND
) -> dict[int, int]:
    """Multiplicities m_k with charpoly(a) = prod_k Phi_k^{m_k}.

    Rejects matrices that are not of finite multiplicative order (either the
    spectrum is not cyclotomic, the order exceeds ``order_bound``, or a is not
    semisimple, e.g. unipotent).
    """
    n = len(a)
    mult = _cyclotomic_factorization(charpoly(a))
    if mult is None:
        raise ExactMathError("matrix has infinite order: non-cyclotomic spectrum")
    order = 1
    for k in mult:
        order = lcm(order, k)
    if order > order_bound:
        raise ExactMathError(f"matrix order {order} exceeds bound {order_bound}")
    if mat_pow(a, order) != identity_matrix(n):
        raise ExactMathError("matrix has infinite order: not semisimple")
    assert sum(m * euler_phi(k) for k, m in mult.items()) == n
    return mult


def matrix_order(a: IntMatrix, order_bound: int = DEFAULT_ORDER_BOUND) -> int:
    mult = cyclotomic_multiplicities(a, order_bound)
    order = 1
    for k in mult:
        order = lcm(order, k)
    return order


# ---------------------------------------------------------------------------
# rational linear algebra


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place on a copy); returns (rows, pivot cols)."""
    m = [list(map(Fraction, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pick = i
                break
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = rref([list(r) for r in rows])
    return len(pivots)


def kernel_basis(rows) -> list[Vec]:
    """Basis of the right kernel {v : rows @ v = 0} over the rationals."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref([list(r) for r in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs) -> Vec | None:
    """One rational solution of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def invert_matrix(a) -> tuple[Vec, ...]:
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ExactMathError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    inv = invert_matrix(a)
    out = []
    for row in inv:
        for x in row:
            if x.denominator != 1:
                raise ExactMathError("matrix inverse is not integral")
        out.append(tuple(x.numerator for x in row))
    return tuple(out)


class RowEchelon:
    """Incremental echelon basis for exact rank computations."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, list[Fraction]]] = []

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        v = list(map(Fraction, vec))
        for pivot, row in self.rows:
            if v[pivot] != 0:
                f = v[pivot]
                v = [x - f * y for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if x != 0:
                inv = x
                v = [y / inv for y in v]
                self.rows.append((i, v))
                self.rows.sort(key=lambda t: t[0])
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# valuation sets


def _fraction_lcm(values) -> Fraction:
    num = 1
    den = 0
    for v in values:
        num = lcm(num, v.numerator)
        den = gcd(den, v.denominator)
    return Fraction(num, den)


def _divisors_desc(n: int) -> list[int]:
    return [d for d in range(n, 0, -1) if n % d == 0]


@dataclass(frozen=True)
class ValuationSet:
    """Finite union of arithmetic progressions, canonicalized so that every
    component shares one positive step and offsets are reduced mod the step.
    """

    step: Fraction
    offsets: tuple[Fraction, ...]

    @staticmethod
    def from_components(components) -> "ValuationSet":
        comps = [(Fraction(o), Fraction(s)) for o, s in components]
        if not comps:
            raise ExactMathError("valuation set needs at least one progression")
        for _, s in comps:
            if s <= 0:
                raise ExactMathError("progression step must be positive")
        big = _fraction_lcm([s for _, s in comps])
        offs = set()
        for o, s in comps:
            reps = int(big / s)
            for j in range(reps):
                offs.add((o + j * s) % big)
        offsets = sorted(offs)
        for t in _divisors_desc(len(offsets)):
            if t == 1:
                break
            small = big / t
            reduced = sorted({o % small for o in offsets})
            if len(reduced) * t != len(offsets):
                continue
            regen = {(o + j * small) % big for o in reduced for j in range(t)}
            if regen == set(offsets):
                big = small
                offsets = reduced
                break
        return ValuationSet(big, tuple(offsets))

    @staticmethod
    def lattice(step, offset=0) -> "ValuationSet":
        return ValuationSet.from_components([(offset, step)])

    def member(self, q) -> bool:
        return (Fraction(q) % self.step) in self.offsets

    def min_above(self, t) -> Fraction:
        t = Fraction(t)
        best = None
        for o in self.offsets:
            k = floor((t - o) / self.step) + 1
            cand = o + k * self.step
            if best is None or cand < best:
                best = cand
        assert best is not None and best > t
        return best

    def max_below(self, t) -> Fraction:
        t = Fraction(t)
        best = None
        for o in self.offsets:
            k = -floor((o - t) / self.step) - 1
            cand = o + k * self.step
            if best is None or cand > best:
                best = cand
        assert best is not None and best < t
        return best

    def shift(self, c) -> "ValuationSet":
        c = Fraction(c)
        return ValuationSet(self.step, tuple(sorted((o + c) % self.step for o in self.offsets)))

    def __contains__(self, q) -> bool:
        return self.member(q)

    def describe(self) -> str:
        offs = ", ".join(str(o) for o in self.offsets)
        return f"{{{offs}}} + {self.step}*Z"


def vset_member(s: ValuationSet, q) -> bool:
    return s.member(q)


def vset_min_above(s: ValuationSet, t) -> Fraction:
    return s.min_above(t)
