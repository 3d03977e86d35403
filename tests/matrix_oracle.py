"""Rational linear algebra in ``Fraction`` arithmetic and the
characteristic-polynomial spectra: the reduced row echelon form by
Gauss-Jordan elimination, the inverse, one solution and a kernel basis read
off it; the characteristic polynomial by interpolation and its factorisation
into cyclotomic polynomials.

Kept as oracles for the fraction-free forms in ``exactmath``: ``rref`` and
``matrix_rank`` must give the same form and rank, ``integer_inverse`` the
same inverse as integers over the same least common denominator; and for the
finite-order spectra read off matrix powers and ranks:
``cyclotomic_multiplicities`` and ``matrix_order`` must agree with the
factorised characteristic polynomial, ``stability.regular_by_eigenvector``
with the kernel of the cyclotomic evaluation.  The contragredient action of
a lattice automorphism (the transposed integer inverse) is kept here too:
the package itself never needs it.
"""
from fractions import Fraction
from functools import lru_cache
from math import lcm

from parahoric.exactmath import (
    ExactMathError,
    IntMatrix,
    Vec,
    det_bareiss,
    identity_matrix,
    integer_inverse,
    mat_mul,
    mat_pow,
    pair,
    transpose,
)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
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


def invert_matrix(a) -> tuple[Vec, ...]:
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ExactMathError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


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


# ---------------------------------------------------------------------------
# the characteristic polynomial and its cyclotomic factors


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


def charpoly_multiplicities(a: IntMatrix) -> dict[int, int]:
    """Multiplicities m_k with charpoly(a) = prod_k Phi_k^{m_k}, for a of
    finite order."""
    mult = _cyclotomic_factorization(charpoly(a))
    if mult is None or mat_pow(a, lcm(*mult)) != identity_matrix(len(a)):
        raise ExactMathError("matrix has infinite order")
    return mult


def kernel_regular(a: IntMatrix, coroots, order: int) -> bool:
    """Eigenvector criterion on the rational kernel of Phi_order(a): some
    primitive eigenvalue of that order has an eigenspace off every coroot's
    hyperplane (Galois permutes the eigenspaces, so the kernel lies in a
    rational hyperplane exactly when one eigenspace does)."""
    n = len(a)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = identity_matrix(n)
    for coeff in cyclotomic_polynomial(order):
        if coeff:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += coeff * power[i][j]
        power = mat_mul(power, a)
    kernel = kernel_basis(acc)
    return bool(kernel) and all(any(pair(v, c) for v in kernel) for c in coroots)


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """The inverse of an integer matrix whose inverse is integral."""
    den, inverse = integer_inverse(a)
    if den != 1:
        raise ExactMathError("matrix inverse is not integral")
    return inverse


def dual_action(matrix: IntMatrix) -> IntMatrix:
    """Matrix of the contragredient action on the cocharacter lattice."""
    return transpose(invert_unimodular(matrix))
