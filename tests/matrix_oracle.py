"""Rational linear algebra in ``Fraction`` arithmetic: the reduced row
echelon form by Gauss-Jordan elimination, and the inverse and one solution
of a linear system read off it.

Kept as oracles for the fraction-free forms in ``exactmath``: ``rref`` and
``matrix_rank`` must give the same form and rank, ``integer_inverse`` the
same inverse as integers over the same least common denominator.
"""
from fractions import Fraction

from parahoric.exactmath import ExactMathError, Vec


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
