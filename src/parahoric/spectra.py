"""The order and cyclotomic multiplicities of a finite-order integer matrix,
read off its powers and their ranks.  No report calls them: the ``selftest``
oracle of Z-regularity and the tests do, so they live apart from
``exactmath``, which every report loads."""
from __future__ import annotations

from math import gcd, prod

from .exactmath import ExactMathError, IntMatrix, identity_matrix, mat_pow, matrix_rank, sub_identity

# ---------------------------------------------------------------------------
# finite-order spectra
#
# An integer matrix of finite order is diagonalisable over C with roots of
# unity as eigenvalues, and the primitive k-th roots come together, phi(k) of
# them per Galois orbit.  So everything is read off powers of the matrix and
# ranks: no characteristic polynomial is formed.


def _phi(k: int) -> int:
    return sum(gcd(j, k) == 1 for j in range(1, k + 1))


def _exponent_factors(n: int) -> list[int]:
    """The primes of L = lcm{k : phi(k) <= n} with multiplicity, L the
    exponent of every finite-order n x n integer matrix: for each prime p,
    the largest p^e with phi(p^e) = p^(e-1) (p - 1) <= n."""
    factors = []
    for p in range(2, n + 2):
        if all(p % q for q in range(2, p)):
            e = 1
            while p**e * (p - 1) <= n:
                e += 1
            factors += [p] * e
    return factors


def matrix_order(a: IntMatrix) -> int:
    """The multiplicative order of the square integer matrix a.  An
    eigenvalue of order k has phi(k) <= n, so a has finite order exactly when
    a^L = I; the order is L with each prime divided out while the power
    stays I.  L is reached one prime at a time, and a power whose trace
    exceeds n (no sum of n roots of unity does) stops the climb early."""
    n = len(a)
    one = identity_matrix(n)
    factors = _exponent_factors(n)
    power = a
    for p in factors:
        power = mat_pow(power, p)
        if abs(sum(power[i][i] for i in range(n))) > n:
            break
    if power != one:
        raise ExactMathError("matrix has infinite order")
    order = prod(factors)
    for p in set(factors):
        while order % p == 0 and mat_pow(a, order // p) == one:
            order //= p
    return order


def cyclotomic_multiplicities(a: IntMatrix) -> dict[int, int]:
    """The multiplicity m_k of the primitive k-th roots of unity as
    eigenvalues of the finite-order integer matrix a, for each k with
    m_k > 0, ascending: its characteristic polynomial is prod_k Phi_k^{m_k}.
    The fixed space of a^d has dimension sum_{k | d} m_k phi(k), so over the
    divisors d of the order, ascending, m_d is what the smaller divisors
    leave of it, divided by phi(d)."""
    order = matrix_order(a)
    mult: dict[int, int] = {}
    for d in range(1, order + 1):
        if order % d == 0:
            fixed = len(a) - matrix_rank(sub_identity(mat_pow(a, d)))
            fixed -= sum(m * _phi(k) for k, m in mult.items() if d % k == 0)
            if fixed:
                mult[d] = fixed // _phi(d)
    return mult
