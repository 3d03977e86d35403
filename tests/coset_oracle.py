"""The free-action coset scan that ``stability.elliptic_zregular_orders``
replaced, kept as a test-local oracle.

It visits every element w*twist of the twisted Weyl coset.  Each element a
is screened for ellipticity by one integer Bareiss determinant,
det(I - a) != 0.  For the elliptic ones, the orbits of a on the roots give
both the order of a (the lcm of the orbit lengths, since the roots span) and
Z-regularity (every orbit has full length).  The smallest element of each
order in lexicographic order is kept, so the result must equal the
closed-form orders and class-minimum witnesses, witnesses included.
"""
from math import lcm

from parahoric.exactmath import identity_matrix, mat_mul, mat_vec
from parahoric.rootdata import cycles
from parahoric.stability import weyl_elements

from matrix_oracle import det_bareiss


def scan_zregular_orders(datum, twist):
    eye = identity_matrix(datum.rank)
    index = datum.root_index
    witnesses = {}
    for w in weyl_elements(datum):
        a = mat_mul(w, twist.matrix)
        if det_bareiss(
            tuple(tuple(e - x for e, x in zip(er, ar)) for er, ar in zip(eye, a))
        ) == 0:
            continue  # eigenvalue 1: not elliptic
        lengths = [len(c) for c in cycles([index[mat_vec(a, r)] for r in datum.roots])]
        order = lcm(*lengths)
        if any(length != order for length in lengths):
            continue
        if order not in witnesses or a < witnesses[order]:
            witnesses[order] = a
    return witnesses
