"""Root data for the classical and exceptional Dynkin types, the type of an
irreducible root system read off its counts (``component_type``), Weyl group
enumeration, diagram automorphisms, ``cycles`` (the one cycle decomposition
of a permutation in the package) and the elliptic regular orders of a twisted
Weyl coset by Springer's criterion.  |W| is the product of the degrees.

Coordinate conventions, used throughout the package:

* Cartan matrix entry ``C[i][j] = <alpha_j, acheck_i>``.
* adjoint isogeny: the character lattice X has the simple roots as its
  standard basis, so ``alpha_i = e_i`` and ``acheck_j`` is row j of C.
* simply connected isogeny: the cocharacter lattice has the simple coroots
  as its standard basis, so ``acheck_j = e_j`` and ``alpha_i`` is column i of C.
* the pairing of X with the cocharacter lattice is the coordinate dot product.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm, prod

from .exactmath import (
    IntMatrix,
    IntVec,
    InputError,
    closure,
    frozen_record,
    identity_matrix,
    kept,
    matrix_rank,
    pair,
    transpose,
)

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")

_RANK_RANGE = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

ISOGENIES = ("adjoint", "simply_connected")


class RootDatumError(InputError):
    pass


def parse_descriptor(descriptor: str) -> tuple[tuple[str, int], ...]:
    parts = [p.strip() for p in descriptor.split("+")]
    out = []
    for part in parts:
        m = _TYPE_RE.match(part)
        if not m:
            raise RootDatumError(f"unrecognized Dynkin type {part!r}")
        letter, rank = m.group(1), int(m.group(2))
        lo, hi = _RANK_RANGE[letter]
        if not lo <= rank <= hi:
            raise RootDatumError(f"rank {rank} out of range for type {letter}")
        out.append((letter, rank))
    return tuple(out)


def cartan_matrix_component(letter: str, n: int) -> IntMatrix:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if letter == "A":
        for i in range(n - 1):
            join(i, i + 1)
    elif letter == "B":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 2, n - 1, -1, -2)
    elif letter == "C":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 2, n - 1, -2, -1)
    elif letter == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            join(a, b)
        join(1, 3)
    elif letter == "F":
        join(0, 1)
        join(1, 2, -1, -2)
        join(2, 3)
    elif letter == "G":
        join(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


def cartan_matrix(descriptor: str) -> IntMatrix:
    comps = parse_descriptor(descriptor)
    n = sum(r for _, r in comps)
    c = [[0] * n for _ in range(n)]
    base = 0
    for letter, rank in comps:
        block = cartan_matrix_component(letter, rank)
        for i in range(rank):
            for j in range(rank):
                c[base + i][base + j] = block[i][j]
        base += rank
    return tuple(tuple(row) for row in c)


ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


# Reduced words w, as node indices, of length 2N / M with w * twist elliptic
# Z-regular of an order M (the comment) that does not divide the twisted
# Coxeter number, keyed by (type, twist order): with the powers of the twisted
# Coxeter element they give every regular order of every irreducible coset.
REGULAR_WORDS = {
    ("A5", 2): ("12010",),  # 6
    ("A6", 2): ("2312010",),  # 6
    ("D4", 1): ("312010",),  # 4
    ("D5", 2): ("3242312010",),  # 4
    ("D6", 1): ("5342312010",),  # 6
    ("D7", 2): ("54645342312010",),  # 6
    ("D8", 1): ("75645342312010",),  # 8
    ("E6", 1): ("53413210",),  # 9
    ("E6", 2): ("230210",),  # 12
    ("E7", 1): ("653413210",),  # 14
    ("E8", 1): ("7653413210", "763453413210"),  # 24, 20
    ("F4", 1): ("321210",),  # 8
}


def classical_root_count(descriptor: str) -> int:
    return sum(ROOT_COUNTS[l](r) for l, r in parse_descriptor(descriptor))


def component_type(rank: int, positive_count: int, short_simple_count: int) -> str:
    """The type of an irreducible root system from its rank, its number of
    positive roots and its number of simple roots shorter than the longest
    (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX): the first letter,
    A to G, that admits all three, so B2, never C2, and A3, never D3."""
    for letter, (lo, hi) in _RANK_RANGE.items():
        short = {"B": 1, "C": rank - 1, "F": 2, "G": 1}.get(letter, 0)
        if lo <= rank <= hi and ROOT_COUNTS[letter](rank) == 2 * positive_count:
            if short == short_simple_count:
                return f"{letter}{rank}"
    raise RootDatumError(
        f"no root system of rank {rank} has {positive_count} positive roots and "
        f"{short_simple_count} short simple roots"
    )


@frozen_record
class RootDatum:
    """Roots and coroots as integer vectors in perfect pairing.

    ``roots[k]`` pairs with ``coroots[k]``; ``coeffs[k]`` are the coordinates
    of the root in the simple-root basis and ``cocoeffs[k]`` those of the
    coroot in the simple-coroot basis.
    """

    descriptor: str
    isogeny: str
    cartan: IntMatrix
    roots: tuple[IntVec, ...]
    coroots: tuple[IntVec, ...]
    coeffs: tuple[IntVec, ...]
    cocoeffs: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @cached_property
    def root_index(self) -> dict:
        return {r: i for i, r in enumerate(self.roots)}

    @cached_property
    def simple_indices(self) -> tuple[int, ...]:
        return tuple(map(self.coeffs.index, identity_matrix(self.rank)))

    @cached_property
    def simple_roots(self) -> tuple[IntVec, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @cached_property
    def simple_coroots(self) -> tuple[IntVec, ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def coroot_of(self, root: IntVec) -> IntVec:
        return self.coroots[self.root_index[root]]

    def is_positive(self, root: IntVec) -> bool:
        return sum(self.coeffs[self.root_index[root]]) > 0

    def height(self, root: IntVec) -> int:
        return sum(self.coeffs[self.root_index[root]])

    @cached_property
    def positive_roots(self) -> tuple[IntVec, ...]:
        return tuple(r for r in self.roots if self.is_positive(r))

    @cached_property
    def rho_check(self) -> tuple[Fraction, ...]:
        """Half the sum of the positive coroots, summed in integers."""
        total = map(sum, zip(*map(self.coroot_of, self.positive_roots)))
        return tuple(Fraction(c, 2) for c in total)

    @cached_property
    def is_semisimple(self) -> bool:
        return matrix_rank(self.roots) == self.rank

    @cached_property
    def factors(self) -> tuple[tuple[str, range, tuple[int, ...]], ...]:
        """Each simple factor as (type letter, its nodes, the degrees of its
        basic invariants).  A degree is one more than an exponent, and the
        exponents are the dual partition of the numbers of positive roots of
        each height (Kostant)."""
        out, start = [], 0
        for letter, rank in parse_descriptor(self.descriptor):
            nodes = range(start, start + rank)
            start += rank
            heights = Counter(sum(c) for c in self.coeffs if any(c[i] > 0 for i in nodes))
            counts = [heights[h] for h in range(1, max(heights) + 2)]
            degrees = tuple(
                h + 1 for h in range(1, len(counts)) for _ in range(counts[h - 1] - counts[h])
            )
            out.append((letter, nodes, degrees))
        return tuple(out)

    @property
    def weyl_order(self) -> int:
        """|W|, the product of the degrees of the basic invariants."""
        return prod(d for *_, degrees in self.factors for d in degrees)

    @cached_property
    def simple_reflections(self) -> tuple:
        """Each simple reflection s_i = 1 - alpha_i acheck_i^T on X as the
        nonzero entries (index, value) of alpha_i and of acheck_i."""

        def support(vec):
            return tuple((i, c) for i, c in enumerate(vec) if c)

        return tuple(
            (support(alpha), support(acheck))
            for alpha, acheck in zip(self.simple_roots, self.simple_coroots)
        )


# The builders intern their records: one object per datum, so the tables
# cached on it are computed once and lookups keyed on it hit by identity.
_DATA: dict[tuple[str, str], RootDatum] = {}
_AUTOMORPHISMS: dict[tuple[RootDatum, tuple[int, ...]], DiagramAutomorphism] = {}


def build_datum(descriptor: str, isogeny: str = "adjoint") -> RootDatum:
    """The root datum of the given type with the chosen isogeny, built once
    per (descriptor, isogeny)."""
    return kept(_DATA, (descriptor, isogeny), lambda: _root_datum(descriptor, isogeny))


def _root_datum(descriptor: str, isogeny: str) -> RootDatum:
    if isogeny not in ISOGENIES:
        raise RootDatumError(f"unsupported isogeny {isogeny!r}")
    cartan = cartan_matrix(descriptor)
    units = identity_matrix(len(cartan))
    # (alpha_i, acheck_i, and their coefficients in the simple (co)roots)
    if isogeny == "adjoint":
        simples = list(zip(units, cartan, units, units))
    else:
        simples = list(zip(transpose(cartan), units, units, units))

    # Its own walk, not ``closure``: the coroot and the coefficients are built
    # only for a root not seen yet, where ``closure`` would build them for
    # every image; on E8 that makes the generic walk about 1.7 times slower.
    seen = {entry[0]: entry for entry in simples}
    frontier = list(simples)
    while frontier:
        root, coroot, coeff, cocoeff = frontier.pop()
        for alpha, acheck, unit, counit in simples:
            p = pair(root, acheck)
            if not p:  # the reflection fixes the root (and then q = 0 too)
                continue
            new_root = tuple(a - p * b for a, b in zip(root, alpha))
            if new_root in seen:
                continue
            q = pair(alpha, coroot)
            entry = seen[new_root] = (
                new_root,
                tuple(a - q * b for a, b in zip(coroot, acheck)),
                tuple(a - p * b for a, b in zip(coeff, unit)),
                tuple(a - q * b for a, b in zip(cocoeff, counit)),
            )
            frontier.append(entry)

    entries = sorted(seen.values(), key=lambda e: (sum(e[2]), e[2]))
    datum = RootDatum(
        descriptor=descriptor,
        isogeny=isogeny,
        cartan=cartan,
        roots=tuple(e[0] for e in entries),
        coroots=tuple(e[1] for e in entries),
        coeffs=tuple(e[2] for e in entries),
        cocoeffs=tuple(e[3] for e in entries),
    )
    expected = classical_root_count(descriptor)
    if len(datum.roots) != expected:
        raise RootDatumError(
            f"generated {len(datum.roots)} roots for {descriptor}, expected {expected}"
        )
    for r, cr in zip(datum.roots, datum.coroots):
        if pair(r, cr) != 2:
            raise RootDatumError("root/coroot pairing is not 2")
    return datum


def reflect_left(w: IntMatrix, reflection) -> IntMatrix:
    """s w = w - alpha (acheck^T w): a rank-one update of the rows of w."""
    alpha, acheck = reflection
    (k, c), *rest = acheck
    row = [c * y for y in w[k]]
    for k, c in rest:
        row = [x + c * y for x, y in zip(row, w[k])]
    out = list(w)
    for i, c in alpha:
        out[i] = tuple(x - c * y for x, y in zip(w[i], row))
    return tuple(out)


def reflect_right(w: IntMatrix, reflection) -> IntMatrix:
    """w s = w - (w alpha) acheck^T: a rank-one update of the columns of w."""
    alpha, acheck = reflection
    out = []
    for row in w:
        u = 0
        for i, c in alpha:
            u += row[i] * c
        if u:
            row = list(row)
            for k, c in acheck:
                row[k] -= u * c
            row = tuple(row)
        out.append(row)
    return tuple(out)


def weyl_walk(datum: RootDatum):
    """The Weyl group elements as matrices on X by length, lazily: the
    closure of the identity under the simple reflections acting on the left."""
    simple = datum.simple_reflections
    return closure([identity_matrix(datum.rank)], lambda w: [reflect_left(w, s) for s in simple])


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[IntMatrix, ...]:
    """All Weyl group elements, sorted: the oracle of the closed forms, run
    by ``selftest`` and the tests on small types only."""
    return tuple(sorted(weyl_walk(datum)))


@frozen_record
class DiagramAutomorphism:
    """A Dynkin diagram symmetry as a lattice automorphism.

    ``matrix`` acts on X; the same matrix also gives the action on the
    cocharacter lattice in its standard coordinates (it is a permutation
    matrix in both conventions).
    """

    permutation: tuple[int, ...]
    matrix: IntMatrix
    order: int

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.permutation))

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """The inverse permutation: entry i of ``matrix`` times v is v[sources[i]]."""
        return tuple(sorted(range(len(self.permutation)), key=self.permutation.__getitem__))

    def apply(self, v) -> tuple:
        """``matrix`` times v, as a reindexing of v."""
        return tuple(v[j] for j in self.sources)

    def follow(self, w) -> IntMatrix:
        """w times ``matrix``: column j of the product is column perm[j] of w."""
        return tuple(tuple(row[p] for p in self.permutation) for row in w)

    @cached_property
    def spectrum(self) -> dict[int, int]:
        """Cyclotomic multiplicities {k: m_k} on the cocharacter lattice:
        every primitive k-th root of unity is an eigenvalue of multiplicity
        m_k.  The matrix is a permutation matrix, and a j-cycle has
        characteristic polynomial x^j - 1, the product of Phi_k over k | j."""
        lengths = [len(c) for c in cycles(self.permutation)]
        return {
            k: m for k in range(1, max(lengths) + 1) if (m := sum(j % k == 0 for j in lengths))
        }


def cycles(perm) -> list[tuple[int, ...]]:
    """The cycles of a permutation of range(len(perm)), by least member: each
    in walk order i, perm[i], perm[perm[i]], ... from that member."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(tuple(cycle))
    return out


def build_automorphism(datum: RootDatum, node_permutation) -> DiagramAutomorphism:
    """Validate a node permutation as a diagram symmetry and build its matrix,
    once per (datum, permutation)."""
    perm = tuple(int(p) for p in node_permutation)
    return kept(_AUTOMORPHISMS, (datum, perm), lambda: _automorphism(datum, perm))


def _automorphism(datum: RootDatum, perm: tuple[int, ...]) -> DiagramAutomorphism:
    n = datum.rank
    if sorted(perm) != list(range(n)):
        raise RootDatumError("node permutation is not a permutation of the nodes")
    for i in range(n):
        for j in range(n):
            if datum.cartan[perm[i]][perm[j]] != datum.cartan[i][j]:
                raise RootDatumError(
                    "node permutation does not preserve the Cartan matrix"
                )
    matrix = tuple(
        tuple(1 if i == perm[j] else 0 for j in range(n)) for i in range(n)
    )
    auto = DiagramAutomorphism(perm, matrix, lcm(*map(len, cycles(perm))))
    if set(map(auto.apply, datum.roots)) != set(datum.roots):
        raise RootDatumError("automorphism does not permute the roots")
    return auto


def identity_automorphism(datum: RootDatum) -> DiagramAutomorphism:
    return build_automorphism(datum, tuple(range(datum.rank)))


def _factor_regular_orders(letter: str, degrees: tuple[int, ...], t: int) -> dict[int, int]:
    """Springer's criterion on one simple factor with a diagram twist of
    order t: m is an elliptic regular order iff t | m and, for some primitive
    m-th root of unity z, the degrees d_i with eps_i z^d_i = 1 are as many as
    those with eps_i z^(d_i - 2) = 1, at least one, and no eps_i z^(d_i - 1)
    is 1.  The eps_i are the eigenvalues of the twist on the basic invariants
    (Springer 1974, section 6), held as exponents k_i of exp(2 pi i k_i / t).
    The map sends m to the product of the d_i with eps_i z^d_i = 1, the order
    of the centralizer in W of a regular element of order m."""
    ks = [0] * len(degrees)
    if t == 3:  # triality of D4 (degrees 2, 4, 4, 6): both cube roots on degree 4
        ks[1], ks[2] = 1, 2
    elif t == 2 and letter == "D":  # -1 on one degree-n invariant of D_n
        ks[degrees.index(len(degrees))] = 1
    elif t == 2:  # the twist is -w0 on A_n and E6: (-1)^d
        ks = [d % 2 for d in degrees]
    out = {}
    for m in range(t, t * degrees[-1] + 1, t):
        for j in range(1, m + 1):
            if gcd(j, m) > 1:
                continue

            def hits(shift):
                return [d for d, k in zip(degrees, ks) if (k * (m // t) + j * (d - shift)) % m == 0]

            fixed = hits(0)
            if fixed and len(fixed) == len(hits(2)) and not hits(1):
                out[m] = prod(fixed)
                break
    return out


def factor_orbits(datum: RootDatum, twist: DiagramAutomorphism) -> list[tuple[int, int, tuple[int, ...]]]:
    """Each twist orbit of simple factors as (its first factor F, the number k
    of factors in it, the return permutation): the twist to the k-th power on
    the nodes of F, numbered from F's first node."""
    factor_of = {node: f for f, (_, nodes, _) in enumerate(datum.factors) for node in nodes}
    perm = twist.permutation
    out = []
    for cycle in cycles([factor_of[perm[nodes.start]] for _, nodes, _ in datum.factors]):
        nodes, k = datum.factors[cycle[0]][1], len(cycle)
        back = tuple(reduce(lambda i, _: perm[i], range(k), i) - nodes.start for i in nodes)
        out.append((cycle[0], k, back))
    return out


def regular_orders(datum: RootDatum, twist: DiagramAutomorphism) -> dict[int, int]:
    """The orders of the elliptic Z-regular elements of the coset W*twist,
    each mapped to the order of the centralizer in W of one of them (Springer,
    Regular elements of finite reflection groups, 1974).  A twist orbit of k
    factors (``factor_orbits``) whose return twist has order t contributes k
    times the orders of its first factor with that twist, and the coset has
    the orders every orbit admits."""
    out = None
    for f, k, back in factor_orbits(datum, twist):
        letter, _, degrees = datum.factors[f]
        t = lcm(*map(len, cycles(back)))
        orders = {k * m: c for m, c in _factor_regular_orders(letter, degrees, t).items()}
        out = orders if out is None else {m: out[m] * c for m, c in orders.items() if m in out}
    return out
