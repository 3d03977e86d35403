"""Root data for the classical and exceptional Dynkin types, the type of an
irreducible root system read off its counts (``component_type``), the
degrees of the basic invariants of each factor in closed form (``DEGREES``;
|W| is their product), diagram automorphisms and ``cycles`` (the one cycle
decomposition of a permutation in the package).  ``root_walk`` is the one
walk of a root system, from its Cartan matrix, for a base datum and for
each ``mpquotient`` type.  The Weyl group, its elements and its elliptic
regular classes are read only by ``stability``, which holds them.

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
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .exactmath import (
    IntMatrix,
    IntVec,
    InputError,
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


# The degrees of the basic invariants of each simple type, ascending
# (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX); a type has
# 2 sum (d - 1) roots.
DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted((*range(2, 2 * n - 1, 2), n))),
    "E": lambda n: ((2, 5, 6, 8, 9, 12), (2, 6, 8, 10, 12, 14, 18), (2, 8, 12, 14, 18, 20, 24, 30))[n - 6],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def classical_root_count(descriptor: str) -> int:
    return sum(2 * sum(d - 1 for d in DEGREES[l](r)) for l, r in parse_descriptor(descriptor))


def component_type(rank: int, positive_count: int, short_simple_count: int) -> str:
    """The type of an irreducible root system from its rank, its number of
    positive roots and its number of simple roots shorter than the longest
    (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX): the first letter,
    A to G, that admits all three, so B2, never C2, and A3, never D3."""
    for letter, (lo, hi) in _RANK_RANGE.items():
        short = {"B": 1, "C": rank - 1, "F": 2, "G": 1}.get(letter, 0)
        if lo <= rank <= hi and classical_root_count(f"{letter}{rank}") == 2 * positive_count:
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
        basic invariants, ascending: ``DEGREES``)."""
        out, start = [], 0
        for letter, rank in parse_descriptor(self.descriptor):
            out.append((letter, range(start, start + rank), DEGREES[letter](rank)))
            start += rank
        return tuple(out)

    @property
    def weyl_order(self) -> int:
        """|W|, the product of the degrees of the basic invariants."""
        return prod(d for *_, degrees in self.factors for d in degrees)

    @cached_property
    def simple_reflections(self) -> tuple:
        """Each simple reflection s_i = 1 - alpha_i acheck_i^T on X as the
        nonzero entries (``support``) of alpha_i and of acheck_i."""
        return tuple(zip(map(support, self.simple_roots), map(support, self.simple_coroots)))


def support(vec) -> tuple[tuple[int, int], ...]:
    """The nonzero entries (index, value) of a vector."""
    return tuple((i, c) for i, c in enumerate(vec) if c)


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
    walk = root_walk(cartan, isogeny, classical_root_count(descriptor))
    datum = RootDatum(descriptor, isogeny, cartan, *map(tuple, zip(*walk)))
    for r, cr in zip(datum.roots, datum.coroots):
        if pair(r, cr) != 2:
            raise RootDatumError("root/coroot pairing is not 2")
    return datum


def root_walk(cartan: IntMatrix, isogeny: str, count: int) -> list[tuple[IntVec, ...]]:
    """The roots of a Cartan matrix as (root, coroot, coefficients,
    cocoefficients) by height, walked from the simple roots.  The simple
    (co)roots and units are held by their nonzero entries (``support``), and
    a root meets only the reflections whose coroot reads a nonzero entry of
    it, so a sum costs about the sum of its factors.  The walk stops once it
    passes ``count`` roots, as on an affine Cartan matrix it would never end,
    and raises unless it found exactly ``count``."""
    units = identity_matrix(len(cartan))
    alphas, achecks = (units, cartan) if isogeny == "adjoint" else (transpose(cartan), units)
    simples = [tuple(map(support, s)) for s in zip(alphas, achecks, units)]
    reading = [[] for _ in units]  # reading[i]: the simple reflections whose coroot reads entry i
    for j, (_, acheck, _) in enumerate(simples):
        for i, _ in acheck:
            reading[i].append(j)
    seen = {a: (a, ac, u, u) for a, ac, u in zip(alphas, achecks, units)}
    frontier = list(seen.values())
    while frontier and len(seen) <= count:
        root, coroot, coeff, cocoeff = frontier.pop()
        for j in {j for i, x in enumerate(root) if x for j in reading[i]}:
            alpha, acheck, unit = simples[j]
            p = sum(root[i] * c for i, c in acheck)
            if not p:  # the reflection fixes the root (and then q = 0 too)
                continue
            new_root = _moved(root, p, alpha)
            if new_root in seen:
                continue
            # the coroot and the coefficients are built only for a new root
            q = sum(coroot[i] * c for i, c in alpha)
            entry = seen[new_root] = (
                new_root, _moved(coroot, q, acheck), _moved(coeff, p, unit), _moved(cocoeff, q, unit)
            )
            frontier.append(entry)
    if len(seen) != count:
        raise RootDatumError(f"generated {len(seen)} roots, expected {count}")
    return sorted(seen.values(), key=lambda e: (sum(e[2]), e[2]))


def _moved(vec, t: int, entries) -> tuple:
    """vec - t v, for the vector v with the nonzero entries ``entries``."""
    out = list(vec)
    for i, c in entries:
        out[i] -= t * c
    return tuple(out)


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


def __getattr__(name):  # perfbench/tracing.py spans rootdata.weyl_elements
    if name != "weyl_elements":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .stability import weyl_elements

    return weyl_elements
