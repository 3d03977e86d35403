"""The sampled span oracle that the exact closure in
``weylmod.split_span_check`` replaced, kept as a test-local oracle.

It builds the Chevalley algebra and applies seeded products of at most three
root-group exponentials to the maximal-root vectors, tracking their span with
an incremental echelon basis.  A True answer is a proof that the span is
full; a False one may be a sampling miss, so the exact check must be True
wherever this one is.
"""
import random
from fractions import Fraction

from parahoric.chevalley import exp_ad, structure_constants
from parahoric.echelonnage import ApartmentPoint, twisted
from parahoric.mpquotient import quotient_datum
from parahoric.weylmod import WeylModuleError, phi_xr, phi_xr_max


def to_vector(alg, elt: dict) -> tuple:
    """The coordinates of an algebra element on the basis labels."""
    return tuple(Fraction(elt.get(l, 0)) for l in alg.labels)


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


SPAN_PARAMETER_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(1, 3),
    Fraction(-2),
)


def sampled_span_check(datum, x: ApartmentPoint, r, samples: int = 80, seed: int = 0) -> bool:
    """For a split datum and non-integral depth, check that products of at
    most three root-group exponentials applied to the maximal-root vectors
    span the whole depth-r root space.  Sampling is seeded and deterministic.
    """
    r = Fraction(r)
    if r.denominator == 1:
        raise WeylModuleError("span oracle needs a non-integral depth")
    td = twisted(datum)
    h = quotient_datum(td, x)
    support = phi_xr(td, x, r)
    target = len(support)
    if target == 0:
        return True
    maximal = phi_xr_max(td, x, r, h)
    alg = structure_constants(datum)
    as_root = lambda key: tuple(int(c) for c in key)
    starters = [alg.x(as_root(key)) for key in sorted(maximal)]
    h_roots = [as_root(key) for key in sorted(h.roots)]

    echelon = RowEchelon()
    for elt in starters:
        echelon.add(to_vector(alg, elt))
        if echelon.rank == target:
            return True
    if not h_roots:
        return echelon.rank == target
    rng = random.Random(seed)
    for _ in range(samples):
        ops = [
            exp_ad(alg, rng.choice(h_roots), rng.choice(SPAN_PARAMETER_POOL))
            for _ in range(rng.randint(1, 3))
        ]
        for elt in starters:
            moved = elt
            for op in ops:
                moved = op.apply(moved)
            echelon.add(to_vector(alg, moved))
            if echelon.rank == target:
                return True
    return echelon.rank == target
