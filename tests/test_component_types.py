"""The quotient's component types (``QuotientType.components``,
named by ``rootdata.component_type`` from root counts) against the
permutation search they replace: the first template, from A to G, that some
relabelling of the nodes turns into the Cartan block of the component."""
import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from parahoric.echelonnage import origin, point_from_simple_coroots, twisted
from parahoric.exactmath import closure
from parahoric.mpquotient import quotient_datum
from parahoric.rootdata import (
    RootDatumError,
    build_automorphism,
    build_datum,
    cartan_matrix_component,
    component_type,
)


@functools.cache
def match_component_oracle(block_cartan) -> str:
    n = len(block_cartan)
    for letter in "ABCDEFG":
        ranks_ok = {
            "A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 3,
            "E": n in (6, 7, 8), "F": n == 4, "G": n == 2,
        }[letter]
        if not ranks_ok:
            continue
        template = cartan_matrix_component(letter, n)
        for perm in itertools.permutations(range(n)):
            if all(
                template[perm[i]][perm[j]] == block_cartan[i][j]
                for i in range(n)
                for j in range(n)
            ):
                return f"{letter}{n}"
    return f"unknown{n}"


def component_blocks_oracle(cartan) -> list[tuple[int, ...]]:
    """The connected components of the Dynkin diagram, by least node."""
    n = len(cartan)
    blocks = []
    for i in range(n):
        if not any(i in block for block in blocks):
            linked = closure([i], lambda a: (b for b in range(n) if cartan[a][b]))
            blocks.append(tuple(sorted(linked)))
    return blocks


def components_oracle(h):
    """(type, nodes) of each diagram component of the quotient, by least node."""
    cartan = h.cartan
    return tuple(
        (match_component_oracle(tuple(tuple(cartan[i][j] for j in block) for i in block)), block)
        for block in component_blocks_oracle(cartan)
    )


def relabelled(block, perm):
    n = len(block)
    return tuple(tuple(block[perm[i]][perm[j]] for j in range(n)) for i in range(n))


TEMPLATES = (
    [("A", n) for n in range(1, 9)]
    + [(letter, n) for letter in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)
# the first match of the permutation search: B2 and C2 are one diagram, and
# so are A3 and D3
FIRST_MATCH = {"C2": "B2", "D3": "A3"}


@pytest.mark.parametrize("letter,n", TEMPLATES)
def test_closed_form_agrees_with_the_permutation_search(letter, n):
    # the quotient at the origin is the whole root system of the template
    name = f"{letter}{n}"
    td = twisted(build_datum(name))
    h = quotient_datum(td, origin(td))
    expected = FIRST_MATCH.get(name, name)
    assert h.quotient_type.components == components_oracle(h) == ((expected, tuple(range(n))),)
    rng = random.Random(f"relabel {name}")
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        assert match_component_oracle(relabelled(h.cartan, perm)) == expected


# (descriptor, node permutation or None, lambda valuations): products of
# split types and the twisted cosets, with the wild 2A2 and 2A4 last
COSETS = (
    ("A2+B3", None, {}), ("G2+A1+C3", None, {}),
    ("A2", (1, 0), {}), ("A3", (2, 1, 0), {}), ("D4", (0, 1, 3, 2), {}), ("D4", (2, 1, 3, 0), {}),
    ("E6", (5, 1, 4, 3, 2, 0), {}), ("D5", (0, 1, 2, 4, 3), {}),
    ("A4", (3, 2, 1, 0), {}), ("A5", (4, 3, 2, 1, 0), {}), ("A6", (5, 4, 3, 2, 1, 0), {}),
    ("E6+E6", (*range(6, 12), *range(6)), {}), ("A2+A2", (2, 3, 0, 1), {}),
    ("B3+B3", (3, 4, 5, 0, 1, 2), {}),
    ("A2", (1, 0), {0: F(-1, 2)}), ("A4", (3, 2, 1, 0), {0: F(-1, 2), 1: F(-1, 2)}),
)


def _sweep():
    """(name, twisted datum, points): eight seeded points in (1/6)Z of each
    split template and of each coset of COSETS, and the origin of each coset
    (that of a template is the test above)."""
    data = [(f"{letter}{n}", None, {}, False) for letter, n in TEMPLATES]
    for desc, perm, lam, at_origin in data + [(*coset, True) for coset in COSETS]:
        datum = build_datum(desc)
        td = twisted(datum, None if perm is None else build_automorphism(datum, perm), lam)
        name = f"{desc} {perm} {lam}"
        rng = random.Random(name)
        points = [origin(td)] if at_origin else []
        for _ in range(8):
            coefficients = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in td.simple_keys]
            points.append(point_from_simple_coroots(td, coefficients))
        yield name, td, points


def test_components_agree_with_the_oracle_on_a_seeded_sweep():
    types = set()
    for name, td, points in _sweep():
        for x in points:
            h = quotient_datum(td, x)
            assert h.quotient_type.components == components_oracle(h), (name, x.coords)
            types.add(tuple(sorted(c for c, _ in h.quotient_type.components)))
    # the sweep meets more than 80 quotient types, G2, F4 and E7 among them
    assert len(types) > 80 and {("G2",), ("F4",), ("E7",), ("A1", "C3", "G2")} <= types


def _diagram(n, bonds):
    """The block with C[i][j], C[j][i] = bonds[i, j], simple elsewhere."""
    block = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (cij, cji) in bonds.items():
        block[i][j], block[j][i] = cij, cji
    return block


def _path(n, multiple=None):
    return _diagram(n, {(i, i + 1): (multiple or {}).get(i, (-1, -1)) for i in range(n - 1)})


def _spider(*arms):
    """Node 0 with the given arms of simple bonds."""
    bonds, node = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds[prev, node] = (-1, -1)
            prev, node = node, node + 1
    return _diagram(node, bonds)


def _non_dynkin_blocks():
    return (
        _diagram(4, {(i, (i + 1) % 4): (-1, -1) for i in range(4)}),  # affine A3
        _spider(1, 1, 1, 1),  # affine D4
        _spider(2, 2, 2),  # affine E6
        _path(2, {0: (-2, -2)}),  # affine A1
        _path(3, {0: (-1, -3)}),  # a triple bond on three nodes
        _path(5, {1: (-1, -2), 3: (-2, -1)}),  # two double bonds
        _path(5, {2: (-1, -2)}),  # a double bond inside a chain of five
        _path(3, {0: (-1, 0)}),  # not symmetrizable
        [[3]],
    )


# more roots than any irreducible root system has (E8 has 240)
ROOT_CAP = 241


def orbit_counts(block) -> tuple[int, int]:
    """The size of the orbit of the simple roots under the reflections
    s_i(b) = b - <b, acheck_i> alpha_i of the block, in simple-root
    coordinates, stopped at ROOT_CAP, and the positive vectors in it.  For a
    Dynkin block the orbit is its root system."""
    n = len(block)

    def images(b):
        for i in range(n):
            p = sum(block[i][j] * b[j] for j in range(n))
            yield tuple(c - p * (k == i) for k, c in enumerate(b))

    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    orbit = list(itertools.islice(closure(simples, images), ROOT_CAP))
    return len(orbit), sum(all(c >= 0 for c in b) for b in orbit)


@pytest.mark.parametrize("letter,n", TEMPLATES)
def test_component_type_reads_the_template_counts(letter, n):
    template = cartan_matrix_component(letter, n)
    size, positive = orbit_counts(template)
    assert size == 2 * positive
    short = {"B": 1, "C": n - 1, "F": 2, "G": 1}.get(letter, 0)
    name = f"{letter}{n}"
    assert component_type(n, positive, short) == FIRST_MATCH.get(name, name)


@pytest.mark.parametrize("index", range(9))
def test_non_dynkin_blocks_are_unknown(index):
    block = _non_dynkin_blocks()[index]
    n = len(block)
    rng = random.Random(index)
    perm = list(range(n))
    rng.shuffle(perm)
    for b in (block, relabelled(block, perm)):
        assert match_component_oracle(tuple(map(tuple, b))) == f"unknown{n}"
    # the orbit does not close, and its counts name no type, whatever the
    # number of short simple roots
    size, positive = orbit_counts(block)
    assert size == ROOT_CAP
    for short in range(n + 1):
        with pytest.raises(RootDatumError):
            component_type(n, positive, short)
