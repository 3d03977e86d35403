"""The closed-form quotient type of ``cli._match_component`` against the
permutation search it replaced: the first template, from A to G, that some
relabelling of the nodes turns into the block."""
import itertools
import random

import pytest

from parahoric.cli import _match_component
from parahoric.rootdata import cartan_matrix_component


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


def relabelled(block, perm):
    n = len(block)
    return [[block[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


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
    name = f"{letter}{n}"
    template = cartan_matrix_component(letter, n)
    rng = random.Random(f"relabel {name}")
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        block = relabelled(template, perm)
        assert _match_component(block) == match_component_oracle(block) == FIRST_MATCH.get(name, name)


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


@pytest.mark.parametrize("index", range(9))
def test_non_dynkin_blocks_are_unknown(index):
    block = _non_dynkin_blocks()[index]
    rng = random.Random(index)
    perm = list(range(len(block)))
    rng.shuffle(perm)
    for b in (block, relabelled(block, perm)):
        assert _match_component(b) == match_component_oracle(b) == f"unknown{len(b)}"
