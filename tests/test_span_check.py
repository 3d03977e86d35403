"""The exact span check ``weylmod.split_span_check`` against the sampled
oracle it replaced (``span_oracle.sampled_span_check``), its failure when a
maximal root is missing, and ``decompose`` without the Lie algebra."""
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from parahoric import chevalley, weylmod
from parahoric.cli import main
from parahoric.echelonnage import apartment_point, point_from_simple_coroots, twisted
from parahoric.mpquotient import jump_values
from parahoric.rootdata import build_datum
from parahoric.weylmod import decompose, split_span_check

from span_oracle import sampled_span_check

F = Fraction
HALF = F(1, 2)
ROOT = Path(__file__).resolve().parent.parent
# (type, seeded points); fewer where the oracle's Lie algebra is large
ORACLE_TYPES = (
    ("A2", 6), ("A3", 6), ("B2", 6), ("B3", 6), ("C3", 6), ("D4", 6),
    ("G2", 6), ("A4", 6), ("B4", 6), ("F4", 6), ("E6", 3),
)
# the sampled oracle missed the span here
E6_POINT = ["-1/4", "-1", "9/4", "1", "5/2", "0"]


def seeded_cases(desc, count):
    """Seeded points over (1/4)Z, each at r = 1/2 and at one other
    fractional jump when there is one."""
    datum = build_datum(desc)
    td = twisted(datum)
    rng = random.Random(f"span:{desc}")
    for _ in range(count):
        coords = [F(rng.randint(-12, 12), 4) for _ in range(datum.rank)]
        x = point_from_simple_coroots(td, coords)
        others = [r for r in jump_values(td, x) if r.denominator != 1 and r != HALF]
        yield datum, x, HALF
        if others:
            yield datum, x, rng.choice(others)


@pytest.mark.parametrize("desc, count", ORACLE_TYPES)
def test_exact_check_holds_wherever_the_sampled_oracle_does(desc, count):
    # In characteristic 0 the quotient is a semisimple H-module generated by
    # its highest-weight vectors, so the closure always reaches everything.
    for datum, x, r in seeded_cases(desc, count):
        sampled, exact = sampled_span_check(datum, x, r), split_span_check(datum, x, r)
        assert exact or not sampled, (desc, x.coords, r)
        assert exact, (desc, x.coords, r)


def test_a_missing_maximal_root_is_reported(monkeypatch):
    real = weylmod._maximal
    monkeypatch.setattr(
        weylmod, "_maximal", lambda support, shifts: frozenset(sorted(real(support, shifts))[1:])
    )
    for desc, m, r in (("A2", 3, F(1, 3)), ("B2", 2, HALF), ("G2", 2, HALF)):
        datum = build_datum(desc)
        x = apartment_point(twisted(datum), tuple(c / m for c in datum.rho_check))
        assert not split_span_check(datum, x, r), desc


@pytest.mark.parametrize(
    "spec",
    [
        {"dynkin": "E8", "point": {"name": "rho_over_m", "m": 30}, "r": "1/2"},
        {"dynkin": "E6", "point": {"coords": E6_POINT}, "r": "1/2"},
    ],
)
def test_decompose_builds_no_lie_algebra(spec, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose built the Lie algebra")

    monkeypatch.setattr(chevalley, "structure_constants", refuse)
    monkeypatch.setattr(chevalley, "exp_ad", refuse)
    monkeypatch.setattr(chevalley.ChevalleyAlgebra, "__init__", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["decompose", "--spec", str(path)]) == 0
    section = json.loads(capsys.readouterr().out)["decomposition"]
    assert section["dimensions_match"]
    assert section["span_check"] is True


def test_large_types_seeded_split_points_decompose(monkeypatch):
    # the benchmark's seeded F4, B6 and E6 points, as perfbench generates them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    workloads = importlib.import_module("workloads")
    specs = {
        json.dumps(case.spec, sort_keys=True): case.spec
        for seed in range(10)
        for case in workloads.generate("large_types", seed, ROOT)
        if case.seeded and "automorphism" not in case.spec
    }
    assert len(specs) == 30
    for spec in specs.values():
        datum = build_datum(spec["dynkin"])
        td = twisted(datum)
        x = point_from_simple_coroots(td, [F(c) for c in spec["point"]["coords"]])
        r = F(spec["r"])
        assert decompose(td, x, r).dimensions_match(), spec
        assert split_span_check(datum, x, r), spec
