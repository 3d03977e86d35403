"""The points of the seeded warm benchmark sweep (``perfbench/workloads.py``),
for the tests that check per-point tables and inverses on what the sweep
meets, and the benchmark's own per-point work (``perfbench/child.py``)."""
import importlib
import sys
from fractions import Fraction
from pathlib import Path

from parahoric.echelonnage import point_from_simple_coroots, twisted
from parahoric.rootdata import build_automorphism, build_datum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """A module of the benchmark harness, imported from ``perfbench/``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def warm_sweep(seed, per_datum=None):
    """(twisted datum, point) for the first ``per_datum`` points (all when
    None) of each datum of the warm sweep at ``seed``."""
    workloads = perfbench_module("workloads")
    for case in workloads.generate("warm_points", seed, PERFBENCH.parent):
        spec = case.spec
        datum = build_datum(spec["dynkin"])
        lam = {int(k): Fraction(v) for k, v in spec["lambda_valuations"].items()}
        td = twisted(datum, build_automorphism(datum, spec["automorphism"]), lam)
        for coords in case.points[:per_datum]:
            yield td, point_from_simple_coroots(td, [Fraction(c) for c in coords])
