"""The benchmark's tracer rebinds package functions by module and name; a
rename in the package would silently drop a span from ``perfbench/run.py
--trace 1``.  This checks that every traced name still resolves."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, names in table.items():
            mod = importlib.import_module(f"parahoric.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"parahoric.{module}.{name}"


def test_warm_sweep_runs_on_the_public_api(monkeypatch):
    # the warm benchmark calls the API through child.sweep_point; a changed
    # signature there would otherwise show only as a failed benchmark run
    from fractions import Fraction

    import parahoric as P

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    child = importlib.import_module("child")
    half = Fraction(1, 2)
    third, sixth, shift = Fraction(1, 3), Fraction(1, 6), Fraction(-7, 5)
    cases = (
        ("A2", (0, 1), {}, ((0, 0), (sixth, third), (shift, 2 * third))),
        ("A2", (1, 0), {0: -half}, ((0,), (sixth,), (shift,))),
    )
    for dynkin, auto, lam, points in cases:
        datum = P.build_datum(dynkin)
        td = P.twisted(datum, P.build_automorphism(datum, auto), lam)
        for coords in points:
            x = P.point_from_simple_coroots(td, coords)
            result = child.sweep_point(P, td, x, len(datum.roots) + datum.rank)
            assert result["sum_rule_holds"]
            assert result["crosscheck"]
            assert result["dimensions_match"]
