"""The benchmark's tracer rebinds package functions by module and name; a
rename in the package would silently drop a span from ``perfbench/run.py
--trace 1``.  This checks that every traced name still resolves."""
import importlib
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
