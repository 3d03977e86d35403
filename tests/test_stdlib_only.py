"""Stdlib-only and no floats, read off the source: every module of the
package imports only the standard library or its own modules (a relative
import), and holds no float literal and no ``float(...)`` call."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parahoric"


def _violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        out += [
            f"line {node.lineno}: import {m}"
            for m in modules
            if m.split(".")[0] not in sys.stdlib_module_names
        ]
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"line {node.lineno}: float() call")
    return out


def test_the_guard_catches_each_kind_of_violation():
    assert _violations("import numpy\nfrom sympy.core import S\nx = 0.5\ny = float(1)\n") == [
        "line 1: import numpy",
        "line 2: import sympy.core",
        "line 3: float literal 0.5",
        "line 4: float() call",
    ]
    clean = "from __future__ import annotations\nimport os.path\nfrom . import rootdata\nfrom .exactmath import pair\nx = 1\n"
    assert _violations(clean) == []


def test_the_package_is_stdlib_only_and_float_free():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {p.name: v for p in paths if (v := _violations(p.read_text()))}
    assert found == {}
