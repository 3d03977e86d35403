"""One object per datum: the builders intern their records, the per-datum
tables live on the interned objects, and only the listed functions keep a
module-level cache."""
import ast
import random
from fractions import Fraction as F
from pathlib import Path

from parahoric import mpquotient
from parahoric.echelonnage import companion_shift, origin, point_from_simple_coroots, twisted
from parahoric.mpquotient import quotient_datum
from parahoric.rootdata import build_automorphism, build_datum

SRC = Path(__file__).resolve().parent.parent / "src" / "parahoric"

# Per-point results (bounded by DEPTH_TABLE_CACHE), the scaffold of a
# (datum, twist) pair, the Weyl group and the Chevalley-basis oracle.
CACHED = {
    "echelonnage.depth_table",
    "stability._reduced_reference",
    "echelonnage._scaffold",
    "rootdata.weyl_elements",
    "chevalley.structure_constants",
    "chevalley.pinned_automorphism",
}
BOUNDED = {"echelonnage.depth_table", "stability._reduced_reference"}


def test_the_builders_return_one_object_per_datum():
    d = build_datum("B3")
    assert build_datum("B3") is d and build_datum("B3", "adjoint") is d
    assert build_datum("B3", "simply_connected") is not d
    a2 = build_datum("A2")
    flip = build_automorphism(a2, (1, 0))
    assert build_automorphism(a2, [1, 0]) is flip
    td = twisted(a2, flip, {0: F(-1, 2)})
    assert twisted(a2, flip, [F(-1, 2)]) is td
    assert twisted(a2, flip) is twisted(a2, flip, {0: 0}) is not td
    assert twisted(d) is twisted(d, build_automorphism(d, range(3)))


def test_the_companion_shift_returns_the_interned_tame_datum():
    a2 = build_datum("A2")
    td = twisted(a2, build_automorphism(a2, (1, 0)), {0: F(-1, 2)})
    tame, _ = companion_shift(td, origin(td))
    assert tame is twisted(td.base, td.twist)
    assert tame.restricted is twisted(a2, build_automorphism(a2, [1, 0])).restricted


def test_a_sweep_over_many_root_sets_builds_each_quotient_once(monkeypatch):
    # more (datum, depth-0 root set) keys than any per-point cache holds,
    # swept twice: each quotient datum is still built once
    original = mpquotient.ReductiveQuotientDatum
    builds = []

    def counting(**fields):
        builds.append(fields)
        return original(**fields)

    monkeypatch.setattr(mpquotient, "ReductiveQuotientDatum", counting)
    points = []
    for desc in ("B3", "C3"):
        td = twisted(build_datum(desc))
        td.quotients.clear()  # forget the quotients of earlier tests
        rng = random.Random(f"{desc} root sets")
        for _ in range(120):
            coords = [F(rng.randint(-12, 12), rng.choice((2, 3, 4, 6))) for _ in range(3)]
            points.append((td, point_from_simple_coroots(td, coords)))
    first = [quotient_datum(td, x) for td, x in points]
    second = [quotient_datum(td, x) for td, x in points]
    keys = {(td, h.roots) for (td, _), h in zip(points, first)}
    assert len(keys) > 32
    assert len(builds) == len(keys)
    assert all(a is b for a, b in zip(first, second))


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _names(nodes, wanted):
    """Uses of a name (``x`` or ``mod.x``) among the nodes' subtrees."""
    return sum(
        isinstance(n, ast.Name) and n.id in wanted or isinstance(n, ast.Attribute) and n.attr in wanted
        for node in nodes
        for n in ast.walk(node)
    )


def test_only_the_listed_functions_keep_a_module_level_cache():
    # a per-datum table belongs on the interned datum, not in an lru_cache
    caches = {"lru_cache", "cache"}
    decorated, bounded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = 0
        for fn in _functions(tree):
            if _names(fn.decorator_list, caches):
                decorated.add(f"{path.stem}.{fn.name}")
                uses += _names(fn.decorator_list, caches)
            if _names(fn.decorator_list, {"DEPTH_TABLE_CACHE"}):
                bounded.add(f"{path.stem}.{fn.name}")
        assert _names([tree], caches) == uses, f"{path.name}: a cache outside a decorator"
        reads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "DEPTH_TABLE_CACHE"]
        assert sum(isinstance(n.ctx, ast.Load) for n in reads) == sum(
            _names(fn.decorator_list, {"DEPTH_TABLE_CACHE"}) for fn in _functions(tree)
        ), f"{path.name}: DEPTH_TABLE_CACHE read outside a cache bound"
    assert decorated == CACHED, sorted(decorated ^ CACHED)
    assert bounded == BOUNDED


def test_no_module_imports_a_private_name_from_another():
    # a name with one leading underscore belongs to its own module
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def _unused_imports(path):
    """Names that a module imports and never reads.  ``__future__`` imports
    and a name whose own line carries ``# noqa: F401`` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    for node in imports:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield f"{path.parent.name}/{path.name}: {name}"


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports its names to re-export them
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []
