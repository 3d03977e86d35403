"""One object per datum: the builders intern their records, the per-datum
tables live on the interned objects, and only the listed functions keep a
module-level cache."""
import ast
import gc
import importlib
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from weakref import WeakValueDictionary

from parahoric import mpquotient, vinberg
from parahoric.echelonnage import (
    DEPTH_TABLE_CACHE,
    apartment_point,
    companion_shift,
    depth_table,
    origin,
    point_from_simple_coroots,
    point_order,
    translation_class,
    twisted,
)
from parahoric.exactmath import vec_add
from parahoric.mpquotient import first_jump, jump_values, mp_quotient, quotient_datum
from parahoric.rootdata import build_automorphism, build_datum
from parahoric.vinberg import crosscheck
from parahoric.weylmod import decompose
from warm_points import warm_sweep

SRC = Path(__file__).resolve().parent.parent / "src" / "parahoric"

# The translation class per point (bounded by DEPTH_TABLE_CACHE), the
# scaffold of a (datum, twist) pair, the Weyl group and the Chevalley-basis
# oracle.
CACHED = {
    "echelonnage.translation_class",
    "echelonnage._scaffold",
    "rootdata.weyl_elements",
    "chevalley.structure_constants",
    "chevalley.pinned_automorphism",
}
BOUNDED = {"echelonnage.translation_class"}


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
        td.results.clear()  # forget the quotients of earlier tests
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


def _translate(td, x, shift):
    """x plus an integer combination of the restricted simple coroots: every
    root value moves by an integer, so the binning stays."""
    return apartment_point(td, vec_add(x.coords, point_from_simple_coroots(td, shift).coords))


def test_points_with_one_binning_share_one_table():
    td = twisted(build_datum("A2"))
    x = point_from_simple_coroots(td, (F(1, 3), F(1, 3)))
    y = _translate(td, x, (1, -1))
    assert y != x and depth_table(td, y) is depth_table(td, x)
    assert depth_table(td, point_from_simple_coroots(td, (F(1, 2), F(1, 3)))) is not depth_table(td, x)
    # over the whole seed-0 warm sweep (every catalog datum, the wild 2A2 and
    # 2A4 and four more), equal bins are one object while the tables are held
    tables = [depth_table(td, x) for td, x in warm_sweep(0)]
    ids = {}
    for t in tables:
        ids.setdefault((t.td, t.order, tuple(sorted(t.roots.items()))), set()).add(id(t))
    assert len(tables) == 960 and len(ids) == 284
    assert all(len(same) == 1 for same in ids.values())


def test_interned_bins_equal_a_fresh_binning(monkeypatch):
    # at seeded points and their translates, on every datum of the warm
    # sweep: the table served equals one binned with an empty intern map
    rng = random.Random("interned bins")
    compared = shared = 0
    for td, x in warm_sweep(1, 12):
        table = depth_table(td, x)
        shift = [rng.randint(-3, 3) for _ in td.simple_keys]
        moved = depth_table(td, _translate(td, x, shift))
        shared += moved is table
        for point, served in ((x, table), (_translate(td, x, shift), moved)):
            with monkeypatch.context() as m:
                m.setitem(vars(td), "depth_tables", WeakValueDictionary())
                m.setitem(vars(td), "translation_classes", WeakValueDictionary())
                fresh = translation_class.__wrapped__(td, point).table
            assert fresh is not served
            assert (fresh.order, fresh.roots) == (served.order, served.roots)
            compared += 1
    assert shared == compared // 2 == 16 * 12


def _kept_results(td, x):
    """Every reader that keeps a result on the depth table of x, once."""
    return (
        [mp_quotient(td, x, r) for r in jump_values(td, x)],
        [decompose(td, x, r) for r in (first_jump(td, x), F(1, 2))],
    )


def test_kept_results_equal_ones_computed_after_they_are_cleared():
    kinds = set()
    for td, x in warm_sweep(0, 10):
        table = depth_table(td, x)
        first = _kept_results(td, x)
        kept = dict(table.results)
        assert kept  # the readers kept their results on the table
        table.results.clear()
        vars(table).pop("_jumps", None)
        assert _kept_results(td, x) == first
        # other points of the table may have kept more
        assert table.results and table.results.items() <= kept.items()
        kinds.update(name for name, *_ in table.results)
    assert kinds == {"mp_quotient", "decompose"}


def test_a_table_keeps_a_bounded_number_of_results():
    # depths off the grid of the jumps, or outside [0, 1], are built afresh
    # each time; the table keeps at most one result per reader and grid depth
    rng = random.Random("kept results")
    td = twisted(build_datum("B3"))
    x = point_from_simple_coroots(td, (F(1, 4), F(1, 3), F(1, 6)))
    table = depth_table(td, x)
    table.results.clear()
    depths = [*table.jumps(), *(F(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(400))]
    reports = [mp_quotient(td, x, r) for r in depths]
    for r in depths[:40]:
        decompose(td, x, r)
    grid = {(r.numerator, r.denominator) for r in depths if 0 <= r <= 1 and table.unit % r.denominator == 0}
    assert table.results and {(num, den) for _, num, den in table.results} <= grid
    assert len(table.results) <= 2 * (table.unit + 1) < len(depths)
    assert reports == [mp_quotient(td, x, r) for r in depths]


def test_crosscheck_grades_every_translation_class_of_a_shared_table(monkeypatch):
    # the grading is the independent check against the table: it is kept on
    # the translation class of a point, never on the table, so each class
    # of the points that share a table is graded, and graded once
    graded = []
    real = vinberg._graded
    monkeypatch.setattr(vinberg, "_graded", lambda *args: graded.append(args) or real(*args))
    td = twisted(build_datum("B3"))
    monkeypatch.setitem(vars(td), "translation_classes", WeakValueDictionary())
    translation_class.cache_clear()  # forget the classes of earlier tests
    x = point_from_simple_coroots(td, (F(1, 4), F(1, 3), F(1, 6)))
    # half the first simple coroot moves every root value by an integer, so
    # it keeps the binning, but it is no translation of the affine Weyl group
    y = _translate(td, x, (F(1, 2), 0, 0))
    shifts = ((0, 0, 0), (1, 0, 0), (0, -2, 1), (3, 1, -1))
    points = [_translate(td, p, shift) for p in (x, y) for shift in shifts]
    assert len(set(points)) == 8
    assert len({id(depth_table(td, p)) for p in points}) == 1
    assert len({translation_class(td, p).point for p in points}) == 2
    for p in points:
        assert crosscheck(td, p, point_order(td, p))
    assert len(graded) == 2
    translation_class.cache_clear()  # its classes are not in the restored map


def test_the_intern_map_holds_no_more_tables_than_the_point_cache():
    td = twisted(build_datum("B3"))
    rng = random.Random("B3 intern map")
    points = [
        point_from_simple_coroots(td, [F(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(3)])
        for _ in range(150)
    ]
    tables = [depth_table(td, x) for x in points]
    assert len(td.depth_tables) >= len({id(t) for t in tables}) > DEPTH_TABLE_CACHE
    del points, tables
    gc.collect()
    assert len(td.depth_tables) <= DEPTH_TABLE_CACHE


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


# Each owner record keeps the readings others fill on it in one memo,
# ``results``; the datum also interns its depth tables and translation
# classes in two weak maps, so that they live only while held.
MEMO_OWNERS = ("TwistedDatum", "DepthTable", "TranslationClass")
INTERN_MAPS = {"depth_tables", "translation_classes"}


def _starts_empty(fn) -> bool:
    """Whether the function ends by returning an empty display or a call
    with no arguments (``{}``, ``[]``, ``set()``, ``WeakValueDictionary()``)."""
    value = fn.body[-1].value if isinstance(fn.body[-1], ast.Return) else None
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return isinstance(value, ast.Call) and not value.args and not value.keywords


def test_each_owner_keeps_one_memo_named_results():
    tree = ast.parse((SRC / "echelonnage.py").read_text())
    memos = {
        cls.name: {
            fn.name
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and _names(fn.decorator_list, {"cached_property"})
            and _starts_empty(fn)
        }
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in MEMO_OWNERS
    }
    assert memos == {
        "TwistedDatum": {"results", *INTERN_MAPS},
        "DepthTable": {"results"},
        "TranslationClass": {"results"},
    }
    td = twisted(build_datum("A2"))
    assert all(isinstance(getattr(td, name), WeakValueDictionary) for name in INTERN_MAPS)


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


# A public method that no package code calls and no subcommand runs: the
# README documents it as the way to build a point from raw coordinates.
UNCALLED_EXEMPT = {"ApartmentPoint.from_coords"}


def _named(node):
    """The names and attribute names used in the node's subtree."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(trees):
    """(module, qualified name, node) of every top-level function and class
    and of every method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, kinds[:2]):
                        yield module, f"{node.name}.{sub.name}", sub


def _overrides(module, qualified):
    """Whether a method overrides one its class inherits: whoever calls the
    inherited one calls it (``argparse`` calls ``_Parser.error``)."""
    if "." not in qualified:
        return False
    cls, name = qualified.split(".")
    found = getattr(importlib.import_module(f"parahoric.{module}"), cls)
    return any(hasattr(base, name) for base in found.__mro__[1:])


def test_every_definition_in_src_is_used_by_the_package(monkeypatch):
    # code that only the tests call belongs in their oracle modules: a
    # definition stays when package code outside it names it, the package
    # exports it, it is a dunder or an override, or the benchmark's tracer
    # wraps it by name (read here, so the exemption ends with the pin)
    import parahoric

    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    wrapped = (
        getattr(importlib.import_module(f"parahoric.{m}"), f)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for m, fs in table.items()
        for f in fs
    )
    traced = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}" for fn in wrapped}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum(map(_named, trees.values()), Counter())
    uncalled = [
        f"{module}.{qualified}"
        for module, qualified, node in _definitions(trees)
        for name in [qualified.rsplit(".", 1)[-1]]
        if everywhere[name] == _named(node)[name]
        and name not in parahoric.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and f"{module}.{qualified}" not in traced
        and qualified not in UNCALLED_EXEMPT
        and not _overrides(module, qualified)
    ]
    assert uncalled == []


# dict methods that change the dict
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _dict_writes(tree, allowed):
    """Lines that write some object's ``__dict__`` (an item store or delete,
    or a mutating method) outside the functions named in ``allowed``."""
    inside = {
        id(n)
        for fn in _functions(tree)
        if fn.name in allowed
        for n in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Attribute) and node.attr in MUTATORS:
            target = node.value
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr == "__dict__":
            yield node.lineno


def test_no_record_dict_is_written_outside_its_constructor():
    # a record's attributes are its fields, set by ``frozen_record``, and the
    # ``cached_property`` values it computes itself; only ``frozen_record``
    # and a ``__post_init__`` may write ``__dict__``
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _dict_writes(
            ast.parse(path.read_text()),
            {"__post_init__"} | ({"frozen_record"} if path.name == "exactmath.py" else set()),
        )
    ]
    assert found == []


DYNKIN_TABLES = {"cartan_matrix_component", "ROOT_COUNTS", "_RANK_RANGE"}


def test_dynkin_type_knowledge_stays_in_rootdata():
    # the type templates, the root counts and the rank ranges are read only
    # by rootdata; any other module names a type through component_type
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "rootdata.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in DYNKIN_TABLES
        or isinstance(node, ast.Attribute) and node.attr in DYNKIN_TABLES
        or isinstance(node, ast.ImportFrom) and DYNKIN_TABLES & {a.name for a in node.names}
    ]
    assert found == []


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
