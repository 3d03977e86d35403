"""What a fresh CLI process imports beyond a bare interpreter (one started
without `site`, whose `.pth` files may preload modules): no `dataclasses`
(nor the `inspect` it pulls in), no `argparse` (nor the `gettext`, `locale`
and `shutil` it pulls in), no `pathlib`, neither the Chevalley-basis oracle
nor the self-test, which no report subcommand calls, and of the grading,
Weyl-module and stability layers only the one its subcommand runs.
`import parahoric` loads no submodule.  `import parahoric.cli`, `--help` and
a usage error load no other package module, and the catalog listing only the
catalog table; none of them loads `fractions`, `decimal` or `json`, and the
listing stays within a line budget.  The spec-to-report pipeline
(`report`) loads for a report and for `catalog --id`, which loads no stage
module.  A report loads only
the stage modules it can call: `scan` and `stability` no `mpquotient`, and
only `stability` and a barycenter spec `alcove`; the source lines a report
process loads, all of which it compiles when no bytecode is written, stay
within a budget per subcommand.  Every public name resolves on
first access to the package attribute, and the lazily loaded layers' errors
keep their exit codes.  The whole-coset oracles are not package names: they
are imported from their modules."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parahoric
from parahoric.cli import main

SRC = str(Path(parahoric.__file__).resolve().parent.parent)
PROBE = """
import json, sys
bare = set(sys.modules)
import parahoric.cli
print(json.dumps(sorted(set(sys.modules) - bare)))
"""
LAYERS = ("parahoric.stability", "parahoric.vinberg", "parahoric.weylmod")
STAGES = ("parahoric.rootdata", "parahoric.echelonnage", "parahoric.mpquotient", "parahoric.alcove")
ENTRY = ("parahoric", "parahoric.cli", "parahoric.catalog", "parahoric.report")
UNUSED_STDLIB = ("dataclasses", "inspect", "argparse", "gettext", "locale", "shutil", "pathlib")
# what only the report pipeline and the stage modules need
REPORT_STDLIB = ("fractions", "decimal", "json")
RUN = """
import json, os, sys
bare = set(sys.modules)
from parahoric.cli import main
code = main([*sys.argv[1:], "--out", os.devnull])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""
# the package modules loaded by `import parahoric`
LOADS = """
import json, sys
bare = set(sys.modules)
import parahoric
print(json.dumps(sorted(m for m in set(sys.modules) - bare if m.startswith("parahoric"))))
"""
# every module a run of the given argv loads, on the last line of stdout;
# the probe itself imports nothing before it runs
COLD = """
import sys
bare = set(sys.modules)
from parahoric.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("\\n" + " ".join(sorted(set(sys.modules) - bare)))
"""


def _fresh(*argv) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-S", *argv], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_loads_no_dataclasses_and_no_oracle():
    loaded = set(json.loads(_fresh("-c", PROBE)))
    assert "parahoric.cli" in loaded
    for name in (*UNUSED_STDLIB, "parahoric.chevalley", "parahoric.selftest", *LAYERS, *STAGES):
        assert name not in loaded, name


def test_package_import_loads_no_submodule():
    assert json.loads(_fresh("-c", LOADS)) == ["parahoric"]


# The source lines of the package modules that the catalog listing, the
# largest of these paths, loads (README, "Start-up").
COLD_LINE_BUDGET = 367


@pytest.mark.parametrize("argv", [[], ["catalog"], ["--help"], ["stability", "-h"], ["bogus"]])
def test_catalog_help_and_usage_errors_load_no_stage_module(argv):
    loaded = _fresh("-c", COLD, *argv).splitlines()[-1].split()
    package = {m for m in loaded if m.startswith("parahoric")}
    assert package == {"parahoric", "parahoric.cli", *(["parahoric.catalog"] if argv == ["catalog"] else [])}
    assert set(loaded) & {*REPORT_STDLIB, *UNUSED_STDLIB} == set()
    files = [importlib.import_module(m).__file__ for m in package]
    lines = sum(len(Path(f).read_text().splitlines()) for f in files)
    assert lines <= COLD_LINE_BUDGET, lines


@pytest.mark.parametrize("command,own", [
    ("scan", None),
    ("quotient", None),
    ("grade", "parahoric.vinberg"),
    ("decompose", "parahoric.weylmod"),
    ("stability", "parahoric.stability"),
    ("catalog", None),
])
def test_each_subcommand_loads_only_its_own_layer(command, own):
    # a report needs exactmath, rootdata and echelonnage, and mpquotient only
    # where it reads a quotient datum or a quotient report; alcove only where
    # a point is reduced or a vertex is needed; an exported catalog spec
    # needs the report pipeline but no stage module
    for point in [None] if command == "catalog" else ["origin", "barycenter"]:
        given = ["--id", "2A3"] if point is None else ["--spec", f"catalog:2A3:{point}"]
        code, loaded = json.loads(_fresh("-c", RUN, command, *given))
        assert code == 0
        assert set(loaded) & set(LAYERS) == ({own} if own else set())
        assert set(loaded) & set(UNUSED_STDLIB) == set()
        stages = set() if point is None else {"parahoric.exactmath", "parahoric.rootdata", "parahoric.echelonnage"}
        if command in ("quotient", "grade", "decompose"):
            stages.add("parahoric.mpquotient")
        if command == "stability" or point == "barycenter":
            stages.add("parahoric.alcove")
        package = {m for m in loaded if m.startswith("parahoric")}
        assert package == {*ENTRY, *stages, *([own] if own else [])}, point


# The source lines of the package modules a fresh report process loads at
# the origin, per subcommand: without bytecode the process compiles every
# one of them before it computes anything (README, "Cold start").
LINE_BUDGET = {"scan": 2148, "quotient": 2456, "grade": 2659, "decompose": 2854, "stability": 2692}


@pytest.mark.parametrize("command", LINE_BUDGET)
def test_each_subcommand_loads_at_most_its_line_budget(command):
    code, loaded = json.loads(_fresh("-c", RUN, command, "--spec", "catalog:2A3:origin"))
    assert code == 0
    files = [importlib.import_module(m).__file__ for m in loaded if m.startswith("parahoric")]
    lines = sum(len(Path(f).read_text().splitlines()) for f in files)
    assert lines <= LINE_BUDGET[command], lines


@pytest.mark.parametrize("command,module,function,error,code,prefix", [
    ("grade", "vinberg", "crosscheck", "GradingError", 1, "input error"),
    ("grade", "vinberg", "crosscheck", "ModulusCapExceeded", 2, "property violation"),
    ("decompose", "weylmod", "decompose", "WeylModuleError", 2, "property violation"),
    ("stability", "stability", "stable_verdict", "StabilityError", 2, "property violation"),
])
def test_lazy_layer_errors_keep_their_exit_codes(
    monkeypatch, capsys, command, module, function, error, code, prefix
):
    mod = importlib.import_module(f"parahoric.{module}")
    exc = getattr(mod, error)
    assert issubclass(exc, ValueError if code == 1 else RuntimeError)

    def broken(*args):
        raise exc("raised on purpose")

    monkeypatch.setattr(mod, function, broken)
    assert main([command, "--spec", "catalog:A2", "--out", os.devnull]) == code
    assert capsys.readouterr().err == f"{prefix}: raised on purpose\n"


def test_lazy_names_resolve():
    for name in parahoric.__all__:
        module = importlib.import_module(f"parahoric.{parahoric._LAZY[name]}")
        value = getattr(parahoric, name)
        assert value is getattr(module, name) and value.__module__ == module.__name__, name
    from parahoric import ChevalleyAlgebra, crosscheck, structure_constants
    from parahoric.chevalley import ChevalleyAlgebra as direct
    from parahoric.vinberg import crosscheck as direct_crosscheck

    assert ChevalleyAlgebra is direct
    assert crosscheck is direct_crosscheck
    assert isinstance(structure_constants(parahoric.build_datum("A2")), direct)
    lazy = {"ChevalleyAlgebra", "exp_ad", "orbit_sign", "pinned_automorphism", "structure_constants"}
    assert lazy <= set(parahoric.__all__) <= set(dir(parahoric))
    # a resolved name is bound in the package, so the hook runs once per name
    assert vars(parahoric)["crosscheck"] is direct_crosscheck


COSET_ORACLES = {
    "rootdata": ("weyl_elements",),
    "stability": ("elliptic_zregular_orders", "zregularity_criteria_agree"),
    "exactmath": ("cyclotomic_multiplicities", "matrix_order"),
}


@pytest.mark.parametrize("module,names", COSET_ORACLES.items())
def test_coset_oracles_are_module_names_only(module, names):
    mod = importlib.import_module(f"parahoric.{module}")
    for name in names:
        assert callable(getattr(mod, name)), name
        assert name not in parahoric.__all__ and name not in parahoric._LAZY, name
        with pytest.raises(AttributeError):
            getattr(parahoric, name)
