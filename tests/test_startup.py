"""What a fresh CLI process imports beyond a bare interpreter (one started
without `site`, whose `.pth` files may preload modules): no `dataclasses`
(nor the `inspect` it pulls in), no `argparse` (nor the `gettext`, `locale`
and `shutil` it pulls in), no `pathlib`, neither the Chevalley-basis oracle
nor the self-test, which no report subcommand calls, and of the grading,
Weyl-module and stability layers only the one its subcommand runs.
`import parahoric` loads no submodule, and `import parahoric.cli`,
`catalog` (`--id` included), `--help` and a usage error load none of the stage modules
`rootdata`, `echelonnage` and `mpquotient`.  Every public name resolves on
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
STAGES = ("parahoric.rootdata", "parahoric.echelonnage", "parahoric.mpquotient")
ENTRY = ("parahoric", "parahoric.cli", "parahoric.catalog", "parahoric.exactmath")
UNUSED_STDLIB = ("dataclasses", "inspect", "argparse", "gettext", "locale", "shutil", "pathlib")
RUN = """
import json, os, sys
bare = set(sys.modules)
from parahoric.cli import main
code = main([*sys.argv[1:], "--out", os.devnull])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""
# the package modules loaded by `import parahoric`, or by `import
# parahoric.cli` and a run of the given argv, whose output is thrown away
LOADS = """
import contextlib, io, json, sys
bare = set(sys.modules)
import parahoric
if sys.argv[1:]:
    from parahoric.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        main(sys.argv[2:])
print(json.dumps(sorted(m for m in set(sys.modules) - bare if m.startswith("parahoric"))))
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


@pytest.mark.parametrize("argv", [[], ["catalog"], ["--help"], ["stability", "-h"], ["bogus"]])
def test_catalog_help_and_usage_errors_load_no_stage_module(argv):
    loaded = json.loads(_fresh("-c", LOADS, "cli", *argv))
    assert set(loaded) == set(ENTRY)


@pytest.mark.parametrize("command,own", [
    ("scan", None),
    ("quotient", None),
    ("grade", "parahoric.vinberg"),
    ("decompose", "parahoric.weylmod"),
    ("stability", "parahoric.stability"),
    ("catalog", None),
])
def test_each_subcommand_loads_only_its_own_layer(command, own):
    given = ["--id", "2A3"] if command == "catalog" else ["--spec", "catalog:2A3:barycenter"]
    code, loaded = json.loads(_fresh("-c", RUN, command, *given))
    assert code == 0
    assert set(loaded) & set(LAYERS) == ({own} if own else set())
    assert set(loaded) & set(UNUSED_STDLIB) == set()
    # a report needs every stage; an exported catalog spec none
    stages = set() if command == "catalog" else set(STAGES)
    package = {m for m in loaded if m.startswith("parahoric")}
    assert package == {*ENTRY, *stages, *([own] if own else [])}


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
