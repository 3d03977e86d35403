"""What a fresh CLI process imports: no `dataclasses` (nor the `inspect`
it pulls in), and neither the Chevalley-basis oracle nor the self-test, which
no report subcommand calls.  The oracle's public names still resolve on first
access to the package attribute."""
import json
import os
import subprocess
import sys
from pathlib import Path

import parahoric

SRC = str(Path(parahoric.__file__).resolve().parent.parent)
PROBE = """
import json, sys
bare = set(sys.modules)
import parahoric.cli
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def test_cli_import_loads_no_dataclasses_and_no_oracle():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "parahoric.cli" in loaded
    for name in ("dataclasses", "inspect", "parahoric.chevalley", "parahoric.selftest"):
        assert name not in loaded, name


def test_lazy_names_resolve():
    for name in parahoric.__all__:
        assert getattr(parahoric, name) is not None, name
    from parahoric import ChevalleyAlgebra, structure_constants
    from parahoric.chevalley import ChevalleyAlgebra as direct

    assert ChevalleyAlgebra is direct
    assert isinstance(structure_constants(parahoric.build_datum("A2")), direct)
    lazy = {"ChevalleyAlgebra", "exp_ad", "orbit_sign", "pinned_automorphism", "structure_constants"}
    assert lazy <= set(parahoric.__all__) <= set(dir(parahoric))
