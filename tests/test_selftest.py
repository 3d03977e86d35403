"""The ``parahoric selftest`` contract: nine checks in a fixed order, nine
PASS lines and a summary on stdout, and a failing check reported as a FAIL
line and exit code 2 while the later checks still run."""
import pytest

from parahoric import selftest
from parahoric.cli import main

NAMES = (
    "sum_rule",
    "vinberg_crosscheck",
    "companion_invariance",
    "weyl_decomposition",
    "split_span_oracle",
    "regularity",
    "stability_verdicts",
    "algebra_integrity",
    "alcove_reduction",
)


def test_the_checks_keep_their_names_and_order():
    assert tuple(name for name, _ in selftest.CHECKS) == NAMES


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_green_selftest_prints_nine_passes_and_the_summary(seed, capsys):
    assert main(["selftest", "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert out == "".join(f"PASS {name}\n" for name in NAMES) + "selftest: all checks passed\n"


def test_a_failing_check_is_reported_and_the_later_checks_still_run(monkeypatch, capsys):
    def planted(**scope):
        raise RuntimeError("planted failure")

    checks = dict(selftest.CHECKS)
    checks["companion_invariance"] = planted
    monkeypatch.setattr(selftest, "CHECKS", tuple(checks.items()))

    assert main(["selftest"]) == 2  # returned, not raised: no traceback escapes
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = lines.index("FAIL companion_invariance")
    assert "RuntimeError: planted failure" in lines
    assert [line for line in lines[failed:] if line.startswith("PASS ")] == [
        f"PASS {name}" for name in NAMES[3:]
    ]
    assert lines[-1] == "selftest: FAILURES"
    assert captured.err == ""
