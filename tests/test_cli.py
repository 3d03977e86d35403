import collections
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cli_oracle import make_parser
from parahoric import catalog, cli, report
from parahoric.cli import main
from parahoric.exactmath import InputError, PropertyViolation
from parahoric.vinberg import MODULUS_CAP

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def normalize(report_text: str) -> str:
    data = json.loads(report_text)
    data["timing_seconds"] = 0.0
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_scan_2a2_matches_expected_table(tmp_path, capsys):
    code, out, _ = run_cli(["scan", "--spec", "catalog:2A2"], capsys)
    assert code == 0
    data = json.loads(out)
    table = {j["r"]: j["total_dim"] for j in data["scan"]["jumps"]}
    assert table == {"0": 3, "1/2": 5}
    assert data["scan"]["sum"] == 8
    assert data["scan"]["sum_rule_holds"]


def test_stability_split_a1_true(capsys):
    code, out, _ = run_cli(["stability", "--spec", "catalog:A1:rho_over_m"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stability"]["verdict"] is True
    assert data["stability"]["m"] == 2


def test_unknown_type_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "Q5"}))
    code, out, err = run_cli(["quotient", "--spec", str(spec)], capsys)
    assert code == 1
    assert "dynkin" in err


def test_bad_field_named(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "r": "x/y"}))
    code, _, err = run_cli(["decompose", "--spec", str(spec)], capsys)
    assert code == 1
    assert "'r'" in err

    spec.write_text(json.dumps({"dynkin": "A2", "bogus": 1}))
    code, _, err = run_cli(["scan", "--spec", str(spec)], capsys)
    assert code == 1
    assert "bogus" in err


def test_grade_wild_not_applicable(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "dynkin": "A2",
                "automorphism": [1, 0],
                "lambda_valuations": {"0": "-1/2"},
            }
        )
    )
    code, out, _ = run_cli(["grade", "--spec", str(spec)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["grading"]["applicable"] is False
    assert data["derived"]["wild_lambda"] is True


def test_explicit_coords_point(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "dynkin": "A2",
                "automorphism": [1, 0],
                "point": {"coords": ["1/8"]},
                "r": "1/4",
            }
        )
    )
    code, out, _ = run_cli(["scan", "--spec", str(spec)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["derived"]["point_coords"] == ["1/4", "1/4"]


def test_determinism_and_round_trip(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["grade", "--spec", "catalog:3D4:barycenter", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert normalize(out1.read_text()) == normalize(out2.read_text())
    # round trip: the echoed spec reproduces the report
    out3 = tmp_path / "r3.json"
    code = main(["grade", "--spec", str(out1), "--out", str(out3)])
    assert code == 0
    assert normalize(out1.read_text()) == normalize(out3.read_text())


def test_m_flag_overrides_rho_point(capsys):
    code, out, _ = run_cli(
        ["stability", "--spec", "catalog:A2:rho_over_m", "--m", "2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["stability"]["m"] == 2
    assert data["stability"]["verdict"] is False

    code, _, err = run_cli(["stability", "--spec", "catalog:A2", "--m", "2"], capsys)
    assert code == 1
    assert "point" in err

    code, out, err = run_cli(["stability", "--spec", "catalog:A2:rho_over_m", "--m", "0"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("input error: field 'point': ") and "Traceback" not in err


def test_bad_modulus_rejected(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "automorphism": [1, 0], "M": 3}))
    code, _, err = run_cli(["grade", "--spec", str(spec)], capsys)
    assert code == 1
    assert "'M'" in err


def test_catalog_export_and_use(tmp_path, capsys):
    target = tmp_path / "exported.json"
    code = main(["catalog", "--id", "2A3", "--point", "rho_over_m", "--out", str(target)])
    assert code == 0
    capsys.readouterr()
    code, out, _ = run_cli(["quotient", "--spec", str(target)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["quotient"]["rank"] == 2


@pytest.mark.parametrize("r", ["abc", "1/0"])
def test_catalog_export_rejects_a_bad_r(r, tmp_path, capsys):
    target = tmp_path / "exported.json"
    code, out, err = run_cli(["catalog", "--id", "A2", "--r", r, "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert "input error: field 'r'" in err
    assert not target.exists()


@pytest.mark.parametrize("flags, r", [([], "0"), (["--r", "2/4"], "2/4"), (["--r", "-3"], "-3")])
def test_catalog_export_keeps_r_as_written(flags, r, capsys):
    code, out, _ = run_cli(["catalog", "--id", "A2"] + flags, capsys)
    assert code == 0
    assert json.loads(out)["r"] == r


@pytest.mark.parametrize("entry", ["A1", "A2", "B2", "C3", "D4", "G2", "2A2", "2A3", "2D4", "3D4"])
def test_golden_reports(entry, capsys):
    golden = GOLDEN_DIR / f"{entry}_scan.json"
    assert golden.exists(), f"missing golden file {golden}"
    code, out, _ = run_cli(["scan", "--spec", f"catalog:{entry}"], capsys)
    assert code == 0
    assert normalize(out) == normalize(golden.read_text())


@pytest.mark.parametrize("name", sorted(p.name for p in (GOLDEN_DIR / "reach").glob("*.json")))
def test_reach_golden_reports(name, capsys):
    # stability at every regular order m of the rank-8 types, 2E6 and sums,
    # at rho_check/m, and scan, quotient, grade and decompose on E7, E8, D8,
    # B8, C8 and 2E6 at the origin, the barycenter and rho_check/h; the
    # subcommand ends the file name, and each golden is read back as its own
    # spec
    golden = GOLDEN_DIR / "reach" / name
    command = name.removesuffix(".json").rpartition("_")[2]
    code, out, _ = run_cli([command, "--spec", str(golden)], capsys)
    assert code == 0
    assert normalize(out) == golden.read_text()


def test_stability_at_e7_is_a_verdict(tmp_path, capsys):
    # |W(E7)| = 2903040, and no stability path enumerates W: the witness of
    # m = 18 is its seed, since its class has 2903040 / 18 = 161280 elements
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"dynkin": "E7", "point": {"name": "rho_over_m", "m": 18}})
    )
    code, out, _ = run_cli(["stability", "--spec", str(spec)], capsys)
    assert code == 0
    verdict = json.loads(out)["stability"]
    assert verdict["verdict"] is True and verdict["witness_is_least"] is False


def test_cap_is_an_unknown_option(capsys):
    code, out, err = run_cli(["stability", "--spec", "catalog:A2", "--cap", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: field '--cap': ")


@pytest.mark.parametrize("dynkin", ["E8", "D8"])
def test_no_witness_where_m_is_not_a_regular_order(dynkin, tmp_path, capsys):
    # the origin has point order 1, which is not a regular order: no witness
    # is built, and the report has no witness_is_least key
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": dynkin, "point": {"name": "origin"}}))
    code, out, _ = run_cli(["stability", "--spec", str(spec)], capsys)
    assert code == 0
    verdict = json.loads(out)["stability"]
    assert verdict["m"] == 1 and verdict["regular_ok"] is False
    assert verdict["witness"] is None and verdict["verdict"] is False
    assert "witness_is_least" not in verdict


def test_quotient_3d4_lists_g2(capsys):
    code, out, _ = run_cli(["quotient", "--spec", "catalog:3D4"], capsys)
    assert code == 0
    assert "G2" in json.loads(out)["quotient"]["type"]["components"]


@pytest.mark.parametrize(
    "fields,field",
    [
        ({"M": True}, "M"),
        ({"point": {"name": "rho_over_m", "m": True}}, "point"),
        ({"automorphism": [True, False]}, "automorphism"),
        ({"lambda_valuations": {"a": "0"}}, "lambda_valuations"),
        # normalize_spec reads the Cartan matrix only to build a default
        # automorphism, so realize names this dynkin
        ({"dynkin": "Q5", "automorphism": [0]}, "dynkin"),
        # a point is a name (with m for rho_over_m only) or coords, nothing else
        ({"point": {"name": "origin", "coords": ["1/3", "0"]}}, "point"),
        ({"point": {"name": "barycenter", "m": 7}}, "point"),
        ({"point": {"coords": ["1/3", "0"], "m": 3}}, "point"),
        ({"point": {"name": "origin", "extra": 1}}, "point"),
        # a JSON number that is no integer is no count either
        ({"M": 6.0}, "M"),
        ({"point": {"name": "rho_over_m", "m": 3.0}}, "point"),
        ({"automorphism": [0, 1.0]}, "automorphism"),
    ],
)
def test_spec_validation_names_field(tmp_path, capsys, fields, field):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", **fields}))
    code, out, err = run_cli(["scan", "--spec", str(spec)], capsys)
    assert (code, out) == (1, "")
    assert f"input error: field {field!r}" in err
    assert "Traceback" not in err


def test_a_lambda_key_that_is_no_root_index_is_named(tmp_path, capsys):
    # the keys index the positive multipliable restricted roots, not nodes
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "lambda_valuations": {"x": "-1/2"}}))
    code, out, err = run_cli(["scan", "--spec", str(spec)], capsys)
    assert (code, out) == (1, "")
    assert "input error: field 'lambda_valuations'" in err
    assert "key 'x' is not the index of a positive multipliable restricted root" in err
    assert "node" not in err and "Traceback" not in err


def test_lambda_off_weyl_orbit_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    base = {"dynkin": "A4", "automorphism": [3, 2, 1, 0]}
    spec.write_text(json.dumps({**base, "lambda_valuations": {"0": "-1/2", "1": "-1"}}))
    for command in ("quotient", "decompose"):
        code, _, err = run_cli([command, "--spec", str(spec)], capsys)
        assert code == 1
        assert "input error: field 'lambda_valuations'" in err
        assert "Traceback" not in err
    spec.write_text(json.dumps({**base, "lambda_valuations": {"0": "-1/2", "1": "-1/2"}}))
    code, _, _ = run_cli(["quotient", "--spec", str(spec)], capsys)
    assert code == 0


def test_quotient_error_is_a_property_violation(monkeypatch, capsys):
    from parahoric import mpquotient
    from parahoric.mpquotient import QuotientError

    def broken(td, x):
        raise QuotientError("quotient root system is not reflection closed")

    monkeypatch.setattr(mpquotient, "quotient_datum", broken)
    code, _, err = run_cli(["quotient", "--spec", "catalog:A2"], capsys)
    assert code == 2
    assert "property violation: quotient root system" in err


def test_huge_point_coordinates(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "point": {"coords": ["1e400", "0"]}}))
    code, out, _ = run_cli(["stability", "--spec", str(spec)], capsys)
    assert code == 0
    assert json.loads(out)["stability"]["reduced_point"] == ["0", "0"]


@pytest.mark.parametrize("literal", ["1e-400", "0.33333333333333333333", "-2.5E+3"])
def test_a_json_number_reads_as_its_literal_written_as_a_string(tmp_path, capsys, literal):
    # not through a float, which makes 1e-400 the origin and rounds 1/3
    reports = []
    for coord in (literal, json.dumps(literal)):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"dynkin": "A1", "point": {{"coords": [{coord}]}}, "r": {coord}}}')
        code, out, _ = run_cli(["scan", "--spec", str(spec)], capsys)
        assert code == 0
        reports.append(normalize(out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["spec"]["point"]["coords"] == [str(Fraction(literal))]


@pytest.mark.parametrize("text,field", [
    ('{"dynkin": "A1", "M": 1%s}' % ("0" * 5000), "spec"),
    ('{"dynkin": "A1", "point": {"coords": [1e-5000]}}', "point"),
    ('{"dynkin": "A1", "point": {"coords": ["1e-5000"]}}', "point"),
    ('{"dynkin": "A1", "r": "1e5000"}', "r"),
])
def test_a_number_of_too_many_digits_is_an_input_error(tmp_path, capsys, text, field):
    # past sys.get_int_max_str_digits() an integer neither parses nor prints
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run_cli(["scan", "--spec", str(spec)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: field {field!r}: "), err[:200]


@pytest.mark.parametrize("coords", [
    # each coordinate prints, but their common denominator has 6001 digits
    [f"1/{10**3000 + 1}", f"1/{10**3000 + 3}"],
    # and here the numerator of a coordinate in the lattice has 8001
    [str(10**4000), f"1/{10**4000 + 1}"],
])
@pytest.mark.parametrize("command", [name for name, *_ in cli.REPORTS])
def test_a_point_whose_values_do_not_print_is_an_input_error(tmp_path, capsys, command, coords):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "point": {"coords": coords}}))
    code, out, err = run_cli([command, "--spec", str(spec)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("input error: field 'point': ") and f"{sys.get_int_max_str_digits()} digits" in err, err[:200]
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["catalog:2A2:rho_over_m", "coords"])
def test_a_report_reads_back_as_its_spec(tmp_path, capsys, source):
    # its point carries only the keys a spec allows (a named point is
    # round-tripped in test_determinism_and_round_trip)
    if source == "coords":
        source = tmp_path / "coords.json"
        source.write_text(json.dumps({"dynkin": "G2", "point": {"coords": ["1/5", "-2"]}}))
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["scan", "--spec", str(source), "--out", str(first)]) == 0
    assert main(["scan", "--spec", str(first), "--out", str(again)]) == 0
    assert normalize(first.read_text()) == normalize(again.read_text())


@pytest.mark.parametrize("coords", [5, "1/2", {"0": "1"}, None])
def test_non_list_point_coords_is_an_input_error(tmp_path, capsys, coords):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "A2", "point": {"coords": coords}}))
    code, _, err = run_cli(["decompose", "--spec", str(spec)], capsys)
    assert code == 1
    assert "input error: field 'point'" in err
    assert "Traceback" not in err


def test_grade_modulus_cap_fails_before_allocating(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"dynkin": "A2", "point": {"name": "rho_over_m", "m": 10**9}})
    )
    code, out, err = run_cli(["grade", "--spec", str(spec)], capsys)
    assert code == 2
    assert out == ""
    assert "M = 1000000000" in err and f"cap {MODULUS_CAP}" in err
    assert "lcm of the point order 1000000000 and the twist order 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags,field",
    [(["--M", "0"], "M"), (["--M", "-3"], "M"), (["--cap", "0"], "cap"), (["--cap", "-1"], "cap")],
)
@pytest.mark.parametrize("command", ["grade", "stability"])
def test_flag_overrides_name_their_field(capsys, command, flags, field):
    # --cap is an option of no command: it is an unrecognized argument,
    # named by its token
    if field == "cap":
        field = "--cap"
    code, out, err = run_cli([command, "--spec", "catalog:A2"] + flags, capsys)
    assert code == 1
    assert out == ""
    assert f"input error: field {field!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,field",
    [
        (["decompose", "--spec", "catalog:A2", "--seed", "1"], "--seed"),
        (["scan", "--spec", "catalog:A2", "--m", "abc"], "m"),
        (["scan", "--spec", "catalog:A2", "--cap"], "--cap"),
        (["scan"], "spec"),
        (["selftest", "--seed", "x"], "seed"),
        (["bogus"], "command"),
        ([], "command"),
        # an unknown token is named as written, a '/' in it included
        (["scan", "--spec", "catalog:A2", "extra/1"], "extra/1"),
    ],
)
def test_usage_errors_are_input_errors(capsys, argv, field):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: field {field!r}: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    assert exc.value.code == 0
    assert "--spec" in capsys.readouterr().out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert listed == ["quotient", "scan", "grade", "decompose", "stability", "selftest", "catalog"]


def _parsed(parse, argv, capsys):
    """The parsed values of argv, the field of its usage error, or the exit
    code of its help."""
    try:
        return "values", vars(parse(argv))
    except InputError as exc:
        # the reader names an unknown or ambiguous token as written, where
        # argparse's message was read with a regex that cut it at its first
        # ':' (or ',', '/', whitespace; no token of the corpus has those)
        return "field", str(exc).split("'")[1].split(":")[0]
    except SystemExit as exc:
        return "exit", exc.code
    finally:
        capsys.readouterr()


ARGV_VALUES = ("catalog:A2", "spec.json", "3", "12", "-3", "0", "-1", "1.5", "-2.5", "abc", "--out", "-x", "extra")


def _argv_case(rng: random.Random) -> list[str]:
    """A command (a known one, an unknown one or none), then its options and
    others in any order: the --name value and --name=value forms, repeats,
    unique prefixes, the ambiguous --=value, values that are negative, not
    integers or look like options, extra words, a flag left without its
    value at the end and now and then --help."""
    command = rng.choice([*cli.COMMANDS, *cli.COMMANDS, "bogus", None])
    names = [name for name, *_ in cli.COMMANDS.get(command, ())[2:]]
    names += ["spec", "cap", "seed", "m"]  # some are another command's, and --cap no command's
    argv = [] if command is None else [command]
    for _ in range(rng.randint(0, 5)):
        flag, value = "--" + rng.choice(names), rng.choice(ARGV_VALUES)
        form = rng.randrange(12)
        if form < 5:
            argv += [flag, value]
        elif form < 7:
            argv.append(f"{flag}={value}")
        elif form < 9:
            argv += [flag[: rng.randint(3, len(flag))], value]  # a prefix
        elif form == 9:
            argv.append(value)
        elif form == 10:
            argv.append(f"--={value}")
        else:
            argv.append(rng.choice(["-h", "--help", "--he", "-hh"]))
    if rng.random() < 0.2:
        argv.append("--" + rng.choice(names))
    return argv


def test_argv_reader_matches_argparse(capsys):
    # the argparse parser the reader replaced (tests/cli_oracle.py): equal
    # values, or the same usage-error field, or the same help exit
    rng = random.Random(35)
    outcomes = collections.Counter()
    fields = set()
    for _ in range(1500):
        argv = _argv_case(rng)
        expected = _parsed(make_parser().parse_args, argv, capsys)
        assert _parsed(cli.parse_args, argv, capsys) == expected, argv
        outcomes[expected[0]] += 1
        if expected[0] == "field":
            fields.add(expected[1])
    assert min(outcomes.values()) >= 50, outcomes
    assert {"command", "spec", "m", "M", "--cap", "seed", "help", "extra", "--=3", "-x"} <= fields, fields


def test_stability_at_f4_barycenter(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "F4", "point": {"name": "barycenter"}}))
    code, out, _ = run_cli(["stability", "--spec", str(spec)], capsys)
    assert code == 0
    assert json.loads(out)["stability"]["verdict"] in (True, False)


def test_scan_at_the_barycenter_of_a_product_of_sixteen_factors(tmp_path):
    # the barycenter is the sum of the component means: the 2^16 vertices
    # of the alcove of A1^16 (and its C(32, 16) facet subsets) are never
    # formed, so the run is short
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "+".join(["A1"] * 16), "point": {"name": "barycenter"}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "parahoric.cli", "scan", "--spec", str(spec)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["derived"]["point_coords"] == ["1/2"] * 16
    assert report["scan"]["sum_rule_holds"]


FUZZ_BASES = (
    {"dynkin": "A1", "point": {"name": "rho_over_m", "m": 2}},
    {"dynkin": "A2", "point": {"coords": ["1/3", "1/3"]}, "r": "1/3"},
    {"dynkin": "A2", "automorphism": [1, 0], "lambda_valuations": {"0": "-1/2"}},
)
FUZZ_JUNK = (
    None, True, False, 0, -1, 2, 10**30, 1.5, "", "A2", "x/y", "1/0", "0/5", "-7/2",
    "1e400", "-1e400", "3/99999999999999999999", [], [0], [1, 0], [0, 1, 2], {}, {"0": "1"},
)
FUZZ_FLAG_VALUES = ("0", "-1", "-3", "1", "2", "6", "12", str(10**40), "abc", "1.5")


def _fuzz_spec(rng: random.Random, field: str | None) -> dict:
    spec = json.loads(json.dumps(rng.choice(FUZZ_BASES)))
    junk = rng.choice(FUZZ_JUNK)
    if field == "point":
        spec["point"] = rng.choice([
            junk,
            {"name": junk},
            {"name": "rho_over_m", "m": junk},
            {"coords": junk},
            {"coords": [junk] * rng.randint(0, 3)},
        ])
    elif field == "lambda_valuations":
        key = rng.choice(["0", "1", "-1", "a", "", "1.5", "99"])
        spec["lambda_valuations"] = rng.choice([junk, {key: junk}, {key: "-1/2"}])
    elif field == "automorphism":
        spec["automorphism"] = rng.choice([junk, [junk] * rng.randint(0, 3)])
    elif field == "unknown":
        spec[rng.choice(["bogus", "", "Dynkin"])] = junk
    elif field is not None:
        spec[field] = junk
    return spec


def test_spec_fuzzer_keeps_the_exit_contract(tmp_path, capsys):
    """Seeded mutations of every spec field and of --m/--M/--cap: every run
    exits 0, 1 or 2 without a traceback, every exit 1 names a field, and a
    nonpositive --M or --cap is an input error (so is a flag value argparse
    rejects: usage errors exit 1 too)."""
    rng = random.Random(2024)
    fields = ("dynkin", "isogeny", "automorphism", "lambda_valuations", "point", "r", "M", "unknown", None)
    path = tmp_path / "spec.json"
    codes = set()
    for i in range(270):
        field = fields[i % len(fields)]
        path.write_text(json.dumps(_fuzz_spec(rng, field)))
        argv = [rng.choice(["scan", "quotient", "grade", "decompose"]), "--spec", str(path)]
        flags = {f: rng.choice(FUZZ_FLAG_VALUES) for f in ("--m", "--M", "--cap")
                 if rng.random() < (0.6 if field is None else 0.25)}
        for flag, value in flags.items():
            argv += [flag, value]
        code = main(argv)
        err = capsys.readouterr().err
        context = (argv, path.read_text(), err)
        assert code in (0, 1, 2), context
        assert "Traceback" not in err
        if code == 1:
            assert re.search(r"input error: field '[^']*'", err), context
        ints = {f: int(v) for f, v in flags.items() if v.lstrip("-").isdigit()}
        if len(ints) == len(flags) and min(ints.get("--M", 1), ints.get("--cap", 1)) <= 0:
            assert code == 1, context
        codes.add(code)
    # a grading modulus above vinberg.MODULUS_CAP is a genuine violation
    path.write_text(json.dumps(FUZZ_BASES[0]))
    code = main(["grade", "--spec", str(path), "--m", str(MODULUS_CAP + 3)])
    assert code == 2 and "property violation" in capsys.readouterr().err
    codes.add(code)
    assert codes == {0, 1, 2}


UNREADABLE_SPEC_OR_UNWRITABLE_OUT = [
    (["scan", "--spec", "{tmp}"], "spec"),
    (["scan", "--spec", "{tmp}/latin1.json"], "spec"),
    (["scan", "--spec", "catalog:A1", "--out", "{tmp}"], "out"),
    (["scan", "--spec", "catalog:A1", "--out", "{tmp}/no/r.json"], "out"),
    (["catalog", "--id", "A1", "--out", "{tmp}"], "out"),
    (["catalog", "--id", "A1", "--out", "{tmp}/no/r.json"], "out"),
    (["stability", "--spec", "catalog:A1", "--out", "{tmp}/spec.json/r.json"], "out"),
    (["scan", "--spec", "{tmp}/missing.json"], "spec"),
    (["scan", "--spec", "{tmp}/invalid.json"], "spec"),
    (["scan", "--spec", "{tmp}/array.json"], "spec"),
    (["scan", "--spec", "catalog:Z9"], "spec"),
    (["scan", "--spec", "catalog:A2:bogus"], "point"),
    (["scan", "--spec", "catalog:A2:rho_over_m:extra"], "spec"),
    (["catalog", "--id", "Z9"], "id"),
    (["catalog", "--id", "A2", "--point", "bogus"], "point"),
]


@pytest.mark.parametrize("argv,field", UNREADABLE_SPEC_OR_UNWRITABLE_OUT)
def test_unreadable_spec_and_unwritable_out_keep_the_exit_contract(
    tmp_path, capsys, monkeypatch, argv, field
):
    # a directory, a missing file, a non-UTF-8 file, invalid JSON or a JSON
    # array as the spec, a bad catalog id, point or form, and a directory or a
    # path under a missing directory or under a file as the output: exit 1,
    # naming the field, before the spec is realized and with nothing written
    def realize(spec):
        raise PropertyViolation("realize ran before the output was checked")

    monkeypatch.setattr(report, "realize", realize)
    (tmp_path / "latin1.json").write_bytes('{"dynkin": "A\u00e9"}'.encode("latin-1"))
    (tmp_path / "spec.json").write_text("{}")
    (tmp_path / "invalid.json").write_text('{"dynkin": "A2",')
    (tmp_path / "array.json").write_text('["A2"]')
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: field {field!r}: "), err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_scan_builds_the_datum_once(tmp_path, capsys, monkeypatch):
    # normalize_spec reads the rank off the Cartan matrix; only realize builds
    from parahoric import rootdata

    original = rootdata.build_datum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("parahoric") and getattr(mod, "build_datum", None) is original:
            monkeypatch.setattr(mod, "build_datum", counting)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dynkin": "B3"}))
    code, _, _ = run_cli(["scan", "--spec", str(spec)], capsys)
    assert code == 0
    assert calls == [("B3", "adjoint")]


# ---------------------------------------------------------------------------
# the remaining exit paths of the contract


def test_an_explicit_modulus_is_reported(capsys):
    code, out, _ = run_cli(["grade", "--spec", "catalog:2A2", "--M", "4"], capsys)
    assert code == 0
    grading = json.loads(out)["grading"]
    assert grading["modulus"] == 4 and grading["crosscheck"] is True


def test_a_write_that_fails_after_the_check_names_out(tmp_path, capsys, monkeypatch):
    # the check passes; the file open that emit makes then fails
    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(report, "open", refuse, raising=False)
    for argv in (["scan", "--spec", "catalog:A1"], ["catalog", "--id", "A1"]):
        code, out, err = run_cli(argv + ["--out", str(tmp_path / "r.json")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("input error: field 'out': "), err
        assert "disk full" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["quotient", "--spec", "catalog:A1"], ["scan", "--spec", "catalog:D4"], ["catalog"], ["selftest"]],
    ids=["quotient", "scan", "catalog", "selftest"],
)
def test_a_closed_stdout_is_an_input_error_on_out(argv):
    # the read end of stdout is closed before the run starts, as in
    # `parahoric catalog | true`: the first write fails with a broken pipe
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "parahoric.cli", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("input error: field 'out': cannot write to stdout "), done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert done.stderr.count("\n") == 1


def test_a_failed_stdout_write_in_process_names_out(capsys, monkeypatch):
    # a stdout with no file descriptor: the failed write is still an input
    # error on 'out'
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    for argv in (["catalog"], ["quotient", "--spec", "catalog:A1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "input error: field 'out': cannot write to stdout ([Errno 32] Broken pipe)\n"


def test_catalog_lists_the_ten_ids_sorted(capsys):
    code, out, err = run_cli(["catalog"], capsys)
    assert (code, err) == (0, "")
    assert out == "2A2\n2A3\n2D4\n3D4\nA1\nA2\nB2\nC3\nD4\nG2\n"


def _failed_crosscheck(td, x, modulus):
    from parahoric.vinberg import CrosscheckResult

    return CrosscheckResult(
        ok=False, modulus=modulus, dims=(), quotient_dims=(), first_mismatch=0,
        roots_match=True, negative_sign_orbits=(),
    )


@pytest.mark.parametrize(
    "command,target,broken,key",
    [
        ("scan", "echelonnage.algebra_dimension", lambda td: 0, "scan"),
        ("grade", "vinberg.crosscheck", _failed_crosscheck, "grading"),
        ("decompose", "weylmod.Decomposition.dimensions_match", lambda _: False, "decomposition"),
        ("decompose", "weylmod.split_span_check", lambda *_: False, "decomposition"),
    ],
)
def test_a_failed_property_check_exits_2_with_its_report(
    tmp_path, capsys, monkeypatch, command, target, broken, key
):
    # the sum rule, the crosscheck, the decomposition dimensions and the span
    # check each decide exit 2, and the report is still written
    monkeypatch.setattr(f"parahoric.{target}", broken)
    spec = tmp_path / "spec.json"
    point = {"name": "rho_over_m", "m": 3}
    spec.write_text(json.dumps({"dynkin": "A2", "point": point, "r": "1/3"}))
    code, out, err = run_cli([command, "--spec", str(spec)], capsys)
    assert (code, err) == (2, "")
    assert key in json.loads(out)


def test_the_module_runs_as_a_script():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "parahoric.cli", *argv], env=env, capture_output=True, text=True
        )

    done = run("catalog")
    assert (done.returncode, done.stdout.split(), done.stderr) == (0, sorted(catalog.CATALOG), "")
    done = run("scan", "--spec", "catalog:Z9")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("input error: field 'spec': ")


def test_every_package_error_is_an_input_error_or_a_property_violation():
    # main maps exactly these two bases to exits 1 and 2: an error class
    # under neither (or under both) would escape the contract
    import ast
    import importlib

    import parahoric
    from parahoric import exactmath

    assert exactmath.InputError is parahoric.InputError
    assert exactmath.PropertyViolation is parahoric.PropertyViolation
    bases = (parahoric.InputError, parahoric.PropertyViolation)
    package = Path(parahoric.__file__).resolve().parent
    errors = {}
    for path in sorted(package.glob("*.py")):
        name = "parahoric" if path.stem == "__init__" else f"parahoric.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    errors[f"{path.stem}.{node.name}"] = cls
    assert len(errors) >= 11, sorted(errors)
    wrong = [name for name, cls in errors.items() if sum(issubclass(cls, b) for b in bases) != 1]
    assert wrong == []
