"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  Criteria 1-7 run the checks of ``parahoric.selftest``,
the one implementation of each property, on more data and points than
``parahoric selftest`` does; criterion 7 adds the test-only lift oracle and
criterion 8 the determinism of the reports and goldens.  All comparisons are exact; no
tolerances anywhere."""
import json
from math import lcm
from pathlib import Path

from parahoric.catalog import catalog_datum, catalog_ids
from parahoric.chevalley import pinned_automorphism, structure_constants
from parahoric.cli import main
from parahoric.echelonnage import point_order
from parahoric.selftest import (
    check_algebra_integrity,
    check_companion_invariance,
    check_decomposition,
    check_regularity,
    check_span_oracle,
    check_sum_rule,
    check_vinberg_crosscheck,
    named_points,
)
from parahoric.vinberg import grading

from lift_oracle import lift_grading

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"
RANK_LE_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2")


def test_criterion_1_sum_rule():
    checked = check_sum_rule(points=50, max_den=12, seed=101)
    assert checked == 10 * (3 + 50)
    print(f"\nACCEPTANCE 1 PASS sum rule exact on {checked} (datum, point) pairs")


def test_criterion_2_vinberg_crosscheck():
    checked = check_vinberg_crosscheck()
    assert checked == 10 * 3 * 2
    print(f"\nACCEPTANCE 2 PASS grading equals quotient dims on {checked} crosschecks")


def test_criterion_3_weyl_bookkeeping():
    checked, split = check_decomposition(points=100, seed=103)
    assert checked == 10 + 100 and split >= 10
    print(
        f"\nACCEPTANCE 3 PASS exact decomposition bookkeeping on {checked} instances "
        f"({split} split random instances matched the maximal set)"
    )


def test_criterion_4_split_span_oracle():
    checked = check_span_oracle(ids=("A2", "B2", "C3", "G2"), points=10, seed=104)
    assert checked == 4 * (1 + 10)
    print(
        "\nACCEPTANCE 4 PASS the root-step closure of the maximal set spans the full "
        f"root space on {checked} instances"
    )


def test_criterion_5_companion_invariance():
    pairs = check_companion_invariance(points=50, max_den=8, seed=105)
    assert pairs == 3 * 50
    print(f"\nACCEPTANCE 5 PASS companion shift preserves memberships on {pairs} samples")


def test_criterion_6_regularity_suite():
    split = [(desc, None) for desc in ("A1", "A2", "A3", "B2", "B3", "C3")]
    rank_le_3 = split + [("A2", (1, 0)), ("A3", (2, 1, 0))]
    coxeter = dict(zip(RANK_LE_4, (2, 3, 4, 5, 4, 6, 8, 6, 8, 6, 12, 6)))
    elements = check_regularity(cosets=rank_le_3, coxeter=coxeter)
    assert elements == 166
    print(
        f"\nACCEPTANCE 6 PASS regularity criteria agree on {elements} coset elements; "
        "Coxeter numbers detected through rank 4; twisted A2 orders are exactly {2, 6}"
    )


def test_criterion_7_algebra_integrity():
    # Jacobi on every triple, and bracket preservation of every pinned
    # catalog twist (also enforced at construction time)
    triples = check_algebra_integrity(types=RANK_LE_4, twists=("2A2", "2A3", "2D4", "3D4"))
    assert triples == 45336

    # sign-convention independence: the lift-based grading under permuted
    # root orders equals the closed-form grading
    instances = [
        ("2A2", "origin", 2),
        ("2A2", "origin", 4),
        ("3D4", "origin", 6),
        ("A2", "rho_over_m", 3),
        ("C3", "barycenter", None),
    ]
    for cid, pname, modulus in instances:
        td = catalog_datum(cid)
        x = named_points(cid)[pname]
        if modulus is None:
            modulus = lcm(point_order(td, x), td.twist.order)
        lam = tuple(modulus * c for c in x.coords)
        baseline = grading(td.base, td.twist, lam, modulus)
        for seed in (None, 7, 11):
            alg = structure_constants(td.base, seed)
            pinned = pinned_automorphism(alg, td.twist)
            gd = lift_grading(alg, pinned, lam, modulus)
            assert gd == baseline, (cid, pname, seed)
    print(
        f"\nACCEPTANCE 7 PASS Jacobi exhaustive on {triples} triples through rank 4; "
        "pinned twists preserve brackets; gradings independent of the root order"
    )


def test_criterion_8_determinism(tmp_path, capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: all checks passed" in out

    stable = 0
    for cid in catalog_ids():
        texts = []
        for run in range(2):
            target = tmp_path / f"{cid}_{run}.json"
            assert main(["scan", "--spec", f"catalog:{cid}", "--out", str(target)]) == 0
            data = json.loads(target.read_text())
            data["timing_seconds"] = 0.0
            texts.append(json.dumps(data, indent=2, sort_keys=True) + "\n")
        assert texts[0] == texts[1]
        golden = json.loads((GOLDEN_DIR / f"{cid}_scan.json").read_text())
        golden["timing_seconds"] = 0.0
        assert texts[0] == json.dumps(golden, indent=2, sort_keys=True) + "\n"
        stable += 1
    capsys.readouterr()
    print(
        f"\nACCEPTANCE 8 PASS selftest green; {stable} golden reports byte-stable "
        "across consecutive runs"
    )
