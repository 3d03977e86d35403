"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  All comparisons are exact; no tolerances anywhere."""
import itertools
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from parahoric.catalog import CATALOG, catalog_datum, catalog_ids, named_point
from parahoric.chevalley import pinned_automorphism, structure_constants
from parahoric.cli import main
from parahoric.echelonnage import (
    apartment_point,
    companion_shift,
    evaluate,
    point_from_simple_coroots,
    point_order,
    restrict,
    twisted,
)
from parahoric.mpquotient import (
    algebra_dimension,
    dimension_sum_over_period,
    first_jump,
    jump_values,
    mp_quotient,
    quotient_datum,
)
from parahoric.rootdata import build_automorphism, build_datum, identity_automorphism
from parahoric.stability import (
    elliptic_zregular_orders,
    zregularity_criteria_agree,
)
from parahoric.vinberg import crosscheck, grading
from parahoric.weylmod import decompose, split_span_check

from lift_oracle import lift_grading

F = Fraction
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def random_point(td, rng, max_den):
    from parahoric.echelonnage import simple_restricted_keys

    n = len(simple_restricted_keys(td))
    den = rng.randint(1, max_den)
    coeffs = [F(rng.randint(-2 * max_den, 2 * max_den), den) for _ in range(n)]
    return point_from_simple_coroots(td, coeffs)


def test_criterion_1_sum_rule():
    rng = random.Random(101)
    checked = 0
    for cid in catalog_ids():
        td = catalog_datum(cid)
        dim = algebra_dimension(td)
        for _ in range(50):
            x = random_point(td, rng, 12)
            assert max(c.denominator for c in x.coords) <= 12
            assert dimension_sum_over_period(td, x) == dim
            checked += 1
    print(f"\nACCEPTANCE 1 PASS sum rule exact on {checked} (datum, point) pairs")


def test_criterion_2_vinberg_crosscheck():
    checked = 0
    for cid in catalog_ids():
        td = catalog_datum(cid)
        assert td.is_tame
        points = {
            "origin": named_point(td, "origin"),
            "barycenter": named_point(td, "barycenter"),
            "rho_over_m": named_point(td, "rho_over_m", CATALOG[cid]["rho_m"]),
        }
        for name, x in points.items():
            base = lcm(point_order(td, x), td.twist.order)
            for modulus in (base, 2 * base):
                res = crosscheck(td, x, modulus)
                assert res.ok, (cid, name, modulus, res.first_mismatch)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS grading equals quotient dims on {checked} crosschecks")


def test_criterion_3_weyl_bookkeeping():
    rng = random.Random(103)
    ids = catalog_ids()
    split_checked = 0
    for i in range(100):
        cid = ids[i % len(ids)]
        td = catalog_datum(cid)
        x = random_point(td, rng, 4)
        jumps = jump_values(td, x)
        r = rng.choice(jumps) + rng.randint(0, 1)
        dec = decompose(td, x, r)
        assert dec.total_dim == mp_quotient(td, x, r).total_dim
        assert dec.dimensions_match()
        if td.twist.is_identity and F(r).denominator != 1:
            weights = sorted(w for w, _ in dec.items)
            assert weights == sorted(dec.maximal_set)
            assert all(m == 1 for _, m in dec.items)
            split_checked += 1
    assert split_checked >= 10
    print(
        "\nACCEPTANCE 3 PASS exact decomposition bookkeeping on 100 instances "
        f"({split_checked} split instances matched the maximal set)"
    )


def test_criterion_4_split_span_oracle():
    rng = random.Random(104)
    checked = 0
    for desc in ("A2", "B2", "C3", "G2"):
        datum = build_datum(desc)
        td = twisted(datum)
        done = 0
        while done < 10:
            x = random_point(td, rng, 4)
            fractional = [r for r in jump_values(td, x) if r.denominator != 1]
            if not fractional:
                continue
            r = rng.choice(fractional)
            assert split_span_check(datum, x, r)
            done += 1
            checked += 1
    print(
        "\nACCEPTANCE 4 PASS the root-step closure of the maximal set spans the full "
        f"root space on {checked} instances"
    )


def test_criterion_5_companion_invariance():
    rng = random.Random(105)
    d = build_datum("A2")
    auto = build_automorphism(d, (1, 0))
    pairs = 0
    for lam in (F(-1, 2), F(-1), F(-3, 2)):
        td = twisted(d, auto, {0: lam})
        for _ in range(50):
            x = random_point(td, rng, 8)
            td_tame, xq = companion_shift(td, x)
            keys = [rr.key for rr in restrict(td)]
            key = rng.choice(keys)
            r = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 8, 12)))
            lhs = next(
                rr for rr in restrict(td) if rr.key == key
            ).jump_set.member(r - evaluate(key, x))
            rhs = next(
                rr for rr in restrict(td_tame) if rr.key == key
            ).jump_set.member(r - evaluate(key, xq))
            assert lhs == rhs
            assert quotient_datum(td, x).roots == quotient_datum(td_tame, xq).roots
            pairs += 1
    print(f"\nACCEPTANCE 5 PASS companion shift preserves memberships on {pairs} samples")


def test_criterion_6_regularity_suite():
    rank_le_3 = [
        ("A1", None),
        ("A2", None),
        ("A2", (1, 0)),
        ("A3", None),
        ("A3", (2, 1, 0)),
        ("B2", None),
        ("B3", None),
        ("C3", None),
    ]
    elements = 0
    for desc, perm in rank_le_3:
        d = build_datum(desc)
        auto = identity_automorphism(d) if perm is None else build_automorphism(d, perm)
        assert zregularity_criteria_agree(d, auto)
        from parahoric.rootdata import weyl_elements

        elements += len(weyl_elements(d))
    coxeter = {
        "A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 4, "B3": 6, "B4": 8,
        "C3": 6, "C4": 8, "D4": 6, "F4": 12, "G2": 6,
    }
    for desc, h in coxeter.items():
        d = build_datum(desc)
        assert h in elliptic_zregular_orders(d, identity_automorphism(d))
    a2 = build_datum("A2")
    assert 2 not in elliptic_zregular_orders(a2, identity_automorphism(a2))
    twisted_orders = elliptic_zregular_orders(a2, build_automorphism(a2, (1, 0)))
    assert set(twisted_orders) == {2, 6}
    print(
        f"\nACCEPTANCE 6 PASS regularity criteria agree on {elements} coset elements; "
        "Coxeter numbers detected through rank 4; twisted A2 orders are exactly {2, 6}"
    )


def test_criterion_7_algebra_integrity():
    rank_le_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2")
    triples = 0
    for desc in rank_le_4:
        alg = structure_constants(build_datum(desc))
        for a, b, c in itertools.combinations(alg.labels, 3):
            total = {}
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                term = alg.bracket(
                    alg.bracket(alg.basis_element(u), alg.basis_element(v)),
                    alg.basis_element(w),
                )
                for l, val in term.items():
                    acc = total.get(l, 0) + val
                    if acc:
                        total[l] = acc
                    elif l in total:
                        del total[l]
            assert not total, (desc, a, b, c)
            triples += 1

    # bracket preservation of every pinned catalog twist (also enforced at
    # construction time)
    for cid in ("2A2", "2A3", "2D4", "3D4"):
        td = catalog_datum(cid)
        alg = structure_constants(td.base)
        pinned = pinned_automorphism(alg, td.twist)
        assert pinned.order % td.twist.order == 0

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
        x = (
            named_point(td, pname, CATALOG[cid]["rho_m"])
            if pname == "rho_over_m"
            else named_point(td, pname)
        )
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
