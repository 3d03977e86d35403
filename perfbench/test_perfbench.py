"""Tests of the benchmark's own arithmetic and input generator.

    python3 -m pytest perfbench        (or: python3 perfbench/test_perfbench.py)
"""
from __future__ import annotations

import os
import subprocess
import sys
import unittest
from math import comb
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC_DUMP = (
    "import sys, workloads; from pathlib import Path; "
    "root = Path(sys.argv[1]); "
    "print(''.join(workloads.spec_text(c) for w in workloads.WORKLOADS "
    "for c in workloads.generate(w, int(sys.argv[2]), root)))"
)


def spec_dump(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-c", SPEC_DUMP, str(HERE.parent), str(seed)],
        cwd=HERE, env=env, capture_output=True, text=True, check=True,
    ).stdout


class SelfTimeTest(unittest.TestCase):
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9];  e [20, 21] alone
    SPANS = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("e", 20.0, 21.0, None),
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_overlapping_children_are_covered_once(self):
        spans = [("p", 0.0, 10.0, None), ("x", 1.0, 5.0, 0), ("y", 3.0, 6.0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 5.0)

    def test_layer_metrics_sum_self_times_and_calls(self):
        spans = [
            ["stability.elliptic_zregular_orders", 0.0, 10.0, None],
            ["exactmath.cyclotomic_multiplicities", 1.0, 2.0, 0],
            ["exactmath.cyclotomic_multiplicities", 3.0, 5.0, 0],
            ["exactmath.cyclotomic_multiplicities", 11.0, 12.0, None],
            ["process.import", 20.0, 20.5, None],
        ]
        counters = {
            "stability.acts_freely_on_roots.true": 1,
            "weylmod.dominance_ge.calls": 7,
            "mpquotient.roots_scanned": 12,
        }
        metrics = tracing.layer_metrics([
            {"case": "one", "spans": spans, "counters": counters},
            {"case": "two", "spans": spans[:1], "counters": {}},
        ])
        self.assertEqual(metrics["stability.elliptic_zregular_orders.s"], 7.0 + 10.0)
        self.assertEqual(metrics["exactmath.cyclotomic_multiplicities.s"], 4.0)
        self.assertEqual(metrics["exactmath.cyclotomic_multiplicities.calls"], 3)
        self.assertEqual(metrics["process.import.s"], 0.5)
        self.assertEqual(metrics["weylmod.dominance_ge.calls"], 7)
        self.assertEqual(metrics["mpquotient.roots_scanned"], 12)
        # one element acting freely among the two tested inside the coset scan
        self.assertEqual(metrics["stability.regular_yield"], 0.5)
        self.assertEqual(metrics["weylmod.decompose.s"], 0)
        self.assertEqual(list(metrics), [name for name, _ in tracing.LAYER_METRICS])


class ComputedCounterTest(unittest.TestCase):
    def recorder(self):
        rec = tracing.Recorder("synthetic")
        rec.originals["echelonnage.restrict"] = lambda td: td.roots
        return rec

    def test_counters_from_arguments_and_results(self):
        rec = self.recorder()
        positives = [SimpleNamespace(positive=p) for p in (True, True, False, False, True)]
        # a twist with one 2-cycle on three nodes fixes a 2-dimensional space
        td = SimpleNamespace(roots=positives, twist=SimpleNamespace(permutation=(1, 0, 2)))
        tracing.HOOKS["catalog.alcove_vertices"](rec, (td,), None, True)
        tracing.HOOKS["catalog.alcove_vertices"](rec, (td,), None, False)  # cache hit
        self.assertEqual(rec.counters["catalog.alcove_vertices.subsets"], comb(6, 2))

        quotient = SimpleNamespace(roots=((1,), (-1,), (2,)))
        tracing.HOOKS["mpquotient.quotient_datum"](rec, (td, None), quotient, False)
        tracing.HOOKS["mpquotient.mp_quotient"](rec, (td, None, 0), None, False)
        self.assertEqual(rec.counters["mpquotient.quotient_datum.pairs"], 9)
        self.assertEqual(rec.counters["mpquotient.roots_scanned"], 2 * len(positives))

        tracing.HOOKS["rootdata.weyl_elements"](rec, (None,), (1, 2, 3, 4), True)
        tracing.HOOKS["rootdata.weyl_elements"](rec, (None,), (1, 2, 3, 4), False)
        self.assertEqual(rec.counters["rootdata.weyl_elements.count"], 4)

        algebra = SimpleNamespace(labels=tuple(range(5)))
        tracing.HOOKS["chevalley.pinned_automorphism"](rec, (algebra, None), None, True)
        self.assertEqual(rec.counters["chevalley.verify_brackets"], 25)

    def test_wrappers_record_nesting_and_cache_misses(self):
        from functools import lru_cache

        rec = self.recorder()

        @lru_cache(maxsize=None)
        def weyl(n):
            return tuple(range(n))

        inner = rec.span("rootdata.weyl_elements", weyl, tracing.HOOKS["rootdata.weyl_elements"])
        outer = rec.span("outer", lambda n: inner(n) + inner(n))
        freely = rec.count("stability.acts_freely_on_roots", lambda ok: ok)
        self.assertEqual(outer(3), (0, 1, 2, 0, 1, 2))
        freely(True), freely(False)
        self.assertEqual([s[0] for s in rec.spans], ["outer", "rootdata.weyl_elements",
                                                    "rootdata.weyl_elements"])
        self.assertEqual([s[3] for s in rec.spans], [None, 0, 0])
        self.assertEqual(rec.counters["rootdata.weyl_elements.count"], 3)
        self.assertEqual(rec.counters["stability.acts_freely_on_roots.calls"], 2)
        self.assertEqual(rec.counters["stability.acts_freely_on_roots.true"], 1)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_specs(self):
        first = spec_dump(7, "1")
        self.assertEqual(first, spec_dump(7, "2"))
        self.assertNotEqual(first, spec_dump(8, "1"))

    def test_seeded_points_have_bounded_denominators(self):
        for case in workloads.generate("warm_points", 3, HERE.parent):
            for point in case.points:
                for coord in point:
                    den = int(coord.split("/")[1]) if "/" in coord else 1
                    self.assertLessEqual(den, workloads.MAX_DEN)

    def test_only_seeded_cases_change_with_the_seed(self):
        for workload in workloads.WORKLOADS:
            one = workloads.generate(workload, 1, HERE.parent)
            two = workloads.generate(workload, 2, HERE.parent)
            self.assertEqual([c.id for c in one], [c.id for c in two])
            for a, b in zip(one, two):
                if not a.seeded:
                    self.assertEqual(workloads.spec_text(a), workloads.spec_text(b))


if __name__ == "__main__":
    unittest.main()
