"""Spans around the package's public functions, and the per-layer metrics
computed from them.

The benchmark's child process rebinds each traced function, in its defining
module and in every package module that imported it by name, to a wrapper
that records a span ``(name, start, end, parent)`` in memory.  Nothing in the
package itself is changed.  The parent process turns the spans of all cases
into self times, call counts and the computed work counters.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

import workloads

# module -> functions that get a span each call
SPANNED = {
    "rootdata": ("build_datum", "weyl_elements"),
    "stability": ("elliptic_zregular_orders", "stable_verdict"),
    "exactmath": ("cyclotomic_multiplicities", "rref"),
    "mpquotient": ("quotient_datum", "mp_quotient", "jump_values", "first_jump"),
    "echelonnage": ("twisted", "restrict", "point_order", "alcove_reduce", "companion_shift"),
    "catalog": ("named_point", "alcove_vertices"),
    "chevalley": ("structure_constants", "pinned_automorphism"),
    "vinberg": ("grading", "crosscheck"),
    "weylmod": ("decompose", "weyl_character", "split_span_check"),
    "cli": ("normalize_spec", "realize", "build_report", "emit"),
}
# module -> hot functions that are only counted (a span each would cost more
# than the call)
COUNTED = {
    "stability": ("acts_freely_on_roots",),
    "chevalley": ("exp_ad",),
    "weylmod": ("dominance_ge",),
}
IMPORT_SPAN = "process.import"

# The per-layer metrics in report order, as (name, unit).  A name ending in
# ".s" is summed self time, ".calls" a call count, anything else a counter.
LAYER_METRICS = (
    ("rootdata.build_datum.s", "s"),
    ("rootdata.weyl_elements.s", "s"),
    ("rootdata.weyl_elements.count", "count"),
    ("stability.elliptic_zregular_orders.s", "s"),
    ("stability.stable_verdict.s", "s"),
    ("stability.regular_yield", "ratio"),
    ("exactmath.cyclotomic_multiplicities.s", "s"),
    ("exactmath.cyclotomic_multiplicities.calls", "count"),
    ("exactmath.rref.s", "s"),
    ("exactmath.rref.calls", "count"),
    ("mpquotient.quotient_datum.s", "s"),
    ("mpquotient.quotient_datum.calls", "count"),
    ("mpquotient.quotient_datum.pairs", "count"),
    ("mpquotient.mp_quotient.s", "s"),
    ("mpquotient.mp_quotient.calls", "count"),
    ("mpquotient.jump_values.s", "s"),
    ("mpquotient.first_jump.s", "s"),
    ("mpquotient.roots_scanned", "count"),
    ("echelonnage.twisted.s", "s"),
    ("echelonnage.restrict.s", "s"),
    ("echelonnage.restrict.calls", "count"),
    ("echelonnage.point_order.s", "s"),
    ("echelonnage.alcove_reduce.s", "s"),
    ("echelonnage.companion_shift.s", "s"),
    ("catalog.named_point.s", "s"),
    ("catalog.alcove_vertices.s", "s"),
    ("catalog.alcove_vertices.subsets", "count"),
    ("chevalley.structure_constants.s", "s"),
    ("chevalley.pinned_automorphism.s", "s"),
    ("chevalley.verify_brackets", "count"),
    ("chevalley.exp_ad.calls", "count"),
    ("vinberg.grading.s", "s"),
    ("vinberg.crosscheck.s", "s"),
    ("weylmod.decompose.s", "s"),
    ("weylmod.weyl_character.s", "s"),
    ("weylmod.weyl_character.calls", "count"),
    ("weylmod.dominance_ge.calls", "count"),
    ("weylmod.split_span_check.s", "s"),
    ("cli.normalize_spec.s", "s"),
    ("cli.realize.s", "s"),
    ("cli.build_report.s", "s"),
    ("cli.emit.s", "s"),
    ("process.import.s", "s"),
)
# Counters computed from arguments and results rather than counted calls.
COMPUTED = (
    "rootdata.weyl_elements.count",
    "mpquotient.quotient_datum.pairs",
    "mpquotient.roots_scanned",
    "catalog.alcove_vertices.subsets",
    "chevalley.verify_brackets",
    "stability.regular_yield",
)


class Recorder:
    """Spans and counters of one traced child process."""

    def __init__(self, case: str):
        self.case = case
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.originals: dict = {}

    def span(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack
        track_misses = hook is not None and hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            misses = fn.cache_info().misses if track_misses else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                miss = track_misses and fn.cache_info().misses > misses
                hook(self, args, result, miss)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if result is True:
                counters[name + ".true"] += 1
            return result

        return wrapper

    def record_import(self, start: float, end: float) -> None:
        self.spans.append((IMPORT_SPAN, start, end, None))

    def dump(self, path) -> None:
        data = {
            "case": self.case,
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# hooks for the computed counters


def _on_weyl_elements(rec, args, result, miss):
    if miss:
        rec.counters["rootdata.weyl_elements.count"] += len(result)


def _on_quotient_datum(rec, args, result, miss):
    rec.counters["mpquotient.quotient_datum.pairs"] += len(result.roots) ** 2
    _on_root_scan(rec, args, result, miss)


def _on_root_scan(rec, args, result, miss):
    rec.counters["mpquotient.roots_scanned"] += len(rec.originals["echelonnage.restrict"](args[0]))


def _on_alcove_vertices(rec, args, result, miss):
    if miss:
        td = args[0]
        positives = sum(rr.positive for rr in rec.originals["echelonnage.restrict"](td))
        dim = workloads.cycle_count(td.twist.permutation)
        rec.counters["catalog.alcove_vertices.subsets"] += comb(2 * positives, dim)


def _on_pinned(rec, args, result, miss):
    if miss:
        rec.counters["chevalley.verify_brackets"] += len(args[0].labels) ** 2


HOOKS = {
    "rootdata.weyl_elements": _on_weyl_elements,
    "mpquotient.quotient_datum": _on_quotient_datum,
    "mpquotient.mp_quotient": _on_root_scan,
    "mpquotient.jump_values": _on_root_scan,
    "mpquotient.first_jump": _on_root_scan,
    "catalog.alcove_vertices": _on_alcove_vertices,
    "chevalley.pinned_automorphism": _on_pinned,
}


def install(recorder: Recorder) -> None:
    """Rebind every traced function wherever the package bound its name."""
    modules = [
        m for name, m in sys.modules.items()
        if name == "parahoric" or name.startswith("parahoric.")
    ]
    plan = [(m, f, True) for m, fs in SPANNED.items() for f in fs]
    plan += [(m, f, False) for m, fs in COUNTED.items() for f in fs]
    for modname, fname, spanned in plan:
        mod = sys.modules.get(f"parahoric.{modname}")
        if mod is None:  # not imported by this mode: never called
            continue
        original = getattr(mod, fname)
        name = f"{modname}.{fname}"
        recorder.originals[name] = original
        wrapper = (
            recorder.span(name, original, HOOKS.get(name))
            if spanned else recorder.count(name, original)
        )
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


# ---------------------------------------------------------------------------
# aggregation (parent side)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(traces, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics summed over the trace files of one workload, with
    self times multiplied by ``scale``.

    A layer that was never called reports an explicit 0.
    """
    seconds: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    coset_tested = 0
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        for span, own in zip(spans, self_times(spans)):
            seconds[span[0]] += own
            calls[span[0]] += 1
        coset_tested += sum(
            1 for name, _, _, parent in spans
            if name == "exactmath.cyclotomic_multiplicities" and parent is not None
            and spans[parent][0] == "stability.elliptic_zregular_orders"
        )
        counters.update(trace["counters"])
    freely = counters["stability.acts_freely_on_roots.true"]
    counters["stability.regular_yield"] = freely / coset_tested if coset_tested else 0
    out = {}
    for metric, _ in LAYER_METRICS:
        stem, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = seconds[stem] * scale
        elif kind == "calls":
            out[metric] = calls[stem] or counters[metric]
        else:
            out[metric] = counters[metric]
    return out
