"""Exact-arithmetic toolkit for filtration quotients of twisted root data:
restricted root systems with their valuation sets, reductive-quotient root
data, graded Lie algebra decompositions, highest-weight bookkeeping, and
stable-vector verdicts."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# Every public name loads its module on first access (PEP 562), so importing
# the package loads no submodule, and a process pays only for the modules it
# runs.  A resolved name is bound here, so later accesses are plain attribute
# reads.
_LAZY = {
    name: module
    for module, names in (
        ("catalog", ("catalog_datum", "catalog_ids", "catalog_spec", "named_point")),
        ("chevalley", ("ChevalleyAlgebra", "exp_ad", "orbit_sign", "pinned_automorphism",
                       "structure_constants")),
        ("echelonnage", ("ApartmentPoint", "RestrictedRoot", "TwistedDatum", "alcove_reduce",
                         "apartment_point", "companion_shift", "origin",
                         "point_from_simple_coroots", "point_order", "restrict",
                         "torus_jump_dim", "twisted")),
        ("exactmath", ("ValuationSet",)),
        ("mpquotient", ("MPQuotientReport", "ReductiveQuotientDatum", "first_jump", "jump_values",
                        "mp_quotient", "quotient_datum")),
        ("rootdata", ("DiagramAutomorphism", "RootDatum", "build_automorphism", "build_datum")),
        ("stability", ("StabilityVerdict", "stable_verdict")),
        ("vinberg", ("GradedDecomposition", "crosscheck", "grading")),
        ("weylmod", ("decompose", "phi_xr", "phi_xr_max", "split_span_check", "weyl_character")),
    )
    for name in names
}
__all__ = sorted(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
