"""Exact-arithmetic toolkit for filtration quotients of twisted root data:
restricted root systems with their valuation sets, reductive-quotient root
data, graded Lie algebra decompositions, highest-weight bookkeeping, and
stable-vector verdicts."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .catalog import catalog_datum, catalog_ids, catalog_spec, named_point
from .echelonnage import (
    ApartmentPoint,
    RestrictedRoot,
    TwistedDatum,
    alcove_reduce,
    apartment_point,
    companion_shift,
    origin,
    point_from_simple_coroots,
    point_order,
    restrict,
    twisted,
)
from .exactmath import ValuationSet
from .mpquotient import (
    MPQuotientReport,
    ReductiveQuotientDatum,
    first_jump,
    jump_values,
    mp_quotient,
    quotient_datum,
    torus_jump_dim,
)
from .rootdata import (
    DiagramAutomorphism,
    RootDatum,
    build_automorphism,
    build_datum,
)
__all__ = [
    "ApartmentPoint",
    "ChevalleyAlgebra",
    "DiagramAutomorphism",
    "GradedDecomposition",
    "MPQuotientReport",
    "ReductiveQuotientDatum",
    "RestrictedRoot",
    "RootDatum",
    "StabilityVerdict",
    "TwistedDatum",
    "ValuationSet",
    "alcove_reduce",
    "apartment_point",
    "build_automorphism",
    "build_datum",
    "catalog_datum",
    "catalog_ids",
    "catalog_spec",
    "companion_shift",
    "crosscheck",
    "decompose",
    "exp_ad",
    "first_jump",
    "grading",
    "jump_values",
    "mp_quotient",
    "named_point",
    "orbit_sign",
    "origin",
    "phi_xr",
    "phi_xr_max",
    "pinned_automorphism",
    "point_from_simple_coroots",
    "point_order",
    "quotient_datum",
    "restrict",
    "split_span_check",
    "stable_verdict",
    "structure_constants",
    "torus_jump_dim",
    "twisted",
    "weyl_character",
]

# The layers that only some subcommands run load on first access to one of
# their names (PEP 562): the Chevalley-basis oracle, which no subcommand
# calls, and the stability, grading and Weyl-module layers, which one
# subcommand each calls.  A resolved name is bound here, so later accesses
# are plain attribute reads.
_LAZY = {
    name: module
    for module, names in (
        ("chevalley", ("ChevalleyAlgebra", "exp_ad", "orbit_sign", "pinned_automorphism",
                       "structure_constants")),
        ("stability", ("StabilityVerdict", "stable_verdict")),
        ("vinberg", ("GradedDecomposition", "crosscheck", "grading")),
        ("weylmod", ("decompose", "phi_xr", "phi_xr_max", "split_span_check", "weyl_character")),
    )
    for name in names
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
