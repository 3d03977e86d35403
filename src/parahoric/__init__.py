"""Exact-arithmetic toolkit for filtration quotients of twisted root data:
restricted root systems with their valuation sets, reductive-quotient root
data, graded Lie algebra decompositions, highest-weight bookkeeping, and
stable-vector verdicts."""

__version__ = "0.1.0"

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
from .exactmath import ValuationSet, cyclotomic_multiplicities, matrix_order
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
    weyl_elements,
)
from .stability import (
    StabilityVerdict,
    elliptic_zregular_orders,
    stable_verdict,
    zregularity_criteria_agree,
)
from .vinberg import GradedDecomposition, crosscheck, grading
from .weylmod import (
    decompose,
    phi_xr,
    phi_xr_max,
    split_span_check,
    weyl_character,
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
    "cyclotomic_multiplicities",
    "decompose",
    "elliptic_zregular_orders",
    "exp_ad",
    "first_jump",
    "grading",
    "jump_values",
    "matrix_order",
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
    "weyl_elements",
    "zregularity_criteria_agree",
]

# The Chevalley-basis layer is an oracle that no subcommand calls, so its
# names in __all__ are the only ones not bound above: they load it on first
# access (PEP 562).


def __getattr__(name):
    if name in __all__:
        from . import chevalley

        return getattr(chevalley, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
