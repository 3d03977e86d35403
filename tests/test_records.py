"""`exactmath.frozen_record` against `dataclasses`: every record class of the
package behaves as its `@dataclass(frozen=True)` twin would.  The hash must
agree exactly: set and dict orders feed the reports and the digests."""
import ast
import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from parahoric import chevalley, echelonnage, mpquotient, rootdata, stability, vinberg, weylmod
from parahoric.catalog import named_point
from parahoric.exactmath import ValuationSet


def _context(dynkin, automorphism, point, m=None):
    datum = rootdata.build_datum(dynkin)
    twist = rootdata.build_automorphism(datum, automorphism)
    td = echelonnage.twisted(datum, twist)
    return datum, twist, td, named_point(td, point, m)


def _grading(datum, twist, td, x):
    m = echelonnage.point_order(td, x) * twist.order
    den, nums = x.scaled
    return vinberg.grading(datum, twist, tuple(Fraction(m * c, den) for c in nums), m)


def _exp_ad(datum, twist, td, x):
    algebra = chevalley.structure_constants(datum)
    return chevalley.exp_ad(algebra, datum.roots[0], Fraction(1, 2))


# record class -> a sample instance in one context
SAMPLES = {
    rootdata.RootDatum: lambda d, s, td, x: d,
    rootdata.DiagramAutomorphism: lambda d, s, td, x: s,
    echelonnage.TwistedDatum: lambda d, s, td, x: td,
    echelonnage.ApartmentPoint: lambda d, s, td, x: x,
    echelonnage.RestrictedRoot: lambda d, s, td, x: echelonnage.restrict(td)[-1],
    echelonnage._Scaffold: lambda d, s, td, x: echelonnage._scaffold(d, s),
    echelonnage.DepthTable: lambda d, s, td, x: echelonnage.depth_table(td, x),
    echelonnage.TranslationClass: lambda d, s, td, x: echelonnage.translation_class(td, x),
    echelonnage._IntegerAlcove: lambda d, s, td, x: td.integer_alcove,
    ValuationSet: lambda d, s, td, x: echelonnage.restrict(td)[-1].jump_set,
    mpquotient.QuotientType: lambda d, s, td, x: mpquotient.quotient_datum(td, x).quotient_type,
    mpquotient.ReductiveQuotientDatum: lambda d, s, td, x: mpquotient.quotient_datum(td, x),
    mpquotient.MPQuotientReport: lambda d, s, td, x: mpquotient.mp_quotient(
        td, x, mpquotient.first_jump(td, x)
    ),
    stability.StabilityVerdict: lambda d, s, td, x: stability.stable_verdict(td, x),
    vinberg.GradedDecomposition: _grading,
    vinberg.CrosscheckResult: lambda d, s, td, x: vinberg.crosscheck(
        td, x, echelonnage.point_order(td, x) * s.order
    ),
    weylmod.Decomposition: lambda d, s, td, x: weylmod.decompose(td, x, Fraction(1, 2)),
    chevalley.ExpAd: _exp_ad,
}
CONTEXTS = (("B2", [0, 1], "barycenter"), ("A3", [2, 1, 0], "rho_over_m", 4))


@pytest.fixture(scope="module")
def pool():
    """Two instances per record class, one per context, with their twins."""
    twins = {
        cls: dataclasses.make_dataclass(cls.__name__, list(cls.__annotations__), frozen=True)
        for cls in SAMPLES
    }
    contexts = [_context(*c) for c in CONTEXTS]
    out = []
    for cls, sample in SAMPLES.items():
        for ctx in contexts:
            rec = sample(*ctx)
            assert type(rec) is cls
            out.append((rec, twins[cls](*(getattr(rec, n) for n in cls._fields))))
    return out


def _record_classes():
    """module.class for every ``@frozen_record`` class of the package."""
    src = Path(__file__).resolve().parent.parent / "src" / "parahoric"
    return {
        f"{path.stem}.{node.name}"
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "frozen_record" for d in node.decorator_list)
    }


def test_every_record_class_is_sampled_with_its_annotated_fields():
    assert {f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}" for cls in SAMPLES} == _record_classes()
    for cls in SAMPLES:
        assert cls._fields == tuple(cls.__annotations__)


def test_equality_agrees_within_and_across_classes(pool):
    for (a, ta), (b, tb) in itertools.product(pool, repeat=2):
        assert (a == b) is (ta == tb), (a, b)
        assert (a != b) is (ta != tb), (a, b)
    for rec, twin in pool:
        assert rec != twin and twin != rec


def test_hash_is_the_dataclass_hash(pool):
    for rec, twin in pool:
        fields = tuple(getattr(rec, n) for n in rec._fields)
        try:
            expected = hash(twin)
        except TypeError:  # a field is unhashable (a DepthTable's dict, a TranslationClass's table)
            with pytest.raises(TypeError):
                hash(rec)
            continue
        assert hash(rec) == expected == hash(fields)
        assert vars(rec)["_hash"] == expected  # computed once, on first use


def test_repr_is_the_dataclass_repr(pool):
    for rec, twin in pool:
        assert repr(rec) == repr(twin)


def test_construction_by_position_and_keyword(pool):
    for rec, _ in pool:
        cls = type(rec)
        values = [getattr(rec, n) for n in cls._fields]
        by_name = dict(zip(cls._fields, values))
        for copy in (
            cls(*values),
            cls(**by_name),
            cls(values[0], **{n: by_name[n] for n in cls._fields[1:]}),
        ):
            assert copy == rec and copy is not rec
            assert repr(copy) == repr(rec)


def test_wrong_fields_are_a_type_error(pool):
    for rec, twin in pool:
        values = [getattr(rec, n) for n in rec._fields]
        first = rec._fields[0]
        for cls in (type(rec), type(twin)):
            for args, kwargs in (
                (values[:-1], {}),
                (values + [None], {}),
                (values, {"bogus": None}),
                (values[:-1], {"bogus": None}),
                (values, {first: values[0]}),
                (values[1:], {}),
            ):
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted(pool):
    for rec, twin in pool:
        for obj in (rec, twin):
            for name in (*rec._fields, "bogus"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert rec == type(rec)(*(getattr(rec, n) for n in rec._fields))


def test_cached_properties_still_work():
    datum, _, _, x = _context("B2", [0, 1], "barycenter")
    copy = rootdata.RootDatum(*(getattr(datum, n) for n in datum._fields))
    assert "root_index" not in vars(copy)
    assert copy.root_index == datum.root_index
    assert "root_index" in vars(copy)
    point = echelonnage.ApartmentPoint(*x.scaled)
    assert "coords" not in vars(point)
    assert point.coords == x.coords and hash(point) == hash(x)
    assert "coords" in vars(point)
