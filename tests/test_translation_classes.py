"""Translation classes: the points x + t, t in the lattice of the affine Weyl
group's translations (``TwistedDatum.translations``), share one record
(``echelonnage.translation_class``) with their depth table, crosscheck
grading, alcove reduction and verdict.  Each shared reading must equal the
one computed at each point from scratch, and the crosscheck's grading must
stay independent of the table it checks."""
import random
from fractions import Fraction as F
from math import lcm
from weakref import WeakValueDictionary

import pytest

from parahoric import echelonnage, vinberg
from parahoric.alcove import alcove_reduce, reduced
from parahoric.catalog import catalog_datum, catalog_ids
from parahoric.echelonnage import (
    DepthTable,
    apartment_point,
    companion_shift,
    depth_table,
    point_from_simple_coroots,
    point_order,
    translation_class,
    twisted,
)
from parahoric.exactmath import vec_add, vec_sub
from parahoric.rootdata import build_automorphism, build_datum
from parahoric.stability import stable_verdict
from parahoric.vinberg import crosscheck

from point_oracle import rational_alcove
from warm_points import warm_sweep

# name -> (Dynkin type, node permutation, lambda valuations)
EXTRA = {
    "F4": ("F4", None, None),
    "B4": ("B4", None, None),
    "2A2w": ("A2", (1, 0), {0: F(-1, 2)}),
    "2A4w": ("A4", (3, 2, 1, 0), {0: F(-1, 2), 1: F(-1, 2)}),
}


def datum(name):
    if name in EXTRA:
        dynkin, perm, lam = EXTRA[name]
        d = build_datum(dynkin)
        return twisted(d, perm and build_automorphism(d, perm), lam)
    return catalog_datum(name)


def translates(td, x):
    """x plus and minus each translation, and plus the sum of the first and
    the last."""
    ts = [t for _, t in rational_alcove(td)[1]]
    moves = [*ts, *(vec_sub((0,) * len(t), t) for t in ts), vec_add(ts[0], ts[-1])]
    return [apartment_point(td, vec_add(x.coords, t)) for t in moves]


def uncached(monkeypatch, td, x):
    """The crosscheck at M = lcm(point order, e) on the tame shift, the
    verdict and the alcove reduction of x, each from x alone: on empty class
    and table intern maps and an empty per-point cache."""
    tame_td, tame_x = (td, x) if td.is_tame else companion_shift(td, x)
    with monkeypatch.context() as m:
        for t in {td, tame_td}:
            m.setitem(vars(t), "translation_classes", WeakValueDictionary())
            m.setitem(vars(t), "depth_tables", WeakValueDictionary())
        translation_class.cache_clear()
        modulus = lcm(point_order(tame_td, tame_x), tame_td.twist.order)
        check = crosscheck(tame_td, tame_x, modulus)
        verdict = stable_verdict(td, x) if td.base.is_semisimple else None
        reading = check, verdict, alcove_reduce(td, x)
    translation_class.cache_clear()  # its classes are not in the restored maps
    return reading


@pytest.mark.parametrize("name", catalog_ids() + tuple(EXTRA))
def test_translates_share_their_class_and_read_alike(name, monkeypatch):
    td = datum(name)
    rng = random.Random(f"translation classes {name}")
    count = len(td.simple_keys)
    compared = 0
    for _ in range(3):
        x = point_from_simple_coroots(
            td, [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(count)]
        )
        expected = uncached(monkeypatch, td, x)
        assert expected[0].ok
        cls, table = translation_class(td, x), depth_table(td, x)
        # the class's point is a point of the class, and its own
        assert translation_class.__wrapped__(td, cls.point).point == cls.point
        assert alcove_reduce(td, cls.point) == reduced(cls) == expected[2]
        for y in translates(td, x):
            assert y != x
            assert uncached(monkeypatch, td, y) == expected, (name, x, y)
            assert translation_class(td, y) is cls and depth_table(td, y) is table
            tame_td, tame_y = (td, y) if td.is_tame else companion_shift(td, y)
            modulus = lcm(point_order(tame_td, tame_y), tame_td.twist.order)
            assert crosscheck(tame_td, tame_y, modulus) == expected[0]
            if td.base.is_semisimple:
                assert stable_verdict(td, y) == expected[1]
            compared += 1
    assert compared == 3 * (2 * count + 1)


def test_the_crosscheck_grading_reads_no_depth_table(monkeypatch):
    # The grading is the crosscheck's independent check against the depth
    # table: while it runs, every depth table and every way to one refuses.
    def refuse(*args, **kwargs):
        raise AssertionError("the grading read a depth table")

    real = vinberg._graded
    graded = []

    def guarded(*args):
        with monkeypatch.context() as m:
            m.setattr(DepthTable, "__getattribute__", refuse)
            for module in (echelonnage, vinberg):
                for name in ("depth_table", "translation_class", "point_order"):
                    if hasattr(module, name):
                        m.setattr(module, name, refuse)
            # the guard is live: a table read now fails
            with pytest.raises(AssertionError, match="read a depth table"):
                table.order
            graded.append(args)
            return real(*args)

    monkeypatch.setattr(vinberg, "_graded", guarded)
    checked = 0
    for td, x in warm_sweep(0, 8):
        tame_td, tame_x = (td, x) if td.is_tame else companion_shift(td, x)
        table = depth_table(tame_td, tame_x)
        modulus = lcm(point_order(tame_td, tame_x), tame_td.twist.order)
        with monkeypatch.context() as m:  # so that every point is graded
            m.setitem(vars(tame_td), "translation_classes", WeakValueDictionary())
            translation_class.cache_clear()
            assert crosscheck(tame_td, tame_x, modulus)
        checked += 1
    translation_class.cache_clear()
    assert len(graded) == checked == 16 * 8
