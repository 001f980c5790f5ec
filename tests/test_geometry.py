import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randtile import geometry
from randtile.bratteli import PathWord
from randtile.ergodic import TLCObservable
from randtile.errors import StructuralError
from randtile.geometry import Box, Polygon, embed_point, faces, frac, margin
from randtile.solenoid import (CylinderObservable, SolenoidSpec, base_cell,
                               dk_check, random_observable)
from randtile.substitution import HALF_HEX_EMBEDDING, half_hex_classical
from randtile.symbolic import SymbolSequence
from randtile.tiling import Region

H = Fraction(1, 2)


def test_frac_coercions():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(2) == 2
    assert frac(0.25) == Fraction(1, 4)
    assert isinstance(frac(Fraction(1, 3)), Fraction)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: Region.box((_NAN, 0), (1, 1)),
    lambda: Region.box((0, 0), (_INF, 1)),
    lambda: Region.disk((_INF, 0), 1),
    lambda: Region.unit_square().dilated(_NAN),
    lambda: dk_check(SolenoidSpec.periodic([2], dim=1),
                     random_observable(SolenoidSpec.periodic([2], dim=1), 1,
                                       seed=0), (_NAN,), [(0,)], [1]),
], ids=["box-corner-nan", "box-width-inf", "disk-centre-inf",
        "dilation-nan", "dk-offset-nan"])
def test_frac_refuses_non_finite_floats(build):
    """Each went through `frac` to an untyped ValueError (NaN) or
    OverflowError (inf) from `Fraction`."""
    with pytest.raises(StructuralError, match="is not a finite number"):
        build()


@pytest.mark.parametrize("build", [
    lambda v: SymbolSequence((1, v)).positive[1],
    lambda v: TLCObservable(1, ((((1, v, 2, 0),), 1),)).weights[0][0][0][1],
    lambda v: PathWord(((1, v, 1, 0),)).edges[0][1],
    lambda v: SolenoidSpec(1, (3, v)).prefix[1],
    lambda v: base_cell(SolenoidSpec.periodic([3]), [(v,)], 1)[0],
    lambda v: dk_check(SolenoidSpec.periodic([3]), CylinderObservable(0, (1,)),
                       (0,), [], [v]).entries[0].n,
], ids=["symbol", "observable-edge", "path-edge", "solenoid-q", "base-digit",
        "dk-n"])
def test_integer_fields_refuse_non_integral_values(build):
    """Each truncated through `int` (2.5 became 2); `geometry.ints` now
    coerces exact integers only and names any other value."""
    for good in (2, 2.0, np.int64(2), np.uint8(2), Fraction(4, 2)):
        got = build(good)
        assert got == 2 and type(got) is int
    for bad in (2.5, 0.7, np.float64(1.9), Fraction(3, 2), "2", _NAN, _INF):
        with pytest.raises(StructuralError,
                           match=re.escape(f"{bad!r} is not an integer")):
            build(bad)


def test_ints_keeps_int_tuples():
    part = (1, 2, 3)
    assert geometry.ints(part) is part
    assert geometry.ints([True, np.int8(-3), 4.0]) == (1, -3, 4)


def test_box_basics():
    b = Box((-H, -H), (H, H))
    assert b.volume() == 1
    assert b.centroid() == (0, 0)
    assert b.contains_point((0, 0), strict=True)
    assert b.contains_point((H, H)) and not b.contains_point((H, H), strict=True)
    with pytest.raises(StructuralError):
        Box((0, 0), (0, 1))
    assert Box((0, 0), (1, 1)).vertices_list() == [(0, 0), (1, 0), (1, 1), (0, 1)]
    corners = Box((0, 0, 0), (1, 2, 3)).vertices_list()
    assert len(set(corners)) == 8
    assert all(sum(a != b for a, b in zip(corners[i], corners[i - 1])) == 1
               for i in range(8))


def test_box_intersection_volume():
    a = Box((0, 0), (1, 1))
    b = Box((H, H), (2, 2))
    assert a.intersection_volume(b) == Fraction(1, 4)
    assert b.intersection_volume(a) == Fraction(1, 4)
    c = Box((2, 2), (3, 3))
    assert a.intersection_volume(c) == 0


def test_polygon_orientation_and_area():
    # clockwise input is normalized to counterclockwise
    p = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert p.volume() == 1
    assert geometry._signed_area2(p.vertices) == 2
    assert p.convex
    assert p.centroid() == (H, H)


def test_polygon_degenerate_and_self_intersecting():
    with pytest.raises(StructuralError):
        Polygon([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(StructuralError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_polygon_contains_point():
    tri = Polygon([(0, 0), (2, 0), (0, 2)])
    assert tri.contains_point((1, Fraction(1, 2)))
    assert tri.contains_point((1, 1))            # on the hypotenuse
    assert not tri.contains_point((1, 1), strict=True)
    assert not tri.contains_point((2, 2))


def test_nonconvex_containment():
    # L-shaped region
    ell = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    assert not ell.convex
    assert ell.volume() == 3
    inner = Box((0, 0), (1, 1))
    assert ell.contains_shape(inner)
    assert not ell.contains_shape(Box((H, H), (Fraction(3, 2), Fraction(3, 2))))


def test_polygon_intersection_volume_triangles():
    a = Polygon([(0, 0), (2, 0), (0, 2)])
    b = Polygon([(2, 2), (0, 2), (2, 0)])
    assert a.intersection_volume(b) == 0
    sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert a.intersection_volume(sq) == 2


def test_union_volume():
    a = Box((0, 0), (1, 1))
    b = Box((H, 0), (Fraction(3, 2), 1))
    overlap = a.intersection_volume(b)
    assert overlap == H
    assert a.volume() + b.volume() - overlap == Fraction(3, 2)
    assert a.to_polygon().intersection_volume(b) == overlap


def test_transform_negative_theta():
    tri = Polygon([(0, 0), (2, 0), (0, 2)])
    img = tri.transform(Fraction(-1, 2), (1, 1))
    assert img.volume() == tri.volume() / 4
    assert geometry._signed_area2(img.vertices) > 0   # still CCW


def test_box_contains_box_any_dimension():
    cube = Box((0, 0, 0), (2, 2, 2))
    assert cube.contains_shape(Box((0, 0, 0), (1, 1, 2)))
    assert not cube.contains_shape(Box((1, 1, 1), (3, 2, 2)))


boxes = st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                  st.integers(1, 5), st.integers(1, 5))


@given(boxes, boxes)
@settings(max_examples=40, deadline=None)
def test_box_intersection_properties(p, q):
    a = Box((p[0], p[1]), (p[0] + p[2], p[1] + p[3]))
    b = Box((q[0], q[1]), (q[0] + q[2], q[1] + q[3]))
    v = a.intersection_volume(b)
    assert v == b.intersection_volume(a)
    assert 0 <= v <= min(a.volume(), b.volume())
    # agree with the polygon clipping path
    assert v == a.to_polygon().intersection_volume(b.to_polygon())


coords = st.fractions(min_value=-3, max_value=3, max_denominator=12)
widths = st.fractions(min_value=Fraction(1, 12), max_value=4,
                      max_denominator=12)


@st.composite
def embedded_boxes(draw):
    d = draw(st.integers(1, 3))
    lo = draw(st.lists(coords, min_size=d, max_size=d))
    ws = draw(st.lists(widths, min_size=d, max_size=d))
    emb = tuple(draw(st.sampled_from((0.5, 1.0, 3.0 ** 0.5)))
                for _ in range(d))
    return Box(lo, [l + w for l, w in zip(lo, ws)]), emb


half_hex_tiles = st.sampled_from(
    [(p.shape, HALF_HEX_EMBEDDING) for p in half_hex_classical().prototiles])


@given(st.one_of(embedded_boxes(), half_hex_tiles), st.data())
@settings(max_examples=150, deadline=None)
def test_margin_sign_matches_exact_containment(shaped, data):
    shape, emb = shaped
    p = tuple(data.draw(st.lists(coords, min_size=shape.dim,
                                 max_size=shape.dim)))
    inside = shape.contains_point(p)
    assume(inside == shape.contains_point(p, strict=True))  # off the boundary
    assert (margin(embed_point(p, emb), faces(shape, emb)) > 0) == inside


@given(embedded_boxes(), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_margin_on_box_faces_is_axis_gap(boxed, xs):
    box, emb = boxed
    lo, hi = embed_point(box.lo, emb), embed_point(box.hi, emb)
    p = tuple(xs[:box.dim])
    assert margin(p, faces(box, emb)) == min(
        min(c - l, h - c) for c, l, h in zip(p, lo, hi))
