import math
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
from randtile.tiling import Region, generate_patch

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


def test_int_rows_keeps_tuples_of_int_tuples():
    rows = ((1, 2), (3, 4, 5), ())
    assert geometry.int_rows(rows) is rows
    assert geometry.int_rows([(1, 2), [np.int64(3), 4.0]]) == ((1, 2), (3, 4))
    assert geometry.int_rows(((1, True),)) == ((1, 1),)
    with pytest.raises(StructuralError, match="2.5 is not an integer"):
        geometry.int_rows(((1, 2), (2.5,)))


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


def test_sum_left_adds_left_to_right():
    """Python 3.12's builtin `sum` compensates float sums and gives 1.0 here
    (as `math.fsum` does); adding left to right gives 0.0 on every version."""
    values = [1e16, 1.0, -1e16]
    assert geometry.sum_left(values) == (1e16 + 1.0) - 1e16 == 0.0
    assert math.fsum(values) == 1.0
    assert geometry.sum_left(iter([1, 2, 3])) == 6
    assert geometry.sum_left([]) == 0


# The parent's non-convex rules, pasted as the oracle for `Polygon.pieces`:
# containment by crossing number plus an on-boundary test, and overlap areas
# from a convex fan or an ear clip of both operands.

def _old_on_segment(a, b, p):
    if geometry.cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _old_on_boundary(vs, p):
    n = len(vs)
    return any(_old_on_segment(vs[i], vs[(i + 1) % n], p) for i in range(n))


def _old_winding_contains(vs, p):
    n = len(vs)
    count = 0
    for i in range(n):
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % n]
        if (y0 <= p[1]) != (y1 <= p[1]):
            t = (p[1] - y0) / (y1 - y0)
            if x0 + t * (x1 - x0) > p[0]:
                count += 1
    return count % 2 == 1


def _old_contains_point(poly, p, strict=False):
    vs = poly.vertices
    if poly.convex:
        for i in range(len(vs)):
            c = geometry.cross(vs[i], vs[(i + 1) % len(vs)], p)
            if c < 0 or (strict and c == 0):
                return False
        return True
    inside = _old_winding_contains(vs, p)
    if strict:
        return inside and not _old_on_boundary(vs, p)
    return inside or _old_on_boundary(vs, p)


def _old_ear_clip(vs):
    tris, idx = [], list(range(len(vs)))
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = vs[i0], vs[i1], vs[i2]
            if geometry.cross(a, b, c) <= 0:
                continue
            ear = Polygon([a, b, c])
            if not any(_old_contains_point(ear, vs[j], strict=True)
                       or _old_on_boundary((a, b, c), vs[j])
                       for j in idx if j not in (i0, i1, i2)):
                tris.append((a, b, c))
                idx.pop(k)
                break
        else:
            raise StructuralError("no ear found")
    tris.append(tuple(vs[i] for i in idx))
    return tris


def _old_triangulate(poly):
    vs = poly.vertices
    if poly.convex:
        return [Polygon([vs[0], vs[i], vs[i + 1]])
                for i in range(1, len(vs) - 1)]
    return [Polygon(t) for t in _old_ear_clip(list(vs))]


def _old_clip_convex(subject, clipper):
    output, n = list(subject), len(clipper)
    for i in range(n):
        if not output:
            return []
        a, b = clipper[i], clipper[(i + 1) % n]
        input_list, output = output, []
        m = len(input_list)
        for j in range(m):
            cur, nxt = input_list[j], input_list[(j + 1) % m]
            cur_in = geometry.cross(a, b, cur) >= 0
            nxt_in = geometry.cross(a, b, nxt) >= 0
            if cur_in:
                output.append(cur)
            if cur_in != nxt_in:
                d1, d2 = geometry.cross(a, b, cur), geometry.cross(a, b, nxt)
                output.append(geometry.vadd(cur, geometry.vscale(
                    d1 / (d1 - d2), geometry.vsub(nxt, cur))))
    dedup = []
    for p in output:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _old_intersection_volume(a, b):
    if a.convex and b.convex:
        clipped = _old_clip_convex(a.vertices, b.vertices)
        return (geometry._signed_area2(clipped) / 2 if len(clipped) >= 3
                else Fraction(0))
    return sum((_old_intersection_volume(t1, t2) for t1 in _old_triangulate(a)
                for t2 in _old_triangulate(b)), Fraction(0))


# eight spikes, each outer vertex followed by a reflex inner one
_STAR = [v for pair in zip(
    [(4, 0), (4, 4), (0, 4), (-4, 4), (-4, 0), (-4, -4), (0, -4), (4, -4)],
    [(1, H), (H, 1), (-H, 1), (-1, H), (-1, -H), (-H, -1), (H, -1), (1, -H)])
    for v in pair]
_PIECE_CASES = {
    "triangle": [(0, 0), (3, 0), (1, 2)],
    "hexagon": [(1, 0), (3, 0), (4, 2), (3, 4), (1, 4), (0, 2)],
    "square-midpoint": [(0, 0), (2, 0), (2, 2), (1, 2), (0, 2)],
    "L": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
    "U": [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)],
    "comb": [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (3, 1), (3, 3), (2, 3),
             (2, 1), (1, 1), (1, 3), (0, 3)],
    # the first corner, (0, 0) (1, 0) (2, 0), is collinear: no ear
    "L-collinear": [(1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1),
                    (0, 0)],
    "star": _STAR,
}


def _probe_points(poly):
    """Vertices; points on every edge, on every segment between two vertices
    (internal diagonals among them) and on the lines through them past
    either end; rational points off all of these."""
    vs = poly.vertices
    pts = set(vs)
    for a in vs:
        for b in vs:
            for t in (Fraction(1, 3), H, Fraction(3, 2)):
                pts.add(tuple(c + t * (d - c) for c, d in zip(a, b)))
    (x0, y0), (x1, y1) = poly.bbox()
    pts.update((x0 - 1 + Fraction(i, 2) + Fraction(1, 7),
                y0 - 1 + Fraction(j, 2) + Fraction(1, 11))
               for i in range(2 * int(x1 - x0) + 4)
               for j in range(2 * int(y1 - y0) + 4))
    return sorted(pts)


@pytest.mark.parametrize("name", sorted(_PIECE_CASES))
def test_pieces_keep_the_old_containment(name):
    poly = Polygon(_PIECE_CASES[name])
    assert poly.convex == (name in ("triangle", "hexagon", "square-midpoint"))
    pieces = poly.pieces()
    assert pieces is poly.pieces()
    assert pieces == ([poly.vertices] if poly.convex else
                      geometry._ear_clip(poly.vertices))
    assert all(geometry._is_convex(p) and geometry._signed_area2(p) > 0
               for p in pieces)
    assert sum(geometry._signed_area2(p) for p in pieces) / 2 == poly.volume()
    for p in _probe_points(poly):
        for strict in (False, True):
            assert poly.contains_point(p, strict) == _old_contains_point(
                poly, p, strict), (p, strict)


@pytest.mark.parametrize("name", sorted(_PIECE_CASES))
def test_pieces_keep_the_old_intersection_volume(name):
    poly = Polygon(_PIECE_CASES[name])
    assert poly.intersection_volume(poly) == poly.volume()
    for other in _PIECE_CASES.values():
        other = Polygon(other)
        for shift in ((0, 0), (H, Fraction(1, 3))):
            moved = other.transform(1, shift)
            want = _old_intersection_volume(poly, moved)
            assert poly.intersection_volume(moved) == want, (other, shift)
            assert moved.intersection_volume(poly) == want


def test_l_window_is_ear_clipped_once(hh, monkeypatch):
    """Ear-clipping once per polygon: the window's pieces are kept, where
    each tile test used to clip the window again (158 clips here)."""
    calls = []
    clip = geometry._ear_clip

    def counted(vs):
        calls.append(vs)
        return clip(vs)

    monkeypatch.setattr(geometry, "_ear_clip", counted)
    window = Region.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                            dilation=4)
    patch = generate_patch(hh, SymbolSequence.constant(1, 64), window)
    assert len(patch) > 0
    assert calls == [window.shape().vertices]
