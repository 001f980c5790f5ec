"""Exact rational geometry for tiles: boxes in any dimension and polygons in 2D.

All coordinates are `fractions.Fraction`; every predicate used for rule
validation and region decomposition is decided exactly.  Float arithmetic only
enters through an optional diagonal embedding, and every float metric question
about a convex shape goes through one pair of functions: `faces` lists the
inward faces of an embedded box (any d) or convex polygon, and `margin` gives
the signed distance of a point inside them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import StructuralError

Point = tuple  # tuple of Fraction


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and finite floats to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise StructuralError(f"{x!r} is not a finite number")
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def numerators(values):
    """(D, [D·v]): ints and Fractions as int numerators over their lcm D."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def sum_left(values):
    """Σ values added one at a time from 0, left to right.  The builtin `sum`
    does this on Python 3.11 but compensates float sums from 3.12 on, which
    rounds some sums of three or more floats differently."""
    total = 0
    for v in values:
        total += v
    return total


def ints(values) -> tuple:
    """`values` as a tuple of ints (a tuple of ints comes back as it is):
    2.0, True and numpy ints coerce, any other value is a StructuralError."""
    if type(values) is tuple and not set(map(type, values)) - {int}:
        return values
    return tuple(map(_int, values))


def int_rows(rows) -> tuple:
    """`rows` as a tuple of `ints` tuples; a tuple of tuples of ints comes
    back as it is, checked in one pass over every entry."""
    if (type(rows) is tuple and set(map(type, rows)) <= {tuple}
            and not set(map(type, chain.from_iterable(rows))) - {int}):
        return rows
    return tuple(map(ints, rows))


def _int(v) -> int:
    try:
        if int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise StructuralError(f"{v!r} is not an integer")


def fpoint(p) -> Point:
    return tuple(frac(c) for c in p)


def vadd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vscale(s, a: Point) -> Point:
    return tuple(s * x for x in a)


def cross(o: Point, a: Point, b: Point):
    """2D cross product (a-o) x (b-o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class Box:
    """Axis-aligned box [lo, hi] in dimension d >= 1."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = fpoint(lo)
        self.hi = fpoint(hi)
        if len(self.lo) != len(self.hi):
            raise StructuralError("box corner dimensions differ")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise StructuralError("box must have positive extent")

    @property
    def dim(self):
        return len(self.lo)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    def transform(self, theta, tau) -> "Box":
        theta = frac(theta)
        tau = fpoint(tau)
        return Box(vadd(vscale(theta, self.lo), tau), vadd(vscale(theta, self.hi), tau))

    def bbox(self):
        return self.lo, self.hi

    def centroid(self) -> Point:
        return tuple((l + h) / 2 for l, h in zip(self.lo, self.hi))

    def vertices_list(self):
        """All 2^d corners in Gray-code order: consecutive corners differ in
        one coordinate, so for d = 2 they run counterclockwise."""
        return [tuple(h if ((i ^ (i >> 1)) >> j) & 1 else l
                      for j, (l, h) in enumerate(zip(self.lo, self.hi)))
                for i in range(2 ** self.dim)]

    def contains_point(self, p, strict=False) -> bool:
        p = fpoint(p)
        if strict:
            return all(l < c < h for c, l, h in zip(p, self.lo, self.hi))
        return all(l <= c <= h for c, l, h in zip(p, self.lo, self.hi))

    def intersection_volume(self, other) -> Fraction:
        if isinstance(other, Box):
            v = Fraction(1)
            for l0, h0, l1, h1 in zip(self.lo, self.hi, other.lo, other.hi):
                lo, hi = max(l0, l1), min(h0, h1)
                if hi <= lo:
                    return Fraction(0)
                v *= hi - lo
            return v
        return self.to_polygon().intersection_volume(other)

    def contains_shape(self, other) -> bool:
        # Boxes are convex: vertex (or corner) containment decides.
        if isinstance(other, Box):
            return all(l <= ol and oh <= h for l, h, ol, oh
                       in zip(self.lo, self.hi, other.lo, other.hi))
        return all(self.contains_point(v) for v in other.vertices_list())

    def to_polygon(self) -> "Polygon":
        if self.dim != 2:
            raise StructuralError("only 2D boxes convert to polygons")
        return Polygon(self.vertices_list())

    def __repr__(self):
        return f"Box({self.lo}, {self.hi})"


class Polygon:
    """Simple polygon in 2D with rational vertices, stored counterclockwise."""

    __slots__ = ("vertices", "_convex", "_pieces")

    def __init__(self, vertices):
        vs = [fpoint(v) for v in vertices]
        if len(vs) < 3:
            raise StructuralError("polygon needs at least 3 vertices")
        if any(len(v) != 2 for v in vs):
            raise StructuralError("polygon vertices must be 2D")
        area2 = _signed_area2(vs)
        if area2 == 0:
            raise StructuralError("polygon is degenerate (zero area)")
        if area2 < 0:
            vs = vs[::-1]
        self.vertices = tuple(vs)
        if not _is_simple(self.vertices):
            raise StructuralError("polygon is self-intersecting")
        self._convex = _is_convex(self.vertices)
        self._pieces = None

    @classmethod
    def _trusted(cls, vertices, convex):
        """Internal: skip validation for affine images of valid polygons."""
        obj = object.__new__(cls)
        obj.vertices = tuple(vertices)
        obj._convex = convex
        obj._pieces = None
        return obj

    @property
    def dim(self):
        return 2

    @property
    def convex(self):
        return self._convex

    def volume(self) -> Fraction:
        return _signed_area2(self.vertices) / 2

    def transform(self, theta, tau) -> "Polygon":
        theta = frac(theta)
        tau = fpoint(tau)
        # a point reflection (theta < 0) has determinant theta^2 > 0, so the
        # counterclockwise orientation is preserved either way
        vs = [vadd(vscale(theta, v), tau) for v in self.vertices]
        return Polygon._trusted(vs, self._convex)

    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def centroid(self) -> Point:
        a6 = 3 * _signed_area2(self.vertices)
        cx = cy = Fraction(0)
        vs = self.vertices
        for i in range(len(vs)):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % len(vs)]
            w = x0 * y1 - x1 * y0
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        return (cx / a6, cy / a6)

    def vertices_list(self):
        return list(self.vertices)

    def pieces(self):
        """Closed convex CCW pieces with disjoint interiors whose union is the
        polygon: its own vertex tuple when convex, else its ear-clipped
        triangles.  Found on first use and kept."""
        if self._pieces is None:
            self._pieces = ([self.vertices] if self._convex
                            else _ear_clip(self.vertices))
        return self._pieces

    def contains_point(self, p, strict=False) -> bool:
        p = fpoint(p)
        return (any(_in_convex(piece, p) for piece in self.pieces())
                and not (strict and _on_boundary(self.vertices, p)))

    def intersection_volume(self, other) -> Fraction:
        if isinstance(other, Box):
            other = other.to_polygon()
        area2 = Fraction(0)
        for a in self.pieces():
            for b in other.pieces():
                clipped = clip_convex(a, b)
                if len(clipped) >= 3:
                    area2 += _signed_area2(clipped)
        return area2 / 2

    def contains_shape(self, other) -> bool:
        if self._convex:
            return all(self.contains_point(v) for v in other.vertices_list())
        return self.intersection_volume(other) == other.volume()

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"


def _signed_area2(vs) -> Fraction:
    s = Fraction(0)
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        s += x0 * y1 - x1 * y0
    return s


def _is_convex(vs) -> bool:
    n = len(vs)
    for i in range(n):
        if cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) < 0:
            return False
    return True


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and 0 not in (d1, d2, d3, d4)


def _is_simple(vs) -> bool:
    n = len(vs)
    for i in range(n):
        a1, a2 = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            b1, b2 = vs[j], vs[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2):
                return False
    return True


def _on_segment(a, b, p) -> bool:
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _on_boundary(vs, p) -> bool:
    n = len(vs)
    return any(_on_segment(vs[i], vs[(i + 1) % n], p) for i in range(n))


def winding_contains(vs, p) -> bool:
    # Crossing-number test, exact on rationals, also run on embedded floats.
    n = len(vs)
    count = 0
    for i in range(n):
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % n]
        if (y0 <= p[1]) != (y1 <= p[1]):
            # x-coordinate of edge at height p[1]
            t = (p[1] - y0) / (y1 - y0)
            x = x0 + t * (x1 - x0)
            if x > p[0]:
                count += 1
    return count % 2 == 1


def _in_convex(vs, p) -> bool:
    """Is p in the closed convex CCW polygon vs?"""
    return all(cross(vs[i - 1], vs[i], p) >= 0 for i in range(len(vs)))


def _ear_clip(vs):
    """Ear-clipping triangulation of a simple CCW polygon, exact arithmetic:
    an ear is a strictly convex corner whose closed triangle holds no other
    vertex (Meisters, "Polygons have ears", 1975)."""
    tris = []
    idx = list(range(len(vs)))
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            ear = vs[i0], vs[i1], vs[i2]
            if cross(*ear) > 0 and not any(
                    _in_convex(ear, vs[j]) for j in idx
                    if j not in (i0, i1, i2)):
                tris.append(ear)
                idx.pop(k)
                break
        else:
            raise StructuralError("no ear found; polygon may be degenerate")
    tris.append(tuple(vs[i] for i in idx))
    return tris


def clip_convex(subject: Sequence[Point], clipper: Sequence[Point]):
    """Sutherland-Hodgman clipping of a convex subject by a convex CCW clipper."""
    output = list(subject)
    for a, b in zip(clipper, [*clipper[1:], clipper[0]]):
        if not output:
            return []
        # each point's side of line ab, computed once: it keeps or drops the
        # point and places the crossing on its edge to the next point
        sides = [cross(a, b, p) for p in output]
        points = output
        output = []
        for p, q, dp, dq in zip(points, points[1:] + points[:1],
                                sides, sides[1:] + sides[:1]):
            if dp >= 0:
                output.append(p)
            if (dp >= 0) != (dq >= 0):
                output.append(vadd(p, vscale(dp / (dp - dq), vsub(q, p))))
    # drop consecutive duplicates
    dedup = []
    for p in output:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


# ---------------------------------------------------------------------------
# Float helpers (metric work through an embedding)
# ---------------------------------------------------------------------------

def embed_point(p, embedding=None):
    """Map rational coordinates to Euclidean floats via a diagonal embedding."""
    if embedding is None:
        return tuple(float(c) for c in p)
    return tuple(float(c) * float(e) for c, e in zip(p, embedding))


def faces(shape, embedding):
    """Inward faces (a, n, |n|) of the embedded convex shape: a point a on
    the face and the inward normal n.  A d-dimensional box has 2d faces with
    unit axis normals; a polygon has one face per CCW edge ab, with n the
    edge turned left, (ay - by, bx - ax), and zero-length edges skipped."""
    if isinstance(shape, Box):
        lo, hi = embed_point(shape.lo, embedding), embed_point(shape.hi, embedding)
        out = []
        for i in range(shape.dim):
            axis = tuple(float(j == i) for j in range(shape.dim))
            out += [(lo, axis, 1.0), (hi, tuple(-c for c in axis), 1.0)]
        return out
    return polygon_faces([embed_point(v, embedding) for v in shape.vertices])


def polygon_faces(vs):
    """`faces` of the CCW polygon with embedded float vertices vs."""
    out = []
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        norm = math.hypot(ay - by, bx - ax)
        if norm:
            out.append(((ax, ay), (ay - by, bx - ax), norm))
    return out


def margin(p, faces) -> float:
    """Signed distance min ((p - a)·n)/|n| of float point p inside the convex
    shape with these `faces`: positive inside, negative outside."""
    return min((sum_left((c - ac) * nc for c, ac, nc in zip(p, a, n)) / norm
                for a, n, norm in faces), default=math.inf)


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from float point p to segment ab."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))

