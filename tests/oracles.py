"""Reference window membership, the tests' check on `tiling.lattice_test`.

The exact `geometry` predicates decide boxes and polygons on `Fraction`
points, and disks use the float rule: the embedded images of the points
within the radius of the embedded centre.  Nothing here shares code with
the integer test it checks.
"""

import math

from randtile import geometry


def inside(window, points, embedding=None) -> bool:
    """Do all exact `points` lie in the dilated window?

    For a convex window (a box or a convex polygon) this decides the convex
    hull of the points, hence any tile with those corners; a non-convex
    polygon decides three or more corners by `contains_shape` on their
    validated `Polygon`, fewer one by one."""
    if window.kind == "disk":
        c, r = window.embedded_disk(embedding)
        return all(math.dist(geometry.embed_point(p, embedding), c) <= r
                   for p in points)
    shape = window.shape()
    if isinstance(shape, geometry.Box) or shape.convex or len(points) < 3:
        return all(shape.contains_point(p) for p in points)
    return shape.contains_shape(geometry.Polygon(points))


def meets_bbox(window, lo, hi, embedding=None) -> bool:
    """Does the dilated window meet the box [lo, hi] of exact corners?  A
    box or polygon by its exact bounding box, a disk by the float squared
    distance from its embedded centre to the embedded box."""
    if window.kind != "disk":
        wlo, whi = window.shape().bbox()
        return all(l <= wh and wl <= h
                   for l, h, wl, wh in zip(lo, hi, wlo, whi))
    c, r = window.embedded_disk(embedding)
    lo, hi = (geometry.embed_point(p, embedding) for p in (lo, hi))
    d2 = 0.0
    for ci, l, h in zip(c, lo, hi):
        if ci < l:
            d2 += (l - ci) ** 2
        elif ci > h:
            d2 += (ci - h) ** 2
    return d2 <= r * r
