"""Reference checks that share no code with what they check.

Window membership, the check on `tiling.lattice_test`: the exact
`geometry` predicates decide boxes and polygons on `Fraction` points, and
disks use the float rule: the embedded images of the points within the
radius of the embedded centre.

Diagram paths, the check on `ergodic.ergodic_vectors`: every length-k path
listed level by level, and the least upward continuation of a vertex.
"""

import math

from randtile import geometry
from randtile.errors import StructuralError


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


def paths_to(family, x, k) -> dict:
    """Every length-k diagram path along x by terminal vertex, {vertex:
    [edge tuple]}, each list in the order of its reversed edge tuples."""
    paths = {v: [()] for v in range(family.n_prototiles)}
    for level in range(1, k + 1):
        nxt = {v: [] for v in range(family.n_prototiles)}
        for parent, child, idx, _ in family.rule(x[level]).edges:
            for p in paths[child]:
                nxt[parent].append(p + ((level, parent, child, idx),))
        paths = nxt
    return paths


def upward_continuation(family, x, k, vertex, m) -> tuple:
    """The least edges from `vertex` at level k up to level m: at each level
    the first edge, in branch order, into the vertex below."""
    edges = []
    v = vertex
    for level in range(k + 1, m + 1):
        edge = next((e for e in family.rule(x[level]).edges if e[1] == v), None)
        if edge is None:
            raise StructuralError(f"vertex {v} has no outgoing edge at {level}")
        edges.append((level, *edge[:3]))
        v = edge[0]
    return tuple(edges)
