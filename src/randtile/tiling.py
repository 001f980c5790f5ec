"""Finite patches of tilings and the supertile decomposition of dilated regions.

Level-k supertiles are handled as pure translates: the supertile of type v at
level k has footprint θ_(k)^{-1}·t_v (a scaled prototile), and its children
are level-(k-1) supertiles translated by θ_(k)^{-1}·τ_branch.  Every θ is 1/q
(a rule with another θ is rejected: θ^{-d} is the Perron eigenvalue of an
integer matrix), so each θ_(k)^{-1} is an integer, and every footprint corner
and child offset lies on the lattice (1/S)·ℤ^d, S the lcm of the denominators
of the prototile corners and translations.

The anchor search, `path_offset` and the descent share one integer table
per level (`_Level`), and `SupertileSystem.counts` is the one exact table of
A_k···A_1.  Patches, decompositions and approximants come from one descent:
level by level over numpy frontiers of integer offsets (int64, or Python
ints when a coordinate bound does not fit), dropping supertiles that miss
the window, keeping those inside it and cutting the rest into their
children.  Tiles come depth first, decomposition levels from the top down,
tile multisets by ascending type.  A `Patch` keeps the integer offsets and
the scale; its exact views (`tiles`, a read-only sequence, and `shapes`)
are made from them on each access and store nothing.
`lattice_test` is the one window membership test, for the descent and for
operators and traces on punctures: exact on the integers for boxes and
convex polygons, float distances to the centre node by node for disks and
the exact `contains_shape` node by node for non-convex polygons.
`lattice_images` is the one float image of lattice points; `Fraction`
offsets appear only in `anchor`, `path_offset` and the exact views.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import geometry
from .errors import (InsufficientDataError, PartialCoverError, StructuralError,
                     UnsupportedOperationError)
from .geometry import frac, fpoint
from .substitution import RuleFamily

DEFAULT_TILE_BUDGET = 10_000_000
ANCHOR_MAX_LEVEL = 64            # anchor search: highest supertile level
ANCHOR_MAX_EXPANSIONS = 200_000  # anchor search: placements expanded


def lattice_points(grid, scale: int) -> list:
    """Exact points of the integer rows of `grid` on (1/scale)·ℤ^d."""
    return list(_lattice_stream(grid, scale))


def _lattice_stream(grid, scale: int):
    """Iterator over the exact points of the rows of `grid`, each a tuple of
    one shared `Fraction` per distinct coordinate value of its column."""
    cols = []
    for col in np.asarray(grid).T:
        values, index = np.unique(col, return_inverse=True)
        table = np.array([Fraction(c, scale) for c in values.tolist()],
                         dtype=object)
        cols.append(table[index].tolist())
    return zip(*cols)


def lattice_images(points, scale: int, embedding=None) -> np.ndarray:
    """Float images of integer points (..., d) on (1/scale)·ℤ^d, bit-identical
    to `geometry.embed_point` of the exact points: n / scale is correctly
    rounded for int64 |n| < 2^53 and for Python ints (object arrays)."""
    images = (np.asarray(points) / scale).astype(float)
    return images if embedding is None else images * np.array(
        [float(e) for e in embedding])


class CellGrid:
    """Float points (n, d) bucketed into cubic cells of side >= `side`, so
    that two points closer than the side in every coordinate share a cell
    or lie in neighbouring ones.  A cell's key is its integer coordinates
    (from 1) in mixed radix, with an empty cell of padding on every side,
    so a key plus the step of a neighbour offset never reaches another
    occupied cell.  `keys` is sorted, `order[k]` is the point of `keys[k]`,
    and `steps` holds the key step of each offset in {-1, 0, 1}^d in
    lexicographic order, the zero offset in the middle."""

    def __init__(self, points: np.ndarray, side: float):
        d = points.shape[1]
        self.origin = points.min(axis=0)
        # sides past `side` keep every cell key below 2^62
        self.side = max(side, float((points - self.origin).max())
                        * 2.0 ** (2 - 62 // d))
        cells = self._cells(points).astype(np.int64)
        self.top = cells.max(axis=0) + 1
        self.strides = np.cumprod([1, *(self.top[:-1] + 1)])
        key = cells @ self.strides
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]
        self.steps = np.array(list(itertools.product((-1, 0, 1), repeat=d))
                              ) @ self.strides

    def _cells(self, points):
        return np.floor((points - self.origin) / self.side) + 1

    def key(self, points: np.ndarray) -> np.ndarray:
        """Cell keys of any points.  A point past the padding is clamped
        onto it, so its cell and its neighbours are cells of the grid, and
        they hold every grid point within one side of it, maybe more."""
        cells = np.clip(self._cells(points), 0, self.top)
        return cells.astype(np.int64) @ self.strides

    def near(self, keys: np.ndarray, steps: np.ndarray):
        """(query, point, step): every grid point in cell keys[query] +
        steps[step], as index arrays, by step, then query, then key order.
        Sorted `keys` make each step's searches walk forward."""
        target = (keys + steps[:, None]).ravel()
        start = np.searchsorted(self.keys, target, "left")
        count = np.searchsorted(self.keys, target, "right") - start
        run = np.repeat(np.arange(len(target)), count)
        at = np.repeat(start - np.cumsum(count) + count, count)
        step, query = np.divmod(run, len(keys))
        return query, self.order[at + np.arange(len(run))], step


def _checked(family: RuleFamily, types, offsets, scale):
    """(types, offsets) as n type ids and an (n, d) array of `_int_dtype`."""
    types, offsets = np.asarray(types, dtype=np.int64), np.asarray(offsets)
    if (offsets.ndim != 2 or offsets.shape[1] != family.dim
            or offsets.dtype.kind not in "iuO" or types.shape != offsets.shape[:1]):
        raise StructuralError(
            f"want n type ids and an (n, {family.dim}) integer array for "
            f"{family.name}, got {types.shape} and {offsets.dtype} {offsets.shape}")
    if len(types) and not 0 <= types.min() <= types.max() < family.n_prototiles:
        raise StructuralError(f"type ids must lie in [0, {family.n_prototiles}), "
                              f"got {types.min()}..{types.max()}")
    if not (isinstance(scale, int) and scale >= 1):
        raise StructuralError(f"lattice scale must be an int >= 1, got {scale!r}")
    return types, offsets.astype(_int_dtype(int(np.abs(offsets).max(initial=0))))


class Patch:
    """Placed tiles: prototile types[i] translated by offsets[i] / scale, with
    integer offsets of shape (n, d).  `tiles` is the exact view of the same
    tiles, (type, offset tuple), made on each access and storing nothing."""

    def __init__(self, types, offsets, scale: int, family: RuleFamily):
        self.types, self.offsets = _checked(family, types, offsets, scale)
        self.scale, self.family = scale, family

    def __len__(self):
        return len(self.types)

    @property
    def tiles(self) -> TileView:
        return TileView(self)

    def placed(self, points):
        """(scale', array): the exact points points[t] placed at every tile of
        type t, integers (n, c, d) on a refinement (1/scale')·ℤ^d of the
        lattice, int64 or Python ints as `_int_dtype` of their bound."""
        scale, table = _point_table(points, self.scale)
        step = scale // self.scale
        dtype = _int_dtype(int(np.abs(self.offsets).max(initial=0)) * step
                           + int(np.abs(table).max(initial=0)))
        offsets = self.offsets.astype(dtype) * step
        return scale, offsets[:, None] + table.astype(dtype)[self.types]

    def multiset(self) -> Counter:
        """Tiles per type, keyed in ascending type order."""
        return Counter({t: c for t, c in
                        enumerate(np.bincount(self.types).tolist()) if c})

    def shapes(self):
        """The exact tiles, built from the integer corners that `placed` gives
        for each prototile's defining points: polygon vertices, box lo and hi."""
        protos = [p.shape for p in self.family.prototiles]
        points = [[s.lo, s.hi] if isinstance(s, geometry.Box)
                  else s.vertices_list() for s in protos]
        scale, corners = self.placed(points)
        _, c, d = corners.shape
        rows = _lattice_stream(corners.reshape(-1, d), scale)
        for t, pts in zip(self.types.tolist(), zip(*[rows] * c)):
            s = protos[t]
            yield (geometry.Box(*pts[:2]) if isinstance(s, geometry.Box) else
                   geometry.Polygon._trusted(pts[:len(points[t])], s.convex))

    def total_volume(self) -> Fraction:
        return sum((c * self.family.prototiles[t].volume
                    for t, c in self.multiset().items()), Fraction(0))


class TileView(Sequence):
    """Read-only exact view of a patch's tiles, (type, offset tuple) per tile:
    an item comes from one row of the integer offsets, a slice is a list, and
    iteration streams the tiles over one shared `Fraction` per distinct
    coordinate.  Equal to any sequence of the same tiles."""

    __slots__ = ("_patch",)

    def __init__(self, patch: Patch):
        self._patch = patch

    def __len__(self):
        return len(self._patch.types)

    def __getitem__(self, i):
        p = self._patch
        if isinstance(i, slice):
            return list(zip(p.types[i].tolist(),
                            _lattice_stream(p.offsets[i], p.scale)))
        return (int(p.types[i]),
                tuple(Fraction(c, p.scale) for c in p.offsets[i].tolist()))

    def __iter__(self):
        p = self._patch
        return zip(p.types.tolist(), _lattice_stream(p.offsets, p.scale))

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))


def _float_image(name, x) -> float:
    """float(x), or a StructuralError naming `name` when the float image of
    x is not finite: an exact value of 2^1024 or more, an inf or a NaN."""
    try:
        f = float(x)
    except OverflowError:
        raise StructuralError(f"{name} (about 2^{int(abs(x)).bit_length()}) "
                              "is past the float range") from None
    if not math.isfinite(f):
        raise StructuralError(f"{name} {f!r} is not a finite number")
    return f


@dataclass(frozen=True)
class Region:
    """A good Lipschitz region: disk, box, or convex polygon, with dilation T.

    Box/polygon coordinates are in family coordinate units (exact rationals);
    disks are Euclidean (center in coordinate units, radius through the
    embedding).
    """

    kind: str                        # "disk" | "box" | "polygon"
    center: tuple = None             # disk
    radius: float = None             # disk
    corner: tuple = None             # box
    widths: tuple = None             # box
    vertices: tuple = None           # polygon
    dilation: Fraction = Fraction(1)

    def __post_init__(self):
        t = frac(self.dilation)
        object.__setattr__(self, "dilation", t)
        if t <= 0:
            raise StructuralError(f"dilation {t} is not positive")
        _float_image("dilation", t)
        if self.kind == "disk":
            if self.center is None or self.radius is None:
                raise StructuralError("disk region needs center and radius")
            radius = _float_image("disk radius", self.radius)
            if not radius > 0:
                raise StructuralError(f"disk radius {radius!r} is not a "
                                      "positive finite number")
            _float_image("dilated disk radius", float(t) * radius)
            object.__setattr__(self, "radius", radius)
            object.__setattr__(self, "center", fpoint(self.center))
            name, points = "disk center", [self.center]
        elif self.kind == "box":
            if self.corner is None or self.widths is None:
                raise StructuralError("box region needs corner and widths")
            object.__setattr__(self, "corner", fpoint(self.corner))
            object.__setattr__(self, "widths", fpoint(self.widths))
            name, points = "box corner", [
                self.corner, geometry.vadd(self.corner, self.widths)]
        elif self.kind == "polygon":
            if self.vertices is None:
                raise StructuralError("polygon region needs vertices")
            object.__setattr__(self, "vertices",
                               tuple(fpoint(v) for v in self.vertices))
            name, points = "polygon vertex", self.vertices
        else:
            raise StructuralError(f"unknown region kind {self.kind!r}")
        for c in itertools.chain.from_iterable(points):
            _float_image(f"dilated {name} coordinate", t * c)

    @staticmethod
    def disk(center, radius, dilation=1) -> "Region":
        return Region("disk", center=center, radius=radius, dilation=dilation)

    @staticmethod
    def box(corner, widths, dilation=1) -> "Region":
        return Region("box", corner=corner, widths=widths, dilation=dilation)

    @staticmethod
    def unit_square(dilation=1) -> "Region":
        return Region("box", corner=(0, 0), widths=(1, 1), dilation=dilation)

    @staticmethod
    def polygon(vertices, dilation=1) -> "Region":
        return Region("polygon", vertices=vertices, dilation=dilation)

    def dilated(self, extra=1) -> "Region":
        return Region(self.kind, center=self.center, radius=self.radius,
                      corner=self.corner, widths=self.widths,
                      vertices=self.vertices,
                      dilation=self.dilation * frac(extra))

    @property
    def dim(self) -> int:
        return len(self.center) if self.kind == "disk" else self.shape().dim

    def shape(self):
        """Exact shape for box/polygon regions (dilation applied, cached)."""
        if "_shape" not in self.__dict__:
            self.__dict__["_shape"] = self._build_shape()
        return self.__dict__["_shape"]

    def embedded_disk(self, embedding=None):
        """Embedded centre and Euclidean radius of the dilated disk (cached)."""
        cache = self.__dict__.setdefault("_disk_cache", {})
        if embedding not in cache:
            cache[embedding] = (
                geometry.embed_point(
                    geometry.vscale(self.dilation, self.center), embedding),
                float(self.dilation) * self.radius)
        return cache[embedding]

    def __str__(self):
        nums = ((*self.center, self.radius) if self.kind == "disk" else
                (*self.corner, *self.widths) if self.kind == "box" else
                [c for v in self.vertices for c in v])
        return f"{self.kind}:{','.join(map(str, nums))} dilated by {self.dilation}"

    def bbox(self, embedding):
        """Coordinate bounding box (lo, hi); a disk's is rounded out to ints."""
        if self.kind != "disk":
            return self.shape().bbox()
        (c, r), e = self.embedded_disk(embedding), embedding or (1,) * self.dim
        return ([math.floor((ci - r) / ei) for ci, ei in zip(c, e)],
                [math.ceil((ci + r) / ei) for ci, ei in zip(c, e)])

    def _build_shape(self):
        t = self.dilation
        if self.kind == "box":
            lo = geometry.vscale(t, self.corner)
            hi = geometry.vscale(t, geometry.vadd(self.corner, self.widths))
            return geometry.Box(lo, hi)
        if self.kind == "polygon":
            return geometry.Polygon([geometry.vscale(t, v) for v in self.vertices])
        raise UnsupportedOperationError("disk regions have no exact shape")

    def contains_window(self, footprint, embedding=None) -> bool:
        """Is the dilated region contained in the convex footprint shape?"""
        if self.kind == "disk":
            c, r = self.embedded_disk(embedding)
            return geometry.margin(
                c, geometry.faces(footprint, embedding)) >= r - 1e-12
        return footprint.contains_shape(self.shape())


def _disk_meets(c, r, lo, hi) -> bool:
    """Does the disk (c, r) meet the box [lo, hi]?  All embedded floats."""
    d2 = 0.0
    for ci, l, h in zip(c, lo, hi):
        if ci < l:
            d2 += (l - ci) ** 2
        elif ci > h:
            d2 += (ci - h) ** 2
    return d2 <= r * r


@dataclass
class DecompositionReport:
    """Greedy supertile decomposition of a dilated region."""

    counts: dict                   # level i -> counts per type, top level first
    boundary_skipped: int
    volume_covered: Fraction
    anchor_level: int

    def total_count(self, level: int) -> int:
        return sum(self.counts.get(level, []))


def decomposition_tile_multiset(report: DecompositionReport,
                                family: RuleFamily, x) -> Counter:
    """Level-0 tile-type multiset of all supertiles in the report,
    Σ_i κ^(i)·A_i···A_1, keyed in ascending type order."""
    system = SupertileSystem(family, x)
    total = sum((np.array(kappa, dtype=object) @ system.counts(level)
                 for level, kappa in report.counts.items()),
                np.zeros(family.n_prototiles, dtype=object))
    return Counter({t: c for t, c in enumerate(total.tolist()) if c})


def _point_table(points, scale: int):
    """(scale', table): the point lists as an (m, c, d) object array of ints
    on the coarsest refinement (1/scale')·ℤ^d of (1/scale)·ℤ^d holding them,
    each list's last point repeated up to c points."""
    scale = math.lcm(scale, *(c.denominator for v in points for p in v
                              for c in p))
    c = max(map(len, points))
    return scale, np.array([[[int(x * scale) for x in p]
                             for p in v + v[-1:] * (c - len(v))]
                            for v in points], dtype=object)


def _int_dtype(bound: int):
    """int64 while a cross product (|.| <= 8·bound²) fits, else Python ints."""
    return np.int64 if bound < 2 ** 30 else object


def lattice_test(window: Region, scale: int, corners, embedding):
    """(meets, inside) of the nodes with integer corners (n, c, d) on
    (1/scale)·ℤ^d, each counterclockwise; a point is a node with one corner.
    `meets`: the node's bounding box meets the window's (a disk's: the
    disk); `inside`: the node lies in the dilated window.  Exact on the
    integers for boxes and convex polygons; disks test the float images of
    the corners, each within the radius of the centre, and non-convex
    polygons decide each node that meets them exactly, by `contains_shape`
    (corner by corner below three corners)."""
    shape = None if window.kind == "disk" else window.shape()
    verts = shape.vertices_list() if shape is not None else []
    full = math.lcm(scale, *(c.denominator for p in verts for c in p))
    win = [[int(c * full) for c in p] for p in verts]
    dtype = _int_dtype(max([int(np.abs(corners).max(initial=0)) * (full // scale),
                            *(abs(c) for p in win for c in p)]))
    pts = corners.astype(dtype) * (full // scale)
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    if shape is not None:
        win = np.array(win, dtype=object).astype(dtype)
        wlo, whi = win.min(axis=0), win.max(axis=0)
        meets = (lo <= whi).all(axis=1) & (hi >= wlo).all(axis=1)
        if window.kind == "box":
            return meets, (lo >= wlo).all(axis=1) & (hi <= whi).all(axis=1)
        if shape.convex:
            px, py = pts[..., 0], pts[..., 1]
            inside = meets.copy()
            for (ax, ay), (bx, by) in zip(win, np.roll(win, -1, axis=0)):
                inside &= ((bx - ax) * (py - ay)
                           - (by - ay) * (px - ax) >= 0).all(axis=1)
            return meets, inside
    else:
        c, r = window.embedded_disk(embedding)
        lo, hi, pts = (lattice_images(a, full, embedding).tolist()
                       for a in (lo, hi, pts))
        meets = [_disk_meets(c, r, l, h) for l, h in zip(lo, hi)]
        inside = [m and all(math.dist(p, c) <= r for p in node)
                  for m, node in zip(meets, pts)]
        return np.array(meets, dtype=bool), np.array(inside, dtype=bool)
    # a node of three corners or more is a counterclockwise image of a
    # validated prototile: trusted, its convexity found on the int corners
    _, c, d = pts.shape
    rows = pts.tolist()
    exact = lattice_points(pts.reshape(-1, d), full)
    inside = np.zeros(len(meets), dtype=bool)
    for i in np.flatnonzero(meets).tolist():
        distinct = dict(zip(map(tuple, rows[i]), exact[i * c:(i + 1) * c]))
        node = list(distinct.values())
        inside[i] = (shape.contains_shape(geometry.Polygon._trusted(
                        node, geometry._is_convex(list(distinct))))
                     if len(node) >= 3 else
                     all(shape.contains_point(p) for p in node))
    return meets, inside


@dataclass
class _Level:
    """Integer tables of one level on (1/scale)·ℤ^d: the footprint `corners`
    of every type (`_point_table`); the children of every parent type in
    branch order, `start`/`count` locating each parent's run; `step` bounds
    |child delta|; `faces`, by type, the embedded faces of the exact
    footprint at the origin (filled by `SupertileSystem.margin`)."""

    corners: np.ndarray
    child_type: np.ndarray
    child_delta: np.ndarray
    start: np.ndarray
    count: np.ndarray
    step: int
    faces: dict = field(default_factory=dict)


class SupertileSystem:
    """Cached supertile data for (family, x): θ products and the integer
    `_Level` tables that the anchor search, `path_offset` and the descent
    share, and the anchors found per window.  Offsets are integers on
    (1/scale)·ℤ^d inside; only `anchor` and `path_offset` return Fractions."""

    def __init__(self, family: RuleFamily, x):
        self.family = family
        self.x = x
        self._theta_inv = [Fraction(1)]  # θ_(k)^{-1}
        self._counts = [np.eye(family.n_prototiles, dtype=object)]
        self._levels = []              # level -> _Level
        self._anchors = {}             # window -> (k, v, offset, edges)
        self._volumes = family.volumes()
        # every footprint corner and child delta lies on (1/scale)·ℤ^d,
        # because each θ_(k)^{-1} is an integer
        self.scale = math.lcm(*(
            c.denominator for p in family.prototiles
            for corner in p.shape.vertices_list() for c in corner), *(
            c.denominator for r in family.rules if r.is_geometric
            for b in r.branches for c in b.tau))

    def rule_at(self, level: int):
        return self.family.rule(self.x[level])

    def theta_inv(self, k: int) -> Fraction:
        """θ_(k)^{-1} = θ_1^{-1}···θ_k^{-1}, exact, for any rules (cached)."""
        if k < 0:
            raise StructuralError(f"level {k} is negative")
        while len(self._theta_inv) <= k:
            self._theta_inv.append(
                self._theta_inv[-1] / self.rule_at(len(self._theta_inv)).theta)
        return self._theta_inv[k]

    def counts(self, k: int) -> np.ndarray:
        """A_k···A_1 in Python ints, for any rules (cached, read-only): row v
        counts the level-0 tiles of each type in a level-k type-v supertile."""
        if k < 0:
            raise StructuralError(f"level {k} is negative")
        while len(self._counts) <= k:
            a = self.family.matrix(self.x[len(self._counts)]).astype(object)
            self._counts.append(a @ self._counts[-1])
        self._counts[k].flags.writeable = False
        return self._counts[k]

    def volume(self, k: int, v: int) -> Fraction:
        return self._volumes[v] * self.theta_inv(k) ** self.family.dim

    def _exact(self, offset) -> tuple:
        """The exact point of an integer offset on (1/scale)·ℤ^d."""
        return tuple(Fraction(c, self.scale) for c in offset)

    def _shape(self, k: int, v: int, offset):
        """Exact footprint of the level-k type-v supertile at an integer offset."""
        return self.family.prototiles[v].shape.transform(
            self.theta_inv(k), self._exact(offset))

    def _level(self, k: int) -> _Level:
        """The integer tables of level k (cached); a matrix-only rule or a θ
        other than 1/q at or below it raises UnsupportedOperationError."""
        while len(self._levels) <= k:
            lvl = len(self._levels)
            m = self.family.n_prototiles
            if lvl == 0:
                branches, ti = (), 1
                corners = _point_table([p.shape.vertices_list() for p in
                                        self.family.prototiles], self.scale)[1]
            else:
                rule = self.rule_at(lvl)
                if not rule.is_geometric:
                    raise UnsupportedOperationError(
                        f"rule {rule.id} at level {lvl} is matrix-only")
                if rule.theta.numerator != 1:
                    raise UnsupportedOperationError(
                        f"rule {rule.id} at level {lvl}: θ = {rule.theta} is "
                        f"not 1/q, so its supertiles leave the integer lattice")
                branches = rule.branches                 # grouped by parent
                ti = int(self.theta_inv(lvl))
                corners = self._levels[0].corners * ti
            # θ_(lvl)^{-1}·τ·scale, in integers: each τ denominator divides scale
            delta = [[ti * c.numerator * (self.scale // c.denominator)
                      for c in b.tau] for b in branches]
            count = np.bincount([b.parent for b in branches],
                                minlength=m).astype(np.int64)
            self._levels.append(_Level(
                corners=corners,
                child_type=np.array([b.child for b in branches], dtype=np.int64),
                child_delta=np.array(delta, dtype=object).reshape(
                    len(branches), self.family.dim),
                start=np.cumsum(count) - count, count=count,
                step=max((abs(c) for p in delta for c in p), default=0)))
        return self._levels[k]

    def margin(self, k: int, v: int, image, pts) -> float:
        """Min signed distance of window extreme points inside the footprint
        of (k, v) at an offset with the float image `image` (`lattice_images`);
        negative means some point sticks out."""
        faces = self._level(k).faces
        if v not in faces:
            faces[v] = geometry.faces(
                self._shape(k, v, (0,) * self.family.dim), self.family.embedding)
        return min(geometry.margin(tuple(c - o for c, o in zip(p, image)),
                                   faces[v]) - pad for p, pad in pts)

    def anchor(self, window: Region):
        """Grow an anchored supertile until its footprint contains the window.

        Returns (level, vertex, offset, path_edges); path_edges are the chosen
        diagram edges (level, parent, child, branch index).  Footprints are
        nested along ancestor chains, so the window margin is monotone
        non-decreasing up any path; best-first search on the margin therefore
        finds a covering placement whenever one exists.  The search moves
        integer offsets up a level by the rows of `child_delta`, which are in
        the branch order of the rule's edges.  The search depends on the
        system and the window alone: a found anchor is kept per window (a
        failed search is not), and each call returns a fresh edge list.
        """
        _check_dim(window, self.family)
        if kept := self._anchors.get(window):
            return (*kept[:3], list(kept[3]))
        emb = self.family.embedding
        pts = _window_extremes(window, emb)
        offset0 = (0,) * self.family.dim
        heap = [(-self.margin(0, 0, (0.0,) * self.family.dim, pts), 0, 0, 0,
                 offset0, ())]
        visited = {(0, 0, offset0)}
        tick, deepest = 1, 0
        while heap and tick <= ANCHOR_MAX_EXPANSIONS:
            neg_m, _, k, v, offset, edges = heapq.heappop(heap)
            if -neg_m >= 0 and window.contains_window(
                    self._shape(k, v, offset), emb):
                kept = self._anchors[window] = k, v, self._exact(offset), edges
                return (*kept[:3], list(edges))
            lvl = k + 1
            deepest = max(deepest, k)
            if lvl > min(len(self.x), ANCHOR_MAX_LEVEL):
                continue
            new = []
            for (parent, child, idx, _), delta in zip(
                    self.rule_at(lvl).edges, self._level(lvl).child_delta):
                if child != v:
                    continue
                o = tuple(a - b for a, b in zip(offset, delta))
                if (lvl, parent, o) in visited:
                    continue
                visited.add((lvl, parent, o))
                new.append((parent, o, idx))
            images = lattice_images(np.array(
                [o for _, o, _ in new], dtype=object).reshape(-1, len(offset)),
                self.scale, emb).tolist()
            for (parent, o, idx), image in zip(new, images):
                heapq.heappush(heap, (-self.margin(lvl, parent, image, pts),
                                      tick, lvl, parent, o,
                                      edges + ((lvl, parent, v, idx),)))
                tick += 1
        if not heap:
            raise InsufficientDataError(
                f"sequence too short to cover the window "
                f"(explored up to level {deepest})")
        raise InsufficientDataError(
            "window not covered within the expansion budget")

    def path_offset(self, edges, shift: int = 0):
        """Offset of a path's level-0 tile inside the supertile the path
        reaches: o = -Σ θ_(level)^{-1}·τ_edge, every level raised by `shift`.
        An edge that the shifted level's rule lacks raises StructuralError."""
        offset = (0,) * self.family.dim
        for level, parent, child, index in edges:
            lvl = level + shift
            deltas = self._level(lvl).child_delta
            row = next((i for i, e in enumerate(self.rule_at(lvl).edges)
                        if e[:3] == (parent, child, index)), None)
            if row is None:
                raise StructuralError(
                    f"no edge {parent}<-{child} with branch index {index} at "
                    f"level {lvl} (path level {level} shifted by {shift})")
            offset = tuple(a - b for a, b in zip(offset, deltas[row]))
        return self._exact(offset)

    def expand(self, k: int, v: int, offset, window: Region = None) -> Patch:
        """The level-0 tiles, depth first, of the level-k type-v supertile at
        `offset` (those inside `window`, if given).  A frontier past the
        tile budget raises PartialCoverError, as every descent does."""
        found, _ = self._descend(window, k, v, offset, whole=True)
        _, types, offs = found[0] if found else (  # one level: level 0
            0, [], np.zeros((0, self.family.dim), dtype=np.int64))
        return Patch(types, offs, self.scale, self.family)

    def _descend(self, window, k: int, v: int, offset, whole=False):
        """The one supertile descent: level by level from the level-k type-v
        supertile at `offset`, a point of (1/scale)·ℤ^d, down to level 0.

        A frontier holds node types and integer offsets on (1/scale)·ℤ^d in
        depth-first (lexicographic path) order, which the stable expansion
        into children keeps.  `lattice_test` drops nodes missing the window
        and marks those inside it (window None contains everything).  The
        descent stops at inside supertiles, or, if `whole`, expands them
        down to level 0.  Its one budget: a child frontier past
        DEFAULT_TILE_BUDGET nodes is refused (PartialCoverError) before it
        is built.  Offsets use int64 when every coordinate and cross product
        fits, Python ints otherwise; a node of Python ints takes about 6
        times the memory and counts 8 times.

        Returns (found, boundary): found lists (level, types, offsets) of the
        inside nodes where the descent stopped, one entry per level that has
        any, from the top level down; boundary counts the level-0 nodes the
        window boundary cuts.
        """
        if window is not None:
            _check_dim(window, self.family)
        origin = [frac(c) * self.scale for c in offset]
        if any(c.denominator != 1 for c in origin):
            raise StructuralError(f"offset ({', '.join(map(str, offset))}) is "
                                  f"off the lattice (1/{self.scale})·ℤ^d")
        origin = [int(c) for c in origin]
        levels = [self._level(j) for j in range(k + 1)]
        dtype = _int_dtype(max(map(abs, origin)) + sum(lv.step for lv in levels)
                           + max(int(np.abs(lv.corners).max()) for lv in levels))
        types = np.array([v], dtype=np.int64)
        offs = np.array([origin], dtype=object).astype(dtype)
        inside = np.array([window is None])
        found = []
        for level in range(k, -1, -1):
            if level < k:
                up = levels[level + 1]
                count = up.count[types]
                if count.sum() * (1 if dtype is np.int64 else 8
                                  ) > DEFAULT_TILE_BUDGET:
                    name = (f"window {window}" if window is not None else
                            f"the level-{k} type-{v} supertile")
                    raise PartialCoverError(
                        f"{name} needs more than 10^"
                        f"{math.log10(DEFAULT_TILE_BUDGET):g} nodes at level "
                        f"{level}")
                parent = np.repeat(np.arange(len(types)), count)
                pos = np.arange(len(parent)) + np.repeat(
                    up.start[types] - (np.cumsum(count) - count), count)
                types = up.child_type[pos]
                offs = offs[parent] + up.child_delta.astype(dtype)[pos]
                inside = inside[parent]
            todo = np.flatnonzero(~inside)
            if len(todo):
                corners = offs[todo, None] + levels[level].corners.astype(
                    dtype)[types[todo]]
                meets, inside[todo] = lattice_test(window, self.scale, corners,
                                                   self.family.embedding)
                keep = np.ones(len(types), dtype=bool)
                keep[todo] = meets
                types, offs, inside = (a[keep] for a in (types, offs, inside))
            if (not whole or level == 0) and inside.any():
                found.append((level, types[inside], offs[inside]))
                types, offs, inside = (a[~inside] for a in
                                       (types, offs, inside))
        return found, len(types)


def supertile_system(family: RuleFamily, x, system=None) -> SupertileSystem:
    """`system`, or a new one for (family, x) when it is None.  A system
    built for another family (compared by identity, as `RuleFamily`
    equality compares shapes by identity) or another sequence raises
    StructuralError."""
    if system is None:
        return SupertileSystem(family, x)
    if system.family is not family:
        raise StructuralError(f"the supertile system was built for another "
                              f"family ({system.family.name}) than "
                              f"{family.name}")
    if system.x != x:
        raise StructuralError("the supertile system was built for another "
                              "sequence")
    return system


def _window_extremes(window: Region, embedding):
    """Embedded extreme points (and radius padding) describing the window."""
    if window.kind == "disk":
        return [window.embedded_disk(embedding)]
    return [(geometry.embed_point(v, embedding), 0.0)
            for v in window.shape().vertices_list()]


def _check_dim(window: Region, family: RuleFamily):
    """A window of another dimension than the family's is a StructuralError;
    the anchor search and the descent, which read every window, call it."""
    if window.dim != family.dim:
        raise StructuralError(
            f"{window.dim}-D window for the {family.dim}-D family {family.name}")


def _anchored(family: RuleFamily, x, window: Region, system, anchor):
    """The supertile system and the (level, vertex, offset) covering window."""
    system = supertile_system(family, x, system)
    if anchor is None:
        anchor = system.anchor(window)
    return system, tuple(anchor[:3])


def generate_patch(family: RuleFamily, x, window: Region,
                   system: SupertileSystem = None, anchor=None) -> Patch:
    """All tiles of the anchored tiling hierarchy lying entirely inside window.

    `anchor` fixes the covering supertile as (level, vertex, offset), so
    several windows can be cut from one coherent hierarchy.  A descent
    frontier past `DEFAULT_TILE_BUDGET` nodes raises PartialCoverError.
    """
    system, top = _anchored(family, x, window, system, anchor)
    return system.expand(*top, window)


def decompose_region(family: RuleFamily, x, b_region: Region, t_dilation,
                     system: SupertileSystem = None,
                     anchor=None) -> DecompositionReport:
    """Greedy top-down decomposition of T·B into maximal supertiles.

    `anchor` fixes the ambient supertile as (level, vertex, offset) so the
    decomposition refers to the same hierarchy as a previously generated
    patch.
    """
    window = b_region.dilated(t_dilation)
    system, (level, vertex, offset) = _anchored(family, x, window, system,
                                                anchor)
    found, boundary = system._descend(window, level, vertex, offset)
    n = family.n_prototiles
    counts = {k: np.bincount(types, minlength=n).tolist()
              for k, types, _ in found}
    covered = sum((c * system.volume(k, v) for k, row in counts.items()
                   for v, c in enumerate(row) if c), Fraction(0))
    return DecompositionReport(counts=counts, boundary_skipped=boundary,
                               volume_covered=covered, anchor_level=level)
