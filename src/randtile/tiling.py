"""Finite patches of tilings and the supertile decomposition of dilated regions.

Level-k supertiles are handled as pure translates: the supertile of type v at
level k has footprint θ_(k)^{-1}·t_v (a scaled prototile), and its children
are level-(k-1) supertiles translated by θ_(k)^{-1}·τ_branch.  Every θ is 1/q
(a rule with another θ is rejected: θ^{-d} is the Perron eigenvalue of an
integer matrix), so each θ_(k)^{-1} is an integer, and every footprint corner
and child offset lies on the lattice (1/S)·ℤ^d, S the lcm of the denominators
of the prototile corners and translations.

Patches, decompositions and approximants come from one descent on that
lattice: level by level over numpy frontiers of integer offsets (int64, or
Python ints when a coordinate bound does not fit), dropping supertiles that
miss the window, keeping those inside it and cutting the rest into their
children.  Box and convex polygon windows are decided exactly on the
integers; disks (float distances through the family embedding) and
non-convex polygons (exact Fraction geometry) use the Region predicates on
the frontier only.  Tile offsets leave the module as tuples of Fraction.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry
from .errors import (InsufficientDataError, PartialCoverError, StructuralError,
                     UnsupportedOperationError)
from .geometry import frac, fpoint
from .substitution import RuleFamily

DEFAULT_TILE_BUDGET = 10_000_000
ANCHOR_MAX_LEVEL = 64            # anchor search: highest supertile level
ANCHOR_MAX_EXPANSIONS = 200_000  # anchor search: placements expanded
# Tile counts per supertile are capped here: a capped count is still a lower
# bound for the budget cut, and a frontier's int64 running sum cannot wrap.
_LEAF_CAP = 2 ** 31


@dataclass
class Patch:
    """A finite set of placed tiles: (prototile id, translation)."""

    tiles: list                      # list of (type, offset tuple of Fraction)
    family: Optional[RuleFamily] = None

    def __len__(self):
        return len(self.tiles)

    def multiset(self) -> Counter:
        return Counter(t for t, _ in self.tiles)

    def shapes(self):
        if self.family is None:
            raise UnsupportedOperationError("patch has no family attached")
        for t, off in self.tiles:
            yield self.family.prototiles[t].shape.translate(off)

    def total_volume(self) -> Fraction:
        if self.family is None:
            raise UnsupportedOperationError("patch has no family attached")
        vols = [p.volume for p in self.family.prototiles]
        return sum((c * vols[t] for t, c in self.multiset().items()),
                   Fraction(0))

    def placed_set(self):
        return {(t, off) for t, off in self.tiles}


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
        object.__setattr__(self, "dilation", frac(self.dilation))
        if self.kind == "disk":
            if self.center is None or self.radius is None:
                raise StructuralError("disk region needs center and radius")
            object.__setattr__(self, "center", fpoint(self.center))
        elif self.kind == "box":
            if self.corner is None or self.widths is None:
                raise StructuralError("box region needs corner and widths")
            object.__setattr__(self, "corner", fpoint(self.corner))
            object.__setattr__(self, "widths", fpoint(self.widths))
        elif self.kind == "polygon":
            if self.vertices is None:
                raise StructuralError("polygon region needs vertices")
            object.__setattr__(self, "vertices",
                               tuple(fpoint(v) for v in self.vertices))
        else:
            raise StructuralError(f"unknown region kind {self.kind!r}")

    @staticmethod
    def disk(center, radius, dilation=1) -> "Region":
        return Region("disk", center=center, radius=float(radius),
                      dilation=dilation)

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

    def _build_shape(self):
        t = self.dilation
        if self.kind == "box":
            lo = geometry.vscale(t, self.corner)
            hi = geometry.vscale(t, geometry.vadd(self.corner, self.widths))
            return geometry.Box(lo, hi)
        if self.kind == "polygon":
            return geometry.Polygon([geometry.vscale(t, v) for v in self.vertices])
        raise UnsupportedOperationError("disk regions have no exact shape")

    def volume(self, embedding=None) -> float:
        if self.kind == "disk":
            r = float(self.dilation) * self.radius
            return math.pi * r * r
        vol = float(self.shape().volume())
        if embedding is not None:
            for e in embedding:
                vol *= float(e)
        return vol

    def boundary_measure(self, embedding=None) -> float:
        """Euclidean boundary measure of the dilation: the facet measures of
        a box summed (the endpoint count 2 when d = 1), or a polygon's
        perimeter, the sum of its face normal lengths."""
        if self.kind == "disk":
            return 2 * math.pi * float(self.dilation) * self.radius
        shape = self.shape()
        if isinstance(shape, geometry.Box):
            lo, hi = (geometry.embed_point(c, embedding) for c in shape.bbox())
            w = [h - l for l, h in zip(lo, hi)]
            return sum(2.0 * math.prod(w[:i] + w[i + 1:]) for i in range(len(w)))
        return sum(norm for _, _, norm in geometry.faces(shape, embedding))

    # -- containment of tiles -------------------------------------------

    def contains_points(self, pts, embedding=None) -> bool:
        """Are all points inside the dilated region?  Exact for box/polygon.

        For a convex region this decides containment of the convex hull of
        `pts`, hence of any tile with those vertices; a non-convex region
        decides fewer than three points one by one.
        """
        if self.kind == "disk":
            c, r = self.embedded_disk(embedding)
            return all(math.dist(geometry.embed_point(p, embedding), c) <= r
                       for p in pts)
        shape = self.shape()
        if isinstance(shape, geometry.Box):
            return all(
                all(l <= c <= h for c, l, h in zip(p, shape.lo, shape.hi))
                for p in pts)
        if shape.convex or len(pts) < 3:
            return all(shape.contains_point(p) for p in pts)
        # non-convex region: exact volume-based containment
        poly = geometry.Polygon(pts)
        return shape.contains_shape(poly)

    def intersects_bbox(self, lo, hi, embedding=None) -> bool:
        """Cheap reject: does the dilated region possibly meet bbox [lo,hi]?"""
        if self.kind == "disk":
            c, r = self.embedded_disk(embedding)
            d2 = 0.0
            loe = geometry.embed_point(lo, embedding)
            hie = geometry.embed_point(hi, embedding)
            for ci, l, h in zip(c, loe, hie):
                if ci < l:
                    d2 += (l - ci) ** 2
                elif ci > h:
                    d2 += (ci - h) ** 2
            return d2 <= r * r
        rlo, rhi = self.shape().bbox()
        return all(l <= rh and rl <= h
                   for l, h, rl, rh in zip(lo, hi, rlo, rhi))

    def contains_window(self, footprint, embedding=None) -> bool:
        """Is the dilated region contained in the convex footprint shape?"""
        if self.kind == "disk":
            c, r = self.embedded_disk(embedding)
            return geometry.margin(
                c, geometry.faces(footprint, embedding)) >= r - 1e-12
        return footprint.contains_shape(self.shape())


@dataclass
class DecompositionReport:
    """Greedy supertile decomposition of a dilated region."""

    n: int                         # top level with nonzero counts (-1 if empty)
    counts: dict                   # level i -> list of counts per type
    boundary_skipped: int
    volume_covered: Fraction
    theta_products: list           # θ_(i) for i = 0..top ancestor level
    fitted_K2: Optional[float]
    anchor_level: int

    def total_count(self, level: int) -> int:
        return sum(self.counts.get(level, []))


def decomposition_tile_multiset(report: DecompositionReport,
                                family: RuleFamily, x) -> Counter:
    """Level-0 tile-type multiset of all supertiles in the report."""
    m = family.n_prototiles
    out = Counter()
    prod = np.eye(m, dtype=object)   # A_level ··· A_1: tiles per supertile
    for level in range(max(report.counts, default=-1) + 1):
        if level > 0:
            prod = family.matrix(x[level]).astype(object) @ prod
        kappa = np.array(report.counts.get(level, [0] * m), dtype=object)
        out.update({t: int(c) for t, c in enumerate(kappa @ prod) if c})
    return out


@dataclass
class _Level:
    """Integer tables of one level on the lattice (1/scale)·ℤ^d.

    Coordinates are exact Python ints in object arrays: per type the
    footprint bbox `lo`/`hi` and `corners` (padded by repeating the last
    corner); the children of every parent type flattened in branch order,
    `start`/`count` locating each parent's run; `leaves` the number of
    level-0 tiles per type, at most _LEAF_CAP.  `reach` bounds |coordinate|
    of a footprint and `step` of a child delta.
    """

    lo: np.ndarray
    hi: np.ndarray
    corners: np.ndarray
    child_type: np.ndarray
    child_delta: np.ndarray
    start: np.ndarray
    count: np.ndarray
    leaves: np.ndarray
    reach: int
    step: int


class SupertileSystem:
    """Cached supertile data for (family, x): θ products, footprints and the
    integer tables of the descent."""

    def __init__(self, family: RuleFamily, x):
        self.family = family
        self.x = x
        self._theta_inv = [Fraction(1)]  # θ_(k)^{-1}
        self._footprints = []          # level -> [(shape, bbox, corners)] per type
        self._levels = []              # level -> _Level
        self._faces = {}               # (k, v) -> embedded footprint faces
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

    def _ensure(self, k: int):
        """Footprints up to level k; a matrix-only rule or a θ other than
        1/q below it raises UnsupportedOperationError."""
        while len(self._footprints) <= k:
            lvl = len(self._footprints)
            if lvl:
                rule = self.rule_at(lvl)
                if not rule.is_geometric:
                    raise UnsupportedOperationError(
                        f"rule {rule.id} at level {lvl} is matrix-only")
                if rule.theta.numerator != 1:
                    raise UnsupportedOperationError(
                        f"rule {rule.id} at level {lvl}: θ = {rule.theta} is "
                        f"not 1/q, so its supertiles leave the integer lattice")
            ti = self.theta_inv(lvl)
            foot = [p.shape.transform(ti, (0,) * self.family.dim)
                    for p in self.family.prototiles]
            self._footprints.append(
                [(s, s.bbox(), s.vertices_list()) for s in foot])

    def theta_inv(self, k: int) -> Fraction:
        """θ_(k)^{-1} = θ_1^{-1}···θ_k^{-1}, exact, for any rules (cached)."""
        while len(self._theta_inv) <= k:
            self._theta_inv.append(
                self._theta_inv[-1] / self.rule_at(len(self._theta_inv)).theta)
        return self._theta_inv[k]

    def footprint(self, k: int, v: int):
        self._ensure(k)
        return self._footprints[k][v][0]

    def verts(self, k: int, v: int, offset):
        """Corner points of the footprint translated by offset."""
        self._ensure(k)
        return [geometry.vadd(p, offset) for p in self._footprints[k][v][2]]

    def volume(self, k: int, v: int) -> Fraction:
        return self._volumes[v] * self.theta_inv(k) ** self.family.dim

    def bbox(self, k: int, v: int, offset):
        self._ensure(k)
        lo, hi = self._footprints[k][v][1]
        return geometry.vadd(lo, offset), geometry.vadd(hi, offset)

    def _level(self, k: int) -> _Level:
        """The integer tables of level k (cached)."""
        def lattice(points):
            return [[int(c * self.scale) for c in p] for p in points]

        while len(self._levels) <= k:
            lvl = len(self._levels)
            self._ensure(lvl)
            foot = self._footprints[lvl]
            n_corners = max(len(f[2]) for f in foot)
            corners = [lattice(f[2] + f[2][-1:] * (n_corners - len(f[2])))
                       for f in foot]
            lo, hi = lattice(f[1][0] for f in foot), lattice(f[1][1] for f in foot)
            ti = self.theta_inv(lvl)
            if lvl == 0:
                branches, leaves = (), [1] * len(foot)
            else:
                branches = self.rule_at(lvl).branches    # grouped by parent
                leaves = np.minimum(self.family.matrix(self.x[lvl])
                                    @ self._levels[-1].leaves, _LEAF_CAP)
            delta = lattice(geometry.vscale(ti, b.tau) for b in branches)
            count = np.bincount([b.parent for b in branches],
                                minlength=len(foot)).astype(np.int64)
            self._levels.append(_Level(
                lo=np.array(lo, dtype=object), hi=np.array(hi, dtype=object),
                corners=np.array(corners, dtype=object),
                child_type=np.array([b.child for b in branches], dtype=np.int64),
                child_delta=np.array(delta, dtype=object).reshape(
                    len(branches), self.family.dim),
                start=np.cumsum(count) - count, count=count,
                leaves=np.array(leaves, dtype=np.int64),
                reach=max(abs(c) for p in lo + hi for c in p),
                step=max((abs(c) for p in delta for c in p), default=0)))
        return self._levels[k]

    def margin(self, k: int, v: int, offset, pts) -> float:
        """Min signed distance of window extreme points inside the translated
        footprint of (k, v); negative means some point sticks out."""
        emb = self.family.embedding
        faces = self._faces.get((k, v))
        if faces is None:
            faces = self._faces[(k, v)] = geometry.faces(
                self.footprint(k, v), emb)
        off = geometry.embed_point(offset, emb)
        return min(geometry.margin(tuple(c - o for c, o in zip(p, off)), faces)
                   - pad for p, pad in pts)

    def _up_candidates(self, lvl: int, v: int, offset):
        """Branches placing the current type-v supertile inside a level-lvl one."""
        self._ensure(lvl)
        ti = self.theta_inv(lvl)
        return [(parent, geometry.vsub(offset, geometry.vscale(ti, b.tau)),
                 (lvl, parent, v, idx))
                for parent, child, idx, b in self.rule_at(lvl).edges
                if child == v]

    def anchor(self, window: Region):
        """Grow an anchored supertile until its footprint contains the window.

        Returns (level, vertex, offset, path_edges); path_edges are the chosen
        diagram edges (level, parent, child, branch index).  Footprints are
        nested along ancestor chains, so the window margin is monotone
        non-decreasing up any path; best-first search on the margin therefore
        finds a covering placement whenever one exists.
        """
        emb = self.family.embedding
        pts = _window_extremes(window, emb)
        offset0 = (Fraction(0),) * self.family.dim
        m0 = self.margin(0, 0, offset0, pts)
        heap = [(-m0, 0, 0, 0, offset0, ())]
        visited = {(0, 0, offset0)}
        tick = 1
        deepest = 0
        while heap and tick <= ANCHOR_MAX_EXPANSIONS:
            neg_m, _, k, v, offset, edges = heapq.heappop(heap)
            if -neg_m >= 0 and window.contains_window(
                    self.footprint(k, v).translate(offset), emb):
                return k, v, offset, list(edges)
            lvl = k + 1
            deepest = max(deepest, k)
            if lvl > min(len(self.x), ANCHOR_MAX_LEVEL):
                continue
            for parent, o, edge in self._up_candidates(lvl, v, offset):
                key = (lvl, parent, o)
                if key in visited:
                    continue
                visited.add(key)
                m = self.margin(lvl, parent, o, pts)
                heapq.heappush(heap, (-m, tick, lvl, parent, o,
                                      edges + (edge,)))
                tick += 1
        if not heap:
            raise InsufficientDataError(
                f"sequence too short to cover the window "
                f"(explored up to level {deepest})")
        raise InsufficientDataError(
            "window not covered within the expansion budget")

    def path_offset(self, edges, shift: int = 0):
        """Offset of a path's level-0 tile inside the supertile the path
        reaches: o = -Σ θ_(level)^{-1}·τ_edge, every level raised by `shift`."""
        offset = (Fraction(0),) * self.family.dim
        for level, parent, child, index in edges:
            self._ensure(level + shift)
            tau = next(b.tau for p, c, i, b in self.rule_at(level + shift).edges
                       if (p, c, i) == (parent, child, index))
            offset = geometry.vsub(
                offset, geometry.vscale(self.theta_inv(level + shift), tau))
        return offset

    def cover(self, window: Region, k: int, v: int, offset):
        """Maximal supertiles inside the window, below the level-k type-v
        supertile at `offset`: (counts, boundary), where counts maps a level
        to the number of inside supertiles per type (levels in depth-first
        order of their first supertile) and boundary counts the level-0
        tiles cut by the window boundary."""
        found, boundary, _ = self._descend(window, k, v, offset)
        n = self.family.n_prototiles
        return ({level: np.bincount(types, minlength=n).tolist()
                 for level, types, _ in found}, boundary)

    def expand(self, k: int, v: int, offset, tiles: list, budget: int,
               window: Region = None):
        """Append to `tiles`, depth first, the level-0 tiles of the level-k
        type-v supertile at `offset` (those inside `window`, if given).
        Raises PartialCoverError, carrying the first `budget` tiles, when
        `tiles` would exceed `budget`."""
        room = max(budget - len(tiles), 0)
        found, _, scale = self._descend(window, k, v, offset, room)
        for _, types, offs in found:
            tiles.extend(zip(types[:room + 1].tolist(),
                             _fractions(offs[:room + 1], scale)))
        if len(tiles) > budget:
            del tiles[budget:]
            raise PartialCoverError("tile budget exhausted",
                                    partial=Patch(tiles, family=self.family))

    def _descend(self, window, k: int, v: int, offset, budget=None):
        """The one supertile descent: level by level from the level-k type-v
        supertile at `offset` down to level 0.

        A frontier holds node types and integer offsets on (1/scale)·ℤ^d in
        depth-first (lexicographic path) order, which the stable expansion
        into children keeps.  Nodes missing the window are dropped and nodes
        inside it are marked (window None contains everything).  Without a
        budget the descent stops at inside supertiles; with one it expands
        them to level 0, cutting each frontier after the first prefix whose
        known tiles exceed the budget.  Offsets use int64 when every
        coordinate and cross product fits, Python ints otherwise.

        Returns (found, boundary, scale): found lists (level, types, offsets)
        of the inside nodes where the descent stopped, levels in depth-first
        order of their first node; boundary counts the level-0 nodes the
        window boundary cuts.
        """
        shape = None if window is None or window.kind == "disk" else window.shape()
        corners = shape.vertices_list() if shape is not None else []
        scale = math.lcm(self.scale, *(c.denominator
                                       for p in [offset, *corners] for c in p))
        mult = scale // self.scale
        levels = [self._level(j) for j in range(k + 1)]
        origin = [int(c * scale) for c in offset]
        win = [[int(c * scale) for c in p] for p in corners]
        bound = max(max(map(abs, origin)) + mult * (
            sum(lv.step for lv in levels) + max(lv.reach for lv in levels)),
            max((abs(c) for p in win for c in p), default=0))
        # |cross product| <= 8·bound^2 must fit in an int64
        dtype = np.int64 if bound < 2 ** 30 else object
        win = np.array(win, dtype=object).astype(dtype)
        types = np.array([v], dtype=np.int64)
        offs = np.array([origin], dtype=object).astype(dtype)
        inside = np.array([window is None])
        rank = np.zeros(1, dtype=np.int64)  # levels found before each node
        found = []
        for level in range(k, -1, -1):
            if level < k:
                up = levels[level + 1]
                count = up.count[types]
                parent = np.repeat(np.arange(len(types)), count)
                pos = np.arange(len(parent)) + np.repeat(
                    up.start[types] - (np.cumsum(count) - count), count)
                types = up.child_type[pos]
                offs = offs[parent] + (up.child_delta * mult).astype(dtype)[pos]
                inside, rank = inside[parent], rank[parent]
            todo = np.flatnonzero(~inside)
            if len(todo):
                meets, inside[todo] = self._test(
                    window, level, types[todo], offs[todo], scale, mult, win)
                keep = np.ones(len(types), dtype=bool)
                keep[todo] = meets
                types, offs, inside, rank = (a[keep] for a in
                                             (types, offs, inside, rank))
            if (budget is None or level == 0) and inside.any():
                first = int(np.argmax(inside))
                found.insert(int(rank[first]),
                             (level, types[inside], offs[inside]))
                rank[first + 1:] += 1
                types, offs, inside, rank = (a[~inside] for a in
                                             (types, offs, inside, rank))
            elif budget is not None:
                known = np.where(inside, levels[level].leaves[types], 0)
                over = np.cumsum(known) > budget
                if over.any():
                    cut = int(np.argmax(over)) + 1
                    types, offs, inside, rank = (a[:cut] for a in
                                                 (types, offs, inside, rank))
        return found, len(types), scale

    def _test(self, window, level, types, offs, scale, mult, win):
        """(meets, inside) of the given level nodes.  Box and convex polygon
        windows are decided on the integers (bbox overlap; bbox or corners
        inside, by cross products); disks and non-convex polygons go through
        the Region predicates on exact Fraction offsets."""
        lv = self._level(level)
        if window.kind != "disk":
            lo = offs + (lv.lo * mult).astype(offs.dtype)[types]
            hi = offs + (lv.hi * mult).astype(offs.dtype)[types]
            wlo, whi = win.min(axis=0), win.max(axis=0)
            meets = (lo <= whi).all(axis=1) & (hi >= wlo).all(axis=1)
            if window.kind == "box":
                return meets, (lo >= wlo).all(axis=1) & (hi <= whi).all(axis=1)
            if window.shape().convex:
                pts = offs[:, None, :] + (lv.corners * mult).astype(offs.dtype)[types]
                px, py = pts[..., 0], pts[..., 1]
                inside = meets.copy()
                for (ax, ay), (bx, by) in zip(win, np.roll(win, -1, axis=0)):
                    inside &= ((bx - ax) * (py - ay)
                               - (by - ay) * (px - ax) >= 0).all(axis=1)
                return meets, inside
        emb = self.family.embedding
        nodes = [(t, tuple(Fraction(c, scale) for c in o))
                 for t, o in zip(types.tolist(), offs.tolist())]
        if window.kind == "disk":
            meets = np.array([window.intersects_bbox(*self.bbox(level, t, o), emb)
                              for t, o in nodes], dtype=bool)
        inside = np.array([bool(m) and window.contains_points(
            self.verts(level, t, o), emb) for (t, o), m in zip(nodes, meets)],
            dtype=bool)
        return meets, inside


def _fractions(offs, scale):
    """Fraction offset tuples of integer offsets on (1/scale)·ℤ^d, one
    Fraction made per distinct coordinate value."""
    cols = []
    for col in offs.T:
        values, index = np.unique(col, return_inverse=True)
        table = np.array([Fraction(c, scale) for c in values.tolist()],
                         dtype=object)
        cols.append(table[index].tolist())
    return list(zip(*cols))


def _window_extremes(window: Region, embedding):
    """Embedded extreme points (and radius padding) describing the window."""
    if window.kind == "disk":
        return [window.embedded_disk(embedding)]
    return [(geometry.embed_point(v, embedding), 0.0)
            for v in window.shape().vertices_list()]


def _anchored(family: RuleFamily, x, window: Region, system, anchor):
    """The supertile system and the (level, vertex, offset) covering window."""
    if window.dim != family.dim:
        raise StructuralError(
            f"{window.dim}-D window for the {family.dim}-D family {family.name}")
    if system is None:
        system = SupertileSystem(family, x)
    if anchor is None:
        anchor = system.anchor(window)
    return system, tuple(anchor[:3])


def generate_patch(family: RuleFamily, x, window: Region,
                   budget: int = DEFAULT_TILE_BUDGET,
                   system: SupertileSystem = None, anchor=None) -> Patch:
    """All tiles of the anchored tiling hierarchy lying entirely inside window.

    `anchor` fixes the covering supertile as (level, vertex, offset), so
    several windows can be cut from one coherent hierarchy.
    """
    system, top = _anchored(family, x, window, system, anchor)
    tiles = []
    system.expand(*top, tiles, budget, window)
    return Patch(tiles, family=family)


def decompose_region(family: RuleFamily, x, b_region: Region, t_dilation,
                     system: SupertileSystem = None,
                     anchor=None) -> DecompositionReport:
    """Greedy top-down decomposition of T·B into maximal supertiles.

    `anchor` fixes the ambient supertile as (level, vertex, offset) so the
    decomposition refers to the same hierarchy as a previously generated
    patch.
    """
    t_dilation = frac(t_dilation)
    if t_dilation <= 0:
        raise StructuralError("dilation must be positive")
    window = b_region.dilated(t_dilation)
    system, (level, vertex, offset) = _anchored(family, x, window, system,
                                                anchor)
    counts, boundary = system.cover(window, level, vertex, offset)
    covered = sum((c * system.volume(k, v) for k, row in counts.items()
                   for v, c in enumerate(row) if c), Fraction(0))
    top = max(counts, default=-1)
    # fitted K2 for the boundary-count bound: Σ_j κ^(i)_j ≤ K2·|∂(T·B)|·θ_(i)^{d-1}
    k2 = None
    if counts:
        perim = window.boundary_measure(family.embedding)
        d = family.dim
        vals = []
        for i, c in counts.items():
            if i == top:
                continue  # bulk level, not a boundary layer
            theta_i = 1 / system.theta_inv(i)
            vals.append(sum(c) / (perim * float(theta_i) ** (d - 1)))
        k2 = max(vals) if vals else 0.0
    return DecompositionReport(
        n=top, counts=counts, boundary_skipped=boundary,
        volume_covered=covered,
        theta_products=[1 / system.theta_inv(i) for i in range(level + 1)],
        fitted_K2=k2, anchor_level=level)
