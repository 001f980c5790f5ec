"""Ergodic integrals of locally-constant observables and their deviations.

Observables are transversally locally constant (TLC): a depth-m observable
assigns one weight to each level-m pattern class, i.e. to each length-m path
of the diagram; depth 0 means one weight per prototile type.  Supertile
integrals V^k then satisfy the exact recursion V^{k+1} = A_{k+1} V^k for
k >= m, which makes deviation measurements exact in rational arithmetic.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from . import geometry
from .bratteli import path_fault
from .errors import (ConvergenceError, DegenerateObservableError,
                     InsufficientDataError, StructuralError,
                     UnsupportedOperationError)
from .cocycle import top_left_direction
from .geometry import frac, int_rows, numerators, sum_left
from .substitution import RuleFamily
from .symbolic import SymbolSequence, recurrence_times, rng_stream
from .tiling import (CellGrid, Region, SupertileSystem, decompose_region,
                     generate_patch, lattice_images, supertile_system)

_BOUNDARY_SAMPLES = 96   # points on the boundary of a 2-D averaging window


@dataclass(frozen=True)
class TLCObservable:
    """Weights per pattern class: depth 0 = per prototile type; depth m > 0 =
    per length-m diagram path, given as ((edge tuple, ...), weight) pairs."""

    depth: int
    weights: tuple

    def __post_init__(self):
        if self.depth < 0:
            raise StructuralError("depth must be >= 0")
        weights = tuple(self.weights)
        if self.depth:   # one pass: tuples of tuples of ints are kept as given
            paths = [p for p, _ in weights]
            edges = tuple(chain.from_iterable(paths))
            if (set(map(type, chain(weights, paths))) != {tuple}
                    or int_rows(edges) is not edges):
                weights = tuple((int_rows(path), w) for path, w in weights)
                paths = [p for p, _ in weights]
            if path_fault(paths, self.depth):   # name the first bad path
                path, fault = next((p, f) for p in paths
                                   if (f := path_fault((p,), self.depth)))
                raise StructuralError(f"path {path!r} of a depth-{self.depth} "
                                      f"observable: {fault}")
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def typewise(weights) -> "TLCObservable":
        return TLCObservable(0, tuple(weights))

    @staticmethod
    def constant(value, n_types: int) -> "TLCObservable":
        return TLCObservable(0, (value,) * n_types)

    def weight_map(self) -> dict:
        if self.depth == 0:
            raise UnsupportedOperationError("depth-0 weights are typewise")
        return dict(self.weights)

    def is_exact(self) -> bool:
        vals = self.weights if self.depth == 0 else [w for _, w in self.weights]
        return all(isinstance(w, (int, Fraction)) for w in vals)


class ErgodicVector:
    """V^k: integral of the observable over each level-k supertile type, or
    an exact level's numerators N^k over one denominator D (None: ints), whose
    entries `values` builds on first read, then keeps, dropping the N^k."""

    def __init__(self, level: int, values=None, num=None, den=None):
        self.level, self._num, self._den = level, num, den
        if values is not None:
            self.values = values

    @cached_property
    def values(self) -> np.ndarray:
        num, self._num = self._num, None
        return np.array(num if self._den is None else
                        [Fraction(v, self._den) for v in num], dtype=object)


@dataclass
class SpecialAveragingSequence:
    """Averaging sets T_i(B_eps + tau_i) realized as unions of supertiles."""

    base_multiset: Counter          # tile types of the base patch P_eps
    t_star: Fraction
    entries: list                   # (k_i, T_i, tau_i)
    # largest distance from 96 sampled boundary points of T_*·B to the base
    # patch, over T_*: a sampled one-sided distance, not a full Hausdorff one
    hausdorff: Optional[float]
    window: int                     # recurrence window used


def ergodic_vectors(f: TLCObservable, family: RuleFamily, x: SymbolSequence,
                    depth: int):
    """[V^0 .. V^depth]; exact arithmetic when the weights are rational.

    Exact weights carry integer numerators over one common denominator.  The
    last explicit vector (V^0, or V^m for a depth-m observable) is written as
    N/D with D the lcm of its denominators; A_k is an integer matrix, so
    V^k = A_k···A_1·V^0 is N^k/D with N^k = A_k·N^(k−1) in Python ints, read
    as Fraction(N^k_j, D) when the last explicit vector holds a Fraction,
    else as the int N^k_j (the types an object matmul would give), and built
    on first read.  A weighted path adds w·vol[src] (its numerator) at its
    level-k vertex, k <= m, exactly when each of its edges above level k is
    the first, in branch order, into its child: O(m) per weighted path, and
    nothing for a path off the diagram along x (int 0 where nothing adds).
    An entry is a Fraction when such a weight is one or a length-k path into
    it starts at a Fraction volume.  Float and complex weights add in the
    order of the reversed paths, the diagram's, then use float matmuls.
    """
    if depth < 0:
        raise StructuralError(f"depth must be >= 0, not {depth}")
    m = f.depth
    vols = family.volumes()
    n = family.n_prototiles
    exact = f.is_exact()
    dtype = object if exact else complex if any(
        isinstance(w, complex) for w in (dict(f.weights).values()
                                         if m else f.weights)) else float
    if m == 0:
        out = [ErgodicVector(0, np.array([f.weights[j] * (
            vols[j] if exact else float(vols[j])) for j in range(n)], dtype))]
    else:
        if not _levels_geometric(family, x, m):
            raise UnsupportedOperationError(
                "depth > 0 observables need geometric rules "
                "(pattern classes are positions of tiles)")
        wmap = f.weight_map()
        if exact:   # D·w per path and D'·vol per type, as ints
            wden, wnum = numerators(list(wmap.values()))
            vden, vnum = numerators(vols)
        else:       # float sums add the raw w·float(vol) in diagram order
            wden, wnum, vden, vnum = 1, wmap.values(), 1, [*map(float, vols)]
        # diagram edges, least edge into each vertex, Fraction-reached vertices
        diagram, least = set(), set()
        fractional = [{j for j, v in enumerate(vols)
                       if exact and isinstance(v, Fraction)}]
        for level in range(1, m + 1):
            edges = [(level, *e[:3]) for e in family.rule(x[level]).edges]
            into = {e[2]: e for e in reversed(edges)}
            if missing := set(range(n)) - into.keys():
                raise StructuralError(f"vertex {min(missing)} has no outgoing "
                                      f"edge at {level}")
            diagram.update(edges)
            least.update(into.values())
            fractional.append({e[1] for e in edges if e[2] in fractional[-1]})
        items = zip(wmap, wmap.values(), wnum)
        totals = [[0] * n for _ in range(m + 1)]
        for p, w, num in items if exact else sorted(
                items, key=lambda item: item[0][::-1]):
            if not diagram.issuperset(p):
                continue     # an absent pattern class weighs nothing
            # p feeds level k when its edges above level k are all least
            k = m
            while k and p[k - 1] in least:
                k -= 1
            term = num * vnum[p[0][2]]
            for level in range(k, m + 1):
                j = p[level - 1][1] if level else p[0][2]
                totals[level][j] += term
                if exact and isinstance(w, Fraction):
                    fractional[level].add(j)
        den = wden * vden
        out = [ErgodicVector(k, np.array(
            [Fraction(t, den) if j in fractional[k] else t // den if exact
             else t for j, t in enumerate(row)], dtype))
            for k, row in enumerate(totals)]

    if not exact:
        while len(out) <= depth:
            a = family.matrix(x[len(out)]).astype(float)
            out.append(ErgodicVector(len(out), a @ out[-1].values))
        return out[:depth + 1]

    den, num = numerators(out[-1].values)
    if not any(isinstance(v, Fraction) for v in out[-1].values):
        den = None
    rows = {}
    while len(out) <= depth:
        s = x[len(out)]
        if s not in rows:
            rows[s] = family.matrix(s).tolist()
        num = [sum(map(operator.mul, row, num)) for row in rows[s]]
        out.append(ErgodicVector(len(out), num=num, den=den))
    return out[:depth + 1]


def make_zero_trace_observable(family: RuleFamily, x: SymbolSequence,
                               depth: int) -> TLCObservable:
    """Depth-0 weights w with diag(vol)·w orthogonal to the dominant left
    direction of the cocycle product, so the top-exponent component of V^k
    vanishes.  Weights are rationalized when that is exact."""
    u = top_left_direction(family, x, depth)
    n = family.n_prototiles
    if n == 1:
        raise DegenerateObservableError(
            "one prototile type: only the zero observable has zero trace")
    e1 = np.zeros(n)
    e1[0] = 1.0
    y = e1 - (u @ e1) * u           # component of e1 orthogonal to u
    if np.linalg.norm(y) < 1e-12:
        raise DegenerateObservableError("no nonzero zero-trace direction")
    vols = family.volumes()
    w = [y[j] / float(vols[j]) for j in range(n)]
    norm = math.sqrt(sum_left(c * c for c in w))
    w = [c / norm for c in w]
    # rationalize when exact: check orthogonality of the rounded weights
    cand = [Fraction(c).limit_denominator(10 ** 6) for c in w]
    resid = abs(sum_left(float(u[j]) * float(vols[j]) * float(cand[j])
                         for j in range(n)))
    if resid < 1e-10:
        return TLCObservable(0, tuple(cand))
    return TLCObservable(0, tuple(w))


def _log_abs(value) -> Optional[float]:
    """log|value| for Fraction/int/float of any size; None when zero."""
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        if q == 0:
            return None
        return _log_int(abs(q.numerator)) - _log_int(q.denominator)
    v = abs(float(value))
    return math.log(v) if v > 0 else None


def _log_int(n: int) -> float:
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)


def _lsq_slope(xs, ys) -> float:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    a = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(sol[0])


@dataclass
class DeviationFit:
    """log|integral| vs log T and fitted growth slopes."""

    entries: list                   # (T float, log|I| or None)
    slope: float                    # least-squares over the top half of scales
    running_max_slope: float


def deviation_cap(lyapunov, d: int):
    """The paper's bound max(d·λ₂/λ₁, d−1) on deviation slopes, and its
    standard error.

    λ₁ ≥ λ₂ are the two largest raw exponents of the report.  With no second
    exponent, or λ₂ = −inf, the cap is d − 1.  The standard error propagates
    the standard errors of λ₁ and λ₂ to first order, ignoring their
    covariance: (d/λ₁)·sqrt(se₂² + (λ₂/λ₁)²·se₁²).  It is None when the d − 1
    term is the cap.
    """
    lam, se = lyapunov.raw_exponents, lyapunov.raw_stderrs
    if not lam[0] > 0:
        raise ConvergenceError(f"top exponent {lam[0]!r} is not positive")
    if len(lam) < 2 or not math.isfinite(lam[1]):
        return d - 1, None
    cap = d * lam[1] / lam[0]
    if cap <= d - 1:
        return d - 1, None
    ratio = lam[1] / lam[0]
    return cap, d / lam[0] * math.hypot(se[1], ratio * se[0])


def deviation_over_regions(f: TLCObservable, family: RuleFamily,
                           x: SymbolSequence, b_region: Region, t_grid,
                           system: Optional[SupertileSystem] = None
                           ) -> DeviationFit:
    """Fitted slope of log|∫_{T·B} f| against log T over a grid of dilations.

    The integral over the patch covering T·B is computed exactly from the
    supertile decomposition: ∫ = Σ_{i,j} κ^(i)_j · V^i_j, summed over the
    levels i of `DecompositionReport.counts` from the top down and over the
    types j in ascending order (the order a float observable's sum rounds in).
    """
    if f.depth != 0:
        raise UnsupportedOperationError("region deviations need depth 0")
    system = supertile_system(family, x, system)
    t_grid = sorted(frac(t) for t in t_grid)
    reports = [decompose_region(family, x, b_region, t, system=system)
               for t in t_grid]
    depth = max((r.anchor_level for r in reports), default=0)
    vecs = ergodic_vectors(f, family, x, depth)
    entries = []
    for t, rep in zip(t_grid, reports):
        total = 0
        for level, counts in rep.counts.items():
            for j, kappa in enumerate(counts):
                if kappa:
                    total += kappa * vecs[level].values[j]
        entries.append((float(t), _log_abs(total)))
    usable = [(math.log(t), li) for t, li in entries if li is not None]
    if len(usable) < 4:
        raise InsufficientDataError(
            f"only {len(usable)} nonzero integrals; need >= 4")
    top = usable[len(usable) // 2:]
    slope = _lsq_slope([u[0] for u in top], [u[1] for u in top])
    return DeviationFit(entries, slope, _running_max_slope(usable))


def _running_max_slope(points) -> float:
    """Least-squares slope through the running maxima of (log T, log|I|)."""
    best = -math.inf
    records = []
    for lt, li in points:
        if li > best:
            best = li
            records.append((lt, li))
    if len(records) < 2:
        lt, li = records[0]
        return li / lt if lt else 0.0
    return _lsq_slope([r[0] for r in records], [r[1] for r in records])


def _gap_norms(gap: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of bbox gaps, as sqrt(sum(gap²)).  A
    row whose sum of squares overflows (a point about 1e154 or more from
    the patch) is recomputed by `hypot`, which scales, so it stays finite
    while every other row keeps its bits; only a norm past the float range
    is inf."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((gap ** 2).sum(axis=1))
        big = np.isinf(norms)
        norms[big] = np.hypot.reduce(gap[big], axis=1)
    return norms


def _patch_point_distance(points, patch, embedding):
    """Distance of each embedded point to the patch (0 when covered), from the
    float images of the exact corners on (1/S')·ℤ^d.

    Each point walks the tiles in ascending (bbox gap, tile index), a total
    order, until no later tile can be nearer.  Bound first: the tiles are
    bucketed once by bbox centre into a `CellGrid` of side 2R, R the widest
    bbox extent, so every tile within R of a point lies in its cell or a
    neighbouring one.  Those tiles, sorted, begin the order over every tile,
    so walking them alone gives the full walk's float whenever the distance
    found is at most R; a point whose near walk ends above R (a farther
    tile could come first) is walked over every tile."""
    if not (len(patch) and len(points)):
        return [math.inf] * len(points)
    shapes = [p.shape for p in patch.family.prototiles]
    scale, corners = patch.placed([s.vertices_list() for s in shapes])
    lo_arr = lattice_images(corners.min(axis=1), scale, embedding)
    hi_arr = lattice_images(corners.max(axis=1), scale, embedding)
    faces = {}

    def outline(idx):
        """(faces, vertices) of polygon tile idx."""
        if idx not in faces:
            f = geometry.polygon_faces(lattice_images(
                corners[idx, :len(shapes[patch.types[idx]].vertices)],
                scale, embedding).tolist())
            faces[idx] = f, [a for a, _, _ in f]
        return faces[idx]

    def walk(pt, tiles, lower):
        """Distance of pt over `tiles` in ascending `lower`.  A box or a tile
        covering pt ends the walk; any other tile offers its edge distance."""
        best = math.inf
        for idx, low in zip(tiles, lower):
            if low >= best:
                break
            s = shapes[patch.types[idx]]
            if isinstance(s, geometry.Box):
                # a box is its own bbox, so the gap is its exact distance;
                # every later bbox gap is at least as large
                return float(low)
            f, vs = outline(idx)
            if (geometry.margin(pt, f) >= 0 if s.convex
                    else geometry.winding_contains(vs, pt)):
                return 0.0
            best = min(best, min(geometry.point_segment_distance(pt, a, b)
                                 for a, b in zip(vs, vs[1:] + vs[:1])))
        return best

    # the tiles within `reach` of each point, and their bbox gaps
    pts = np.asarray(points, dtype=float)
    reach = float((hi_arr - lo_arr).max())
    grid = CellGrid((lo_arr + hi_arr) / 2, 2 * reach)
    owner, near, _ = grid.near(grid.key(pts), grid.steps)
    lower = _gap_norms(np.maximum(lo_arr[near] - pts[owner], 0)
                       + np.maximum(pts[owner] - hi_arr[near], 0))
    keep = np.flatnonzero(lower <= reach)
    keep = keep[np.lexsort((near[keep], lower[keep], owner[keep]))]
    ends = np.searchsorted(owner[keep], np.arange(1, len(pts) + 1)).tolist()
    near, lower = near[keep].tolist(), lower[keep].tolist()
    out = []
    # the walks do their float arithmetic on Python floats: the same
    # operations as on numpy scalars, at a fraction of the cost
    for pa, pt, first, end in zip(pts, map(tuple, pts.tolist()),
                                  [0] + ends, ends):
        best = walk(pt, near[first:end], lower[first:end])
        if best > reach:
            gaps = _gap_norms(np.maximum(lo_arr - pa, 0)
                              + np.maximum(pa - hi_arr, 0))
            order = np.argsort(gaps, kind="stable")
            best = walk(pt, order, gaps[order])
        out.append(best)
    return out


def _boundary_samples(window: Region, embedding):
    """Embedded sample points on the boundary of the dilated window."""
    if window.dim > 2:
        raise UnsupportedOperationError(
            f"boundary sampling covers d <= 2 windows, not d = {window.dim}")
    if window.kind == "disk":
        c, r = window.embedded_disk(embedding)
        if window.dim == 1:
            return [(c[0] - r,), (c[0] + r,)]
        return [(c[0] + r * math.cos(2 * math.pi * i / _BOUNDARY_SAMPLES),
                 c[1] + r * math.sin(2 * math.pi * i / _BOUNDARY_SAMPLES))
                for i in range(_BOUNDARY_SAMPLES)]
    shape = window.shape()
    vs = [geometry.embed_point(v, embedding) for v in shape.vertices_list()]
    if shape.dim == 1:
        return [(vs[0][0],), (vs[1][0],)]
    per_edge = max(2, _BOUNDARY_SAMPLES // len(vs))
    pts = []
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for t in range(per_edge):
            s = t / per_edge
            pts.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
    return pts


def special_averaging_sequence(family: RuleFamily, x: SymbolSequence,
                               b_region: Region, eps: float, count: int,
                               seed: int = 0,
                               system: Optional[SupertileSystem] = None
                               ) -> SpecialAveragingSequence:
    """Averaging sets along recurrence times of the sequence.

    The base patch covers T_*·B with T_* the smallest dyadic dilation whose
    rescaled patch is eps-close to B in `hausdorff` (a sampled one-sided
    distance, not a full Hausdorff distance); each recurrence time k_i of x
    blows the base patch up into a union of level-k_i supertiles of the same
    type multiset, at dilation T_i = θ_(k_i)^{-1}·T_*.
    """
    if count < 1:
        raise StructuralError("count must be >= 1")
    if not 0 < eps < math.inf:
        raise StructuralError(f"eps {eps!r} is not a positive finite number")
    system = supertile_system(family, x, system)
    n = family.n_prototiles
    # path richness: smallest k* with A_{k*}···A_1 everywhere positive
    k_star = next((k for k in range(1, len(x) + 1)
                   if (system.counts(k) > 0).all()), None)
    if k_star is None:
        raise InsufficientDataError("no level with all path pairs connected")

    geometric = family.geometric or _levels_geometric(
        family, x, min(len(x), max(k_star, 8)))

    if geometric:
        emb = family.embedding
        t_star = Fraction(1)
        diam = max(_shape_diameter(p.shape, emb) for p in family.prototiles)
        for _ in range(32):
            window = b_region.dilated(t_star)
            try:
                anchor = system.anchor(window)
                patch = generate_patch(family, x, window, system=system,
                                       anchor=anchor)
            except UnsupportedOperationError:
                geometric = False
                break
            if len(patch):
                samples = _boundary_samples(window, emb)
                dists = _patch_point_distance(samples, patch, emb)
                hausdorff = max(dists) / float(t_star)
                ball_ok = float(t_star) * _inradius(b_region, emb) >= 2 * diam
                if hausdorff <= eps and ball_ok:
                    break
            t_star *= 2
        else:
            raise InsufficientDataError(
                "no dyadic dilation met the Hausdorff criterion")
    if not geometric:
        # matrix-only family: no geometry, so the base multiset is an
        # arbitrary positive integer vector drawn reproducibly from the seed
        gen = rng_stream(seed, worker_id=1)
        mult = Counter({t: int(gen.integers(1, 10)) for t in range(n)})
        t_star = Fraction(1)
        hausdorff = None
        base_anchor = None
    else:
        mult = patch.multiset()
        base_anchor = anchor[0], anchor[2], anchor[3]

    window = max(k_star, base_anchor[0] if base_anchor else 0)
    recs = recurrence_times(x, window) if window <= len(x) else []
    if len(recs) < count:
        raise InsufficientDataError(
            f"only {len(recs)} recurrence times with window {window}; "
            f"need {count}")
    entries = []
    dim = family.dim
    for k_i in recs[:count]:
        t_i = system.theta_inv(k_i) * t_star
        tau = (Fraction(0),) * dim
        if (base_anchor is not None and k_i + base_anchor[0] <= len(x)
                and _levels_geometric(family, x, k_i + base_anchor[0])):
            o_i = system.path_offset(base_anchor[2], shift=k_i)
            tau = geometry.vsub(
                geometry.vscale(1 / t_i, o_i),
                geometry.vscale(1 / t_star, base_anchor[1]))
        entries.append((k_i, t_i, tau))
    return SpecialAveragingSequence(base_multiset=mult, t_star=t_star,
                                    entries=entries, hausdorff=hausdorff,
                                    window=window)


def _levels_geometric(family, x, k) -> bool:
    return all(family.rule(x[level]).is_geometric for level in range(1, k + 1))


def _inradius(region: Region, embedding) -> float:
    if region.kind == "disk":
        return region.embedded_disk(embedding)[1]
    shape = region.shape()
    return geometry.margin(geometry.embed_point(shape.centroid(), embedding),
                           geometry.faces(shape, embedding))


def _shape_diameter(shape, embedding) -> float:
    vs = [geometry.embed_point(v, embedding) for v in shape.vertices_list()]
    return max(math.dist(a, b) for a in vs for b in vs)


def deviation_along_sequence(f: TLCObservable, seq: SpecialAveragingSequence,
                             family: RuleFamily, x: SymbolSequence,
                             vectors=None) -> DeviationFit:
    """limsup-style slope of log|∫ over the averaging sets| vs log T_i.

    The integral over the i-th set is Σ_type multiplicity · V^{k_i}_type,
    summed over the base multiset's types in ascending order (the order a
    float observable's sum rounds in).
    The limsup is estimated by a least-squares fit through the record points
    (new maxima) of log|I|.
    """
    if len(seq.entries) < 5:
        raise InsufficientDataError("need >= 5 averaging-sequence entries")
    kmax = max(k for k, _, _ in seq.entries)
    if vectors is None:
        vectors = ergodic_vectors(f, family, x, kmax)
    elif len(vectors) <= kmax:
        raise StructuralError(
            f"vectors reach depth {len(vectors) - 1}; the averaging "
            f"sequence needs k_max = {kmax}")
    entries = []
    for i, (k_i, t_i, _) in enumerate(seq.entries):
        try:
            t_float = float(t_i)
        except OverflowError:
            raise InsufficientDataError(
                f"entry {i} (k_i = {k_i}): T_i exceeds the float range; "
                f"use fewer averaging-sequence entries") from None
        total = 0
        for t, mlt in seq.base_multiset.items():
            total += mlt * vectors[k_i].values[t]
        entries.append((t_float, _log_abs(total)))
    usable = [(math.log(t), li) for t, li in entries if li is not None]
    if not usable:
        raise DegenerateObservableError("all sequence integrals are zero")
    # limsup estimate: least squares through the record points (new maxima of
    # log|I|), which rides the peaks of any oscillating subdominant component
    run = _running_max_slope(usable)
    return DeviationFit(entries, run, run)
