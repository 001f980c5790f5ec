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
from typing import Optional

import numpy as np

from . import geometry
from .bratteli import connectivity_matrices
from .errors import (ConvergenceError, DegenerateObservableError,
                     InsufficientDataError, StructuralError,
                     UnsupportedOperationError)
from .cocycle import top_left_direction
from .geometry import frac
from .substitution import RuleFamily
from .symbolic import SymbolSequence, recurrence_times, rng_stream
from .tiling import (CellGrid, Region, SupertileSystem, decompose_region,
                     generate_patch, lattice_images)


@dataclass(frozen=True)
class TLCObservable:
    """Weights per pattern class: depth 0 = per prototile type; depth m > 0 =
    per length-m diagram path, given as ((edge tuple, ...), weight) pairs."""

    depth: int
    weights: tuple

    def __post_init__(self):
        if self.depth < 0:
            raise StructuralError("depth must be >= 0")
        if self.depth == 0:
            object.__setattr__(self, "weights", tuple(self.weights))
        else:
            object.__setattr__(self, "weights", tuple(
                (tuple(tuple(int(c) for c in e) for e in path), w)
                for path, w in self.weights))

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
        vals = ([w for w in self.weights] if self.depth == 0
                else [w for _, w in self.weights])
        return all(isinstance(w, (int, Fraction)) for w in vals)


@dataclass
class ErgodicVector:
    """V^k: integral of the observable over each level-k supertile type."""

    level: int
    values: np.ndarray


@dataclass
class CotraceEstimate:
    """Level-0 cotrace vector whose cocycle orbit shadows the V^k."""

    vector: np.ndarray
    residuals: list                 # r_k = ||V^{k+1} - A_{k+1} V^k||


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
    dim: int


def _upward_continuation(family, x, k, vertex, m):
    """Lexicographically least edge continuation from level k to level m."""
    edges = []
    v = vertex
    for level in range(k + 1, m + 1):
        edge = next((e for e in family.rule(x[level]).edges if e[1] == v), None)
        if edge is None:
            raise StructuralError(f"vertex {v} has no outgoing edge at {level}")
        edges.append((level, *edge[:3]))
        v = edge[0]
    return tuple(edges)


def _extend_paths(family, x, level, paths):
    """Length-`level` paths by terminal vertex, {vertex: [edge tuple]}, from
    the length-(level − 1) ones."""
    nxt = {v: [] for v in range(family.n_prototiles)}
    for parent, child, idx, _ in family.rule(x[level]).edges:
        for p in paths[child]:
            nxt[parent].append(p + ((level, parent, child, idx),))
    return nxt


def _numerators(values):
    """D, the lcm of the denominators of ints and Fractions, and each D·v
    as an int."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def ergodic_vectors(f: TLCObservable, family: RuleFamily, x: SymbolSequence,
                    depth: int):
    """[V^0 .. V^depth]; exact arithmetic when the weights are rational.

    Exact weights carry integer numerators over one common denominator.  The
    last explicit vector (V^0, or V^m for a depth-m observable) is written as
    N/D with D the lcm of its denominators; A_k is an integer matrix, so
    V^k = A_k···A_1·V^0 is N^k/D with N^k = A_k·N^(k−1) in Python ints.  An
    entry is built once per level: Fraction(N^k_j, D) when the last explicit
    vector holds a Fraction, else the int N^k_j, the types an object matmul
    would give.  A path level k <= m sums the numerators of w·vol[src] over
    the length-k paths ending at each vertex (int 0 where there are none).
    Float and complex weights sum the raw w·float(vol) over the same paths
    and use float matmuls above them.
    """
    if depth < 0:
        raise StructuralError(f"depth must be >= 0, not {depth}")
    if depth > len(x):
        raise StructuralError("depth exceeds sequence length")
    m = f.depth
    vols = family.volumes()
    n = family.n_prototiles
    exact = f.is_exact()
    dtype = object if exact else complex if any(
        isinstance(w, complex) for w in (dict(f.weights).values()
                                         if m else f.weights)) else float

    def vec(vals):
        return np.array(vals, dtype=dtype)

    if m == 0:
        base = vec([f.weights[j] * (vols[j] if exact else float(vols[j]))
                    for j in range(n)])
        out = [ErgodicVector(0, base)]
    else:
        if not _levels_geometric(family, x, m):
            raise UnsupportedOperationError(
                "depth > 0 observables need geometric rules "
                "(pattern classes are positions of tiles)")
        wmap = f.weight_map()
        if exact:
            # (D·w, w is a Fraction) per path and (D'·vol, vol is a Fraction)
            # per type: a sum of w·vol is a Fraction if any term is one
            wden, wnum = _numerators(list(wmap.values()))
            wnum = {p: (num, isinstance(w, Fraction))
                    for (p, w), num in zip(wmap.items(), wnum)}
            vden, vnum = _numerators(vols)
            vnum = [(num, isinstance(v, Fraction))
                    for v, num in zip(vols, vnum)]
        else:   # the raw weights and float(vol), over a denominator of 1
            wden, wnum = 1, {p: (w, False) for p, w in wmap.items()}
            vden, vnum = 1, [(float(v), False) for v in vols]
        out = []
        paths = {v: [()] for v in range(n)}
        # at level k <= m a pattern class is a level-k path continued to level m
        for k in range(0, min(m, depth) + 1):
            if k:
                paths = _extend_paths(family, x, k, paths)
            vals = []
            for j in range(n):
                cont = _upward_continuation(family, x, k, j, m)
                total, fractional = 0, False
                for p in paths[j]:
                    w, wfrac = wnum.get(p + cont, (0, False))
                    v, vfrac = vnum[p[0][2] if p else j]
                    total += w * v
                    fractional = fractional or wfrac or vfrac
                vals.append(Fraction(total, wden * vden) if fractional
                            else total // (wden * vden) if exact else total)
            out.append(ErgodicVector(k, vec(vals)))

    if not exact:
        while len(out) <= depth:
            k = len(out)
            a = family.matrix(x[k]).astype(float)
            out.append(ErgodicVector(k, a @ out[-1].values))
        return out[:depth + 1]

    den, num = _numerators(out[-1].values)
    fractional = any(isinstance(v, Fraction) for v in out[-1].values)
    rows = {}
    while len(out) <= depth:
        k = len(out)
        s = x[k]
        if s not in rows:
            rows[s] = family.matrix(s).tolist()
        num = [sum(map(operator.mul, row, num)) for row in rows[s]]
        out.append(ErgodicVector(k, vec(
            [Fraction(v, den) for v in num] if fractional else num)))
    return out[:depth + 1]


def cotrace_shadow(f: TLCObservable, family: RuleFamily, x: SymbolSequence,
                   depth: int) -> CotraceEstimate:
    """Level-0 vector a with A_k···A_1·a shadowing V^k; exact for depth 0.

    residuals[k] = |V^(k+1) − A_(k+1)·V^k|.  Exact weights satisfy
    V^(k+1) = A_(k+1)·V^k exactly from k = f.depth on (`ergodic_vectors`
    builds those levels so), so their residuals are 0.0 without a matmul."""
    if depth < 2:
        raise StructuralError("depth must be >= 2")
    vecs = ergodic_vectors(f, family, x, depth)
    mats = connectivity_matrices(family, x, depth)
    exact = f.is_exact()
    residuals = []
    for k in range(depth):
        if exact and k >= f.depth:
            residuals.append(0.0)
            continue
        pred = mats[k].astype(object if exact else float) @ vecs[k].values
        diff = vecs[k + 1].values - pred
        residuals.append(math.sqrt(sum(float(c) ** 2 for c in diff)))
    if f.depth == 0:
        return CotraceEstimate(vector=vecs[0].values, residuals=residuals)
    prod = SupertileSystem(family, x).counts(f.depth).astype(float)
    a, *_ = np.linalg.lstsq(prod, vecs[f.depth].values.astype(float),
                            rcond=None)
    return CotraceEstimate(vector=a, residuals=residuals)


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
    norm = math.sqrt(sum(c * c for c in w))
    w = [c / norm for c in w]
    # rationalize when exact: check orthogonality of the rounded weights
    cand = [Fraction(c).limit_denominator(10 ** 6) for c in w]
    resid = abs(sum(float(u[j]) * float(vols[j]) * float(cand[j])
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
    cap: Optional[float]            # max(d·lambda_2/lambda_1, d-1), if known


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
                           system: Optional[SupertileSystem] = None,
                           lyapunov=None) -> DeviationFit:
    """Fitted slope of log|∫_{T·B} f| against log T over a grid of dilations.

    The integral over the patch covering T·B is computed exactly from the
    supertile decomposition: ∫ = Σ_{i,j} κ^(i)_j · V^i_j, summed over the
    levels i of `DecompositionReport.counts` from the top down and over the
    types j in ascending order (the order a float observable's sum rounds in).
    """
    if f.depth != 0:
        raise UnsupportedOperationError("region deviations need depth 0")
    if system is None:
        system = SupertileSystem(family, x)
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
    run = _running_max_slope(usable)
    cap = None if lyapunov is None else deviation_cap(lyapunov, family.dim)[0]
    return DeviationFit(entries=entries, slope=slope, running_max_slope=run,
                        cap=cap)


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

    Each point walks the tiles in ascending bbox gap, the one `argsort`
    over all tiles setting the order within a tie, until no later tile can
    be nearer.  Bound first: the tiles are bucketed once by bbox centre into
    a `CellGrid` of side 2R, R the widest bbox extent, so every tile within
    R of a point lies in its cell or a neighbouring one, and a point's walk
    computes and sorts the gaps of those tiles only.  That walk takes the
    same steps as the walk over all tiles, so gives the same float, unless
    the distance it finds exceeds R (a farther tile could come first) or a
    tie at a positive gap among the tiles it visits (and the next) could
    have been walked in another order to another result.  A tie cannot
    matter when all of its tiles that end the walk end it at one distance:
    the first of them sets the result, and the others leave the walk as
    they found it.  Otherwise that point is walked over every tile, as
    before.  On the averaging search of half-hex over the unit square (96
    boundary samples on each of six base patches) no point falls back."""
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

    def step(pt, idx, low):
        """(distance, final): what visiting tile idx at bbox gap `low` does
        to a walk.  A box or a tile covering pt ends it; any other tile
        offers its edge distance."""
        s = shapes[patch.types[idx]]
        if isinstance(s, geometry.Box):
            # a box is its own bbox, so the gap is its exact distance;
            # every later bbox gap is at least as large
            return float(low), True
        f, vs = outline(idx)
        if (geometry.margin(pt, f) >= 0 if s.convex
                else geometry.winding_contains(vs, pt)):
            return 0.0, True
        return min(geometry.point_segment_distance(pt, a, b)
                   for a, b in zip(vs, vs[1:] + vs[:1])), False

    def walk(pt, tiles, lower):
        """(distance, tiles visited) over `tiles` in ascending `lower`."""
        best = math.inf
        for k, (idx, low) in enumerate(zip(tiles, lower)):
            if low >= best:
                return best, k
            dist, final = step(pt, idx, low)
            if final:
                return dist, k + 1
            best = min(best, dist)
        return best, len(tiles)

    def order_free(pt, tiles, lower, k):
        """Whether every order of each tie at a positive gap v among the k
        visited tiles and the next walks alike.  A tile of the tie ends the
        walk when its step is final or its edge distance is at most v (every
        later gap is at least v), and the first such tile sets the distance;
        the others leave the walk in the same state in any order.  So it is
        enough that all the tie's tiles that end the walk end it alike."""
        for v in {b for a, b in zip(lower[:k], lower[1:k + 1]) if a == b > 0}:
            steps = [step(pt, idx, v) for idx, low in zip(tiles, lower)
                     if low == v]
            if len({d for d, final in steps if final or d <= v}) > 1:
                return False
        return True

    # the tiles within `reach` of each point, and their bbox gaps
    pts = np.asarray(points, dtype=float)
    reach = float((hi_arr - lo_arr).max())
    grid = CellGrid((lo_arr + hi_arr) / 2, 2 * reach)
    start, count = grid.members(grid.key(pts)[:, None] + grid.steps)
    owner = np.repeat(np.arange(len(pts)), count.sum(axis=1))
    count = count.ravel()
    near = grid.order[np.repeat(start.ravel() - np.cumsum(count) + count,
                                count) + np.arange(len(owner))]
    lower = _gap_norms(np.maximum(lo_arr[near] - pts[owner], 0)
                       + np.maximum(pts[owner] - hi_arr[near], 0))
    keep = np.flatnonzero(lower <= reach)
    keep = keep[np.lexsort((lower[keep], owner[keep]))]
    ends = np.searchsorted(owner[keep], np.arange(1, len(pts) + 1)).tolist()
    near, lower = near[keep].tolist(), lower[keep].tolist()
    out = []
    # the walks do their float arithmetic on Python floats: the same
    # operations as on numpy scalars, at a fraction of the cost
    for pa, pt, first, end in zip(pts, map(tuple, pts.tolist()),
                                  [0] + ends, ends):
        tiles, gaps = near[first:end], lower[first:end]
        best, k = walk(pt, tiles, gaps)
        if best > reach or not order_free(pt, tiles, gaps, k):
            gaps = _gap_norms(np.maximum(lo_arr - pa, 0)
                              + np.maximum(pa - hi_arr, 0))
            order = np.argsort(gaps)
            best, _ = walk(pt, order, gaps[order])
        out.append(best)
    return out


def _boundary_samples(window: Region, embedding, count: int = 96):
    """Embedded sample points on the boundary of the dilated window."""
    if window.dim > 2:
        raise UnsupportedOperationError(
            f"boundary sampling covers d <= 2 windows, not d = {window.dim}")
    if window.kind == "disk":
        c, r = window.embedded_disk(embedding)
        if window.dim == 1:
            return [(c[0] - r,), (c[0] + r,)]
        return [(c[0] + r * math.cos(2 * math.pi * i / count),
                 c[1] + r * math.sin(2 * math.pi * i / count))
                for i in range(count)]
    shape = window.shape()
    vs = [geometry.embed_point(v, embedding) for v in shape.vertices_list()]
    if shape.dim == 1:
        return [(vs[0][0],), (vs[1][0],)]
    per_edge = max(2, count // len(vs))
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
    if system is None:
        system = SupertileSystem(family, x)
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
        if base_anchor is not None and _levels_geometric(
                family, x, k_i + base_anchor[0]):
            o_i = system.path_offset(base_anchor[2], shift=k_i)
            tau = geometry.vsub(
                geometry.vscale(1 / t_i, o_i),
                geometry.vscale(1 / t_star, base_anchor[1]))
        entries.append((k_i, t_i, tau))
    return SpecialAveragingSequence(base_multiset=mult, t_star=t_star,
                                    entries=entries, hausdorff=hausdorff,
                                    window=window, dim=dim)


def _levels_geometric(family, x, k) -> bool:
    if k > len(x):
        return False
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
                             vectors=None, lyapunov=None) -> DeviationFit:
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
    cap = None if lyapunov is None else deviation_cap(lyapunov, family.dim)[0]
    return DeviationFit(entries=entries, slope=run, running_max_slope=run,
                        cap=cap)
