"""Finite-range pattern-equivariant operators on tiling puncture sets.

Each tile carries one puncture; kernels assign matrix entries from the local
pattern around a puncture, so the operator commutes with every translation
that maps the point set into itself.  Diagonals of finite-range kernels are
locally constant observables, which ties windowed traces exactly to the
ergodic module's supertile integrals.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .errors import (ConvergenceError, IncompletePatternError,
                     StructuralError, UnsupportedOperationError)
from .ergodic import TLCObservable, deviation_along_sequence
from .substitution import RuleFamily
from .tiling import (CellGrid, Patch, Region, _checked, _window_extremes,
                     lattice_images, lattice_points, lattice_test)

# the largest n at which a refused inertia count is decided by dense eigvalsh
_DENSE_LIMIT = 4000


# Punctures within one radius: pair k joins i[k] < j[k], and disps[cls[k]]
# is its exact displacement points[j] - points[i].
PuncturePairs = namedtuple("PuncturePairs", "i j cls disps")


def _norm(disp, embedding) -> float:
    """Euclidean length of the embedded float image of a displacement."""
    return math.dist(geometry.embed_point(disp, embedding), (0.0,) * len(disp))


def _near_pairs(coords: np.ndarray, cut: float):
    """(i, j), i < j in lexicographic order: every pair of rows of `coords`
    within distance `cut`.  The rows are bucketed into cells of side >= cut,
    so such a pair shares a cell or lies in two neighbouring ones
    (`tiling.CellGrid`); each point looks up its own cell and the half of its
    neighbours that follow it in lexicographic offset order."""
    n, d = coords.shape
    coords = coords - coords.min(axis=0)
    grid = CellGrid(coords, cut)
    key, order = grid.keys, grid.order
    # the zero offset first, then the lexicographically positive ones; one
    # ascending run of targets per offset, so each search walks forward
    steps = grid.steps[3 ** d // 2:]
    target = (key + steps[:, None]).ravel()
    lo, counts = grid.members(target)
    # candidate (a, b): positions in sorted order, b in a's target cell
    a = np.repeat(np.tile(np.arange(n), len(steps)), counts)
    b = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(a))
    dist2 = sum((x[b] - x[a]) ** 2 for x in coords[order].T)
    own_cell = np.repeat(np.arange(len(target)) < n, counts)
    keep = (dist2 <= cut * cut) & ~(own_cell & (a >= b))
    a, b = order[a[keep]], order[b[keep]]
    i, j = np.minimum(a, b), np.maximum(a, b)
    lex = np.argsort(i * n + j)
    return i[lex], j[lex]


def _row_classes(rows: np.ndarray):
    """(classes, cls): the distinct rows in lexicographic order and the class
    of each row, like `np.unique(rows, axis=0, return_inverse=True)` at a
    sixth of its time on the pair differences."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    cls = np.empty(len(rows), dtype=np.intp)
    cls[order] = np.cumsum(new) - 1
    return rows[new], cls


class PunctureSet:
    """One marked point per tile of a patch, with its tile type: point i is
    grid[i] / scale, on the lattice of `Patch` (same arrays and checks).
    `points` is its exact view, made on first use; do not mutate it."""

    def __init__(self, types, grid, scale: int, family: RuleFamily,
                 patch: Optional[Patch] = None,
                 source_window: Optional[Region] = None):
        self.types, self.grid = _checked(family, types, grid, scale)
        self.scale, self.family = scale, family
        self.patch, self.source_window = patch, source_window
        self._pairs = {}               # radius -> PuncturePairs

    def __len__(self):
        return len(self.types)

    @cached_property
    def points(self) -> list:
        return lattice_points(self.grid, self.scale)

    @cached_property
    def _offset_images(self) -> np.ndarray:
        """Float images of the points less the grid's lowest corner, as
        precise however far out the grid lies (the cell search's input)."""
        return lattice_images(self.grid - self.grid.min(axis=0), self.scale,
                              self.family.embedding)

    @staticmethod
    def from_patch(patch: Patch, window: Optional[Region] = None
                   ) -> "PunctureSet":
        scale, grid = patch.placed([[p.puncture]
                                    for p in patch.family.prototiles])
        return PunctureSet(patch.types, grid[:, 0], scale, patch.family,
                           patch=patch, source_window=window)

    def min_gap(self) -> float:
        """Smallest puncture separation (uniform discreteness witness): the
        shortest exact class of `pairs(r)`, with r doubling from the span
        over the point count until a pair exists."""
        if len(self) < 2:
            return math.inf
        r = float(np.ptp(self._offset_images, axis=0).max()) / len(self)
        while not len((pairs := self.pairs(r)).i):
            r *= 2
        return min(_norm(d, self.family.embedding) for d in pairs.disps)

    def pairs(self, radius: float) -> PuncturePairs:
        """Index pairs i < j within embedded distance `radius`, in
        lexicographic (i, j) order (cached per radius).

        A cell search on float images of the points (`_offset_images`)
        proposes every pair within radius + 1e-6.  The proposals fall into
        classes of equal lattice displacement d, and the exact test
        |embed_point(d)| <= radius + 1e-9, run once per class, is the only
        decision."""
        if radius in self._pairs:
            return self._pairs[radius]
        if not 0 <= radius < math.inf:
            raise StructuralError(
                f"pair radius {radius!r} is not a finite number >= 0")
        i = j = np.zeros(0, dtype=np.intp)
        if len(self) > 1:
            i, j = _near_pairs(self._offset_images, radius + 1e-6)
        # neighbour differences are small even on an object grid
        lattice, cls = _row_classes(
            (self.grid[j] - self.grid[i]).astype(np.int64))
        disps = lattice_points(lattice, self.scale)
        near = np.array([_norm(d, self.family.embedding) <= radius + 1e-9
                         for d in disps], dtype=bool)
        keep = near[cls]
        self._pairs[radius] = PuncturePairs(
            i[keep], j[keep], (np.cumsum(near) - 1)[cls[keep]],
            [d for d, ok in zip(disps, near) if ok])
        return self._pairs[radius]

    def pattern_labels(self, radius: float):
        """Hashable local-pattern key per point: the exact constellation of
        (displacement, type) within the radius, plus the point's own type."""
        pairs = self.pairs(radius)
        flipped = [geometry.vscale(-1, d) for d in pairs.disps]
        types = self.types.tolist()
        nbrs = [[] for _ in types]
        for i, j, c in zip(pairs.i.tolist(), pairs.j.tolist(),
                           pairs.cls.tolist()):
            nbrs[i].append((pairs.disps[c], types[j]))
            nbrs[j].append((flipped[c], types[i]))
        return [(t, tuple(sorted(nb))) for t, nb in zip(types, nbrs)]


@dataclass(frozen=True)
class KernelSpec:
    """Finite-range hermitian kernel: `diagonal` is None (identity), "degree"
    (#neighbors within range) or one real value per prototile id;
    `offdiagonal` is one number or [[disp, value], ...] pairs (a JSON list
    works; disp is kept as exact Fractions).  The off-diagonal entry at
    -disp is the conjugate of the one at disp."""

    range: float
    diagonal: object = None                      # None | "degree" | values
    offdiagonal: object = 0                      # number | ((disp, v), ...)

    def __post_init__(self):
        if isinstance(self.diagonal, (list, tuple, np.ndarray)) and all(
                isinstance(v, numbers.Real) for v in self.diagonal):
            object.__setattr__(self, "diagonal", tuple(self.diagonal))
        elif self.diagonal not in (None, "degree"):
            raise StructuralError(f"kernel diagonal {self.diagonal!r} is not "
                                  "None, 'degree' or one real value per type")
        if not 0 <= self.range < math.inf:
            raise StructuralError(
                f"kernel range {self.range!r} is not a finite number >= 0")
        if not isinstance(self.offdiagonal, numbers.Number):
            if not isinstance(self.offdiagonal, (list, tuple)):
                raise StructuralError(
                    f"kernel offdiagonal {self.offdiagonal!r} is not a number "
                    "or a list of [displacement, value] entries")
            object.__setattr__(self, "offdiagonal", tuple(
                _offdiagonal_entry(e) for e in self.offdiagonal))

    @staticmethod
    def identity() -> "KernelSpec":
        return KernelSpec(range=0.0)

    @staticmethod
    def typewise(values, range=0.0) -> "KernelSpec":
        return KernelSpec(range=range, diagonal=tuple(values))

    @staticmethod
    def laplacian(range: float) -> "KernelSpec":
        """Adjacency Laplacian: diag = degree, offdiag = -1 within range."""
        return KernelSpec(range=range, diagonal="degree", offdiagonal=-1)

    def offdiagonal_value(self, disp):
        if isinstance(self.offdiagonal, numbers.Number):
            return self.offdiagonal
        return dict(self.offdiagonal).get(disp, 0)


def _offdiagonal_entry(entry):
    """[disp, value] (a JSON list or a tuple) -> (exact displacement, value);
    the displacement must be finite real coordinates, the value a number."""
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], (list, tuple))
            and all(isinstance(c, numbers.Real) for c in entry[0])
            and isinstance(entry[1], numbers.Number)):
        try:
            return tuple(Fraction(c) for c in entry[0]), entry[1]
        except (ValueError, OverflowError):     # nan, inf
            pass
    raise StructuralError(f"kernel offdiagonal entry {entry!r} is not a "
                          "[displacement, value] pair of numbers")


@dataclass
class WindowedOperator:
    """Restriction of a pattern-equivariant operator to a window."""

    matrix: sp.csr_matrix
    indices: list                   # indices into the puncture set
    punctures: PunctureSet
    diagonal: list                  # kernel diagonal value per point

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_operator(kernel: KernelSpec, punctures: PunctureSet,
                   window: Region) -> WindowedOperator:
    """Assemble the windowed matrix; every selected point must have its full
    range-ball of punctures available in the source set."""
    emb = punctures.family.embedding
    if punctures.source_window is not None and kernel.range > 0:
        src, rng = punctures.source_window, kernel.range
        padded = [(p, pad + rng) for p, pad in _window_extremes(window, emb)]
        if src.kind != "disk":
            faces = geometry.faces(src.shape(), emb)
            ok = all(geometry.margin(p, faces) >= pad - 1e-9
                     for p, pad in padded)
        else:
            c, r = src.embedded_disk(emb)
            ok = all(math.dist(p, c) + pad <= r + 1e-9 for p, pad in padded)
        if not ok:
            raise IncompletePatternError(
                f"window {window} plus kernel range {rng} exceeds the source "
                f"window {src}; patterns at the rim would be incomplete")
    sel = np.flatnonzero(lattice_test(   # a point is a tile with one corner
        window, punctures.scale, punctures.grid[:, None], emb)[1]).tolist()
    n = len(sel)
    pos = np.full(len(punctures), -1)
    pos[sel] = np.arange(n)
    rows, cols, vals = [], [], []
    degrees = [0] * len(punctures)
    if kernel.range > 0 and n:
        pairs = punctures.pairs(kernel.range)
        both = (pos[pairs.i] >= 0) & (pos[pairs.j] >= 0)
        i, j, cls = pairs.i[both], pairs.j[both], pairs.cls[both]
        degrees = np.bincount(np.concatenate([i, j]),
                              minlength=len(punctures)).tolist()
        values = [kernel.offdiagonal_value(d) for d in pairs.disps]
        keep = np.array([bool(v) for v in values], dtype=bool)[cls]
        i, j, cls = pos[i[keep]], pos[j[keep]], cls[keep]
        # pair (i, j) enters as the entries (i, j, v) and (j, i, conj v)
        entries = np.array([[v, np.conj(v)] if isinstance(v, complex)
                            else [float(v)] * 2 for v in values], dtype=object)
        rows = np.stack([i, j], axis=1).ravel().tolist()
        cols = np.stack([j, i], axis=1).ravel().tolist()
        vals = entries.reshape(-1, 2)[cls].ravel().tolist()
    if kernel.diagonal == "degree":
        diag = [degrees[i] for i in sel]
    elif kernel.diagonal is None:   # identity kernel
        diag = [1] * n
    elif len(kernel.diagonal) != punctures.family.n_prototiles:
        raise StructuralError(f"kernel diagonal {kernel.diagonal!r} needs "
                              f"{punctures.family.n_prototiles} values, one per tile type")
    else:
        diag = [kernel.diagonal[t] for t in punctures.types[sel].tolist()]
    nonzero = [k for k, v in enumerate(diag) if v]
    rows, cols = rows + nonzero, cols + nonzero
    vals = vals + [float(diag[k]) if isinstance(diag[k], Fraction)
                   else diag[k] for k in nonzero]
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return WindowedOperator(matrix=mat, indices=sel, punctures=punctures,
                            diagonal=diag)


def windowed_trace(op: WindowedOperator, subregion: Region,
                   mode: str = "raw"):
    """Sum of diagonal entries over the subregion.

    raw: punctures inside the subregion.  interior-supertile: punctures of
    tiles entirely inside the subregion (the trace over O^-(subregion)),
    which matches the ergodic integral of the induced observable exactly.
    """
    punctures = op.punctures
    if mode == "raw":
        inside = lattice_test(subregion, punctures.scale,
                              punctures.grid[op.indices][:, None],
                              punctures.family.embedding)[1]
    elif mode == "interior-supertile":
        patch = punctures.patch
        if patch is None:
            raise UnsupportedOperationError(
                "interior-supertile mode needs the source patch")
        scale, corners = patch.placed([p.shape.vertices_list()
                                       for p in patch.family.prototiles])
        inside = lattice_test(subregion, scale, corners[op.indices],
                              patch.family.embedding)[1]
    else:
        raise StructuralError(f"unknown trace mode {mode!r}")
    total = 0
    for k in np.flatnonzero(inside).tolist():  # in order; .sum() rounds otherwise
        total += op.diagonal[k]
    return total


@dataclass
class TraceDeviationReport:
    slope: float
    target: Optional[float]         # d·lambda_r/lambda_1
    ratio: Optional[float]          # lambda_r/lambda_1
    trace_flag: Optional[bool]      # ratio > (d-1)/d
    fit: object


def trace_deviation(kernel: KernelSpec, family: RuleFamily, x, seq,
                    lyapunov=None, r: int = 2) -> TraceDeviationReport:
    """Growth slope of |tr(A restricted to the averaging sets)| vs log T.

    The diagonal of a finite-range kernel induces the depth-0 observable
    w_t = diag_t / vol_t, so the trace deviation is exactly the ergodic
    deviation of that observable along the special averaging sequence.
    """
    if not isinstance(kernel.diagonal, tuple):
        raise UnsupportedOperationError(
            "trace deviation needs a typewise diagonal rule")
    vols = family.volumes()
    w = tuple(Fraction(v) / vols[t] if isinstance(v, (int, Fraction))
              else v / float(vols[t]) for t, v in enumerate(kernel.diagonal))
    target = ratio = flag = None
    if lyapunov is not None:
        lam, d = lyapunov.raw_exponents, family.dim
        if not 1 <= r <= len(lam):
            raise StructuralError(
                f"r = {r} is not an exponent index of a spectrum with "
                f"{len(lam)} exponents")
        if not lam[0] > 0:
            raise ConvergenceError(f"top exponent {lam[0]!r} is not positive")
        ratio = lam[r - 1] / lam[0]
        target = d * ratio
        flag = ratio > (d - 1) / d
    fit = deviation_along_sequence(TLCObservable(0, w), seq, family, x)
    return TraceDeviationReport(slope=fit.slope, target=target, ratio=ratio,
                                trace_flag=flag, fit=fit)


@dataclass
class IDSReport:
    curves: list                    # one IDS array per window, same grid
    sup_differences: list           # ||IDS_{i+1} - IDS_i||_inf
    operators: list                 # the WindowedOperator of each window


def _unreliable_count(e, n, signal):
    return ConvergenceError(f"inertia count at E={e:g} (n={n}) is not "
                            f"reliable: {signal}")


def _fixed_order(matrix: sp.spmatrix):
    """(B, diag): A with its whole diagonal stored (zeros included), as CSC
    in SuperLU's minimum-degree order on A + A^T applied to rows and columns
    alike, and the positions of B's diagonal entries in B.data.

    The order depends on the pattern only, so it is read off one
    factorization of a strictly diagonally dominant matrix on A's pattern
    plus the diagonal, which neither fails nor pivots."""
    n = matrix.shape[0]
    coo = matrix.tocoo()
    every = np.arange(n)
    rows = np.concatenate([coo.row, every])
    cols = np.concatenate([coo.col, every])
    dominant = sp.csc_matrix((np.concatenate(
        [np.ones(coo.nnz), np.bincount(coo.col, minlength=n) + 1.0]),
        (rows, cols)), shape=(n, n))
    perm = spla.splu(dominant, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, panel_size=1,
                     options={"SymmetricMode": True}).perm_c
    # A[i, j] moves to B[perm[i], perm[j]]; duplicates sum, zeros stay
    # stored, and integer entries become floats
    base = sp.csc_matrix((np.concatenate([coo.data, np.zeros(n)]),
                          (perm[rows], perm[cols])), shape=(n, n))
    diag = np.flatnonzero(
        base.indices == np.repeat(every, np.diff(base.indptr)))
    return base, diag


def _inertia_counts(matrix: sp.spmatrix, energies: np.ndarray,
                    tiny: float) -> np.ndarray:
    """The negative pivots of one LDL^H of A - E·I per energy, in the fixed
    order of `_fixed_order`; a factorization that cannot be trusted raises
    the `ConvergenceError` of `_unreliable_count`."""
    n = matrix.shape[0]
    out = np.empty(len(energies), dtype=int)
    shifted, diag = _fixed_order(matrix)    # complex stays complex
    data = shifted.data.copy()
    for idx, e in enumerate(energies):
        shifted.data[:] = data
        shifted.data[diag] -= e
        try:
            lu = spla.splu(shifted, permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, panel_size=1,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:         # "Factor is exactly singular"
            if "singular" not in str(exc):
                raise
            raise _unreliable_count(e, n, str(exc)) from exc
        moved = int((lu.perm_r != lu.perm_c).sum())
        if moved:
            raise _unreliable_count(
                e, n, f"{moved} rows pivoted off the diagonal")
        pivots = lu.U.diagonal()
        smallest = float(np.abs(pivots).min())
        if smallest <= tiny:
            raise _unreliable_count(
                e, n, f"smallest pivot {smallest:.3g} <= n·eps·||A||_1 "
                      f"= {tiny:.3g}")
        out[idx] = int((pivots.real < 0).sum())
    return out


def eigenvalue_counts(matrix: sp.spmatrix, energies) -> np.ndarray:
    """#eigenvalues <= E for each E of a hermitian matrix.

    The matrix must be a square scipy sparse matrix, hermitian within
    n·eps·||A||_1, and every energy finite; otherwise a `StructuralError`
    names what is wrong.

    Gershgorin's theorem decides the energies outside the spectrum's
    enclosure without a factorization.  Every eigenvalue lies in
    [lo, hi], lo = min_i (Re a_ii - r_i) and hi = max_i (Re a_ii + r_i),
    with r_i = sum_{j != i} |a_ij|; tiny = n·eps·||A||_1 exceeds the
    rounding in r_i and in the two bounds.  So an energy E < lo - tiny
    counts 0, and one with E >= hi + tiny counts n (the count is #λ <= E,
    so a 1x1 zero matrix, where tiny = 0, counts 1 at E = 0).  Only the
    energies in between are factored, and a call whose energies all lie
    outside computes no order.

    Every other count is an inertia count, at every size.  A minimum-degree
    order on A + A^T (SuperLU's MMD_AT_PLUS_A) is computed once per matrix,
    from A's pattern plus the full diagonal (`_fixed_order`).  A is permuted
    into it once, with every diagonal entry stored, so each energy only
    subtracts E at the diagonal positions and factors P(A - E·I)P^T in that
    fixed order (NATURAL), in SymmetricMode with no pivoting threshold.  A
    diagonal entry that cancels to 0 stays stored, so SuperLU sees the zero
    pivot candidate and pivots off the diagonal.  With no such pivot the
    factorization is LDL^H, a congruence, so by Sylvester's law of inertia
    the number of negative pivots (the real parts of U's diagonal) is the
    number of eigenvalues below E.  The order only cuts fill: on a
    4,144-point half-hex Laplacian L+U holds 140,248 entries against
    COLAMD's 247,824, the same as a minimum-degree order computed afresh for
    every energy.

    An energy is refused when the factorization cannot be trusted: SuperLU
    finds A - E·I exactly singular, a zero diagonal made it pivot off the
    diagonal (row order != column order, so the factorization is no longer
    a congruence), or the smallest pivot |u_kk| is at most n·eps·||A||_1,
    so that rounding may have set its sign.  Up to _DENSE_LIMIT points a
    refusal is decided by dense `eigvalsh`: every energy of the call, those
    outside the enclosure included, is then counted by `searchsorted` on its
    eigenvalues, and rounding decides a tie.  Above _DENSE_LIMIT the
    refusal is raised as a `ConvergenceError` naming E, n and the signal.
    Every Laplacian has 0 as an exact eigenvalue, so the integer grids of
    the CLI defaults are counted dense.

    The checks do not catch every tie, so no count at an energy within
    rounding of an eigenvalue is reliable.  On the 1,089-point window of
    `schrod --family solenoid-2x3-2d --t-grid 16`, two eigenvalues lie
    within 2e-14 of E = 6.75, yet the smallest pivot (2.6e-9) is above the
    bound (3.9e-12): the inertia count is 354 where `eigvalsh` counts 353.
    """
    if not sp.issparse(matrix):
        raise StructuralError(f"eigenvalue counts need a scipy sparse matrix, "
                              f"not a {type(matrix).__name__}")
    if len(matrix.shape) != 2 or matrix.shape[0] != matrix.shape[1]:
        raise StructuralError(f"eigenvalue counts need a square matrix, "
                              f"not one of shape {matrix.shape}")
    energies = np.asarray(energies, dtype=float)
    if not np.isfinite(energies).all():
        bad = float(energies[~np.isfinite(energies)][0])
        raise StructuralError(f"energy {bad!r} is not a finite number")
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(len(energies), dtype=int)
    tiny = n * np.finfo(float).eps * spla.norm(matrix, 1)
    skew = abs(matrix - matrix.conj().T).max()
    if not skew <= tiny:
        raise StructuralError(
            f"matrix (n={n}) is not hermitian: max |A - A^H| = {skew:.3g} "
            f"> n·eps·||A||_1 = {tiny:.3g}")
    coo = matrix.tocoo()
    off = coo.row != coo.col
    radii = np.bincount(coo.row[off], np.abs(coo.data[off]), minlength=n)
    centres = matrix.diagonal().real
    lo, hi = (centres - radii).min(), (centres + radii).max()
    counts = np.where(energies < lo - tiny, 0, n)
    inside = (lo - tiny <= energies) & (energies < hi + tiny)
    try:
        if inside.any():
            counts[inside] = _inertia_counts(matrix, energies[inside], tiny)
        return counts
    except ConvergenceError:
        if n > _DENSE_LIMIT:
            raise
    vals = np.linalg.eigvalsh(matrix.toarray())
    return np.searchsorted(vals, energies, side="right")


def ids_estimate(kernel: KernelSpec, punctures_per_window, windows,
                 energies) -> IDSReport:
    """IDS_T(E) = #(eigenvalues <= E) / #points over a sweep of windows."""
    ops = []
    for punctures, window in zip(punctures_per_window, windows):
        ops.append(build_operator(kernel, punctures, window))
        if ops[-1].size == 0:
            raise StructuralError(f"window {window} contains no punctures")
    curves = [eigenvalue_counts(op.matrix, energies) / op.size for op in ops]
    sups = [float(np.abs(curves[i + 1] - curves[i]).max())
            for i in range(len(curves) - 1)]
    return IDSReport(curves=curves, sup_differences=sups, operators=ops)
