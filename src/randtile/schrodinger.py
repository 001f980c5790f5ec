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
from scipy.spatial import cKDTree

from . import geometry
from .errors import (ConvergenceError, IncompletePatternError,
                     StructuralError, UnsupportedOperationError)
from .ergodic import TLCObservable, deviation_along_sequence
from .substitution import RuleFamily
from .tiling import (Patch, Region, _checked, _window_extremes,
                     lattice_points, lattice_test)

_DENSE_LIMIT = 4000


# Punctures within one radius: pair k joins i[k] < j[k], and disps[cls[k]]
# is its exact displacement points[j] - points[i].
PuncturePairs = namedtuple("PuncturePairs", "i j cls disps")


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
        emb = (self.grid.astype(object) / scale).astype(float)
        if family.embedding is not None:
            emb = emb * np.array([float(e) for e in family.embedding])
        self.embedded = emb
        self._tree = cKDTree(emb) if len(self) else None
        self._pairs = {}               # radius -> PuncturePairs

    def __len__(self):
        return len(self.types)

    @cached_property
    def points(self) -> list:
        return lattice_points(self.grid, self.scale)

    @staticmethod
    def from_patch(patch: Patch, window: Optional[Region] = None
                   ) -> "PunctureSet":
        scale, grid = patch.placed([[p.puncture]
                                    for p in patch.family.prototiles])
        return PunctureSet(patch.types, grid[:, 0], scale, patch.family,
                           patch=patch, source_window=window)

    def min_gap(self) -> float:
        """Smallest puncture separation (uniform discreteness witness)."""
        if len(self) < 2:
            return math.inf
        d, _ = self._tree.query(self.embedded, k=2)
        return float(d[:, 1].min())

    def pairs(self, radius: float) -> PuncturePairs:
        """Index pairs i < j within embedded distance `radius` (cached per
        radius).  The exact distance test runs once per class of equal
        lattice displacements."""
        if radius in self._pairs:
            return self._pairs[radius]
        ij = (self._tree.query_pairs(radius + 1e-9, output_type="ndarray")
              if len(self) else np.zeros((0, 2), dtype=np.intp))
        classes, cls = {}, []          # lattice displacement -> class
        for d in (self.grid[ij[:, 1]] - self.grid[ij[:, 0]]).tolist():
            cls.append(classes.setdefault(tuple(d), len(classes)))
        cls = np.array(cls, dtype=np.intp)
        disps = lattice_points(list(classes), self.scale)
        emb = self.family.embedding
        near = np.array([math.dist(geometry.embed_point(d, emb), (0.0,) * len(d))
                         <= radius + 1e-9 for d in disps], dtype=bool)
        keep = near[cls]
        self._pairs[radius] = PuncturePairs(
            ij[keep, 0], ij[keep, 1], (np.cumsum(near) - 1)[cls[keep]],
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
    (#neighbors within range) or one real value per prototile id; the
    off-diagonal entry at -disp is the conjugate of the one at disp."""

    range: float
    diagonal: object = None                      # None | "degree" | values
    offdiagonal: object = 0                      # scalar, or ((disp, v), ...)

    def __post_init__(self):
        if isinstance(self.diagonal, (list, tuple, np.ndarray)) and all(
                isinstance(v, numbers.Real) for v in self.diagonal):
            object.__setattr__(self, "diagonal", tuple(self.diagonal))
        elif self.diagonal not in (None, "degree"):
            raise StructuralError(f"kernel diagonal {self.diagonal!r} is not "
                                  "None, 'degree' or one real value per type")
        if self.range < 0:
            raise StructuralError("kernel range must be >= 0")

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
        if isinstance(self.offdiagonal, (int, float, complex, Fraction)):
            return self.offdiagonal
        return dict(self.offdiagonal).get(disp, 0)


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


def eigenvalue_counts(matrix: sp.spmatrix, energies) -> np.ndarray:
    """#eigenvalues <= E for each E, exact up to solver tolerance.

    Dense solve below _DENSE_LIMIT points; sparse LDL^T inertia counting
    (LU with no pivoting threshold on A - E·I) above.
    """
    n = matrix.shape[0]
    energies = np.asarray(energies, dtype=float)
    if n == 0:
        return np.zeros(len(energies), dtype=int)
    if n <= _DENSE_LIMIT:
        vals = np.linalg.eigvalsh(matrix.toarray())
        return np.searchsorted(vals, energies, side="right")
    out = np.empty(len(energies), dtype=int)
    base = matrix.tocsc().astype(float)
    eye = sp.identity(n, format="csc")
    for idx, e in enumerate(energies):
        lu = spla.splu((base - e * eye).tocsc(), diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        out[idx] = int((lu.U.diagonal() < 0).sum())
    return out


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
