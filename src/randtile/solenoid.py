"""Solenoids in the digit model: cylinder measures, variation, Denjoy-Koksma.

A point of the d-dimensional solenoid is (path, offset): the path gives the
position digit of each level-(k-1) supercube inside its level-k parent, the
offset the position inside the base unit cube.  All quantities are exact
rationals, so the Denjoy-Koksma inequality can be checked with no tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralError
from .geometry import frac
from .symbolic import rng_stream
from .tiling import DEFAULT_TILE_BUDGET

_VALUE_DENOMINATOR = 16   # random observable values are a/16, a in [-64, 64]


@dataclass(frozen=True)
class SolenoidSpec:
    """q̄ = (q_1, q_2, ...): finite prefix plus optional periodic tail."""

    dim: int
    prefix: tuple
    tail: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(int(q) for q in self.prefix))
        object.__setattr__(self, "tail", tuple(int(q) for q in self.tail))
        if self.dim < 1:
            raise StructuralError("dimension must be >= 1")
        if not self.prefix and not self.tail:
            raise StructuralError("need at least one subdivision factor")
        for q in self.prefix + self.tail:
            if q < 2:
                raise StructuralError("every q_k must be > 1")

    @staticmethod
    def periodic(qs, dim: int = 1) -> "SolenoidSpec":
        return SolenoidSpec(dim, (), tuple(qs))

    def q_at(self, k: int) -> int:
        """q_k, 1-indexed."""
        if k < 1:
            raise StructuralError("levels are 1-indexed")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if not self.tail:
            raise StructuralError(f"q_{k} beyond the finite prefix")
        return self.tail[(k - len(self.prefix) - 1) % len(self.tail)]

    def q_prod(self, n: int) -> int:
        """q_(n) = q_1 ··· q_n, exact."""
        out = 1
        for k in range(1, n + 1):
            out *= self.q_at(k)
        return out


@dataclass(frozen=True)
class CylinderObservable:
    """Locally constant observable: one value per cell of the depth-m grid."""

    depth: int
    values: tuple        # flat, C-order over the (q_(m),)^d grid

    def __post_init__(self):
        if self.depth < 0:
            raise StructuralError(f"observable depth {self.depth} is negative")

    @staticmethod
    def from_array(spec: SolenoidSpec, depth: int, values) -> "CylinderObservable":
        q = spec.q_prod(depth)
        arr = np.asarray(values, dtype=object)
        if arr.shape != (q,) * spec.dim:
            raise StructuralError(
                f"depth-{depth} observable needs shape {(q,) * spec.dim}")
        flat = tuple(frac(v) if not isinstance(v, Fraction) else v
                     for v in arr.reshape(-1))
        return CylinderObservable(depth, flat)

    def grid(self, spec: SolenoidSpec) -> np.ndarray:
        q = spec.q_prod(self.depth)
        return np.array(self.values, dtype=object).reshape((q,) * spec.dim)

    def mean(self) -> Fraction:
        """μ(f): cylinder-measure-weighted average (all cells weigh equally)."""
        return sum(self.values, Fraction(0)) / len(self.values)


def cylinder_measure(spec: SolenoidSpec, depth: int) -> Fraction:
    """Measure of every depth-k cylinder: q_(k)^{-d}."""
    if depth < 0:
        raise StructuralError("depth must be >= 0")
    return Fraction(1, spec.q_prod(depth) ** spec.dim)


def variation(f: CylinderObservable) -> Fraction:
    """Var(f): supremum of Σ_parts osc(f) over clopen partitions.

    With values sorted v_1 <= ... <= v_n the supremum pairs extremes:
    Var = Σ_j (v_{j+1} - v_j) · min(j, n - j).
    """
    vals = sorted(f.values)
    n = len(vals)
    total = Fraction(0)
    for j in range(1, n):
        total += (vals[j] - vals[j - 1]) * min(j, n - j)
    return total


def random_observable(spec: SolenoidSpec, depth: int, seed: int,
                      worker_id: int = 0) -> CylinderObservable:
    """Reproducible random rational observable on the depth-m grid; more
    than `DEFAULT_TILE_BUDGET` cells, q_(m)^d, is refused before the count
    or any cell is built, with the count written as that power."""
    q = spec.q_prod(depth)
    if spec.dim * math.log2(q) > math.log2(DEFAULT_TILE_BUDGET):
        base = str(q) if q.bit_length() <= 64 else \
            f"(about 2^{q.bit_length()})"
        power = "" if spec.dim == 1 else f"^{spec.dim}"
        raise StructuralError(
            f"a depth-{depth} observable has {base}{power} cells, past the "
            f"budget of {DEFAULT_TILE_BUDGET}")
    count = q ** spec.dim
    gen = rng_stream(seed, worker_id)
    den = _VALUE_DENOMINATOR
    vals = tuple(Fraction(int(a), den)
                 for a in gen.integers(-4 * den, 4 * den + 1, size=count))
    return CylinderObservable(depth, vals)


def base_cell(spec: SolenoidSpec, path, depth: int):
    """Position of the base tile inside its depth-m supercube.

    `path` lists the digit vector g_k in {0..q_k-1}^d per level k = 1..depth.
    """
    if len(path) < depth:
        raise StructuralError("path shorter than the observable depth")
    cell = [0] * spec.dim
    for k in range(1, depth + 1):
        g = tuple(int(c) for c in path[k - 1])
        if len(g) != spec.dim:
            raise StructuralError("path digit dimension mismatch")
        qk = spec.q_at(k)
        if any(c < 0 or c >= qk for c in g):
            raise StructuralError(f"digit {g} out of range at level {k}")
        scale = spec.q_prod(k - 1)
        for a in range(spec.dim):
            cell[a] += g[a] * scale
    return tuple(cell)


@dataclass
class DKEntry:
    n: int
    integral: Fraction              # S_n = ∫_{[0, q_(n)]^d} f ∘ φ_s ds
    target: Fraction                # q_(n)^d · μ(f)
    gap: Fraction                   # |S_n - target|


@dataclass
class DKReport:
    entries: list
    var: Fraction

    @property
    def max_gap(self) -> Fraction:
        return max((e.gap for e in self.entries), default=Fraction(0))

    @property
    def holds(self) -> bool:
        return all(e.gap <= self.var for e in self.entries)


def dk_check(spec: SolenoidSpec, f: CylinderObservable, y, path,
             n_values) -> DKReport:
    """Exact Birkhoff integrals over aligned cubes vs the Denjoy-Koksma bound.

    The flow starting at (path, offset y) crosses unit tiles whose depth-m
    cell advances by one per tile, so the integral is a weighted lattice sum:
    axis weights (1 - y_a), 1, ..., 1, y_a over q_(n) + 1 consecutive tiles,
    folded onto cell residues modulo q_(m).
    """
    y = tuple(frac(c) for c in y)
    if len(y) != spec.dim or any(c < 0 or c >= 1 for c in y):
        raise StructuralError("offset must lie in [0,1)^d")
    m = f.depth
    qm = spec.q_prod(m)
    grid = f.grid(spec)
    c0 = base_cell(spec, path, m)
    mu = f.mean()
    entries = []
    for n in sorted(set(int(n) for n in n_values)):
        if n < 0:
            raise StructuralError("n must be >= 0")
        qn = spec.q_prod(n)
        # per-axis weight of each residue class r modulo q_(m)
        weights = []
        for a in range(spec.dim):
            w = [Fraction(0)] * qm
            full, rem = divmod(qn - 1, qm)
            for r in range(qm):
                w[r] += full + (1 if 1 <= r <= rem or (r == 0 and rem == qm)
                                else 0)
            # j = 0 contributes 1 - y_a, j = q_(n) contributes y_a
            w[0] += 1 - y[a]
            w[qn % qm] += y[a]
            weights.append(w)
        total = Fraction(0)
        for r in itertools.product(range(qm), repeat=spec.dim):
            wprod = Fraction(1)
            for a in range(spec.dim):
                wprod *= weights[a][r[a]]
            if wprod:
                cell = tuple((c0[a] + r[a]) % qm for a in range(spec.dim))
                total += wprod * grid[cell]
        target = mu * qn ** spec.dim
        entries.append(DKEntry(n=n, integral=total, target=target,
                               gap=abs(total - target)))
    return DKReport(entries=entries, var=variation(f))
