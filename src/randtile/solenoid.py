"""Solenoids in the digit model: observables, variation, Denjoy-Koksma.

A point of the d-dimensional solenoid is (path, offset): the path gives the
position digit of each level-(k-1) supercube inside its level-k parent, the
offset the position inside the base unit cube.  All quantities are exact
rationals, so the Denjoy-Koksma inequality can be checked with no tolerance:
Birkhoff sums contract int value numerators with int residue weights.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import StructuralError
from .geometry import frac, ints, numerators
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
        object.__setattr__(self, "prefix", ints(self.prefix))
        object.__setattr__(self, "tail", ints(self.tail))
        if self.dim < 1:
            raise StructuralError("dimension must be >= 1")
        if not self.prefix and not self.tail:
            raise StructuralError("need at least one subdivision factor")
        if min(self.prefix + self.tail) < 2:
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
        return math.prod(self.q_at(k) for k in range(1, n + 1))

    def log2_q_prod(self, n: int) -> float:
        """log2 q_(n) in closed form over the prefix and the tail's periods."""
        if n > 0:
            self.q_at(n)     # past a finite prefix: refused as `q_at` does
        n, logs = max(n, 0), [math.log2(q) for q in self.tail]
        periods, rest = divmod(max(n - len(self.prefix), 0), len(logs) or 1)
        return periods * sum(logs) + sum(
            map(math.log2, self.prefix[:n] + self.tail[:rest]))


@dataclass(frozen=True)
class CylinderObservable:
    """Locally constant observable: one value per cell of the depth-m grid,
    each coerced once with `frac`."""

    depth: int
    values: tuple        # flat, C-order over the (q_(m),)^d grid

    def __post_init__(self):
        if self.depth < 0:
            raise StructuralError(f"observable depth {self.depth} is negative")
        object.__setattr__(self, "values", tuple(map(frac, self.values)))

    @staticmethod
    def from_array(spec: SolenoidSpec, depth: int, values) -> "CylinderObservable":
        q = spec.q_prod(depth)
        arr = np.asarray(values, dtype=object)
        if arr.shape != (q,) * spec.dim:
            raise StructuralError(
                f"depth-{depth} observable needs shape {(q,) * spec.dim}")
        return CylinderObservable(depth, arr.reshape(-1))

    def grid(self, spec: SolenoidSpec) -> np.ndarray:
        q = spec.q_prod(self.depth)
        return np.array(self.values, dtype=object).reshape((q,) * spec.dim)

    @cached_property
    def scaled(self):   # (D, (D·v, ...)), computed once and shared
        den, num = numerators(self.values)
        return den, tuple(num)

    def mean(self) -> Fraction:
        """μ(f): cylinder-measure-weighted average (all cells weigh equally)."""
        den, num = self.scaled
        return Fraction(sum(num), den * len(num))


def variation(f: CylinderObservable) -> Fraction:
    """Var(f): supremum of Σ_parts osc(f) over clopen partitions.

    With values sorted v_1 <= ... <= v_n the supremum pairs extremes, each
    gap v_{j+1} - v_j counted min(j, n - j) times: Var is the top half's sum
    less the bottom half's, taken on the integer numerators.
    """
    den, num = f.scaled
    vals = sorted(num)
    half = len(vals) // 2
    return Fraction(sum(vals[len(vals) - half:]) - sum(vals[:half]), den)


def grid_cells(spec: SolenoidSpec, depth: int) -> tuple:
    """(q_(m)^d, that count written as a power of the q_k, as "2^6·3^4") of
    the depth-m grid; more than `DEFAULT_TILE_BUDGET` cells is refused on
    log2 q_(m), exact near the edge, with the count written as q_(m)^d."""
    bits = spec.log2_q_prod(depth)    # q_(m) is built within 64 bits only
    q = spec.q_prod(depth) if bits < 65 else None
    if spec.dim * bits > math.log2(DEFAULT_TILE_BUDGET) + 1 or \
            q ** spec.dim > DEFAULT_TILE_BUDGET:
        base = str(q) if q and q.bit_length() <= 64 else \
            f"(about 2^{math.floor(bits) + 1})"
        power = "" if spec.dim == 1 else f"^{spec.dim}"
        raise StructuralError(
            f"a depth-{depth} observable has {base}{power} cells, past the "
            f"budget of {DEFAULT_TILE_BUDGET}")
    powers = Counter(spec.q_at(k) for k in range(1, depth + 1))
    return q ** spec.dim, "·".join(
        f"{b}^{e * spec.dim}" for b, e in sorted(powers.items())) or "1"


def random_observable(spec: SolenoidSpec, depth: int, seed: int,
                      worker_id: int = 0) -> CylinderObservable:
    """Reproducible random rational observable on the depth-m grid of
    `grid_cells`, which refuses an oversize grid before any cell is built."""
    cells, _ = grid_cells(spec, depth)
    den = _VALUE_DENOMINATOR
    nums = rng_stream(seed, worker_id).integers(-4 * den, 4 * den + 1,
                                                size=cells)
    # one shared Fraction per numerator, indexed by numerator + 4·den
    shared = [Fraction(a, den) for a in range(-4 * den, 4 * den + 1)]
    return CylinderObservable(depth, map(shared.__getitem__,
                                         (nums + 4 * den).tolist()))


def base_cell(spec: SolenoidSpec, path, depth: int):
    """Position of the base tile inside its depth-m supercube.

    `path` lists the digit vector g_k in {0..q_k-1}^d per level k = 1..depth.
    """
    if len(path) < depth:
        raise StructuralError("path shorter than the observable depth")
    cell, scale = (0,) * spec.dim, 1
    for k in range(1, depth + 1):
        g, qk = ints(path[k - 1]), spec.q_at(k)
        if len(g) != spec.dim:
            raise StructuralError("path digit dimension mismatch")
        if any(c < 0 or c >= qk for c in g):
            raise StructuralError(f"digit {g} out of range at level {k}")
        cell, scale = tuple(c + s * scale for c, s in zip(cell, g)), scale * qk
    return cell


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
    def holds(self) -> bool:
        return all(e.gap <= self.var for e in self.entries)


def dk_check(spec: SolenoidSpec, f: CylinderObservable, y, path,
             n_values) -> DKReport:
    """Exact Birkhoff integrals over aligned cubes vs the Denjoy-Koksma bound.

    Along axis a the flow from (path, offset y) crosses tiles j = 0..q_(n),
    weighing 1 - y_a, 1, ..., 1, y_a; tile j meets cell (c0_a + j) mod q_(m).
    Folded onto residues r the weight is #{j ≡ r} - y_a·[r = 0] - (1 - y_a)·
    [r = q_(n) mod q_(m)], an int times Y, the lcm of y's denominators.  S_n
    contracts the value numerators (over D), rolled by -c0, with each axis's
    weights in turn and is divided by D·Y^d once.
    """
    y = tuple(frac(c) for c in y)
    if len(y) != spec.dim or any(c < 0 or c >= 1 for c in y):
        raise StructuralError("offset must lie in [0,1)^d")
    ylcm, ynum = numerators(y)
    qm = spec.q_prod(f.depth)
    c0 = base_cell(spec, path, f.depth)
    den, num = f.scaled
    grid = np.roll(np.array(num, dtype=object).reshape((qm,) * spec.dim),
                   [-c for c in c0], axis=tuple(range(spec.dim)))
    scale, mu = den * ylcm ** spec.dim, f.mean()
    entries = []
    for n in sorted(set(ints(n_values))):
        if n < 0:
            raise StructuralError("n must be >= 0")
        qn = spec.q_prod(n)
        # q_(n) + 1 tiles: residues 0..rem meet full + 1 of them, the rest full
        full, rem = divmod(qn, qm)
        total = grid
        for yn in ynum:
            w = [(full + 1) * ylcm] * (rem + 1) + [full * ylcm] * (qm - rem - 1)
            w[0] -= yn
            w[rem] -= ylcm - yn
            total = np.tensordot(np.array(w, dtype=object), total, axes=1)
        integral = Fraction(total.item(), scale)
        target = mu * qn ** spec.dim
        entries.append(DKEntry(n=n, integral=integral, target=target,
                               gap=abs(integral - target)))
    return DKReport(entries=entries, var=variation(f))
