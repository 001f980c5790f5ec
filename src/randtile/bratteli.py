"""Path combinatorics of the diagram driven by a symbol sequence.

An edge at level k corresponds to a branch of rule x_k: it joins the child
vertex (level k-1 type) to the parent vertex (level k type).  Edges are
canonically ordered by (parent, child, branch index), making path enumeration
and lexicographic anchors well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MinimalityError, StructuralError
from .substitution import RuleFamily, substitution_matrix
from .symbolic import SymbolSequence
from .tiling import DEFAULT_TILE_BUDGET, Patch, SupertileSystem


@dataclass(frozen=True)
class PathWord:
    """A finite path e_1..e_k; edge = (level, parent, child, branch index)."""

    edges: tuple

    def __post_init__(self):
        edges = tuple(tuple(int(c) for c in e) for e in self.edges)
        for i, e in enumerate(edges):
            if len(e) != 4:
                raise StructuralError("edge must be (level, parent, child, branch)")
            if e[0] != i + 1:
                raise StructuralError("edge levels must be consecutive from 1")
        for a, b in zip(edges, edges[1:]):
            if a[1] != b[2]:
                raise StructuralError("path edges do not chain: r(e_i) != s(e_{i+1})")
        object.__setattr__(self, "edges", edges)

    def __len__(self):
        return len(self.edges)

    @property
    def source(self) -> int:
        """s(ē): the level-0 vertex."""
        return self.edges[0][2] if self.edges else 0

    @property
    def range(self) -> int:
        """r(ē): the terminal vertex at level len(self)."""
        return self.edges[-1][1] if self.edges else 0

    def prefix(self, k: int) -> "PathWord":
        return PathWord(self.edges[:k])

    def validate(self, family: RuleFamily, x: SymbolSequence):
        for (level, parent, child, branch) in self.edges:
            if level > len(x):
                raise StructuralError("path longer than sequence")
            rule = family.rule(x[level])
            mult = sum(1 for b in rule.branches
                       if b.parent == parent and b.child == child)
            if branch >= mult:
                raise StructuralError(
                    f"branch index {branch} out of range at level {level} "
                    f"({parent}<-{child} has multiplicity {mult})")
        return self


@dataclass(frozen=True)
class SpanningSystem:
    """One anchored path per (level, vertex): lexicographically least."""

    anchors: dict  # level -> {vertex: PathWord}

    def anchor(self, level: int, vertex: int) -> PathWord:
        return self.anchors[level][vertex]


def connectivity_matrices(family: RuleFamily, x: SymbolSequence, n: int):
    """[A_1..A_n] with A_k = substitution matrix of rule x_k."""
    if n > len(x):
        raise StructuralError("n exceeds sequence length")
    m = family.n_prototiles
    return [substitution_matrix(family.rule(x[k]), m) for k in range(1, n + 1)]


def path_counts(family: RuleFamily, x: SymbolSequence, n: int):
    """h^n = A_n ... A_1 · 𝟙, exact big integers."""
    m = family.n_prototiles
    h = [1] * m
    for a in connectivity_matrices(family, x, n):
        h = [sum(int(a[i, j]) * h[j] for j in range(m)) for i in range(m)]
    return h


def approximant(family: RuleFamily, x: SymbolSequence, path: PathWord,
                budget: int = DEFAULT_TILE_BUDGET,
                system: SupertileSystem = None) -> Patch:
    """The level-k approximant patch along `path`, tiles at unit scale.

    More than `budget` tiles raises PartialCoverError; `path_counts` gives
    the counts without placing tiles.
    """
    path.validate(family, x)
    if system is None:
        system = SupertileSystem(family, x)
    tiles = []
    system.expand(len(path), path.range, system.path_offset(path.edges),
                  tiles, budget)
    return Patch(tiles, family=family)


def spanning_system(family: RuleFamily, x: SymbolSequence, depth: int) -> SpanningSystem:
    """Lexicographically least anchored path for every vertex up to `depth`."""
    if depth > len(x):
        raise StructuralError("depth exceeds sequence length")
    m = family.n_prototiles
    best = {0: {v: PathWord(()) for v in range(m)}}
    for level in range(1, depth + 1):
        rule = family.rule(x[level])
        cur = {}
        for parent in range(m):
            cands = []
            seen = {}
            for b in rule.children_of(parent):
                idx = seen.get(b.child, 0)
                seen[b.child] = idx + 1
                prev = best[level - 1].get(b.child)
                if prev is None:
                    continue
                cands.append(PathWord(prev.edges + ((level, parent, b.child, idx),)))
            if cands:
                cur[parent] = min(cands, key=lambda p: p.edges)
        if not cur:
            raise MinimalityError(f"no vertex reachable at level {level}")
        missing = [v for v in range(m) if v not in cur]
        if missing:
            raise MinimalityError(
                f"vertices {missing} unreachable at level {level}")
        best[level] = cur
    return SpanningSystem(best)
