"""Path combinatorics of the diagram driven by a symbol sequence.

An edge at level k corresponds to a branch of rule x_k: it joins the child
vertex (level k-1 type) to the parent vertex (level k type).  Edges are
canonically ordered by (parent, child, branch index), making path enumeration
and lexicographic anchors well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import MinimalityError, StructuralError
from .geometry import ints
from .substitution import RuleFamily
from .symbolic import SymbolSequence
from .tiling import Patch, SupertileSystem, supertile_system


def path_fault(paths, length: int):
    """The first rule of a path of `length` edges (level, parent, child,
    branch) that one of `paths` breaks, or None; checked on columns, edge j
    of every path in one tuple, so many paths cost one pass."""
    if set(map(len, paths)) - {length}:
        return f"not of length {length}"
    level_of, parent_of, child_of = map(itemgetter, range(3))
    below = None
    for level, column in enumerate(zip(*paths), 1):
        if set(map(len, column)) != {4}:
            return "edge must be (level, parent, child, branch)"
        if set(map(level_of, column)) != {level}:
            return "edge levels must be consecutive from 1"
        if below is not None and (list(map(child_of, column))
                                  != list(map(parent_of, below))):
            return "path edges do not chain: r(e_i) != s(e_{i+1})"
        below = column
    return None


@dataclass(frozen=True)
class PathWord:
    """A finite path e_1..e_k; edge = (level, parent, child, branch index)."""

    edges: tuple

    def __post_init__(self):
        edges = tuple(map(ints, self.edges))
        if fault := path_fault((edges,), len(edges)):
            raise StructuralError(fault)
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
        for level, parent, child, branch in self.edges:
            if (parent, child, branch) not in (
                    e[:3] for e in family.rule(x[level]).edges):
                raise StructuralError(
                    f"no edge {parent}<-{child} with branch index {branch} "
                    f"at level {level}")
        return self


@dataclass(frozen=True)
class SpanningSystem:
    """One anchored path per (level, vertex): lexicographically least."""

    anchors: dict  # level -> {vertex: PathWord}

    def anchor(self, level: int, vertex: int) -> PathWord:
        return self.anchors[level][vertex]


def connectivity_matrices(family: RuleFamily, x: SymbolSequence, n: int):
    """[A_1..A_n] with A_k = substitution matrix of rule x_k."""
    return [family.matrix(x[k]) for k in range(1, n + 1)]


def path_counts(family: RuleFamily, x: SymbolSequence, n: int):
    """h^n = A_n ... A_1 · 𝟙, exact big integers: the row sums of
    `SupertileSystem.counts(n)`."""
    return SupertileSystem(family, x).counts(n).sum(axis=1).tolist()


def approximant(family: RuleFamily, x: SymbolSequence, path: PathWord,
                system: SupertileSystem = None) -> Patch:
    """The level-k approximant patch along `path`, tiles at unit scale.

    A descent frontier past the tile budget raises PartialCoverError naming
    the supertile; `path_counts` gives the counts without placing tiles.
    """
    path.validate(family, x)
    system = supertile_system(family, x, system)
    return system.expand(len(path), path.range,
                         system.path_offset(path.edges))


def spanning_system(family: RuleFamily, x: SymbolSequence, depth: int) -> SpanningSystem:
    """Lexicographically least anchored path for every vertex up to `depth`."""
    m = family.n_prototiles
    best = {0: {v: () for v in range(m)}}
    for level in range(1, depth + 1):
        cur = {}
        for parent, child, idx, _ in family.rule(x[level]).edges:
            path = best[level - 1][child] + ((level, parent, child, idx),)
            cur[parent] = min(cur.get(parent, path), path)
        missing = [v for v in range(m) if v not in cur]
        if missing:
            raise MinimalityError(
                f"vertices {missing} unreachable at level {level}")
        best[level] = cur
    return SpanningSystem({level: {v: PathWord(p) for v, p in cur.items()}
                           for level, cur in best.items()})
