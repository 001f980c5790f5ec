"""Prototiles, uniformly expanding substitution rules, and built-in families.

A rule consists of branches f(x) = θ·x + τ, one contraction ratio θ per rule,
mapping child prototiles into a parent prototile so that the images tile the
parent exactly.  Matrix-only rules carry branch multiplicities without τ.

The half-hexagon family stores coordinates as (a, b) meaning the Euclidean
point (a, b·√3), which keeps every vertex, translation, and area rational; the
family's `embedding` records the (1, √3) stretch used for metric work.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .errors import StructuralError
from .geometry import Box, Polygon, frac, fpoint

HALF = Fraction(1, 2)

# Rotation by 60 degrees in (a, b·√3) coordinates.
ROT60 = ((HALF, Fraction(-3, 2)), (HALF, HALF))


def _rotate(p, k):
    """p rotated by k·60 degrees, exactly."""
    for _ in range(k % 6):
        p = (ROT60[0][0] * p[0] + ROT60[0][1] * p[1],
             ROT60[1][0] * p[0] + ROT60[1][1] * p[1])
    return p


@dataclass(frozen=True)
class Prototile:
    """A reference tile: shape with the origin interior plus a puncture."""

    id: int
    shape: object  # geometry.Box or geometry.Polygon
    puncture: tuple = None
    name: str = ""

    def __post_init__(self):
        if self.shape.volume() <= 0:
            raise StructuralError(f"prototile {self.id} has nonpositive volume")
        origin = tuple(Fraction(0) for _ in range(self.shape.dim))
        if not self.shape.contains_point(origin, strict=True):
            raise StructuralError(f"prototile {self.id}: origin not interior")
        if self.puncture is None:
            object.__setattr__(self, "puncture", self.shape.centroid())
        else:
            object.__setattr__(self, "puncture", fpoint(self.puncture))
        if not self.shape.contains_point(self.puncture, strict=True):
            raise StructuralError(f"prototile {self.id}: puncture not interior")

    @property
    def volume(self) -> Fraction:
        return self.shape.volume()


@dataclass(frozen=True)
class Branch:
    parent: int
    child: int
    tau: Optional[tuple] = None  # None for matrix-only rules

    def __post_init__(self):
        if self.tau is not None:
            object.__setattr__(self, "tau", fpoint(self.tau))


@dataclass(frozen=True)
class SubstitutionRule:
    """One substitution rule: f_branch(x) = theta*x + tau_branch."""

    id: int
    theta: Fraction
    branches: tuple

    def __post_init__(self):
        theta = frac(self.theta)
        if not (0 < theta < 1):
            raise StructuralError(f"rule {self.id}: theta must lie in (0,1)")
        object.__setattr__(self, "theta", theta)
        # canonical order: (parent, child, tau) so branch indexing is total
        branches = tuple(sorted(
            (b if isinstance(b, Branch) else Branch(*b) for b in self.branches),
            key=lambda b: (b.parent, b.child, b.tau if b.tau is not None else ())))
        object.__setattr__(self, "branches", branches)

    @property
    def is_geometric(self) -> bool:
        return all(b.tau is not None for b in self.branches)

    def children_of(self, parent: int):
        return [b for b in self.branches if b.parent == parent]

    @cached_property
    def edges(self) -> tuple:
        """The diagram edges of this rule in branch order: (parent, child,
        index, branch), index counting the earlier branches with the same
        parent and child."""
        seen = Counter()
        out = []
        for b in self.branches:
            out.append((b.parent, b.child, seen[b.parent, b.child], b))
            seen[b.parent, b.child] += 1
        return tuple(out)


@dataclass(frozen=True)
class RuleFamily:
    """A finite family of uniformly expanding substitution rules."""

    name: str
    prototiles: tuple
    rules: tuple
    dim: int
    embedding: Optional[tuple] = None  # diagonal Euclidean stretch per axis

    def __post_init__(self):
        object.__setattr__(self, "prototiles", tuple(self.prototiles))
        object.__setattr__(self, "rules", tuple(self.rules))
        ids = [p.id for p in self.prototiles]
        if ids != list(range(len(ids))):
            raise StructuralError("prototile ids must be 0..M-1 in order")
        for r in self.rules:
            for b in r.branches:
                if b.parent not in ids or b.child not in ids:
                    raise StructuralError(
                        f"rule {r.id} references unknown prototile id")
                if b.tau is not None and len(b.tau) != self.dim:
                    raise StructuralError("branch translation dimension mismatch")

    @property
    def geometric(self) -> bool:
        return all(r.is_geometric for r in self.rules)

    @property
    def n_prototiles(self) -> int:
        return len(self.prototiles)

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    def rule(self, symbol: int) -> SubstitutionRule:
        """Rule for 1-based symbol (matching sequence alphabet {1..N})."""
        if not 1 <= symbol <= len(self.rules):
            raise StructuralError(f"symbol {symbol} outside alphabet")
        return self.rules[symbol - 1]

    def matrix(self, symbol: int) -> np.ndarray:
        """Substitution matrix of the rule for `symbol` (cached, read-only)."""
        rule = self.rule(symbol)
        cache = self.__dict__.setdefault("_matrices", {})
        if symbol not in cache:
            cache[symbol] = substitution_matrix(rule, self.n_prototiles)
            cache[symbol].flags.writeable = False
        return cache[symbol]

    def volumes(self):
        return [p.volume for p in self.prototiles]


@dataclass
class ValidationReport:
    residuals: dict          # parent id -> parent volume - Σ image volumes
    max_overlap: Fraction
    passed: bool
    notes: list = field(default_factory=list)


def validate_rule(rule: SubstitutionRule,
                  prototiles: Sequence[Prototile]) -> ValidationReport:
    """Check that each parent is tiled exactly by its branch images.

    Exact: the images tile the parent iff every image lies inside it, no two
    images overlap, and their volumes add up to the parent volume.
    """
    if not rule.is_geometric:
        raise StructuralError("validate_rule requires a geometric rule")
    by_id = {p.id: p for p in prototiles}
    for b in rule.branches:
        if b.parent not in by_id or b.child not in by_id:
            raise StructuralError("branch references unknown prototile id")
    residuals = {}
    max_overlap = Fraction(0)
    notes = []
    for parent_id, parent in by_id.items():
        branches = rule.children_of(parent_id)
        images = [by_id[b.child].shape.transform(rule.theta, b.tau)
                  for b in branches]
        for b, img in zip(branches, images):
            if not parent.shape.contains_shape(img):
                notes.append(f"parent {parent_id}: image of child {b.child} "
                             f"leaks outside the parent")
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                max_overlap = max(max_overlap,
                                  images[i].intersection_volume(images[j]))
        residuals[parent_id] = parent.shape.volume() - sum(
            (img.volume() for img in images), Fraction(0))
    passed = (not notes and max_overlap == 0
              and all(r == 0 for r in residuals.values()))
    return ValidationReport(residuals, max_overlap, passed, notes)


def substitution_matrix(rule: SubstitutionRule, n_prototiles: int) -> np.ndarray:
    """A(i, j) = number of branches with parent i and child j."""
    a = np.zeros((n_prototiles, n_prototiles), dtype=np.int64)
    for b in rule.branches:
        a[b.parent, b.child] += 1
    return a


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

# Half-hexagon base data, in (a, b·√3) coordinates.  The base trapezoid has
# Euclidean vertices (-1,0),(1,0),(1/2,√3/2),(-1/2,√3/2); the doubled tile is
# covered by four half-hexagons: rotations 240°, 0°, 120°, 180° at the offsets
# below.  Tiles are shifted by (0, √3/4) so the origin is interior.
_HH_BASE = [(-1, 0), (1, 0), (HALF, HALF), (-HALF, HALF)]
_HH_SHIFT = (Fraction(0), Fraction(-1, 4))
_HH_PIECES = [
    (4, (Fraction(-3, 2), HALF)),
    (0, (Fraction(0), Fraction(0))),
    (2, (Fraction(3, 2), HALF)),
    (3, (Fraction(0), Fraction(1))),
]
HALF_HEX_EMBEDDING = (1.0, math.sqrt(3.0))

# Second half-hex rule, matrix-only: circulant, first row below, eigenvalues
# {16, 7±i√3, 2, 2, 2}.
HALF_HEX_MATRIX_2_ROW = (6, 2, 1, 4, 2, 1)


def _half_hex_prototiles():
    base = [geometry.vadd(v, _HH_SHIFT) for v in _HH_BASE]
    tiles = []
    for k in range(6):
        tiles.append(Prototile(k, Polygon([_rotate(v, k) for v in base]),
                               name=f"half-hex-{k * 60}"))
    return tiles


def _half_hex_rule1(rule_id=1) -> SubstitutionRule:
    branches = []
    for parent in range(6):
        for child, a in _HH_PIECES:
            # piece offsets for the shifted prototiles
            a_shifted = geometry.vsub(
                geometry.vadd(a, geometry.vscale(2, _HH_SHIFT)),
                _rotate(_HH_SHIFT, child))
            tau = geometry.vscale(HALF, _rotate(a_shifted, parent))
            branches.append(Branch((parent), (parent + child) % 6, tau))
    return SubstitutionRule(rule_id, HALF, tuple(branches))


def _half_hex_rule2(rule_id=2) -> SubstitutionRule:
    branches = []
    for parent in range(6):
        for j, count in enumerate(HALF_HEX_MATRIX_2_ROW):
            child = (parent + j) % 6
            branches.extend(Branch(parent, child) for _ in range(count))
    return SubstitutionRule(rule_id, Fraction(1, 4), tuple(branches))


def half_hex_classical() -> RuleFamily:
    """Geometric classical half-hexagon family (single rule, θ = 1/2)."""
    return RuleFamily("half-hex-classical", _half_hex_prototiles(),
                      (_half_hex_rule1(1),), dim=2,
                      embedding=HALF_HEX_EMBEDDING)


def half_hex_pair() -> RuleFamily:
    """Two half-hex rules: rule 1 geometric (θ=1/2), rule 2 matrix-only (θ=1/4)."""
    return RuleFamily("half-hex-pair", _half_hex_prototiles(),
                      (_half_hex_rule1(1), _half_hex_rule2(2)), dim=2,
                      embedding=HALF_HEX_EMBEDDING)


def solenoid_family(qs: Sequence[int], d: int) -> RuleFamily:
    """Single cube prototile; rule per q subdivides it into q^d translates."""
    if d < 1:
        raise StructuralError("dimension must be >= 1")
    if any(q < 2 for q in qs):
        raise StructuralError("every q must be > 1")
    cube = Box([-HALF] * d, [HALF] * d)
    proto = Prototile(0, cube, name=f"cube-{d}d")
    rules = []
    for idx, q in enumerate(qs):
        branches = []
        for flat in range(q ** d):
            digits = []
            rem = flat
            for _ in range(d):
                digits.append(rem % q)
                rem //= q
            tau = tuple(Fraction(2 * g + 1 - q, 2 * q) for g in digits)
            branches.append(Branch(0, 0, tau))
        rules.append(SubstitutionRule(idx + 1, Fraction(1, q), tuple(branches)))
    name = "solenoid-" + "x".join(str(q) for q in qs) + f"-{d}d"
    return RuleFamily(name, (proto,), tuple(rules), dim=d)


def one_d_pair() -> RuleFamily:
    """1D smoke-test family: two interval prototiles, two geometric rules."""
    seg = Box([-HALF], [HALF])
    protos = (Prototile(0, seg, name="seg-a"), Prototile(1, seg, name="seg-b"))
    third = Fraction(1, 3)
    r1 = SubstitutionRule(1, third, (
        Branch(0, 0, (-third,)), Branch(0, 0, (Fraction(0),)), Branch(0, 1, (third,)),
        Branch(1, 0, (-third,)), Branch(1, 1, (Fraction(0),)), Branch(1, 1, (third,)),
    ))
    quarter = Fraction(1, 4)
    r2 = SubstitutionRule(2, HALF, (
        Branch(0, 0, (-quarter,)), Branch(0, 1, (quarter,)),
        Branch(1, 1, (-quarter,)), Branch(1, 0, (quarter,)),
    ))
    return RuleFamily("one-d-pair", protos, (r1, r2), dim=1)


def matrix_only_family(name: str, matrices: Sequence[np.ndarray],
                       thetas: Sequence = None, dim: int = 2) -> RuleFamily:
    """Family carrying only branch multiplicities (no geometry).

    Prototiles are unit boxes; the cocycle and combinatorial machinery only
    consume the matrices and θ.
    """
    m = len(matrices[0])
    cube = Box([-HALF] * dim, [HALF] * dim)
    protos = tuple(Prototile(i, cube, name=f"type-{i}") for i in range(m))
    if thetas is None:
        thetas = [HALF] * len(matrices)
    rules = []
    for idx, (mat, theta) in enumerate(zip(matrices, thetas)):
        branches = []
        arr = np.asarray(mat)
        for i in range(m):
            for j in range(m):
                branches.extend(Branch(i, j) for _ in range(int(arr[i, j])))
        rules.append(SubstitutionRule(idx + 1, frac(theta), tuple(branches)))
    return RuleFamily(name, protos, tuple(rules), dim=dim)


def builtin_families():
    """The built-in rule families."""
    return [
        half_hex_classical(),
        half_hex_pair(),
        solenoid_family([2], 1),
        solenoid_family([2, 3], 2),
        one_d_pair(),
    ]


_NAMED_FAMILIES = {"half-hex-classical": half_hex_classical,
                   "half-hex-pair": half_hex_pair, "one-d-pair": one_d_pair}


def builtin_family(name: str) -> RuleFamily:
    """The family called `name`, built alone: a named family, or a solenoid
    parsed from its name ("solenoid-2x3-2d")."""
    if name in _NAMED_FAMILIES:
        return _NAMED_FAMILIES[name]()
    if name.startswith("solenoid-"):
        try:
            body = name[len("solenoid-"):]
            qs_part, d_part = body.rsplit("-", 1)
            qs = [int(q) for q in qs_part.split("x")]
            fam = solenoid_family(qs, int(d_part.rstrip("d")))
            if fam.name == name:     # refuses "solenoid-02-1d", "...-1dd"
                return fam
        except (ValueError, StructuralError):
            pass
    raise StructuralError(f"unknown builtin family {name!r}")


# ---------------------------------------------------------------------------
# Rule-file JSON interface
# ---------------------------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def family_to_json(family: RuleFamily) -> dict:
    protos = []
    for p in family.prototiles:
        if isinstance(p.shape, Polygon):
            verts = [[_frac_str(c) for c in v] for v in p.shape.vertices]
        else:
            verts = [[_frac_str(c) for c in p.shape.lo],
                     [_frac_str(c) for c in p.shape.hi]]
        protos.append({
            "id": p.id,
            "kind": "polygon" if isinstance(p.shape, Polygon) else "box",
            "vertices": verts,
            "puncture": [_frac_str(c) for c in p.puncture],
            "name": p.name,
        })
    rules = []
    for r in family.rules:
        rules.append({
            "id": r.id,
            "theta": _frac_str(r.theta),
            "branches": [
                {"parent": b.parent, "child": b.child,
                 **({"tau": [_frac_str(c) for c in b.tau]} if b.tau is not None else {})}
                for b in r.branches],
        })
    out = {"dimension": family.dim, "name": family.name,
           "prototiles": protos, "rules": rules}
    if family.embedding is not None:
        out["embedding"] = list(family.embedding)
    return out


def family_from_json(data: dict) -> RuleFamily:
    """The family `family_to_json` wrote.  A missing key, a malformed entry,
    a geometric rule that fails `validate_rule` or a matrix-only rule that
    breaks the volume identity A·vol = θ^{-d}·vol is a `StructuralError`
    naming the key or the rule."""
    if not isinstance(data, dict):
        raise StructuralError(f"a family is a JSON object, not a "
                              f"{type(data).__name__}")
    try:
        family = _family_from_dict(data)
    except KeyError as exc:
        raise StructuralError(f"missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"malformed family data: {exc}") from None
    for rule in family.rules:
        if rule.is_geometric:
            rep = validate_rule(rule, family.prototiles)
            if not rep.passed:
                faults = rep.notes + [
                    f"parent {p} is off by volume {r}"
                    for p, r in rep.residuals.items() if r]
                if rep.max_overlap:
                    faults.append(f"images overlap by {rep.max_overlap}")
                raise StructuralError(f"rule {rule.id} does not tile its "
                                      f"parents: {'; '.join(faults)}")
        else:
            vols = family.volumes()
            images = [Fraction(0)] * family.n_prototiles
            for b in rule.branches:
                images[b.parent] += vols[b.child]
            faults = [f"parent {p} has A·vol = {got}, not θ^-d·vol = {want}"
                      for p, (got, want) in enumerate(zip(images, (
                          v / rule.theta ** family.dim for v in vols)))
                      if got != want]
            if faults:
                raise StructuralError(f"rule {rule.id} breaks the volume "
                                      f"identity: {'; '.join(faults)}")
    return family


def _family_from_dict(data: dict) -> RuleFamily:
    dim = int(data["dimension"])
    protos = []
    for p in data["prototiles"]:
        kind = p.get("kind", "polygon" if dim == 2 else "box")
        if kind == "polygon":
            shape = Polygon([[frac(c) for c in v] for v in p["vertices"]])
        else:
            lo, hi = p["vertices"]
            shape = Box([frac(c) for c in lo], [frac(c) for c in hi])
        protos.append(Prototile(int(p["id"]), shape,
                                puncture=p.get("puncture"),
                                name=p.get("name", "")))
    rules = []
    for r in data["rules"]:
        branches = [Branch(int(b["parent"]), int(b["child"]),
                           tuple(frac(c) for c in b["tau"]) if "tau" in b else None)
                    for b in r["branches"]]
        rules.append(SubstitutionRule(int(r["id"]), frac(r["theta"]), tuple(branches)))
    emb = tuple(data["embedding"]) if "embedding" in data else None
    return RuleFamily(data.get("name", "custom"), tuple(protos), tuple(rules),
                      dim=dim, embedding=emb)


def load_family(path) -> RuleFamily:
    """`family_from_json` of a file; any fault is a `StructuralError` naming
    the file."""
    try:
        with open(path) as fh:
            return family_from_json(json.load(fh))
    except OSError as exc:
        raise StructuralError(f"family file {path}: {exc.strerror}") from None
    except ValueError as exc:     # JSONDecodeError, UnicodeDecodeError
        raise StructuralError(f"family file {path} is not JSON: {exc}") from None
    except StructuralError as exc:
        raise StructuralError(f"family file {path}: {exc}") from None


def save_family(family: RuleFamily, path):
    with open(path, "w") as fh:
        json.dump(family_to_json(family), fh, indent=2)
