"""The integer-lattice supertile descent against the exact Fraction descent.

`_ref_cover` / `_ref_expand` are the depth-first walks the package used
before its descent moved to integer numpy frontiers; they are kept here as
the reference that ordered tile lists and decomposition reports must match.
`_ref_inside` is the per-point Fraction window membership that operator
assembly and windowed traces used before they moved to the same lattice.
`_ref_anchor` is the best-first anchor search on Fraction footprints that
the package ran before the search moved to the integer level tables.
"""

import heapq
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from randtile.bratteli import approximant, spanning_system
from randtile import geometry
from randtile.errors import (PartialCoverError, StructuralError,
                             UnsupportedOperationError)
from randtile.geometry import Box, embed_point, vadd, vscale, vsub
from randtile.schrodinger import (KernelSpec, PunctureSet, build_operator,
                                  windowed_trace)
from randtile.substitution import (Branch, Prototile, RuleFamily,
                                   SubstitutionRule, half_hex_classical,
                                   load_family)
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import (ANCHOR_MAX_EXPANSIONS, ANCHOR_MAX_LEVEL, Patch,
                             Region, SupertileSystem, decompose_region,
                             generate_patch, lattice_points, lattice_test)

import oracles


def _ref_footprint(system, k, v, offset):
    return system.family.prototiles[v].shape.transform(system.theta_inv(k),
                                                       offset)


def _ref_children(system, k, v):
    ti = system.theta_inv(k)
    return [(b.child, vscale(ti, b.tau))
            for b in system.rule_at(k).children_of(v)]


def _ref_cover(system, window, k, v, offset):
    """Depth first: (level, type, offset, inside) of the maximal supertiles
    inside the window and of the level-0 tiles its boundary cuts."""
    emb = system.family.embedding
    stack = [(k, v, offset)]
    while stack:
        k, v, off = stack.pop()
        placed = _ref_footprint(system, k, v, off)
        if not oracles.meets_bbox(window, *placed.bbox(), emb):
            continue
        inside = oracles.inside(window, placed.vertices_list(), emb)
        if inside or k == 0:
            yield k, v, off, inside
        else:
            stack.extend((k - 1, child, vadd(off, delta))
                         for child, delta in reversed(_ref_children(system, k, v)))


def _as_patch(tiles, family):
    """The Patch of a list of (type, Fraction offset) tiles."""
    scale = math.lcm(*(c.denominator for _, off in tiles for c in off))
    offsets = [[int(c * scale) for c in off] for _, off in tiles]
    return Patch([t for t, _ in tiles],
                 np.array(offsets, dtype=object).reshape(-1, family.dim),
                 scale, family)


def _ref_expand(system, k, v, offset, tiles, budget):
    if k == 0:
        if len(tiles) >= budget:
            raise PartialCoverError("tile budget exhausted",
                                    partial=_as_patch(tiles, system.family))
        tiles.append((v, offset))
        return
    for child, delta in _ref_children(system, k, v):
        _ref_expand(system, k - 1, child, vadd(offset, delta), tiles, budget)


def _ref_patch(system, window, anchor, budget=10 ** 7):
    tiles = []
    for k, v, off, inside in _ref_cover(system, window, *anchor[:3]):
        if inside:
            _ref_expand(system, k, v, off, tiles, budget)
    return tiles


def _ref_decomposition(system, window, anchor):
    counts, boundary, covered = {}, 0, Fraction(0)
    for k, v, _, inside in _ref_cover(system, window, *anchor[:3]):
        if inside:
            counts.setdefault(k, [0] * system.family.n_prototiles)[v] += 1
            covered += system.volume(k, v)
        else:
            boundary += 1
    return counts, boundary, covered


def _families(hh, sol2, sol3, odp):
    bern = MeasureSpec.bernoulli_p(0.5)
    return {
        "half-hex-classical": (hh, SymbolSequence.constant(1, 64)),
        "solenoid-2x3-2d": (sol2, sample_sequence(bern, 64, seed=5)),
        "solenoid-2-3d": (sol3, SymbolSequence.constant(1, 64)),
        "one-d-pair": (odp, sample_sequence(bern, 64, seed=3)),
    }


def _windows(dim):
    """(name, base window, dilation) of every window kind for a family."""
    if dim == 1:
        return [("box", Region.box((-1,), (Fraction(5, 2),)), 4),
                ("disk", Region.disk((Fraction(1, 3),), 1.3), 4),
                ("far-box", Region.box((2 ** 60,), (3,)), 1)]
    if dim == 3:
        return [("box", Region.box((0, 0, 0), (1, 1, Fraction(1, 2))), 5),
                ("disk", Region.disk((0, 0, 0), 0.5), 5)]
    return [("box", Region.unit_square(), 8),
            # dilated, the bottom edge runs along tile edges (y = 1/2)
            ("polygon", Region.polygon([(Fraction(1, 16), Fraction(1, 16)),
                                        (1, Fraction(1, 16)),
                                        (Fraction(1, 2), 1),
                                        (0, Fraction(2, 3))]), 8),
            ("nonconvex", Region.polygon([(0, 0), (1, 0), (1, Fraction(1, 2)),
                                          (Fraction(1, 2), Fraction(1, 2)),
                                          (Fraction(1, 2), 1), (0, 1)]), 4),
            ("disk", Region.disk((Fraction(1, 2), 0), 0.5), 8),
            ("far-box", Region.box((2 ** 60, -2 ** 60), (3, 2)), 1)]


@pytest.mark.parametrize("name", ["half-hex-classical", "solenoid-2x3-2d",
                                  "solenoid-2-3d", "one-d-pair"])
def test_descent_matches_fraction_reference(name, hh, sol2, sol3, odp):
    family, x = _families(hh, sol2, sol3, odp)[name]
    system = SupertileSystem(family, x)
    for kind, base, t in _windows(family.dim):
        window = base.dilated(t)
        anchor = system.anchor(window)
        want = _ref_patch(system, window, anchor)
        patch = generate_patch(family, x, window, system=system, anchor=anchor)
        assert patch.tiles == want, kind
        assert patch.total_volume() == sum(
            (family.prototiles[t].volume for t, _ in want), Fraction(0))
        counts, boundary, covered = _ref_decomposition(system, window, anchor)
        rep = decompose_region(family, x, base, t, system=system, anchor=anchor)
        assert rep.counts == counts, kind
        assert list(rep.counts) == sorted(counts, reverse=True), kind
        assert rep.boundary_skipped == boundary, kind
        assert rep.volume_covered == covered, kind
        if kind == "far-box":           # too far for int64 cross products
            found, _ = system._descend(window, *anchor[:3])
            assert found and all(offs.dtype == object for _, _, offs in found)
        if len(want) > 3:
            budget = len(want) // 2
            with pytest.raises(PartialCoverError) as err:
                generate_patch(family, x, window, budget=budget,
                               system=system, anchor=anchor)
            assert err.value.partial.tiles == want[:budget], kind



def _l_tromino(path):
    """A family of non-convex prototiles, read from JSON: the four quarter
    turns of an L tromino (a 2×2 box less its notch cell), each tiled at
    θ = 1/2 by the L of its own turn at the box centre and one L at each of
    the three other corners.  A type's origin is the centre of the cell
    opposite its notch."""
    notches = [(1, 1), (0, 1), (0, 0), (1, 0)]
    half = Fraction(1, 2)
    origin = [(Fraction(3, 2) - nx, Fraction(3, 2) - ny) for nx, ny in notches]
    box = [(0, 0), (2, 0), (2, 2), (0, 2)]
    protos, branches = [], []
    for t, (nx, ny) in enumerate(notches):
        i = box.index((2 * nx, 2 * ny))
        (px, py), (qx, qy) = box[i - 1], box[(i + 1) % 4]
        ell = box[:i] + [((px + 2 * nx) // 2, (py + 2 * ny) // 2), (1, 1),
                         ((qx + 2 * nx) // 2, (qy + 2 * ny) // 2)] + box[i + 1:]
        protos.append({"id": t, "vertices": [
            [str(a - origin[t][0]), str(b - origin[t][1])] for a, b in ell]})
        children = [(t, (half, half))] + [
            (notches.index((1 - cx, 1 - cy)), (cx, cy))
            for cx in (0, 1) for cy in (0, 1) if (cx, cy) != (nx, ny)]
        branches += [{"parent": t, "child": c, "tau": [
            str(corner[j] + half * origin[c][j] - origin[t][j]) for j in (0, 1)]}
            for c, corner in children]
    path.write_text(json.dumps({
        "name": "l-tromino", "dimension": 2, "prototiles": protos,
        "rules": [{"id": 1, "theta": "1/2", "branches": branches}]}))
    return load_family(path)


def test_non_convex_tiles_match_fraction_reference(tmp_path):
    """Non-convex prototiles under every window kind, the L window among
    them: patches and decompositions keep what `oracles.inside` keeps,
    and `lattice_test` decides each tile as it does."""
    family = _l_tromino(tmp_path / "l-tromino.json")
    assert not any(p.shape.convex for p in family.prototiles)
    x = SymbolSequence.constant(1, 64)
    system = SupertileSystem(family, x)
    ell = Region.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    for kind, base, t in _windows(2) + [("L", ell, 8)]:
        window = base.dilated(t)
        anchor = system.anchor(window)
        want = _ref_patch(system, window, anchor)
        assert generate_patch(family, x, window, system=system,
                              anchor=anchor).tiles == want, kind
        counts, boundary, covered = _ref_decomposition(system, window, anchor)
        rep = decompose_region(family, x, base, t, system=system, anchor=anchor)
        assert (rep.counts, rep.boundary_skipped, rep.volume_covered) == (
            counts, boundary, covered), kind
    window = ell.dilated(8)
    patch = generate_patch(family, x, Region.box((-12, -12), (30, 30)),
                           system=system)
    scale, corners = patch.placed([p.shape.vertices_list()
                                   for p in family.prototiles])
    meets, inside = lattice_test(window, scale, corners, None)
    exact = [[vadd(v, off) for v in family.prototiles[t].shape.vertices_list()]
             for t, off in patch.tiles]
    assert inside.tolist() == [m and oracles.inside(window, tile)
                               for m, tile in zip(meets.tolist(), exact)]
    assert 0 < inside.sum() < meets.sum() < len(exact)

def test_approximant_matches_fraction_reference(hh, sol2):
    for family, x, depth in ((hh, SymbolSequence.constant(1, 8), 5),
                             (sol2, SymbolSequence((2, 1, 1, 2, 2)), 5)):
        system = SupertileSystem(family, x)
        for v in range(family.n_prototiles):
            path = spanning_system(family, x, depth).anchor(depth, v)
            want = []
            _ref_expand(system, depth, v, system.path_offset(path.edges),
                        want, 10 ** 7)
            assert approximant(family, x, path, system=system).tiles == want
            with pytest.raises(PartialCoverError) as err:
                approximant(family, x, path, budget=7, system=system)
            assert err.value.partial.tiles == want[:7]


def _ref_anchor(system, window):
    """Best-first search up the ancestor chains of the level-0 type-0 tile
    at the origin, on exact footprints and Fraction offsets, for the first
    placement whose footprint contains the window."""
    family, emb = system.family, system.family.embedding
    if window.kind == "disk":
        pts = [window.embedded_disk(emb)]
    else:
        pts = [(embed_point(v, emb), 0.0)
               for v in window.shape().vertices_list()]
    faces = {}

    def margin(k, v, offset):
        if (k, v) not in faces:
            faces[k, v] = geometry.faces(
                _ref_footprint(system, k, v, (0,) * family.dim), emb)
        off = embed_point(offset, emb)
        return min(geometry.margin(tuple(c - o for c, o in zip(p, off)),
                                   faces[k, v]) - pad for p, pad in pts)

    offset0 = (Fraction(0),) * family.dim
    heap = [(-margin(0, 0, offset0), 0, 0, 0, offset0, ())]
    visited = {(0, 0, offset0)}
    tick = 1
    while heap and tick <= ANCHOR_MAX_EXPANSIONS:
        neg_m, _, k, v, offset, edges = heapq.heappop(heap)
        if -neg_m >= 0 and window.contains_window(
                _ref_footprint(system, k, v, offset), emb):
            return k, v, offset, list(edges)
        lvl = k + 1
        if lvl > min(len(system.x), ANCHOR_MAX_LEVEL):
            continue
        ti = system.theta_inv(lvl)
        for parent, child, idx, b in system.rule_at(lvl).edges:
            o = vsub(offset, vscale(ti, b.tau))
            if child != v or (lvl, parent, o) in visited:
                continue
            visited.add((lvl, parent, o))
            heapq.heappush(heap, (-margin(lvl, parent, o), tick, lvl, parent,
                                  o, edges + ((lvl, parent, v, idx),)))
            tick += 1
    return None


@pytest.mark.parametrize("name", ["half-hex-classical", "solenoid-2x3-2d",
                                  "solenoid-2-3d", "one-d-pair"])
def test_anchor_matches_fraction_reference(name, hh, sol2, sol3, odp):
    """The anchor search on integer offsets finds the placement, path and
    offset of the Fraction search, on every window kind and on unit cubes
    dilated 1 to 512."""
    family, x = _families(hh, sol2, sol3, odp)[name]
    system = SupertileSystem(family, x)
    d = family.dim
    windows = [base.dilated(t) for _, base, t in _windows(d)] + [
        Region.box((0,) * d, (1,) * d, dilation=t) for t in (1, 3, 8, 64, 512)]
    if d == 2:
        windows.append(Region.disk((Fraction(1, 2), Fraction(1, 2)), 0.5, 24))
    for window in windows:
        want = _ref_anchor(system, window)
        assert want is not None, str(window)
        assert system.anchor(window) == want, str(window)


def test_off_lattice_anchor_offset_is_refused(hh):
    """The descent runs on (1/scale)·ℤ^d only; an anchor offset off that
    lattice is a StructuralError naming it."""
    x = SymbolSequence.constant(1, 16)
    system = SupertileSystem(hh, x)
    window = Region.unit_square(4)
    k, v, offset, _ = system.anchor(window)
    off = (offset[0] + Fraction(1, 7 * system.scale), offset[1])
    with pytest.raises(StructuralError, match="off the lattice"):
        generate_patch(hh, x, window, system=system, anchor=(k, v, off))
    with pytest.raises(StructuralError, match="off the lattice"):
        decompose_region(hh, x, Region.unit_square(), 4, system=system,
                         anchor=(k, v, off))


def _ref_inside(window, point_sets, embedding):
    """Per point set, whether all its exact points lie in the window."""
    return [oracles.inside(window, pts, embedding) for pts in point_sets]


_HH = half_hex_classical()
_HH_SOURCE = Region.box((-6, -6), (16, 16))
_FAR = (2 ** 60, -2 ** 60)


@pytest.mark.parametrize("source, window", [
    (_HH_SOURCE, Region.box((Fraction(-7, 3), -2),
                            (Fraction(27, 4), Fraction(11, 2)))),
    (_HH_SOURCE, Region.polygon([(Fraction(1, 16), Fraction(1, 16)),
                                 (1, Fraction(1, 16)), (Fraction(1, 2), 1),
                                 (0, Fraction(2, 3))], dilation=8)),
    (_HH_SOURCE, Region.polygon([(0, 0), (1, 0), (1, Fraction(1, 2)),
                                 (Fraction(1, 2), Fraction(1, 2)),
                                 (Fraction(1, 2), 1), (0, 1)], dilation=8)),
    (_HH_SOURCE, Region.disk((Fraction(1, 2), 0), 0.5, dilation=8)),
    (Region.box(_FAR, (6, 4)),
     Region.box((_FAR[0] + Fraction(3, 2), _FAR[1] + 1), (3, 2))),
], ids=["box", "polygon", "nonconvex", "disk", "far-box"])
def test_operator_membership_matches_fraction_reference(source, window):
    emb = _HH.embedding
    patch = generate_patch(_HH, SymbolSequence.constant(1, 64), source)
    punctures = PunctureSet.from_patch(patch, window=source)
    if window.kind == "box" and window.corner[0] > 2 ** 59:
        assert patch.offsets.dtype == punctures.grid.dtype == object
    points = [vadd(_HH.prototiles[t].puncture, off) for t, off in patch.tiles]
    assert lattice_points(punctures.grid, punctures.scale) == points
    corners = [[vadd(v, off) for v in _HH.prototiles[t].shape.vertices_list()]
               for t, off in patch.tiles]
    raw = _ref_inside(window, [[p] for p in points], emb)
    interior = _ref_inside(window, corners, emb)
    assert 0 < sum(interior) < sum(raw) < len(points)
    for kernel in (KernelSpec.typewise([Fraction(t + 1, 7) for t in range(6)]),
                   KernelSpec.typewise([0.1 * (t + 1) for t in range(6)])):
        op = build_operator(kernel, punctures, window)
        assert op.indices == [i for i, ok in enumerate(raw) if ok]
        whole = build_operator(kernel, punctures, source)
        assert whole.indices == list(range(len(points)))
        diag = [kernel.diagonal[t] for t in punctures.types]
        if isinstance(diag[0], float):
            diag = whole.matrix.diagonal()
        for mode, inside in (("raw", raw), ("interior-supertile", interior)):
            want = 0
            for i in range(len(points)):
                if inside[i]:
                    want += diag[i]
            assert windowed_trace(whole, window, mode) == want, mode


@pytest.mark.parametrize("name", ["half-hex-classical", "solenoid-2x3-2d"])
def test_disk_lattice_test_matches_fraction_reference(name, hh, sol2):
    """The disk branch of `lattice_test` tests float images of the integer
    corners; it decides every tile as `oracles.meets_bbox` and
    `oracles.inside` do on the exact corners: disks centred on a tile
    corner, through a tile corner, dilated, and shifted past 2^40."""
    family, x = {"half-hex-classical": (hh, SymbolSequence.constant(1, 32)),
                 "solenoid-2x3-2d": (sol2, sample_sequence(
                     MeasureSpec.bernoulli_p(0.5), 32, seed=2))}[name]
    emb = family.embedding
    patch = generate_patch(family, x, Region.box((-4, -4), (8, 8)))
    scale, corners = patch.placed([p.shape.vertices_list()
                                   for p in family.prototiles])
    exact = [[vadd(v, off) for v in family.prototiles[t].shape.vertices_list()]
             for t, off in patch.tiles]
    corner, other = exact[len(exact) // 2][0], exact[len(exact) // 3][2]
    through = math.dist(embed_point(other, emb), embed_point(corner, emb))
    far = 2 ** 40
    shifted = corners + np.array([far * scale, -far * scale], dtype=object)
    cases = [(Region.disk(corner, 1.75), corners, exact),
             (Region.disk(corner, through), corners, exact),
             (Region.disk((Fraction(1, 3), Fraction(-1, 7)), 0.6, dilation=5),
              corners, exact),
             (Region.disk((far + corner[0], corner[1] - far), through),
              shifted, [[(a + far, b - far) for a, b in tile] for tile in exact])]
    on_circle = 0
    for window, pts, ref in cases:
        meets, inside = lattice_test(window, scale, pts, emb)
        boxes = [(tuple(map(min, zip(*tile))), tuple(map(max, zip(*tile))))
                 for tile in ref]
        want_meets = [oracles.meets_bbox(window, lo, hi, emb)
                      for lo, hi in boxes]
        assert meets.tolist() == want_meets
        assert inside.tolist() == [m and oracles.inside(window, tile, emb)
                                   for m, tile in zip(want_meets, ref)]
        assert 0 < inside.sum() < meets.sum() < len(ref)
        c, r = window.embedded_disk(emb)
        on_circle += sum(math.dist(embed_point(q, emb), c) == r
                         for tile in ref for q in tile)
    assert on_circle >= 2


def test_non_unit_theta_is_unsupported():
    seg = Box([Fraction(-1, 2)], [Fraction(1, 2)])
    rule = SubstitutionRule(1, Fraction(2, 3), (
        Branch(0, 0, (Fraction(-1, 6),)), Branch(0, 0, (Fraction(1, 6),))))
    family = RuleFamily("two-thirds", (Prototile(0, seg),), (rule,), dim=1)
    x = SymbolSequence.constant(1, 10)
    with pytest.raises(UnsupportedOperationError, match="rule 1 at level 1"):
        generate_patch(family, x, Region.box((0,), (3,)))
