import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randtile.errors import (InsufficientDataError, PartialCoverError,
                             StructuralError, UnsupportedOperationError)
from randtile import geometry, tiling
from randtile.geometry import embed_point
from randtile.substitution import half_hex_classical
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import (_LEAF_CAP, Patch, Region, SupertileSystem,
                             _point_table, decompose_region,
                             decomposition_tile_multiset, generate_patch,
                             lattice_images, lattice_points)

import oracles


def test_region_basics():
    r = Region.unit_square(dilation=4)
    assert r.shape().volume() == 16
    assert oracles.inside(r, [(1, 1), (4, 4)])
    assert not oracles.inside(r, [(5, 1)])
    assert r.dilated(2).shape().volume() == 64
    with pytest.raises(StructuralError):
        Region("blob")


def test_region_bbox_and_str():
    """Exact bounding boxes for boxes and polygons; a disk's (radius through
    the embedding) is rounded outward to integers."""
    box = Region.box((-1, -1), (2, 2), dilation=Fraction(5, 2))
    assert box.bbox(None) == ((Fraction(-5, 2),) * 2, (Fraction(5, 2),) * 2)
    tri = Region.polygon([(0, 0), (2, 1), (1, 3)], dilation=2)
    assert tri.bbox(None) == ((0, 0), (4, 6))
    disk = Region.disk((1, 1), 1, dilation=4)
    assert disk.bbox((1.0, 3 ** 0.5)) == ([0, 1], [8, 7])    # 4 ± 4/√3
    assert disk.bbox(None) == ([0, 0], [8, 8])
    assert str(box) == "box:-1,-1,2,2 dilated by 5/2"
    assert str(tri) == "polygon:0,0,2,1,1,3 dilated by 2"
    assert str(disk) == "disk:1,1,1.0 dilated by 4"


def test_generate_patch_one_d(odp):
    x = SymbolSequence.constant(1, 30)
    window = Region.box((-5,), (10,))
    patch = generate_patch(odp, x, window)
    assert len(patch) > 0
    # tiles are unit intervals wholly inside [-5, 5] and pairwise disjoint
    assert patch.total_volume() <= 10
    assert len(set(patch.tiles)) == len(patch)
    for shape in patch.shapes():
        assert oracles.inside(window, shape.vertices_list())
    with pytest.raises(StructuralError):
        generate_patch(odp, x, Region.unit_square(4))   # 2-D window


def test_generate_patch_half_hex(hh):
    x = SymbolSequence.constant(1, 40)
    window = Region.box((-4, -4), (8, 8))
    patch = generate_patch(hh, x, window)
    assert len(patch) == patch.total_volume() / Fraction(3, 4)
    assert len(set(patch.tiles)) == len(patch)
    for shape in patch.shapes():
        assert oracles.inside(window, shape.vertices_list())
    # the patch volume is close to the window volume (boundary deficit only)
    assert patch.total_volume() >= Fraction(1, 4) * window.shape().volume()


def test_anchor_deterministic(hh):
    x = SymbolSequence.constant(1, 40)
    system = SupertileSystem(hh, x)
    window = Region.disk((0, 0), 5.0)
    a1 = system.anchor(window)
    a2 = system.anchor(window)
    assert a1 == a2
    level, vertex, offset, edges = a1
    assert window.contains_window(hh.prototiles[vertex].shape.transform(
        system.theta_inv(level), offset), hh.embedding)
    assert len(edges) == level


def _anchor_windows():
    """Boxes at several sizes and offsets, a disk, a triangle and a box far
    out (the anchor level grows with the offset)."""
    boxes = [Region.box((c, c), (w, w), dilation=t)
             for c in (-1, 0, Fraction(1, 3)) for w in (1, 2)
             for t in (1, 4, 16)]
    return boxes + [Region.disk((0, 0), 5.0),
                    Region.polygon([(0, 0), (2, 1), (1, 3)], dilation=3),
                    Region.box((2 ** 20, -2 ** 20), (1, 1))]


def test_kept_anchors_match_a_fresh_search(hh):
    """Each window is searched once per system: the second call gives what
    a fresh system's search gives, with its own edge list."""
    x = SymbolSequence.constant(1, 64)
    system = SupertileSystem(hh, x)
    windows = _anchor_windows()
    assert len(set(windows)) == len(windows) >= 20
    for window in windows:
        first = system.anchor(window)
        first[3].append("mutated")
        first[3].clear()
        again = system.anchor(window)
        assert again == SupertileSystem(hh, x).anchor(window)
        assert again[3] and again[3] is not system.anchor(window)[3]
        assert len(again[3]) == again[0]
    assert len(system._anchors) == len(windows)


def test_failed_anchor_search_is_not_kept(hh, monkeypatch):
    """A search refused for its expansion budget is tried afresh once the
    budget allows it."""
    x = SymbolSequence.constant(1, 64)
    system = SupertileSystem(hh, x)
    window = Region.box((-3, -3), (6, 6), dilation=8)
    monkeypatch.setattr(tiling, "ANCHOR_MAX_EXPANSIONS", 1)
    with pytest.raises(InsufficientDataError, match="expansion budget"):
        system.anchor(window)
    monkeypatch.undo()
    assert system.anchor(window) == SupertileSystem(hh, x).anchor(window)


def _frontiers(monkeypatch):
    """The node counts that `lattice_test` sees in `_descend`, each a child
    frontier of the unbudgeted descent below its top level."""
    sizes, test = [], tiling.lattice_test

    def recording(window, scale, corners, embedding):
        sizes.append(len(corners))
        return test(window, scale, corners, embedding)
    monkeypatch.setattr(tiling, "lattice_test", recording)
    return sizes


@pytest.mark.parametrize("corner, weight", [(-8, 1), (2 ** 40, 8)])
def test_decomposition_descent_refuses_a_frontier_past_the_budget(
        hh, monkeypatch, corner, weight):
    """A child frontier of more than DEFAULT_TILE_BUDGET nodes (8 each when
    the offsets are Python ints) is a PartialCoverError naming the window,
    the level and the budget as a power; the largest frontier passes at a
    budget of exactly its weighted size and is refused one below it."""
    x = SymbolSequence.constant(1, 64)
    base = Region.box((corner, corner), (16, 16))
    anchor = SupertileSystem(hh, x).anchor(base)
    sizes = _frontiers(monkeypatch)
    want = decompose_region(hh, x, base, 1, anchor=anchor)
    largest = max(sizes[1:])
    monkeypatch.setattr(tiling, "DEFAULT_TILE_BUDGET", weight * largest)
    assert decompose_region(hh, x, base, 1, anchor=anchor) == want
    monkeypatch.setattr(tiling, "DEFAULT_TILE_BUDGET", weight * largest - 1)
    with pytest.raises(PartialCoverError):
        decompose_region(hh, x, base, 1, anchor=anchor)
    monkeypatch.setattr(tiling, "DEFAULT_TILE_BUDGET", 10 ** 2)
    assert weight * largest > 10 ** 2
    with pytest.raises(PartialCoverError,
                       match=r"box:.* needs more than 10\^2 nodes at level \d+"):
        decompose_region(hh, x, base, 1, anchor=anchor)


def test_path_offset_matches_anchor(hh, sol2):
    for fam, x in ((hh, SymbolSequence.constant(1, 40)),
                   (sol2, SymbolSequence((1, 2) * 20))):
        system = SupertileSystem(fam, x)
        level, _, offset, edges = system.anchor(Region.unit_square(12))
        assert level > 0
        assert system.path_offset(edges) == offset


def test_path_offset_names_a_missing_edge(sol2):
    """Raised one level, the anchor's edge with branch index 4 meets a q = 2
    rule, which has only 4 branches per parent: a typed error names it."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, 7)
    system = SupertileSystem(sol2, x)
    edges = system.anchor(Region.box((-1, -1), (2, 2)))[3]
    assert edges == [(1, 0, 0, 4)]
    with pytest.raises(StructuralError, match="no edge 0<-0 with branch "
                       "index 4 at level 2 [(]path level 1 shifted by 1[)]"):
        system.path_offset(edges, shift=1)


def test_levels_past_the_sequence_name_the_level(hh):
    """On a 4-symbol sequence, level 5 is read by counts(9), theta_inv(9),
    rule_at(5) and a path shifted by 4: each was a bare IndexError."""
    x = SymbolSequence.constant(1, 4)
    system = SupertileSystem(hh, x)
    edges = system.anchor(Region.unit_square())[3]
    past = r"level 5 is past the sequence \(4 positive and 0 negative"
    for call in (lambda: system.counts(9), lambda: system.theta_inv(9),
                 lambda: system.rule_at(5),
                 lambda: system.path_offset(edges, shift=4)):
        with pytest.raises(StructuralError, match=past):
            call()
    assert system.counts(4)[0].sum() == 4 ** 4


@pytest.mark.parametrize("method", ["counts", "theta_inv"])
def test_negative_levels_are_refused(hh, method):
    """counts(-1) and theta_inv(-1) used to read the cache from its end: on
    x = 1^4 after level 3, counts(-1)[0].sum() was 64 and theta_inv(-1)
    was 8."""
    system = SupertileSystem(hh, SymbolSequence.constant(1, 4))
    call = getattr(system, method)
    with pytest.raises(StructuralError, match="level -1 is negative"):
        call(-1)                            # nothing cached yet
    call(3)
    for k in (-1, -4):
        with pytest.raises(StructuralError, match=f"level {k} is negative"):
            call(k)


def test_a_system_of_another_family_or_sequence_is_refused(hh, sol2):
    """Each used to run on the system it was given: a solenoid patch for a
    half-hex request.  Families compare by identity, sequences by value."""
    x, x2 = SymbolSequence.constant(1, 8), SymbolSequence((1, 2) * 4)
    window = Region.unit_square(4)
    with pytest.raises(StructuralError, match="another family "
                       r"\(solenoid-2x3-2d\) than half-hex-classical"):
        generate_patch(hh, x, window, system=SupertileSystem(sol2, x2))
    with pytest.raises(StructuralError, match="another family"):
        decompose_region(hh, x, window, 1,
                         system=SupertileSystem(half_hex_classical(), x))
    with pytest.raises(StructuralError, match="another sequence"):
        generate_patch(hh, x, window,
                       system=SupertileSystem(hh, SymbolSequence.constant(1, 9)))
    same = SupertileSystem(hh, SymbolSequence.constant(1, 8))
    assert (generate_patch(hh, x, window, system=same).tiles
            == generate_patch(hh, x, window).tiles)


@pytest.mark.parametrize("embedding", [None, (1.0, math.sqrt(3))])
@pytest.mark.parametrize("scale", [1, 3, 48])
def test_lattice_images_match_embed_point(scale, embedding):
    """`lattice_images` is `embed_point` of the exact lattice points bit for
    bit: on int64 grids, and on Python-int grids near ±2^53 and ±2^60, where
    a float conversion before the division would round twice."""
    rng = np.random.default_rng(scale)
    grids = [np.concatenate([rng.integers(-2 ** 40, 2 ** 40, size=(60, 2)),
                             rng.integers(-100, 100, size=(60, 2))])]
    for base in (2 ** 53, 2 ** 60):
        near = rng.integers(-1000, 1000, size=(40, 2)).tolist()
        grids.append(np.array([[s * (base + a), -s * (base - b)]
                               for s in (1, -1) for a, b in near],
                              dtype=object))
    for grid in grids:
        got = lattice_images(grid, scale, embedding)
        want = np.array([embed_point(p, embedding)
                         for p in lattice_points(grid, scale)])
        assert got.dtype == np.float64 and got.shape == grid.shape
        assert (got.view(np.int64) == want.view(np.int64)).all()
        # points (n, c, d) map row for row
        nodes = lattice_images(grid.reshape(-1, 2, 2), scale, embedding)
        assert (nodes.reshape(got.shape).view(np.int64)
                == got.view(np.int64)).all()


def test_anchor_insufficient_sequence(hh):
    x = SymbolSequence.constant(1, 2)
    system = SupertileSystem(hh, x)
    with pytest.raises(InsufficientDataError):
        system.anchor(Region.box((-50, -50), (100, 100)))


def test_patch_coherence_under_shared_anchor(hh):
    """Windows cut with a common anchor come from one tiling."""
    x = SymbolSequence.constant(1, 40)
    system = SupertileSystem(hh, x)
    big = Region.box((-6, -6), (12, 12))
    anchor = system.anchor(big)
    big_patch = generate_patch(hh, x, big, system=system, anchor=anchor)
    small = Region.box((-2, -2), (4, 4))
    small_patch = generate_patch(hh, x, small, system=system, anchor=anchor)
    assert set(small_patch.tiles) <= set(big_patch.tiles)


def test_budget_exhaustion(hh):
    x = SymbolSequence.constant(1, 40)
    with pytest.raises(PartialCoverError) as err:
        generate_patch(hh, x, Region.box((-6, -6), (12, 12)), budget=10)
    assert len(err.value.partial) == 10


def _decompose_cases(hh, sol3):
    """(family, sequence, base window) for a 2-D and a 3-D box window."""
    return ((hh, SymbolSequence.constant(1, 40), Region.unit_square()),
            (sol3, SymbolSequence.constant(1, 40),
             Region.box((0, 0, 0), (1, 1, 1))))


def test_decompose_multiset_matches_generate(hh, sol3):
    for fam, x, base in _decompose_cases(hh, sol3):
        system = SupertileSystem(fam, x)
        for t in (8, 16):
            window = base.dilated(t)
            anchor = system.anchor(window)
            patch = generate_patch(fam, x, window, system=system,
                                   anchor=anchor)
            rep = decompose_region(fam, x, base, t, system=system,
                                   anchor=anchor)
            assert decomposition_tile_multiset(rep, fam, x) == patch.multiset()
            assert rep.volume_covered == patch.total_volume()


def test_decompose_volume_accounting(hh, sol3):
    for fam, x, base in _decompose_cases(hh, sol3):
        rep = decompose_region(fam, x, base, 16)
        win_vol = base.dilated(16).shape().volume()
        assert rep.volume_covered <= win_vol
        # skipped boundary tiles (all prototiles have one volume) account
        # for the remaining volume
        tile_vol = fam.prototiles[0].volume
        assert rep.volume_covered + rep.boundary_skipped * tile_vol >= win_vol
        top = max(rep.counts, default=-1)
        assert top >= 1
        assert rep.total_count(top) >= 1


def test_nonconvex_window_on_box_tiles(sol2):
    """An L-shaped window keeps exactly the tiles of the anchor supertile
    that exact polygon containment keeps."""
    x = SymbolSequence((1, 2) * 20)
    window = Region.polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)],
                            dilation=2)
    system = SupertileSystem(sol2, x)
    level, vertex, offset, _ = system.anchor(window)
    tiles = system.expand(level, vertex, offset, budget=10 ** 6).tiles
    shape = window.shape()
    want = [(t, off) for t, off in tiles if shape.contains_shape(
        sol2.prototiles[t].shape.transform(1, off))]
    patch = generate_patch(sol2, x, window, system=system)
    assert want and sorted(patch.tiles) == sorted(want)


def test_nonconvex_window_validates_no_node(hh, monkeypatch):
    """Past the window's own validation, no `Polygon` is validated: each
    node meeting an L window is trusted as the prototile image it is, where
    the descent once built a validated polygon per node.  The tiles are
    those exact polygon containment keeps."""
    x = SymbolSequence.constant(1, 64)
    window = Region.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                            dilation=4)
    shape = window.shape()
    made = []
    init = geometry.Polygon.__init__
    monkeypatch.setattr(geometry.Polygon, "__init__",
                        lambda self, vs: made.append(vs) or init(self, vs))
    patch = generate_patch(hh, x, window)
    assert made == []
    system = SupertileSystem(hh, x)
    level, vertex, offset, _ = system.anchor(window)
    tiles = system.expand(level, vertex, offset, budget=10 ** 6).tiles
    want = [(t, off) for t, off in tiles if shape.contains_shape(
        hh.prototiles[t].shape.transform(1, off))]
    assert want and sorted(patch.tiles) == sorted(want)


def test_decompose_monotone_in_dilation(hh):
    x = SymbolSequence.constant(1, 40)
    system = SupertileSystem(hh, x)
    vols = [decompose_region(hh, x, Region.unit_square(), t,
                             system=system).volume_covered
            for t in (4, 8, 16)]
    assert vols[0] < vols[1] < vols[2]


def test_decompose_disk_window(hh):
    x = SymbolSequence.constant(1, 40)
    rep = decompose_region(hh, x, Region.disk((0, 0), 1.0), 8)
    # Euclidean disk area vs embedded covered volume
    covered = float(rep.volume_covered) * 1.7320508075688772
    assert 0.5 * 3.14159265 * 64 <= covered <= 3.14159265 * 64


def test_matrix_only_levels_rejected(hhp):
    x = SymbolSequence.constant(2, 10)     # rule 2 is matrix-only
    with pytest.raises(UnsupportedOperationError):
        generate_patch(hhp, x, Region.unit_square(dilation=4))


def test_theta_products_of_matrix_only_levels(hhp):
    x = SymbolSequence((2, 1, 2, 2))       # rule 2 (θ = 1/4) is matrix-only
    system = SupertileSystem(hhp, x)
    assert [system.theta_inv(k) for k in range(5)] == [1, 4, 8, 32, 128]
    with pytest.raises(UnsupportedOperationError,
                       match="level 1 is matrix-only"):
        system.anchor(Region.unit_square(4))


def test_mixed_sequence_geometric_prefix(hhp):
    """Geometry is only needed up to the anchor level."""
    x = SymbolSequence((1,) * 8 + (2,) * 4)
    patch = generate_patch(hhp, x, Region.box((-1, -1), (2, 2)))
    assert len(patch) > 0


def test_decompose_bad_dilation(hh):
    x = SymbolSequence.constant(1, 10)
    with pytest.raises(StructuralError):
        decompose_region(hh, x, Region.unit_square(), 0)


def _view_cases(hh, sol2, odp):
    """Patches of polygons, of boxes and of intervals, and a hand-built patch
    whose offsets pass 2^30 (Python ints in an object array)."""
    big = 2 ** 40
    return [generate_patch(hh, SymbolSequence.constant(1, 40),
                           Region.box((-4, -4), (8, 8))),
            generate_patch(sol2, SymbolSequence((1, 2) * 20),
                           Region.unit_square(6)),
            generate_patch(odp, SymbolSequence.constant(1, 30),
                           Region.box((-5,), (10,))),
            Patch([1, 0, 1], np.array([[big + 3, -big], [5, 7],
                                       [-big - 1, big + 11]], dtype=object),
                  4, hh)]


def test_tiles_view_matches_exact_points(hh, sol2, odp):
    """`tiles` is a read-only sequence of (type, exact offset), equal to the
    pairs that `lattice_points` makes of the integer offsets."""
    for patch in _view_cases(hh, sol2, odp):
        tiles = patch.tiles
        want = list(zip(patch.types.tolist(),
                        lattice_points(patch.offsets, patch.scale)))
        assert len(want) > 2 and list(tiles) == want
        assert len(tiles) == len(want)
        assert tiles[1] == want[1] and tiles[-1] == want[-1]
        assert tiles[1:3] == want[1:3] and isinstance(tiles[1:3], list)
        assert tiles == want and want == tiles and tiles == patch.tiles
        assert tiles != want[:-1] and tiles != want[::-1]
        assert set(tiles) == set(patch.tiles) == set(want)
        with pytest.raises(TypeError):
            tiles[0] = want[1]
        with pytest.raises(TypeError):
            tiles += want[:1]
        with pytest.raises(AttributeError):
            patch.tiles.append(want[0])
        assert list(patch.tiles) == want


def test_shapes_match_translated_prototiles(hh, sol2, odp):
    """`shapes` builds every tile from integer corners: the same vertices
    (box lo and hi) and convex flag as the translated prototile."""
    for patch in _view_cases(hh, sol2, odp):
        shapes = list(patch.shapes())
        assert len(shapes) == len(patch)
        for got, (t, off) in zip(shapes, patch.tiles):
            want = patch.family.prototiles[t].shape.transform(1, off)
            assert type(got) is type(want)
            assert got.vertices_list() == want.vertices_list()
            assert got.bbox() == want.bbox()
            assert getattr(got, "convex", None) == getattr(want, "convex", None)


def test_level_counts_are_the_matrix_products(hhp):
    """`counts(k)` is A_k···A_1 in Python ints, read-only, for any rules: the
    half-hex pair's rule 2 is matrix-only, and its entries pass 2^64."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 40, seed=11)
    system = SupertileSystem(hhp, x)
    m = hhp.n_prototiles
    want = [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(41):
        if k:
            a = hhp.matrix(x[k]).tolist()
            want = [[sum(a[i][l] * want[l][j] for l in range(m))
                     for j in range(m)] for i in range(m)]
        got = system.counts(k)
        assert got.tolist() == want
        assert all(type(c) is int for c in got.flat)
        with pytest.raises(ValueError):
            got[0, 0] = 0
    assert max(map(max, want)) > 2 ** 64


def test_level_leaves_match_capped_recursion(hh, sol2):
    """`_Level.leaves` (row sums of `counts`, capped) equals the recursion
    capped at every level, also at and past the level where 2^31 is crossed."""
    for family, x in ((hh, SymbolSequence.constant(1, 20)),
                      (sol2, sample_sequence(MeasureSpec.bernoulli_p(0.5),
                                             20, seed=2))):
        system = SupertileSystem(family, x)
        leaves = np.ones(family.n_prototiles, dtype=np.int64)
        for k in range(21):
            if k:
                leaves = np.minimum(family.matrix(x[k]) @ leaves, _LEAF_CAP)
            assert system._level(k).leaves.tolist() == leaves.tolist()
        assert system._level(20).leaves.tolist() == [_LEAF_CAP] * len(leaves)
        assert (system.counts(20).sum(axis=1) > _LEAF_CAP).all()
    # 4^15 < 2^31 = _LEAF_CAP < 4^16 half-hex tiles per supertile
    system = SupertileSystem(hh, SymbolSequence.constant(1, 20))
    assert system._level(15).leaves.tolist() == [4 ** 15] * 6
    assert system._level(16).leaves.tolist() == [_LEAF_CAP] * 6


def test_multiset_keys_types_in_ascending_order(hh, sol2, odp):
    cases = _view_cases(hh, sol2, odp)
    for patch in cases:
        want = sorted(Counter(patch.types.tolist()).items())
        assert list(patch.multiset().items()) == want
    assert list(cases[-1].multiset().items()) == [(0, 1), (1, 2)]


def test_placed_values_and_dtype(hh, sol2, odp):
    """`placed` gives the corners that Python-int arithmetic gives, as int64
    below 2^30 and as Python ints (object) past it."""
    for patch in _view_cases(hh, sol2, odp):
        protos = patch.family.prototiles
        for points in ([p.shape.vertices_list() for p in protos],
                       [[p.puncture] for p in protos]):
            scale, got = patch.placed(points)
            ref_scale, table = _point_table(points, patch.scale)
            want = (patch.offsets.astype(object) * (ref_scale // patch.scale)
                    )[:, None] + table[patch.types]
            assert scale == ref_scale and got.shape == want.shape
            assert (got == want).all()
            big = max(abs(int(c)) for c in want.ravel()) >= 2 ** 30
            assert got.dtype == (object if big else np.int64)
            if big:
                assert all(type(c) is int for c in got.ravel())
