from fractions import Fraction

import pytest

from randtile.errors import (InsufficientDataError, PartialCoverError,
                             StructuralError, UnsupportedOperationError)
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import (Region, SupertileSystem, decompose_region,
                             decomposition_tile_multiset, generate_patch)


def test_region_basics():
    r = Region.unit_square(dilation=4)
    assert r.shape().volume() == 16
    assert r.contains_points([(1, 1), (4, 4)])
    assert not r.contains_points([(5, 1)])
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


def test_region_boundary_measure():
    sq = Region.unit_square(dilation=3)
    assert sq.boundary_measure() == pytest.approx(12.0)
    disk = Region.disk((0, 0), 2.0, dilation=2)
    assert disk.boundary_measure() == pytest.approx(8 * 3.14159265, rel=1e-6)
    assert disk.volume() == pytest.approx(16 * 3.14159265, rel=1e-6)


def test_generate_patch_one_d(odp):
    x = SymbolSequence.constant(1, 30)
    window = Region.box((-5,), (10,))
    patch = generate_patch(odp, x, window)
    assert len(patch) > 0
    # tiles are unit intervals wholly inside [-5, 5] and pairwise disjoint
    assert patch.total_volume() <= 10
    assert len(patch.placed_set()) == len(patch)
    for shape in patch.shapes():
        assert window.contains_points(shape.vertices_list())
    with pytest.raises(StructuralError):
        generate_patch(odp, x, Region.unit_square(4))   # 2-D window


def test_generate_patch_half_hex(hh):
    x = SymbolSequence.constant(1, 40)
    window = Region.box((-4, -4), (8, 8))
    patch = generate_patch(hh, x, window)
    assert len(patch) == patch.total_volume() / Fraction(3, 4)
    assert len(patch.placed_set()) == len(patch)
    for shape in patch.shapes():
        assert window.contains_points(shape.vertices_list())
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


def test_path_offset_matches_anchor(hh, sol2):
    for fam, x in ((hh, SymbolSequence.constant(1, 40)),
                   (sol2, SymbolSequence((1, 2) * 20))):
        system = SupertileSystem(fam, x)
        level, _, offset, edges = system.anchor(Region.unit_square(12))
        assert level > 0
        assert system.path_offset(edges) == offset


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
    assert small_patch.placed_set() <= big_patch.placed_set()


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
        assert rep.n >= 1
        assert rep.fitted_K2 is not None and rep.fitted_K2 >= 0
        assert rep.total_count(rep.n) >= 1


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
        sol2.prototiles[t].shape.translate(off))]
    patch = generate_patch(sol2, x, window, system=system)
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
