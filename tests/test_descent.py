"""The integer-lattice supertile descent against the exact Fraction descent.

`_ref_cover` / `_ref_expand` are the depth-first walks the package used
before its descent moved to integer numpy frontiers; they are kept here as
the reference that ordered tile lists and decomposition reports must match.
"""

from fractions import Fraction

import pytest

from randtile.bratteli import approximant, spanning_system
from randtile.errors import PartialCoverError, UnsupportedOperationError
from randtile.geometry import Box, vadd, vscale
from randtile.substitution import (Branch, Prototile, RuleFamily,
                                   SubstitutionRule)
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import (Patch, Region, SupertileSystem, decompose_region,
                             generate_patch)


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
        if not window.intersects_bbox(*system.bbox(k, v, off), emb):
            continue
        inside = window.contains_points(system.verts(k, v, off), emb)
        if inside or k == 0:
            yield k, v, off, inside
        else:
            stack.extend((k - 1, child, vadd(off, delta))
                         for child, delta in reversed(_ref_children(system, k, v)))


def _ref_expand(system, k, v, offset, tiles, budget):
    if k == 0:
        if len(tiles) >= budget:
            raise PartialCoverError("tile budget exhausted",
                                    partial=Patch(tiles, family=system.family))
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
        assert list(rep.counts.items()) == list(counts.items()), kind
        assert rep.boundary_skipped == boundary, kind
        assert rep.volume_covered == covered, kind
        assert rep.n == max(counts, default=-1)
        if kind == "far-box":           # too far for int64 cross products
            found, _, _ = system._descend(window, *anchor[:3])
            assert found and all(offs.dtype == object for _, _, offs in found)
        if len(want) > 3:
            budget = len(want) // 2
            with pytest.raises(PartialCoverError) as err:
                generate_patch(family, x, window, budget=budget,
                               system=system, anchor=anchor)
            assert err.value.partial.tiles == want[:budget], kind


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


def test_non_unit_theta_is_unsupported():
    seg = Box([Fraction(-1, 2)], [Fraction(1, 2)])
    rule = SubstitutionRule(1, Fraction(2, 3), (
        Branch(0, 0, (Fraction(-1, 6),)), Branch(0, 0, (Fraction(1, 6),))))
    family = RuleFamily("two-thirds", (Prototile(0, seg),), (rule,), dim=1)
    x = SymbolSequence.constant(1, 10)
    with pytest.raises(UnsupportedOperationError, match="rule 1 at level 1"):
        generate_patch(family, x, Region.box((0,), (3,)))
