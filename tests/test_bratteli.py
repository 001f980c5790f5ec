from fractions import Fraction

import numpy as np
import pytest

from randtile.bratteli import (PathWord, approximant, connectivity_matrices,
                               path_counts, spanning_system)
from randtile.errors import PartialCoverError, StructuralError
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import SupertileSystem

import oracles


def test_pathword_validation():
    PathWord(((1, 2, 0, 0), (2, 4, 2, 1)))
    with pytest.raises(StructuralError):
        PathWord(((2, 1, 0, 0),))                  # levels must start at 1
    with pytest.raises(StructuralError):
        PathWord(((1, 2, 0, 0), (2, 4, 3, 0)))     # edges do not chain
    with pytest.raises(StructuralError):
        PathWord(((1, 0, 0),))                     # wrong arity


def test_pathword_endpoints():
    p = PathWord(((1, 2, 5, 0), (2, 4, 2, 1)))
    assert p.source == 5
    assert p.range == 4
    assert p.prefix(1).range == 2
    assert len(p) == 2


def test_path_counts_match_matrix_product(hhp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 12, seed=11)
    mats = connectivity_matrices(hhp, x, 12)
    prod = np.eye(6, dtype=object)
    for a in mats:
        prod = a.astype(object) @ prod
    expect = (prod @ np.ones(6, dtype=object)).tolist()
    assert path_counts(hhp, x, 12) == expect


def test_path_counts_half_hex_constant(hh):
    x = SymbolSequence.constant(1, 8)
    for n in range(0, 9):
        assert path_counts(hh, x, n) == [4 ** n] * 6
    with pytest.raises(StructuralError, match=r"level 9 is past the sequence \(8 positive"):
        path_counts(hh, x, 9)


def test_path_branch_index_validation(hh):
    x = SymbolSequence.constant(1, 4)
    with pytest.raises(StructuralError):
        # half-hex rule 1 has multiplicity <= 1 per (parent, child) pair
        PathWord(((1, 0, 0, 1),)).validate(hh, x)
    PathWord(((1, 0, 0, 0),)).validate(hh, x)


def test_approximant_counts_and_volume(hh):
    x = SymbolSequence.constant(1, 4)
    for k in (0, 1, 2, 3):
        path = spanning_system(hh, x, k).anchor(k, 0)
        patch = approximant(hh, x, path)
        assert len(patch) == 4 ** k
        assert patch.total_volume() == Fraction(3, 4) * 4 ** k


def test_approximant_multiset_matches_matrix(hh):
    x = SymbolSequence.constant(1, 3)
    a = np.linalg.matrix_power(
        np.array([[1 if (j - i) % 6 in (0, 2, 3, 4) else 0
                   for j in range(6)] for i in range(6)]), 3)
    for v in range(6):
        path = spanning_system(hh, x, 3).anchor(3, v)
        ms = approximant(hh, x, path).multiset()
        assert [ms.get(t, 0) for t in range(6)] == list(a[v])


def test_approximant_nesting(hh):
    """The level-k approximant sits inside the level-(k+1) one on the same path."""
    x = SymbolSequence.constant(1, 5)
    path = spanning_system(hh, x, 4).anchor(4, 0)
    small = approximant(hh, x, path.prefix(3))
    big = approximant(hh, x, path)
    assert set(small.tiles) <= set(big.tiles)
    # the anchored level-0 tile is shared by every approximant on the path
    base = approximant(hh, x, path.prefix(0))
    assert set(base.tiles) <= set(small.tiles)


def test_approximant_budget_is_partial_cover(hh):
    x = SymbolSequence.constant(1, 2)
    path = spanning_system(hh, x, 2).anchor(2, 0)
    with pytest.raises(PartialCoverError) as err:
        approximant(hh, x, path, budget=5)
    assert err.value.partial.tiles == approximant(hh, x, path).tiles[:5]


def test_spanning_system_structure(hhp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 6, seed=2)
    span = spanning_system(hhp, x, 6)
    for level in range(7):
        for v in range(6):
            p = span.anchor(level, v)
            assert len(p) == level
            if level:                      # the level-0 anchor is empty
                assert p.range == v
            p.validate(hhp, x)


def test_spanning_system_lexicographic(hh):
    x = SymbolSequence.constant(1, 3)
    span = spanning_system(hh, x, 3)
    # anchors are minimal in edge-tuple order among all paths to the vertex
    paths = oracles.paths_to(hh, x, 3)
    for v in range(6):
        assert span.anchor(3, v).edges == min(paths[v])


def test_approximant_refuses_a_system_of_another_family(hh, hhp):
    x = SymbolSequence.constant(1, 4)
    path = spanning_system(hh, x, 2).anchor(2, 0)
    with pytest.raises(StructuralError, match="another family "
                       r"\(half-hex-pair\) than half-hex-classical"):
        approximant(hh, x, path, system=SupertileSystem(hhp, x))
