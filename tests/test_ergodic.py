import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtile import cli, ergodic, geometry
from randtile.bratteli import PathWord, connectivity_matrices, spanning_system
from randtile.cocycle import lyapunov_spectrum
from randtile.errors import (ConvergenceError, DegenerateObservableError,
                             InsufficientDataError, StructuralError,
                             UnsupportedOperationError)
from randtile.ergodic import (ErgodicVector, TLCObservable, _boundary_samples,
                              _log_abs,
                              _patch_point_distance,
                              cotrace_shadow,
                              deviation_along_sequence, deviation_cap,
                              deviation_over_regions, ergodic_vectors,
                              make_zero_trace_observable,
                              special_averaging_sequence)
from randtile.geometry import Box
from randtile.substitution import (Branch, Prototile, RuleFamily,
                                   SubstitutionRule, matrix_only_family,
                                   substitution_matrix)
from randtile.symbolic import (MeasureSpec, SymbolSequence, rng_stream,
                               sample_sequence)
from randtile.tiling import (Patch, Region, SupertileSystem, decompose_region,
                             generate_patch)

import oracles


def test_observable_constructors():
    f = TLCObservable.typewise((1, 2, 3))
    assert f.depth == 0 and f.is_exact()
    g = TLCObservable.constant(Fraction(1, 2), 4)
    assert g.weights == (Fraction(1, 2),) * 4
    h = TLCObservable(0, (0.5, 1.5))
    assert not h.is_exact()
    with pytest.raises(StructuralError):
        TLCObservable(-1, ())
    with pytest.raises(UnsupportedOperationError):
        f.weight_map()


def test_path_observable_edges_are_exact_ints():
    """Edges given as numpy ints make the observable that Python ints do."""
    path = ((1, 1, 2, 0), (2, 2, 1, 1))
    f = TLCObservable(2, ((path, Fraction(1, 3)),))
    g = TLCObservable(2, ((tuple(np.array(path)), Fraction(1, 3)),))
    assert g == f
    assert {type(c) for p, _ in g.weights for e in p for c in e} == {int}


def test_averaging_search_refuses_a_window_of_another_dimension(hhp):
    """The search anchored the window itself, past the dimension check of
    `generate_patch`, and died with an IndexError in geometry."""
    x = SymbolSequence.constant(1, 64)     # half-hex levels: geometric
    named = "1-D window for the 2-D family half-hex-pair"
    with pytest.raises(StructuralError, match=named):
        special_averaging_sequence(hhp, x, Region.box((1,), (1,)), 0.05, 4)
    with pytest.raises(StructuralError, match=named):
        SupertileSystem(hhp, x).anchor(Region.box((1,), (1,)))


def test_volume_observable_vectors(hh):
    """f = 1 integrates each level-k supertile to its volume 4^k * 3/4."""
    x = SymbolSequence.constant(1, 6)
    vecs = ergodic_vectors(TLCObservable.constant(1, 6), hh, x, 6)
    for k, v in enumerate(vecs):
        assert v.level == k
        assert v.values.tolist() == [Fraction(3, 4) * 4 ** k] * 6


def test_equivariance_exact_random(hhp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 15, seed=9)
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = tuple(Fraction(int(a), 8) for a in rng.integers(-16, 17, size=6))
        vecs = ergodic_vectors(TLCObservable(0, w), hhp, x, 15)
        for k in range(15):
            a = substitution_matrix(hhp.rule(x[k + 1]), 6).astype(object)
            assert (vecs[k + 1].values == a @ vecs[k].values).all()


@given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=2,
                max_size=2))
@settings(max_examples=25, deadline=None)
def test_equivariance_property_one_d(weights):
    from randtile.substitution import one_d_pair
    fam = one_d_pair()
    x = SymbolSequence((1, 2, 1, 1, 2, 2, 1, 2))
    vecs = ergodic_vectors(TLCObservable(0, tuple(weights)), fam, x, 8)
    for k in range(8):
        a = substitution_matrix(fam.rule(x[k + 1]), 2).astype(object)
        assert (vecs[k + 1].values == a @ vecs[k].values).all()


def test_depth_one_observable(hh):
    """Depth-1 weights: indicator of one diagram edge; V^k must still satisfy
    the recursion from level 1 on, and V^1 counts that edge's source volume."""
    x = SymbolSequence.constant(1, 6)
    span = spanning_system(hh, x, 1)
    edge = span.anchor(1, 0).edges       # one concrete level-1 edge
    f = TLCObservable(1, ((edge, Fraction(1)),))
    vecs = ergodic_vectors(f, hh, x, 6)
    assert vecs[1].values[0] == Fraction(3, 4)
    assert sum(vecs[1].values) == Fraction(3, 4)
    for k in range(1, 6):
        a = substitution_matrix(hh.rule(x[k + 1]), 6).astype(object)
        assert (vecs[k + 1].values == a @ vecs[k].values).all()


def test_depth_requires_geometry(hhp):
    x = SymbolSequence.constant(2, 6)
    f = TLCObservable(1, ((((1, 0, 0, 0),), Fraction(1)),))
    with pytest.raises(UnsupportedOperationError):
        ergodic_vectors(f, hhp, x, 6)


def _object_matmul_vectors(f, family, x, depth):
    """Reference chain: per-path sums of w·vol, then V^k = A_k·V^(k−1) as
    object (or float) matmuls, one `Fraction` operation at a time."""
    m = f.depth
    vols = family.volumes()
    n = family.n_prototiles
    exact = f.is_exact()
    dtype = object if exact else complex if any(
        isinstance(w, complex) for w in (dict(f.weights).values()
                                         if m else f.weights)) else float
    if m == 0:
        out = [np.array([f.weights[j] * (vols[j] if exact else float(vols[j]))
                         for j in range(n)], dtype=dtype)]
    else:
        wmap = f.weight_map()
        out = []
        for k in range(0, min(m, depth) + 1):
            paths = oracles.paths_to(family, x, k)
            vals = []
            for j in range(n):
                cont = oracles.upward_continuation(family, x, k, j, m)
                total = 0
                for p in paths[j]:
                    src = p[0][2] if p else j
                    w = wmap.get(p + cont, 0)
                    total += w * (vols[src] if exact else float(vols[src]))
                vals.append(total)
            out.append(np.array(vals, dtype=dtype))
    while len(out) <= depth:
        a = family.matrix(x[len(out)]).astype(object if exact else float)
        out.append(a @ out[-1])
    return out[:depth + 1]


def _assert_same_vectors(got, want):
    assert [v.level for v in got] == list(range(len(want)))
    for v, w in zip(got, want):
        assert v.values.dtype == w.dtype
        if w.dtype != object:     # floats and complexes bit for bit
            assert v.values.tobytes() == w.tobytes(), v.level
            continue
        for a, b in zip(v.values, w):
            assert a == b and type(a) is type(b), (v.level, a, b)


def _int_volume_family(hhp):
    """half-hex-pair's matrices over integer volumes 1..6, so that int weights
    give int vectors and mixed weights give mixed V^0."""
    return SimpleNamespace(n_prototiles=6, volumes=lambda: [1, 2, 3, 4, 5, 6],
                           matrix=hhp.matrix)


def test_exact_chain_matches_object_matmul_zero_trace(hhp):
    """Zero-trace `Fraction` weights to depth 1,000: every entry of every
    level equals the object-matmul chain's, with the same type."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 1000, seed=3)
    f = make_zero_trace_observable(hhp, x, 40)
    assert f.is_exact() and any(isinstance(w, Fraction) for w in f.weights)
    _assert_same_vectors(ergodic_vectors(f, hhp, x, 1000),
                         _object_matmul_vectors(f, hhp, x, 1000))


@pytest.mark.parametrize("weights", [
    (1,) * 6,                                           # volume observable
    (1, Fraction(-2, 3), 0, Fraction(5, 7), -3, Fraction(1, 2)),    # mixed
    (0,) * 6,                                           # all zero
    (Fraction(0),) * 6,
])
def test_exact_chain_matches_object_matmul(hhp, weights):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.3), 120, seed=11)
    f = TLCObservable(0, weights)
    for fam in (hhp, _int_volume_family(hhp)):
        _assert_same_vectors(ergodic_vectors(f, fam, x, 120),
                             _object_matmul_vectors(f, fam, x, 120))


def test_exact_chain_int_volumes_keep_int_types(hhp):
    """Integer weights over integer volumes stay ints at every level; one
    `Fraction` weight makes every later level `Fraction`."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 30, seed=2)
    fam = _int_volume_family(hhp)
    vecs = ergodic_vectors(TLCObservable(0, (1, -1, 2, 0, 3, -5)), fam, x, 30)
    assert all(type(c) is int for v in vecs for c in v.values)
    vecs = ergodic_vectors(TLCObservable(0, (1, -1, 2, 0, 3, Fraction(1, 3))),
                           fam, x, 30)
    assert [type(c) for c in vecs[0].values] == [int] * 5 + [Fraction]
    assert all(type(c) is Fraction for v in vecs[1:] for c in v.values)


def test_path_observable_matches_object_matmul(hh):
    """Depth-5 path observable on half-hex-classical with random `Fraction`
    weights (and a few int ones); no path through vertex 0 at level 5 is
    weighted, so V^5_0 is a `Fraction` zero."""
    x = SymbolSequence.constant(1, 9)
    paths = [p for ps in oracles.paths_to(hh, x, 5).values() for p in ps]
    assert len(paths) == 6144
    rng = np.random.default_rng(5)
    weights = []
    for p, a, b in zip(paths, rng.integers(-40, 41, len(paths)),
                       rng.integers(1, 30, len(paths))):
        if p[-1][1] != 0:
            weights.append((p, int(a) if b == 1 else Fraction(int(a), int(b))))
    f = TLCObservable(5, tuple(weights))
    vecs = ergodic_vectors(f, hh, x, 9)
    _assert_same_vectors(vecs, _object_matmul_vectors(f, hh, x, 9))
    assert vecs[5].values[0] == 0 and type(vecs[5].values[0]) is Fraction
    _assert_same_vectors(ergodic_vectors(f, hh, x, 3),
                         _object_matmul_vectors(f, hh, x, 3))


@pytest.mark.parametrize("volumes", [[1, 2, 3, 4, 5, 6],
                                     [1, 2, 3, 4, 5, Fraction(1, 2)]])
def test_path_observable_pruned_matches_object_matmul(hh, volumes):
    """Without the edges into parent 0, vertex 0 has no path above level 0
    and stays int 0; int weights over int volumes stay ints."""
    def rule(symbol):
        r = hh.rule(symbol)
        return SimpleNamespace(is_geometric=r.is_geometric, edges=tuple(
            e for e in r.edges if e[0] != 0))
    fam = SimpleNamespace(n_prototiles=6, volumes=lambda: volumes,
                          matrix=hh.matrix, rule=rule)
    x = SymbolSequence.constant(1, 6)
    paths = [p for ps in oracles.paths_to(fam, x, 3).values() for p in ps]
    rng = np.random.default_rng(8)
    for weights in ([int(a) for a in rng.integers(-9, 10, len(paths))],
                    [Fraction(int(a), 3) if a % 2 else int(a)
                     for a in rng.integers(-9, 10, len(paths))]):
        f = TLCObservable(3, tuple(zip(paths, weights)))
        vecs = ergodic_vectors(f, fam, x, 6)
        _assert_same_vectors(vecs, _object_matmul_vectors(f, fam, x, 6))
        assert all(type(v.values[0]) is int and v.values[0] == 0
                   for v in vecs[1:4])


@pytest.mark.parametrize("weights", [
    (0.5, -1.25, 3.0, 0.0, 2.5, -0.75),
    (0.5 + 1j, -1.25, 3.0 - 2j, 0.0, 2.5j, -0.75),
])
def test_float_chain_matches_float_matmul(hhp, weights):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 60, seed=4)
    f = TLCObservable(0, weights)
    _assert_same_vectors(ergodic_vectors(f, hhp, x, 60),
                         _object_matmul_vectors(f, hhp, x, 60))


def test_float_path_observable_matches_float_sums(hh):
    x = SymbolSequence.constant(1, 5)
    paths = [p for ps in oracles.paths_to(hh, x, 2).values() for p in ps]
    f = TLCObservable(2, tuple((p, 0.1 * i - 3) for i, p in enumerate(paths)))
    _assert_same_vectors(ergodic_vectors(f, hh, x, 5),
                         _object_matmul_vectors(f, hh, x, 5))


def _weighted_paths(family, x, m, kind, share, seed):
    """A random share of the length-m diagram paths along x with `kind`
    weights, in a random order, plus absent copies of a few (one branch
    index set to 9)."""
    paths = [p for ps in oracles.paths_to(family, x, m).values() for p in ps]
    rng = np.random.default_rng(seed)
    chosen = [paths[i] for i in rng.permutation(len(paths))
              if rng.random() < share]
    absent = [p[:-1] + (p[-1][:3] + (9,),) for p in chosen[:3]]
    a, b = rng.integers(-9, 10, (2, len(chosen) + len(absent))).tolist()
    make = {"fraction": lambda a, b: Fraction(a, b % 7 + 1) if b % 3 else a,
            "int": lambda a, b: a,
            "float": lambda a, b: 0.1 * a + b / 3,
            "complex": lambda a, b: complex(0.1 * a, b / 7)}[kind]
    return TLCObservable(m, tuple(
        (p, make(*ab)) for p, ab in zip(chosen + absent, zip(a, b))))


def _path_case(hh, odp, name):
    """(family, sequence) for half-hex-classical, its rules over volumes not
    all equal (one a `Fraction`), and one-d-pair under both its rules."""
    if name == "one-d-pair":
        return odp, sample_sequence(MeasureSpec.bernoulli_p(0.5), 10, seed=5)
    x = SymbolSequence.constant(1, 10)
    if name == "half-hex-classical":
        return hh, x
    return SimpleNamespace(n_prototiles=6, matrix=hh.matrix, rule=hh.rule,
                           volumes=lambda: [1, 2, 3, 4, 5, Fraction(1, 2)]), x


@pytest.mark.parametrize("kind", ["fraction", "int", "float", "complex"])
@pytest.mark.parametrize("name", ["half-hex-classical", "unequal-volumes",
                                  "one-d-pair"])
@pytest.mark.parametrize("m", range(1, 7))
def test_path_levels_match_the_enumeration(hh, odp, m, name, kind):
    """Each level of a random path observable equals the enumeration of
    every diagram path, value and type, floats bit for bit, at depths 0,
    m − 1, m and m + 3; shares of 1%, 10% and 100% of the paths."""
    family, x = _path_case(hh, odp, name)
    share = (0.01, 0.1, 1.0)[m % 3]
    f = _weighted_paths(family, x, m, kind, share, seed=m)
    want = _object_matmul_vectors(f, family, x, m + 3)
    for depth in (0, m - 1, m, m + 3):
        _assert_same_vectors(ergodic_vectors(f, family, x, depth),
                             want[:depth + 1])


def test_deep_path_weighs_where_its_suffix_is_least(hh):
    """One weight on a depth-12 path of half-hex-classical, where listing
    the diagram would take 6·4^12 paths: the least path from vertex 2 feeds
    w·vol at every level; a path whose edge at level 7 is not least feeds
    levels 7..12 only.  Each in well under 1 s."""
    x = SymbolSequence.constant(1, 13)
    least = oracles.upward_continuation(hh, x, 0, 2, 12)
    edge = next((7, *e[:3]) for e in hh.rule(1).edges
                if e[1] == least[6][2] and (7, *e[:3]) != least[6])
    other = least[:6] + (edge,) + oracles.upward_continuation(
        hh, x, 7, edge[1], 12)
    w, vol = Fraction(2, 7), Fraction(3, 4)
    for path, fed in ((least, range(13)), (other, range(7, 13))):
        start = time.perf_counter()
        vecs = ergodic_vectors(TLCObservable(12, ((path, w),)), hh, x, 12)
        assert time.perf_counter() - start < 1
        for k, v in enumerate(vecs):
            at = path[k - 1][1] if k else path[0][2]
            want = [w * vol if k in fed and j == at else 0 for j in range(6)]
            assert v.values.tolist() == want, k
            assert {type(c) for c in v.values} == {Fraction}


def test_a_vertex_without_a_parent_is_refused():
    """A family in which prototile 1 is never a child: its depth-1 path
    observable has no least continuation from vertex 1."""
    seg = Box([-Fraction(1, 2)], [Fraction(1, 2)])
    quarter = Fraction(1, 4)
    rule = SubstitutionRule(1, Fraction(1, 2), [
        Branch(parent, 0, (tau,)) for parent in (0, 1)
        for tau in (-quarter, quarter)])
    family = RuleFamily("no-parent", (Prototile(0, seg), Prototile(1, seg)),
                        (rule,), dim=1)
    f = TLCObservable(1, ((((1, 0, 0, 0),), 1),))
    with pytest.raises(StructuralError,
                       match="vertex 1 has no outgoing edge at 1"):
        ergodic_vectors(f, family, SymbolSequence.constant(1, 3), 1)


def test_ergodic_vectors_rejects_negative_depth(hh):
    """depth = -1 used to return an empty list."""
    x = SymbolSequence.constant(1, 6)
    with pytest.raises(StructuralError, match="depth"):
        ergodic_vectors(TLCObservable.constant(1, 6), hh, x, -1)


def test_cotrace_shadow_depth0_exact(hhp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 10, seed=4)
    f = TLCObservable(0, tuple(Fraction(k + 1, 3) for k in range(6)))
    est = cotrace_shadow(f, hhp, x, 10)
    assert all(r == 0 for r in est.residuals)
    vols = hhp.volumes()
    assert est.vector.tolist() == [f.weights[j] * vols[j] for j in range(6)]


def _matmul_residuals(f, family, x, depth):
    """|V^(k+1) − A_(k+1)·V^k| per level by one object (or float) matmul
    each, the chain `cotrace_shadow` ran on every level."""
    vecs = ergodic_vectors(f, family, x, depth)
    mats = connectivity_matrices(family, x, depth)
    out = []
    for k in range(depth):
        pred = mats[k].astype(object if f.is_exact() else float) @ vecs[k].values
        out.append(math.sqrt(sum(float(c) ** 2 for c in vecs[k + 1].values - pred)))
    return out


def test_cotrace_residuals_match_object_matmul(hh, hhp):
    """Levels from f.depth on are 0.0 without a matmul, for exact and float
    weights alike (`ergodic_vectors` builds them by the same matmul); the
    path levels below f.depth keep their (nonzero) matmul residuals."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 1000, seed=3001)
    exact = make_zero_trace_observable(hhp, x, 40)
    assert exact.is_exact()
    floats = TLCObservable(0, [0.1 * j for j in range(6)])
    for f, depth in ((exact, 1000), (floats, 150)):
        want = _matmul_residuals(f, hhp, x, depth)
        assert cotrace_shadow(f, hhp, x, depth).residuals == want
        assert want == [0.0] * depth
    x = SymbolSequence.constant(1, 8)
    paths = [p for ps in oracles.paths_to(hh, x, 2).values() for p in ps]
    for w in (Fraction(1, 5), 0.2):
        f = TLCObservable(2, tuple((p, (i % 7 - 3) * w)
                                   for i, p in enumerate(paths)))
        want = _matmul_residuals(f, hh, x, 8)
        assert all(want[:2]) and want[2:] == [0.0] * 6
        assert cotrace_shadow(f, hh, x, 8).residuals == want


def test_cotrace_complex_depth_one_residual(hh):
    """A complex difference has its modulus squared; `float(c)` raised a
    ComplexWarning (an error here) or, unwarned, dropped the imaginary
    part.  The least-squares vector stays complex."""
    x = SymbolSequence.constant(1, 8)
    paths = [p for ps in oracles.paths_to(hh, x, 1).values() for p in ps]
    f = TLCObservable(1, tuple((p, complex(i % 3, 1 - i % 2))
                               for i, p in enumerate(paths)))
    est = cotrace_shadow(f, hh, x, 8)
    vecs = ergodic_vectors(f, hh, x, 2)
    diff = vecs[1].values - hh.matrix(x[1]).astype(float) @ vecs[0].values
    assert np.iscomplex(diff).any()
    want = math.sqrt(sum(abs(c) ** 2 for c in diff))
    assert est.residuals == [want] + [0.0] * 7
    assert est.vector.dtype == complex


def test_zero_trace_observable_half_hex(hh):
    x = SymbolSequence.constant(1, 40)
    f = make_zero_trace_observable(hh, x, 40)
    assert f.is_exact()
    # orthogonality: sum over types of vol * w ~ 0 kills the Perron component
    assert abs(sum(Fraction(3, 4) * w for w in f.weights)) < 1e-9
    # the remaining growth is at the second eigenvalue 2, not 4
    vecs = ergodic_vectors(f, hh, x, 30)
    norm30 = math.sqrt(sum(float(c) ** 2 for c in vecs[30].values))
    assert norm30 <= 10.0 * 2 ** 30
    assert norm30 >= 0.01 * 2 ** 30


def test_zero_trace_degenerate(sol1):
    x = SymbolSequence.constant(1, 10)
    with pytest.raises(DegenerateObservableError):
        make_zero_trace_observable(sol1, x, 10)


def test_deviation_over_regions_volume_slope(hh):
    x = SymbolSequence.constant(1, 40)
    f = TLCObservable.constant(1, 6)
    fit = deviation_over_regions(f, hh, x, Region.unit_square(),
                                 [4, 8, 16, 32, 64, 128])
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_deviation_over_regions_needs_points(hh):
    x = SymbolSequence.constant(1, 40)
    f = TLCObservable.constant(1, 6)
    with pytest.raises(InsufficientDataError):
        deviation_over_regions(f, hh, x, Region.unit_square(), [4, 8])


def test_log_abs_float_branch():
    assert _log_abs(-2.5) == math.log(2.5)
    assert _log_abs(np.float64(0.75)) == math.log(0.75)
    assert _log_abs(0.0) is None and _log_abs(-0.0) is None


def test_deviations_sum_float_observables_in_documented_order(hh):
    """A float observable's integrals round in the documented orders: the
    decomposition levels from the top down and the types ascending, for
    regions; the base multiset's types ascending, along the sequence."""
    x = SymbolSequence.constant(1, 40)
    f = TLCObservable.typewise((0.1, -0.7, 0.3, 1.1, -0.2, 0.45))
    base, grid = Region.unit_square(), [8, 12, 16, 20, 24, 32]
    system = SupertileSystem(hh, x)
    fit = deviation_over_regions(f, hh, x, base, grid, system=system)
    assert len(fit.entries) == len(grid)
    for (t, got), dilation in zip(fit.entries, grid):
        rep = decompose_region(hh, x, base, dilation, system=system)
        assert len(rep.counts) > 1
        assert list(rep.counts) == sorted(rep.counts, reverse=True)
        vecs = ergodic_vectors(f, hh, x, rep.anchor_level)
        total = 0
        for level in sorted(rep.counts, reverse=True):
            for j in range(hh.n_prototiles):
                if rep.counts[level][j]:
                    total += rep.counts[level][j] * vecs[level].values[j]
        assert t == dilation and got == math.log(abs(total))

    seq = special_averaging_sequence(hh, x, base, eps=0.05, count=8)
    mult = seq.base_multiset
    assert len(mult) > 1 and list(mult) == sorted(mult)
    vecs = ergodic_vectors(f, hh, x, max(k for k, _, _ in seq.entries))
    fit = deviation_along_sequence(f, seq, hh, x, vectors=vecs)
    for (_, got), (k_i, _, _) in zip(fit.entries, seq.entries):
        total = 0
        for t in sorted(mult):
            total += mult[t] * vecs[k_i].values[t]
        assert got == math.log(abs(total))


def test_deviation_cap_from_lyapunov(hh, hhp):
    lyap = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(1.0), 2000, seed=0)
    # cap = max(d*lambda2/lambda1, d-1) = 2*log2/log4 = 1 for half-hex p=1
    assert deviation_cap(lyap, hh.dim)[0] == pytest.approx(1.0, abs=0.05)


def test_deviation_cap_single_prototile(sol2):
    """One exponent only: the cap is d - 1 (was an IndexError)."""
    lyap = lyapunov_spectrum(sol2, MeasureSpec.bernoulli_p(0.5), 1000, seed=0)
    assert len(lyap.raw_exponents) == 1
    assert deviation_cap(lyap, sol2.dim) == (1, None)


def test_deviation_cap_formula(hhp, odp):
    # lambda_2 = -inf (one-d-pair has a kernel direction): cap d - 1
    lyap = lyapunov_spectrum(odp, MeasureSpec.bernoulli_p(0.5), 1000, seed=0)
    assert lyap.raw_exponents[1] == -math.inf
    assert deviation_cap(lyap, 1) == (0, None)
    # p=0 on half-hex-pair: lambda_2/lambda_1 = log(52)/2 / log(16) > 1/2
    lyap = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.0), 2000, seed=0)
    (l1, l2), (s1, s2) = lyap.raw_exponents[:2], lyap.raw_stderrs[:2]
    cap, se = deviation_cap(lyap, 2)
    assert cap == 2 * l2 / l1 and cap > 1
    # first order in (lambda_1, lambda_2), covariance ignored
    assert se == pytest.approx(math.hypot(2 / l1 * s2, 2 * l2 / l1 ** 2 * s1),
                               rel=1e-12)
    # the d - 1 term wins: no standard error
    small = SimpleNamespace(raw_exponents=[2.0, 0.5], raw_stderrs=[0.1, 0.1])
    assert deviation_cap(small, 2) == (1, None)
    with pytest.raises(ConvergenceError):
        deviation_cap(SimpleNamespace(raw_exponents=[0.0, -1.0],
                                      raw_stderrs=[0.1, 0.1]), 2)


def test_deviation_along_sequence_reports_cap(tmp_path, monkeypatch):
    """`deviate` reports the cap and its standard error from one
    `deviation_cap` call on its spectrum; the fits carry no cap."""
    calls = []

    def cap(lyapunov, d):
        calls.append(deviation_cap(lyapunov, d))
        return calls[-1]

    monkeypatch.setattr(cli, "deviation_cap", cap)
    assert cli.main(["deviate", "--family", "half-hex-pair", "--p", "0",
                     "--length", "200", "--entries", "10",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "deviate_summary.json").read_text())
    [(value, stderr)] = calls
    assert value > 1 and stderr is not None
    assert (summary["cap"], summary["cap_stderr"]) == (cli.fmt(value),
                                                       cli.fmt(stderr))
    assert summary["slope_minus_cap"] == cli.fmt(
        float(summary["slope"]) - value)
    assert not hasattr(ergodic.DeviationFit, "cap")


def test_special_averaging_sequence_geometric(hh):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=8)
    assert len(seq.entries) == 8
    assert seq.hausdorff is not None and seq.hausdorff <= 0.05
    assert sum(seq.base_multiset.values()) > 0
    # dilations grow geometrically with the recurrence level
    for k_i, t_i, tau in seq.entries:
        assert t_i == seq.t_star * 2 ** k_i
        assert len(tau) == 2


def test_special_averaging_sequence_matrix_only(hhp):
    x = SymbolSequence.constant(2, 40)
    seq = special_averaging_sequence(hhp, x, Region.unit_square(), eps=0.05,
                                     count=8, seed=3)
    assert seq.hausdorff is None
    assert len(seq.entries) == 8
    assert all(mult >= 1 for mult in seq.base_multiset.values())
    again = special_averaging_sequence(hhp, x, Region.unit_square(), eps=0.05,
                                       count=8, seed=3)
    assert again.base_multiset == seq.base_multiset


def test_special_averaging_sequence_falls_back_past_geometry(hhp):
    """Levels 1..max(k*, 8) are geometric, so the dyadic search starts, but
    the far window's anchor climbs to the matrix-only rule at level 10: the
    sequence falls back to the seeded matrix-only multiset."""
    x = SymbolSequence((1,) * 9 + (2,) + (1,) * 30)
    system = SupertileSystem(hhp, x)
    k_star = next(k for k in range(1, 41) if (system.counts(k) > 0).all())
    assert x.positive.index(2) + 1 > max(k_star, 8)
    seq = special_averaging_sequence(hhp, x, Region.box((64, 64), (1, 1)),
                                     eps=0.05, count=5, seed=3, system=system)
    gen = rng_stream(3, worker_id=1)
    assert seq.base_multiset == {t: int(gen.integers(1, 10)) for t in range(6)}
    assert seq.hausdorff is None and seq.t_star == 1
    assert seq.window == k_star and len(seq.entries) == 5
    assert all(tau == (0, 0) for _, _, tau in seq.entries)


def test_special_averaging_sequence_one_d(odp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, 0)
    seq = special_averaging_sequence(odp, x, Region.box((0,), (1,)), 0.05, 5)
    assert seq.t_star == 16
    assert seq.hausdorff is not None and seq.hausdorff <= 0.05
    f = make_zero_trace_observable(odp, x, 40)
    assert math.isfinite(deviation_along_sequence(f, seq, odp, x).slope)


def test_special_averaging_sequence_one_d_disk(odp):
    # a 1-D disk's boundary is its two endpoints c ± r
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, 0)
    seq = special_averaging_sequence(odp, x, Region.disk((0,), 0.5), 0.05, 5)
    assert seq.hausdorff is not None and seq.hausdorff <= 0.05
    assert len(seq.entries) == 5


def test_special_averaging_sequence_disk_dilation(hh):
    """A disk of radius 2 and one of radius 1/2 dilated by 4 are the same
    window, so T_* and the sequence agree; the ball test used to read the
    undilated radius and push T_* from 2 to 8."""
    x = SymbolSequence.constant(1, 64)
    seqs = [special_averaging_sequence(hh, x, disk, eps=1.0, count=5)
            for disk in (Region.disk((0, 0), 2.0),
                         Region.disk((0, 0), 0.5, dilation=4))]
    assert seqs[0].t_star == 2
    assert seqs[0] == seqs[1]


def _shape_point_distance(points, patch, embedding):
    """Oracle: the distance loop over exact `Fraction` tile shapes, each
    point walking every tile in ascending (bbox gap, tile index)."""
    shapes = list(patch.shapes())
    bboxes = [s.bbox() for s in shapes]
    lo_arr = np.array([geometry.embed_point(lo, embedding) for lo, _ in bboxes])
    hi_arr = np.array([geometry.embed_point(hi, embedding) for _, hi in bboxes])
    out = []
    for p in points:
        pa = np.asarray(p)
        gap = np.maximum(lo_arr - pa, 0) + np.maximum(pa - hi_arr, 0)
        lower = np.sqrt((gap ** 2).sum(axis=1))
        best = math.inf
        for idx in np.argsort(lower, kind="stable"):
            if lower[idx] >= best:
                break
            s = shapes[idx]
            if isinstance(s, geometry.Box):
                best = float(lower[idx])
                break
            faces = geometry.faces(s, embedding)
            if geometry.margin(pa, faces) >= 0:
                best = 0.0
                break
            vs = [a for a, _, _ in faces]
            for i in range(len(vs)):
                best = min(best, geometry.point_segment_distance(
                    tuple(pa), vs[i], vs[(i + 1) % len(vs)]))
        out.append(best)
    return out


@pytest.mark.parametrize("name", ["hh", "sol2"])
@pytest.mark.parametrize("window,dilations", [
    (Region.unit_square(), (1, 2, 8, 64)),
    (Region.disk((0, 0), 1), (1, 4, 64)),
    (Region.box((-1, -1), (2, 2)), (1, 8, 64))])
def test_patch_point_distance_matches_shape_oracle(request, name, window,
                                                   dilations):
    """The lattice-corner distances equal the `Fraction`-shape loop bit for
    bit (`==` on floats), so `hausdorff` and the chosen T_* cannot move."""
    fam = request.getfixturevalue(name)
    # solenoid-2x3 alternates q = 2, 3, so its lattice scale is 6^k
    x = SymbolSequence((1, 2) * 32 if name == "sol2" else (1,) * 64)
    system = SupertileSystem(fam, x)
    sizes = []
    for t in dilations:
        win = window.dilated(t)
        patch = generate_patch(fam, x, win, system=system)
        sizes.append(len(patch))
        if len(patch):              # an empty patch is never measured
            pts = _boundary_samples(win, fam.embedding)
            want = _shape_point_distance(pts, patch, fam.embedding)
            assert _patch_point_distance(pts, patch, fam.embedding) == want, t
    assert sizes[-1] > 500


def test_patch_point_distance_oracle_one_d_and_far(hh, odp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, 0)
    for t in (4, 16, 64):
        win = Region.box((0,), (1,)).dilated(t)
        patch = generate_patch(odp, x, win)
        pts = _boundary_samples(win, None) + [(-0.25,), (t + 0.3,)]
        assert (_patch_point_distance(pts, patch, None)
                == _shape_point_distance(pts, patch, None))
    # offsets past int64's safe range are Python ints (object dtype)
    x = SymbolSequence.constant(1, 64)
    win = Region.box((2 ** 35, -2 ** 35), (3, 2)).dilated(4)
    patch = generate_patch(hh, x, win)
    assert len(patch) and patch.offsets.dtype == object
    pts = _boundary_samples(win, hh.embedding)
    assert (_patch_point_distance(pts, patch, hh.embedding)
            == _shape_point_distance(pts, patch, hh.embedding))


def test_patch_point_distance_oracle_stretched_thirds():
    """Tiles on (1/21)·ℤ² under an irrational stretch: each coordinate is
    rounded once by int / S' and then multiplied, as `embed_point` does."""
    tri = geometry.Polygon([(0, 0), (Fraction(2, 3), 0),
                            (Fraction(1, 3), Fraction(5, 7))])
    box = geometry.Box((0, 0), (Fraction(1, 3), Fraction(2, 7)))
    emb = (math.sqrt(2), math.sqrt(3))
    fam = SimpleNamespace(name="thirds", dim=2, n_prototiles=2,
                          prototiles=[SimpleNamespace(shape=tri),
                                      SimpleNamespace(shape=box)])
    rng = np.random.default_rng(1)
    patch = Patch(rng.integers(0, 2, 300), rng.integers(-40, 40, (300, 2)),
                  3, fam)
    pts = [tuple(p) for p in (rng.uniform(-14, 14, (400, 2)) * emb).tolist()]
    assert (_patch_point_distance(pts, patch, emb)
            == _shape_point_distance(pts, patch, emb))


def test_patch_point_distance_non_convex_tile():
    """An L-shaped tile covers its two arms; the notch and the outside are
    at their edge distance (the convex-face margin missed both arms)."""
    ell = geometry.Polygon([(-1, -1), (2, -1), (2, 1), (1, 1), (1, 2), (-1, 2)])
    fam = SimpleNamespace(name="L", dim=2, n_prototiles=1,
                          prototiles=[SimpleNamespace(shape=ell)])
    patch = Patch([0], [[0, 0]], 1, fam)
    pts = [(1.5, 0.5), (0.5, 1.5), (0.0, 0.0), (1.5, 1.5), (3.0, 0.0)]
    assert _patch_point_distance(pts, patch, None) == [0.0, 0.0, 0.0, 0.5, 1.0]


def _full_walks(monkeypatch):
    """Count the points `_patch_point_distance` walks over every tile: the
    full walk is its one `np.argsort` of float gaps (`CellGrid` sorts its
    int64 cell keys)."""
    calls, argsort = [], np.argsort

    def spy(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "f":
            calls.append(len(a))
        return argsort(a, *args, **kwargs)
    monkeypatch.setattr(np, "argsort", spy)
    return calls


def _box_and_triangle_patch(types=(0, 1), offsets=((0, 0), (0, 0))):
    """Unit boxes (type 1) and the triangles below their diagonals (type 0)
    at integer offsets.  A box and a triangle at one offset share a bbox,
    so every point outside it ties at a gap; by default, tile 0 is the
    triangle and tile 1 the box, both at the origin."""
    tri = geometry.Polygon([(0, 0), (1, 0), (0, 1)])
    box = geometry.Box((0, 0), (1, 1))
    fam = SimpleNamespace(name="box-and-triangle", dim=2, n_prototiles=2,
                          prototiles=[SimpleNamespace(shape=tri),
                                      SimpleNamespace(shape=box)])
    return Patch(types, offsets, 1, fam)


@pytest.mark.parametrize("point, walks", [
    ((-0.3, -0.4), 0),      # both tiles end the walk at 0.5
    ((-0.6, 0.5), 0),       # at 0.6; the triangle's edge is that far too
    ((0.9, 1.3), 0),        # the box at 0.3; the triangle, 0.85 away, not
    ((-0.62, -0.29), 0),    # the box at its gap, the triangle an ulp below
])
def test_patch_point_distance_tie_at_a_positive_gap(monkeypatch, point,
                                                    walks):
    """Two tiles tie at a positive gap.  The walk takes them by tile index,
    the triangle first, so no point is walked over every tile (the last one
    was, when ties followed the full `argsort`), and the result equals the
    `Fraction`-shape oracle bit for bit."""
    patch = _box_and_triangle_patch()
    calls = _full_walks(monkeypatch)
    got = _patch_point_distance([point], patch, None)
    assert len(calls) == walks
    assert got == _shape_point_distance([point], patch, None)


def _tie_heavy_distances():
    """`float.hex` of the distances of 300 points on a 0.01 grid to each of
    20 random 200-tile box-and-triangle patches, offsets in [−6, 6)²."""
    rng = np.random.default_rng(0)
    grid = np.arange(-8, 8, 0.01)
    out = []
    for _ in range(20):
        patch = _box_and_triangle_patch(rng.integers(0, 2, 200),
                                        rng.integers(-6, 6, (200, 2)))
        pts = [tuple(p) for p in rng.choice(grid, (300, 2)).tolist()]
        out += [d.hex() for d in _patch_point_distance(pts, patch, None)]
    return out


# numpy 2.4's dispatch targets on x86-64; disabled, it runs at its baseline
_SIMD_TARGETS = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_patch_point_distance_bits_at_the_simd_baseline():
    """The tie-heavy distances have the same bits with numpy's SIMD
    dispatch disabled, in a subprocess, as in this one.  An unstable
    `argsort` orders ties differently under AVX2 or AVX-512 than at the
    baseline (on an AVX-512 machine, 12 of these 6,000 points moved by an
    ulp when the walk followed it); the total order does not depend on the
    sort."""
    here = Path(__file__).parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _SIMD_TARGETS,
           "PYTHONPATH": os.pathsep.join([
               str(here.parent / "src"), str(here),
               *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode:
        pytest.skip(f"numpy refuses the setting: {probe.stderr[-300:]}")
    code = "import test_ergodic as t; print(*t._tie_heavy_distances())"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.split() == _tie_heavy_distances()


def test_patch_point_distance_beyond_the_first_radius(hh, monkeypatch):
    """A point farther from the patch than the widest tile bbox has no tile
    within the prefilter's radius: it is walked over every tile, and the
    points near the patch are not."""
    patch = generate_patch(hh, SymbolSequence.constant(1, 64),
                           Region.unit_square().dilated(8))
    near = _boundary_samples(Region.unit_square().dilated(8), hh.embedding)
    far = [(-40.0, 3.0), (5.0, 1e6), (-1e9, -1e9)]
    calls = _full_walks(monkeypatch)
    got = _patch_point_distance(near + far, patch, hh.embedding)
    assert calls == [len(patch)] * len(far)
    assert got == _shape_point_distance(near + far, patch, hh.embedding)
    assert min(got[-3:]) > 30


def test_patch_point_distance_of_far_points_is_finite(hh, odp):
    """Points whose squared bbox gaps overflow get a finite distance, with
    no overflow warning, in the near-tile prefilter and in the full walk
    alike; a point whose distance is past the float range gets inf."""
    x = SymbolSequence.constant(1, 64)
    patch = generate_patch(hh, x, Region.unit_square().dilated(8))
    pts = [(-1e300, -1e300), (1e200, 0.0), (1.7e308, 1.7e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _patch_point_distance(pts, patch, hh.embedding)
        line = generate_patch(odp, x, Region.box((0,), (1,)).dilated(8))
        assert _patch_point_distance([(1e200,), (-1e300,)], line,
                                     None) == [1e200, 1e300]
    assert got[0] == math.hypot(1e300, 1e300) and got[1] == 1e200
    assert got[2] == math.inf


def test_patch_point_distance_walks_only_near_tiles_on_the_search(
        hh, monkeypatch):
    """On the averaging search's largest base patch (half-hex, unit square
    dilated by 64, 5,302 tiles) no boundary sample is walked over every
    tile: each ends its near walk within the widest bbox extent."""
    win = Region.unit_square().dilated(64)
    patch = generate_patch(hh, SymbolSequence.constant(1, 64), win)
    assert len(patch) == 5302
    calls = _full_walks(monkeypatch)
    dists = _patch_point_distance(_boundary_samples(win, hh.embedding),
                                  patch, hh.embedding)
    assert calls == [] and max(dists) > 0


def test_special_averaging_rejects_three_dimensional_windows(sol3):
    # boundary samples cover windows of dimension <= 2 only
    x = SymbolSequence.constant(1, 40)
    with pytest.raises(UnsupportedOperationError):
        special_averaging_sequence(sol3, x, Region.box((0, 0, 0), (1, 1, 1)),
                                   eps=0.05, count=5)


@pytest.mark.parametrize("eps", [0, -0.05, math.nan, math.inf])
def test_special_averaging_rejects_bad_eps(hh, eps):
    """An eps that is not a positive finite number is refused before any
    anchor is searched (the stub system has no methods); eps 0 or NaN used
    to search for seconds and end in 'tile budget exhausted'."""
    x = SymbolSequence.constant(1, 40)
    with pytest.raises(StructuralError, match="not a positive finite number"):
        special_averaging_sequence(hh, x, Region.unit_square(), eps=eps,
                                   count=8, system=SimpleNamespace())


def test_special_averaging_insufficient(hh):
    x = SymbolSequence.constant(1, 6)
    with pytest.raises(InsufficientDataError):
        special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                   count=50)


def test_deviation_along_sequence_volume(hh):
    """f = 1 integrates to (volume of the sets): slope is the dimension."""
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=10)
    fit = deviation_along_sequence(TLCObservable.constant(1, 6), seq, hh, x)
    assert fit.slope == pytest.approx(2.0, abs=0.05)
    assert fit.running_max_slope == pytest.approx(2.0, abs=0.2)


def test_deviation_along_sequence_zero_observable(hh):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=8)
    with pytest.raises(DegenerateObservableError):
        deviation_along_sequence(TLCObservable.constant(0, 6), seq, hh, x)


def test_deviation_along_sequence_needs_entries(hh):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=8)
    seq.entries = seq.entries[:3]
    with pytest.raises(InsufficientDataError):
        deviation_along_sequence(TLCObservable.constant(1, 6), seq, hh, x)


def test_deviation_along_sequence_float_overflow(hhp):
    """T_i = 4^k_i along the θ = 1/4 rule passes 2^1024 at k_i = 512."""
    mats = [substitution_matrix(r, hhp.n_prototiles) for r in hhp.rules]
    matrix_family = matrix_only_family(
        "half-hex-pair-matrices", mats, thetas=[r.theta for r in hhp.rules])
    x = SymbolSequence.constant(2, 700)
    seq = special_averaging_sequence(matrix_family, x, Region.unit_square(),
                                     eps=0.05, count=600)
    f = TLCObservable(0, (1, -1, 0, 0, 0, 0))
    with pytest.raises(InsufficientDataError, match=r"entry 511 \(k_i = 512\)"):
        deviation_along_sequence(f, seq, hhp, x)


def test_deviation_along_sequence_rejects_short_vectors(hh):
    """Vectors that stop below k_max raise a typed error naming both depths;
    they used to die with an IndexError."""
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=10)
    kmax = max(k for k, _, _ in seq.entries)
    f = TLCObservable.constant(1, 6)
    short = ergodic_vectors(f, hh, x, kmax - 1)
    with pytest.raises(StructuralError,
                       match=rf"depth {kmax - 1}.*k_max = {kmax}"):
        deviation_along_sequence(f, seq, hh, x, vectors=short)
    full = ergodic_vectors(f, hh, x, kmax)
    assert (deviation_along_sequence(f, seq, hh, x, vectors=full).entries
            == deviation_along_sequence(f, seq, hh, x).entries)


def test_averaging_refuses_a_system_of_another_sequence(hh):
    """Both used to measure the sequence the system was built for."""
    x = SymbolSequence.constant(1, 40)
    other = SupertileSystem(hh, SymbolSequence.constant(1, 41))
    f = TLCObservable.typewise((1, -1, 0, 0, 0, 0))
    with pytest.raises(StructuralError, match="another sequence"):
        special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                   count=5, system=other)
    with pytest.raises(StructuralError, match="another sequence"):
        deviation_over_regions(f, hh, x, Region.unit_square(), [8, 16],
                               system=other)


def test_ergodic_vectors_past_the_sequence_name_the_level(hh):
    """A depth-5 observable on 4 symbols: it was an UnsupportedOperationError
    saying the rules are not geometric."""
    with pytest.raises(StructuralError, match="level 5 is past the sequence"):
        ergodic_vectors(TLCObservable(5, ()), hh,
                        SymbolSequence.constant(1, 4), 2)


def _eager_vectors(f, family, x, depth):
    """The object-matmul chain as `ErgodicVector`s built in full at once."""
    return [ErgodicVector(k, v) for k, v in
            enumerate(_object_matmul_vectors(f, family, x, depth))]


def _lazy_case(hh, hhp, case):
    """(observable, family, sequence, depth) of each kind of weights."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.4), 80, seed=29)
    if case == "fraction":
        f = TLCObservable(0, (1, Fraction(-2, 3), 0, Fraction(5, 7), -3,
                              Fraction(1, 2)))
        return f, hhp, x, 80
    if case == "int":
        f = TLCObservable(0, (1, -1, 2, 0, 3, -5))
        return f, _int_volume_family(hhp), x, 80
    if case in ("float", "complex"):
        f = TLCObservable(0, (0.5, -1.25, 3.0, 0.0, 2.5, -0.75) if case ==
                          "float" else (0.5 + 1j, -1.25, 3.0 - 2j, 0, 2.5j, 1))
        return f, hhp, x, 80
    x = SymbolSequence.constant(1, 12)
    paths = [p for ps in oracles.paths_to(hh, x, 3).values() for p in ps]
    rng = np.random.default_rng(29)
    return TLCObservable(3, tuple(
        (p, Fraction(int(a), int(b)) if b > 1 else int(a))
        for p, a, b in zip(paths, rng.integers(-9, 10, len(paths)),
                           rng.integers(1, 5, len(paths))))), hh, x, 12


@pytest.mark.parametrize("case", ["fraction", "int", "path", "float",
                                  "complex"])
def test_lazy_levels_match_an_eager_build(hh, hhp, case):
    """Every level, read in a random order and then again, equals the eager
    object-matmul chain value by value and type by type (`Fraction` or
    `int`); a second read returns the array the first one built."""
    f, fam, x, depth = _lazy_case(hh, hhp, case)
    vecs = ergodic_vectors(f, fam, x, depth)
    order = np.random.default_rng(7).permutation(depth + 1).tolist()
    first = {k: vecs[k].values for k in order}
    assert all(vecs[k].values is first[k] for k in reversed(order))
    _assert_same_vectors(vecs, _object_matmul_vectors(f, fam, x, depth))


def test_exact_levels_are_built_on_first_read(hh, hhp):
    """Above the last explicit level, an exact level holds its numerators
    until `values` is read; float levels and path levels are built at once.
    `ErgodicVector(level, values)` keeps the array it is given."""
    for case, explicit in (("fraction", 1), ("path", 4), ("float", 81)):
        f, fam, x, depth = _lazy_case(hh, hhp, case)
        vecs = ergodic_vectors(f, fam, x, depth)
        built = [k for k, v in enumerate(vecs) if "values" in vars(v)]
        assert built == list(range(explicit)), case
        vecs[-1].values
        if explicit < len(vecs) - 1:
            built = [k for k, v in enumerate(vecs) if "values" in vars(v)]
            assert built == list(range(explicit)) + [depth]
            assert vecs[-1]._num is None
    values = np.array([Fraction(1, 3), 2], dtype=object)
    v = ErgodicVector(3, values)
    assert v.level == 3 and v.values is values


def test_cotrace_and_regions_match_an_eager_build(hh, hhp, monkeypatch):
    """`cotrace_shadow` and `deviation_over_regions` give what they gave on
    vectors built in full at once, for exact and float weights."""
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 200, seed=29)
    xh = SymbolSequence.constant(1, 40)
    grid = [4, 8, 16, 32, 64]
    cases = [(make_zero_trace_observable(hhp, x, 40), hhp, x, 200),
             (TLCObservable(0, [0.1 * j - 0.2 for j in range(6)]), hhp, x,
              100),
             _lazy_case(hh, hhp, "path")]
    region_fs = [TLCObservable.typewise((Fraction(1, 3), -1, 0, 2, 0, 1)),
                 TLCObservable.typewise((0.1, -0.7, 0.3, 1.1, -0.2, 0.45))]

    def run():
        shadows = [cotrace_shadow(*case) for case in cases]
        fits = [deviation_over_regions(f, hh, xh, Region.unit_square(), grid)
                for f in region_fs]
        return ([(est.vector.tolist(), est.residuals) for est in shadows],
                [(fit.entries, fit.slope, fit.running_max_slope)
                 for fit in fits])

    lazy = run()
    monkeypatch.setattr(ergodic, "ergodic_vectors", _eager_vectors)
    eager = run()
    assert lazy == eager
    for (got, _), (want, _) in zip(lazy[0], eager[0]):
        assert [type(c) for c in got] == [type(c) for c in want]


def test_canonical_paths_are_kept_as_given(hh):
    """Tuples of tuples of ints are the observable's own: the weights tuple
    and every path tuple are the caller's objects."""
    x = SymbolSequence.constant(1, 5)
    paths = [p for ps in oracles.paths_to(hh, x, 2).values() for p in ps]
    weights = tuple((p, Fraction(i, 7)) for i, p in enumerate(paths))
    f = TLCObservable(2, weights)
    assert f.weights is weights
    assert all(got is want for (got, _), want in zip(f.weights, paths))


@pytest.mark.parametrize("edge", [
    (np.int64(1), 1, 2, 0), (1, 1, 2.0, 0), (1, True, 2, 0), [1, 1, 2, 0],
])
def test_path_edges_coerce_through_ints(edge):
    """numpy ints, 2.0 and True coerce (a list edge or path becomes a tuple),
    as they did edge by edge through `geometry.ints`."""
    rest = ((2, 2, 1, 1),)
    f = TLCObservable(2, [[[edge, *rest], Fraction(1, 3)]])
    want = tuple(int(c) for c in edge)
    assert f.weights == (((want, *rest), Fraction(1, 3)),)
    assert {type(c) for p, _ in f.weights for e in p for c in e} == {int}
    assert {type(e) for p, _ in f.weights for e in p} == {tuple}


@pytest.mark.parametrize("depth, path, named", [
    (1, ((2, 0, 0, 0),), "path ((2, 0, 0, 0),) of a depth-1 observable: "
     "edge levels must be consecutive from 1"),
    (2, ((1, 0, 0, 0),), "path ((1, 0, 0, 0),) of a depth-2 observable: "
     "not of length 2"),
    (2, ((1, 0, 2, 0), (2, 2, 1, 1)), "path ((1, 0, 2, 0), (2, 2, 1, 1)) of "
     "a depth-2 observable: path edges do not chain"),
    (2, ((1, 1, 2, 0), (1, 2, 1, 1)), "edge levels must be consecutive"),
    (2, ((1, 1, 2, 0), (2, 2, 1)), "edge must be (level, parent, child, "
     "branch)"),
    (1, ((1, 1, 2, 0, 5),), "edge must be (level, parent, child, branch)"),
    (3, ((1, 1, 2, 0), (2, 2, 1, 1), (3, 0, 1, 0)), "do not chain"),
])
def test_path_observable_refuses_malformed_paths(depth, path, named):
    """A path of the wrong length, with an edge off its level or with edges
    that do not chain is refused, canonical or not, after good paths too;
    `ergodic_vectors` used to weigh it as an absent class, summing to 0."""
    good = ((1, 1, 2, 0), (2, 2, 1, 1), (3, 1, 2, 0))[:depth]
    for weights in ([(path, 7)], ((good, 1), (path, 7)),
                    [[list(map(list, path)), Fraction(7)]]):
        with pytest.raises(StructuralError) as info:
            TLCObservable(depth, weights)
        assert named in str(info.value)


def test_path_word_and_observable_share_the_path_rules():
    """`PathWord` refuses the same paths with its own messages."""
    for path, named in [(((2, 0, 0, 0),), "edge levels must be consecutive"),
                        (((1, 0, 2, 0), (2, 2, 1, 1)), "do not chain"),
                        (((1, 0, 0),), "edge must be (level, parent")]:
        with pytest.raises(StructuralError, match=re.escape(named)):
            PathWord(path)
        with pytest.raises(StructuralError, match=re.escape(named)):
            TLCObservable(len(path), ((path, 1),))
    assert PathWord(((1, 1, 2, 0), (2, 2, 1, 1))).range == 2


def test_absent_well_formed_path_weighs_nothing(hh):
    """A well-formed path that is not in the diagram along x is an absent
    pattern class: it adds 0 to every level."""
    x = SymbolSequence.constant(1, 5)
    real = oracles.paths_to(hh, x, 2)[0][0]
    absent = ((1, 5, 5, 99), (2, 5, 5, 99))
    f = TLCObservable(2, ((real, Fraction(1, 3)),))
    g = TLCObservable(2, ((real, Fraction(1, 3)), (absent, Fraction(5))))
    assert [list(v.values) for v in ergodic_vectors(g, hh, x, 4)] == \
        [list(v.values) for v in ergodic_vectors(f, hh, x, 4)]


@pytest.mark.parametrize("edge, named", [
    ((2.5, 0, 2, 0), "2.5"), ((1, 0, "2", 0), "'2'"), ((1, 0, None, 0), "None"),
])
def test_path_edges_refuse_non_integers(edge, named):
    with pytest.raises(StructuralError, match=f"{named} is not an integer"):
        TLCObservable(2, (((edge, (2, 2, 1, 1)), Fraction(1, 3)),))
