import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtile import geometry
from randtile.bratteli import spanning_system
from randtile.cocycle import lyapunov_spectrum
from randtile.errors import (ConvergenceError, DegenerateObservableError,
                             InsufficientDataError, StructuralError,
                             UnsupportedOperationError)
from randtile.ergodic import (TLCObservable, _boundary_samples,
                              _patch_point_distance, cotrace_shadow,
                              deviation_along_sequence, deviation_cap,
                              deviation_over_regions, ergodic_vectors,
                              make_zero_trace_observable,
                              special_averaging_sequence)
from randtile.substitution import matrix_only_family, substitution_matrix
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import Patch, Region, SupertileSystem, generate_patch


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


def test_cotrace_shadow_depth0_exact(hhp):
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 10, seed=4)
    f = TLCObservable(0, tuple(Fraction(k + 1, 3) for k in range(6)))
    est = cotrace_shadow(f, hhp, x, 10)
    assert all(r == 0 for r in est.residuals)
    vols = hhp.volumes()
    assert est.vector.tolist() == [f.weights[j] * vols[j] for j in range(6)]


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


def test_deviation_cap_from_lyapunov(hh, hhp):
    x = SymbolSequence.constant(1, 40)
    lyap = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(1.0), 2000, seed=0)
    fit = deviation_over_regions(TLCObservable.constant(1, 6), hh, x,
                                 Region.unit_square(), [4, 8, 16, 32, 64],
                                 lyapunov=lyap)
    # cap = max(d*lambda2/lambda1, d-1) = 2*log2/log4 = 1 for half-hex p=1
    assert fit.cap == pytest.approx(1.0, abs=0.05)


def test_deviation_cap_single_prototile(sol2):
    """One exponent only: the cap is d - 1 (was an IndexError)."""
    x = SymbolSequence.constant(1, 40)
    lyap = lyapunov_spectrum(sol2, MeasureSpec.bernoulli_p(0.5), 1000, seed=0)
    assert len(lyap.raw_exponents) == 1
    fit = deviation_over_regions(TLCObservable.constant(1, 1), sol2, x,
                                 Region.unit_square(), [2, 4, 8, 16, 32],
                                 lyapunov=lyap)
    assert fit.cap == 1
    assert deviation_cap(lyap, 2) == (1, None)


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


def test_deviation_along_sequence_reports_cap(hh, hhp):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=10)
    f = TLCObservable.constant(1, 6)
    assert deviation_along_sequence(f, seq, hh, x).cap is None
    lyap = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(1.0), 2000, seed=0)
    fit = deviation_along_sequence(f, seq, hh, x, lyapunov=lyap)
    assert fit.cap == deviation_cap(lyap, 2)[0]


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


def _shape_point_distance(points, patch, embedding):
    """Oracle: the distance loop over exact `Fraction` tile shapes."""
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
        for idx in np.argsort(lower):
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


def test_special_averaging_rejects_three_dimensional_windows(sol3):
    # boundary samples cover windows of dimension <= 2 only
    x = SymbolSequence.constant(1, 40)
    with pytest.raises(UnsupportedOperationError):
        special_averaging_sequence(sol3, x, Region.box((0, 0, 0), (1, 1, 1)),
                                   eps=0.05, count=5)


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
