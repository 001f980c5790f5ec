import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

import randtile.schrodinger as schrod
from randtile.cocycle import lyapunov_spectrum
from randtile.errors import (ConvergenceError, IncompletePatternError,
                             StructuralError, UnsupportedOperationError)
from randtile.ergodic import special_averaging_sequence
from randtile.geometry import embed_point, vsub
from randtile.schrodinger import (KernelSpec, PunctureSet, build_operator,
                                  eigenvalue_counts, ids_estimate,
                                  trace_deviation, windowed_trace)
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence
from randtile.tiling import (Patch, Region, SupertileSystem, decompose_region,
                             generate_patch)


@pytest.fixture(scope="module")
def lattice(sol2_module):
    """9x9 neighborhood of a unit square lattice with safety margin."""
    fam = sol2_module
    x = SymbolSequence.constant(1, 24)
    src = Region.box((Fraction(-13, 2), Fraction(-13, 2)), (13, 13))
    patch = generate_patch(fam, x, src)
    return PunctureSet.from_patch(patch, window=src)


@pytest.fixture(scope="module")
def sol2_module():
    from randtile.substitution import solenoid_family
    return solenoid_family([2], 2)


def _inner_window(half):
    return Region.box((-half, -half), (2 * half, 2 * half))


def test_lattice_punctures(lattice):
    assert lattice.min_gap() == pytest.approx(1.0)
    # punctures sit on the integer lattice
    for p in lattice.points[:20]:
        assert all(c.denominator == 1 for c in p)


def test_identity_kernel(lattice):
    window = _inner_window(Fraction(9, 2))
    op = build_operator(KernelSpec.identity(), lattice, window)
    assert op.size == 81
    assert (op.matrix.toarray() == np.eye(81)).all()
    assert windowed_trace(op, window, mode="raw") == 81


def test_laplacian_row_sums_zero(lattice):
    window = _inner_window(Fraction(9, 2))
    op = build_operator(KernelSpec.laplacian(1.1), lattice, window)
    dense = op.matrix.toarray()
    assert (dense == dense.T).all()
    assert np.abs(dense.sum(axis=1)).max() == 0.0
    # interior vertices have degree 4, corners 2
    diag = np.sort(op.matrix.diagonal())
    assert diag[0] == 2 and diag[-1] == 4


def test_laplacian_spectrum_oracle(lattice):
    """Grid-graph Laplacian eigenvalues: sums of 2 - 2cos(pi j / N)."""
    n = 9
    window = _inner_window(Fraction(9, 2))
    op = build_operator(KernelSpec.laplacian(1.1), lattice, window)
    got = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    axis = [2 - 2 * math.cos(math.pi * j / n) for j in range(n)]
    expect = np.sort([a + b for a in axis for b in axis])
    assert np.abs(got - expect).max() < 1e-12


def test_pattern_labels(lattice):
    labels = lattice.pattern_labels(1.1)
    from collections import Counter
    counts = Counter(labels)
    # one dominant interior pattern (4 neighbors) plus rim patterns
    top, freq = counts.most_common(1)[0]
    assert len(top[1]) == 4
    assert freq == (13 - 2) ** 2


def test_incomplete_pattern_guard(lattice):
    wide = Region.box((-6, -6), (12, 12))       # 0.5 margin < range 1.1
    with pytest.raises(IncompletePatternError):
        build_operator(KernelSpec.laplacian(1.1), lattice, wide)
    # zero-range kernels are allowed right up to the edge
    build_operator(KernelSpec.identity(), lattice, wide)


def test_incomplete_pattern_error_names_windows_and_range(lattice):
    wide = Region.box((-6, -6), (12, 12), dilation=Fraction(1, 2))
    with pytest.raises(IncompletePatternError) as err:
        build_operator(KernelSpec.laplacian(3.75), lattice, wide)
    assert str(err.value).startswith(
        "window box:-6,-6,12,12 dilated by 1/2 plus kernel range 3.75 "
        "exceeds the source window box:-13/2,-13/2,13,13 dilated by 1;")


def test_disk_source_window_guard(sol2_module, lattice):
    """Punctures cut from a disk of radius 6: a window whose range ball stays
    in the disk gets the operator the box-cut lattice gives; one whose ball
    leaves it raises IncompletePatternError."""
    src = Region.disk((0, 0), 6.0)
    disk = PunctureSet.from_patch(generate_patch(
        sol2_module, SymbolSequence.constant(1, 24), src), window=src)
    lap = KernelSpec.laplacian(1.1)
    fits = _inner_window(3)                   # 3√2 + 1.1 < 6

    def by_point(op):
        pts = [op.punctures.points[i] for i in op.indices]
        order = sorted(range(op.size), key=pts.__getitem__)
        return op.matrix.toarray()[np.ix_(order, order)]

    got = by_point(build_operator(lap, disk, fits))
    assert got.shape == (49, 49)
    assert (got == by_point(build_operator(lap, lattice, fits))).all()
    with pytest.raises(IncompletePatternError, match="source window disk"):
        build_operator(lap, disk, _inner_window(4))     # 4√2 + 1.1 > 6


def test_kernel_diagonal_is_one_field():
    """None, "degree" or real values per type (lists and arrays become
    tuples); anything else is a StructuralError naming the value."""
    assert KernelSpec(1.0, [1, Fraction(1, 2), 2.5]).diagonal == (
        1, Fraction(1, 2), 2.5)
    assert KernelSpec(1.0, np.arange(3)).diagonal == (0, 1, 2)
    assert KernelSpec.laplacian(1.0).diagonal == "degree"
    for bad in ("Degree", 1, {"degree": 1}, [1, "2"], [[1, 2]]):
        with pytest.raises(StructuralError, match="kernel diagonal"):
            KernelSpec(1.0, bad)


def test_operator_keeps_the_diagonal_it_assembles(lattice):
    """`WindowedOperator.diagonal` holds the kernel's own values (exact
    integers and fractions), the matrix diagonal is their float image, and
    the trace sums them."""
    window = _inner_window(Fraction(3, 2))
    lap = KernelSpec.laplacian(1.1)
    degrees = (build_operator(lap, lattice, window).matrix.toarray() == -1
               ).sum(axis=1).tolist()
    assert sorted(degrees) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
    for kernel, want in [(KernelSpec.identity(), [1] * 9), (lap, degrees),
                         (KernelSpec.typewise([Fraction(3, 2)], 1.1),
                          [Fraction(3, 2)] * 9)]:
        op = build_operator(kernel, lattice, window)
        assert op.diagonal == want
        assert [type(v) for v in op.diagonal] == [type(v) for v in want]
        assert op.matrix.diagonal().tolist() == [float(v) for v in want]
        assert windowed_trace(op, window) == sum(want)


def test_interior_supertile_trace_matches_ergodic(hh):
    from randtile.ergodic import TLCObservable, ergodic_vectors
    x = SymbolSequence.constant(1, 40)
    system = SupertileSystem(hh, x)
    src = Region.box((-6, -6), (12, 12))
    anchor = system.anchor(src)
    patch = generate_patch(hh, x, src, system=system, anchor=anchor)
    punctures = PunctureSet.from_patch(patch, window=src)
    sub = Region.box((-3, -3), (6, 6))
    diag = tuple(Fraction(t + 1, 2) for t in range(6))
    op = build_operator(KernelSpec.typewise(diag), punctures, src)
    trace = windowed_trace(op, sub, mode="interior-supertile")
    rep = decompose_region(hh, x, sub, 1, system=system, anchor=anchor)
    vols = hh.volumes()
    f = TLCObservable(0, tuple(diag[t] / vols[t] for t in range(6)))
    vecs = ergodic_vectors(f, hh, x, max(rep.counts))
    integral = sum(kappa * vecs[level].values[j]
                   for level, counts in rep.counts.items()
                   for j, kappa in enumerate(counts))
    assert trace == integral


@pytest.mark.parametrize("cls", [Patch, PunctureSet])
def test_array_constructors_validate_against_the_family(cls, hh):
    for types, offsets in (([0, 1], [[0, 0, 5], [1, 0, 9]]),   # width 3
                           ([0, 1], [[0.5, 0], [1, 0]]),       # not integers
                           ([0], [[0, 0], [1, 0]])):           # one type id
        with pytest.raises(StructuralError, match=r"\(n, 2\) integer array"):
            cls(types, offsets, 1, hh)
    for bad in ([0, 7], [-1, 0]):
        with pytest.raises(StructuralError, match=r"type ids must lie in \[0, 6\)"):
            cls(bad, [[0, 0], [1, 0]], 1, hh)
    with pytest.raises(StructuralError, match="scale"):
        cls([0, 5], [[0, 0], [1, 0]], 0, hh)
    assert len(cls([0, 5], [[0, 0], [1, 0]], 2, hh)) == 2


def test_interior_supertile_needs_patch(hh):
    punctures = PunctureSet(types=[0], grid=[[0, 0]], scale=1, family=hh)
    op = build_operator(KernelSpec.identity(), punctures,
                        Region.box((-1, -1), (2, 2)))
    with pytest.raises(UnsupportedOperationError):
        windowed_trace(op, Region.box((-1, -1), (2, 2)),
                       mode="interior-supertile")
    with pytest.raises(StructuralError):
        windowed_trace(op, Region.box((-1, -1), (2, 2)), mode="sideways")


def test_eigenvalue_counts_sparse_matches_dense(lattice, monkeypatch):
    """The oracle is `eigvalsh` itself; with `_DENSE_LIMIT` 0 a refused
    energy would raise, so the counts are inertia counts."""
    window = _inner_window(Fraction(9, 2))
    op = build_operator(KernelSpec.laplacian(1.1), lattice, window)
    energies = [0.5, 1.7, 3.9, 6.2, 8.5]
    dense = np.searchsorted(np.linalg.eigvalsh(op.matrix.toarray()),
                            energies, side="right")
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    assert eigenvalue_counts(op.matrix, energies).tolist() == dense.tolist()


@pytest.fixture(scope="module")
def half_hex_windows(hh):
    """Half-hex punctures on the CLI window `box:-1,-1,2,2` dilated by 20,
    and the windows dilated by 8 and 16 (352 and 1,344 points)."""
    base = Region.box((-1, -1), (2, 2))
    src = base.dilated(20)
    patch = generate_patch(hh, SymbolSequence.constant(1, 40), src)
    return (PunctureSet.from_patch(patch, window=src),
            [base.dilated(8), base.dilated(16)])


def _eigvalsh_spy(monkeypatch):
    """Replace `np.linalg.eigvalsh` by a wrapper that appends the size of
    each matrix it is called on to the returned list."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def test_counts_call_eigvalsh_only_for_a_refused_energy(half_hex_windows,
                                                        monkeypatch):
    """The Laplacian windows of 80, 352 and 1,344 points, below
    `_DENSE_LIMIT`.  At the shifted energies of `ids-windows` every count is
    an inertia count and `eigvalsh` is never called.  On the integer grid
    E = 0 is an exact eigenvalue, so the inertia loop refuses it, `eigvalsh`
    runs once per matrix and decides all 41 counts."""
    punctures, windows = half_hex_windows
    base = Region.box((-1, -1), (2, 2))
    ops = [build_operator(KernelSpec.laplacian(1.8), punctures, w)
           for w in [base.dilated(4), *windows]]
    assert [op.size for op in ops] == [80, 352, 1344]
    wants = [np.linalg.eigvalsh(op.matrix.toarray()) for op in ops]
    grid = np.linspace(-1, 9, 41)
    calls = _eigvalsh_spy(monkeypatch)
    for op, vals in zip(ops, wants):
        for energies, called in ((grid + 0.125, []), (grid, [op.size])):
            got = eigenvalue_counts(op.matrix, energies).tolist()
            assert got == np.searchsorted(vals, energies,
                                          side="right").tolist()
            assert calls == called
            calls.clear()


def _off_spectrum(dense):
    """41 energies across the spectrum of `dense`, none within 1e-6 of an
    eigenvalue, and the sorted eigenvalues."""
    vals = np.linalg.eigvalsh(dense)
    energies = np.linspace(vals[0] - 1, vals[-1] + 1, 41) + 0.0123
    gaps = np.abs(energies[:, None] - vals[None, :]).min(axis=1)
    assert gaps.min() > 1e-6
    return energies, vals


def _per_energy_counts(matrix, energies, fills):
    """Inertia counts with an order computed afresh for every energy:
    A - E·I is built and factored in a minimum-degree order on A + A^T
    (MMD_AT_PLUS_A) each time.  The reference for the fixed-order
    factorizations; appends each L+U fill to `fills`."""
    n = matrix.shape[0]
    base = matrix.tocsc()
    eye = sp.identity(n, format="csc")
    out = []
    for e in energies:
        lu = spla.splu((base - e * eye).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert (lu.perm_r == lu.perm_c).all()
        out.append(int((lu.U.diagonal().real < 0).sum()))
        fills.append(lu.L.nnz + lu.U.nnz)
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", [
    KernelSpec.laplacian(1.8),
    KernelSpec(range=1.8, diagonal=(3, -1, 0.5, 2, -2.5, 1), offdiagonal=-1),
    # hermitian: (i, j) holds 1j and (j, i) holds -1j
    KernelSpec(range=1.8, diagonal="degree", offdiagonal=1j),
], ids=["laplacian", "typewise", "complex"])
def test_sparse_counts_match_dense_eigvalsh(half_hex_windows, monkeypatch,
                                            kernel):
    """Inertia counts equal dense `eigvalsh` counts off the spectrum, and
    the counts of an order computed afresh for every energy.  The sparse
    branch cast complex operators to float (with a ComplexWarning), which
    miscounted the complex kernel."""
    punctures, windows = half_hex_windows
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    for window in windows:
        op = build_operator(kernel, punctures, window)
        assert 350 <= op.size <= 1350
        energies, vals = _off_spectrum(op.matrix.toarray())
        want = np.searchsorted(vals, energies, side="right")
        got = eigenvalue_counts(op.matrix, energies).tolist()
        assert got == want.tolist()
        assert got == _per_energy_counts(op.matrix, energies, [])


def test_sparse_counts_invariant_under_symmetric_permutation(
        half_hex_windows, monkeypatch):
    """P A P^T has the inertia of A, whatever order the factorization
    picks for either."""
    punctures, windows = half_hex_windows
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    op = build_operator(KernelSpec.laplacian(1.8), punctures, windows[1])
    energies, _ = _off_spectrum(op.matrix.toarray())
    want = eigenvalue_counts(op.matrix, energies)
    gen = np.random.default_rng(5)
    for _ in range(2):
        perm = gen.permutation(op.size)
        permuted = op.matrix[perm][:, perm]
        assert (eigenvalue_counts(permuted, energies) == want).all()


def test_sparse_counts_refuse_tie_energies(hh):
    """The default CLI grid puts E on exact Laplacian eigenvalues.  On the
    T=28 window (4,144 points, above `_DENSE_LIMIT`) the factorization then
    fails in each of three ways, and each is refused by name instead of
    returning a count: E=0 leaves a pivot within rounding of 0, a zero
    diagonal at E=1 forces off-diagonal pivots, and E=5 is exactly
    singular."""
    x = SymbolSequence.constant(1, 64)
    base = Region.box((-1, -1), (2, 2))
    src = base.dilated(32)
    patch = generate_patch(hh, x, src, system=SupertileSystem(hh, x))
    op = build_operator(KernelSpec.laplacian(1.8),
                        PunctureSet.from_patch(patch, window=src),
                        base.dilated(28))
    assert op.size == 4144 > schrod._DENSE_LIMIT
    for e, signal in ((0.0, "smallest pivot"),
                      (1.0, "rows pivoted off the diagonal"),
                      (5.0, "exactly singular")):
        with pytest.raises(ConvergenceError,
                           match=rf"E={e:g} \(n=4144\).*{signal}"):
            eigenvalue_counts(op.matrix, [-0.5, e])


@pytest.fixture(scope="module")
def t28_laplacian(hh):
    """The half-hex Laplacian (range 1.8) on the CLI window dilated by 28:
    4,144 points, the one `ids-windows` window above `_DENSE_LIMIT`."""
    x = SymbolSequence.constant(1, 64)
    base = Region.box((-1, -1), (2, 2))
    src = base.dilated(32)
    patch = generate_patch(hh, x, src, system=SupertileSystem(hh, x))
    return build_operator(KernelSpec.laplacian(1.8),
                          PunctureSet.from_patch(patch, window=src),
                          base.dilated(28)).matrix


def test_fixed_order_matches_per_energy_order(t28_laplacian, monkeypatch):
    """One minimum-degree order per matrix, then one fixed-order (NATURAL)
    factorization per energy: the same counts and the same L+U fill as
    ordering every A - E·I afresh, at the 41 shifted energies of
    `ids-windows`.  The four below 0, the Gershgorin lower bound of every
    Laplacian, are counted 0 without a factorization."""
    matrix = t28_laplacian
    assert matrix.shape == (4144, 4144)
    energies = np.linspace(-1, 9, 41) + 0.125
    fills = []
    want = _per_energy_counts(matrix, energies, fills)
    assert fills == [140248] * 41
    calls, splu = [], spla.splu

    def spy(a, **kwargs):           # (permc_spec, L+U fill) of each call
        lu = splu(a, **kwargs)
        calls.append((kwargs["permc_spec"], lu.L.nnz + lu.U.nnz))
        return lu
    monkeypatch.setattr(spla, "splu", spy)
    assert eigenvalue_counts(matrix, energies).tolist() == want
    assert calls == [("MMD_AT_PLUS_A", 140248)] + [("NATURAL", 140248)] * 37


def _splu_spy(monkeypatch):
    """Replace `spla.splu` by a wrapper that appends the `permc_spec` of
    each call to the returned list."""
    calls, splu = [], spla.splu

    def spy(a, **kwargs):
        calls.append(kwargs["permc_spec"])
        return splu(a, **kwargs)
    monkeypatch.setattr(spla, "splu", spy)
    return calls


def _gershgorin(dense):
    """(lo, hi, tiny): the Gershgorin enclosure of a hermitian array,
    min and max of Re a_ii -/+ sum_{j != i} |a_ij|, and n·eps·||A||_1."""
    centres, absolute = np.diag(dense).real, np.abs(dense)
    radii = absolute.sum(axis=1) - np.diag(absolute)
    tiny = len(dense) * np.finfo(float).eps * absolute.sum(axis=0).max()
    return (centres - radii).min(), (centres + radii).max(), tiny


@pytest.mark.parametrize("kernel", [
    KernelSpec.laplacian(1.8),
    KernelSpec(range=1.8, diagonal=(3, -1, 0.5, 2, -2.5, 1), offdiagonal=-1),
    KernelSpec(range=1.8, diagonal="degree", offdiagonal=1j),
], ids=["laplacian", "typewise", "complex"])
def test_counts_outside_the_gershgorin_enclosure_are_not_factored(
        half_hex_windows, monkeypatch, kernel):
    """Energies below lo - tiny count 0 and energies from hi + tiny up
    count n, with no factorization; only the energies in between are
    factored.  All counts equal dense `eigvalsh`, below, inside and above
    the enclosure.  A call with no energy inside computes no order."""
    punctures, windows = half_hex_windows
    op = build_operator(kernel, punctures, windows[0])
    dense = op.matrix.toarray()
    lo, hi, tiny = _gershgorin(dense)
    assert tiny > 0
    energies, vals = _off_spectrum(dense)
    inside = energies[(lo - tiny <= energies) & (energies < hi + tiny)]
    outside = [lo - 1, lo - 2 * tiny, hi + 2 * tiny, hi + 1]
    assert len(inside) > 30
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    calls = _splu_spy(monkeypatch)
    energies = np.concatenate([outside[:2], inside, outside[2:]])
    got = eigenvalue_counts(op.matrix, energies).tolist()
    assert got == np.searchsorted(vals, energies, side="right").tolist()
    assert calls == ["MMD_AT_PLUS_A"] + ["NATURAL"] * len(inside)
    calls.clear()
    assert eigenvalue_counts(op.matrix, outside).tolist() == [
        0, 0, op.size, op.size]
    assert calls == []


def test_zero_matrix_is_counted_by_its_enclosure(monkeypatch):
    """A 1x1 zero matrix (a one-point window with no neighbour) has the
    enclosure [0, 0] and tiny = 0.  It counts 0 below E = 0 and 1 at and
    above it, with no factorization, so E = 0 is not refused."""
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    calls, eig = _splu_spy(monkeypatch), _eigvalsh_spy(monkeypatch)
    energies = [-1.0, -5e-324, 0.0, 5e-324, 1.0]
    assert eigenvalue_counts(sp.csr_matrix((1, 1)), energies).tolist() == [
        0, 0, 1, 1, 1]
    assert calls == [] and eig == []


def test_fixed_order_stores_missing_diagonal_entries(half_hex_windows,
                                                     monkeypatch):
    """A typewise diagonal that is 0 on some types leaves those rows with no
    stored diagonal entry; the fixed order stores it, and the counts still
    equal dense `eigvalsh` off the spectrum."""
    punctures, windows = half_hex_windows
    kernel = KernelSpec(range=1.8, diagonal=(0, 2, 0, -1.5, 0, 1),
                        offdiagonal=-1)
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    for window in windows:
        op = build_operator(kernel, punctures, window)
        stored = op.matrix.tocoo()
        assert 0 < (stored.row == stored.col).sum() < op.size
        energies, vals = _off_spectrum(op.matrix.toarray())
        want = np.searchsorted(vals, energies, side="right")
        assert eigenvalue_counts(op.matrix, energies).tolist() == want.tolist()


def test_sparse_counts_refuse_a_diagonal_that_cancels(monkeypatch):
    """[[1, 1], [1, 1]] (integer entries) has eigenvalues 0 and 2.  At E = 1
    both diagonal entries cancel to 0 and stay stored, so SuperLU pivots off
    the diagonal in any order and the count is refused, although E is no
    eigenvalue.  At the default `_DENSE_LIMIT`, `eigvalsh` decides it."""
    ones = sp.csr_matrix([[1, 1], [1, 1]])
    assert ones.dtype.kind == "i"
    calls = _eigvalsh_spy(monkeypatch)
    assert eigenvalue_counts(ones, [1.0]).tolist() == [1]
    assert calls == [2]
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    assert eigenvalue_counts(ones, [-0.5, 0.5, 1.5, 2.5]).tolist() == [
        0, 1, 1, 2]
    with pytest.raises(ConvergenceError,
                       match=r"E=1 \(n=2\).*2 rows pivoted off the diagonal"):
        eigenvalue_counts(ones, [1.0])


def test_sparse_count_at_zero_is_the_number_of_components(half_hex_windows,
                                                          monkeypatch):
    """A graph Laplacian is positive semidefinite, and #{lambda <= 0} is its
    number of connected components: an exact count at a tie that does not
    come from `eigvalsh`.  On two windows side by side the inertia path
    counts 0 at E = -delta and the components at E = +delta, with delta
    below the smallest positive eigenvalue of either window."""
    punctures, windows = half_hex_windows
    laps = [build_operator(KernelSpec.laplacian(1.8), punctures, w).matrix
            for w in windows]
    delta = 1e-3
    for lap in laps:
        vals = np.linalg.eigvalsh(lap.toarray())
        assert abs(vals[0]) < 1e-9 < delta < vals[1]
    both = sp.block_diag(laps, format="csr")
    components, _ = connected_components(both, directed=False)
    assert components == 2
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", 0)
    assert eigenvalue_counts(both, [-delta, delta]).tolist() == [0, components]


@pytest.mark.parametrize("dense_limit", [4000, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("matrix, energies, named", [
    (sp.csr_matrix(np.ones((2, 3))), [0.0],
     r"square matrix, not one of shape \(2, 3\)"),
    (sp.csr_matrix([[0.0, 1.0], [0.0, 0.0]]), [0.5],
     r"\(n=2\) is not hermitian: max \|A - A\^H\| = 1 >"),
    (sp.csr_matrix([[0, 1j], [1j, 0]]), [0.5], "is not hermitian"),
    (sp.identity(3, format="csr"), [0.5, math.nan], "energy nan is not"),
    (sp.identity(3, format="csr"), [-math.inf], "energy -inf is not"),
    (np.eye(3), [0.5], "need a scipy sparse matrix, not a ndarray"),
    ([[1.0, 0.0], [0.0, 1.0]], [0.5], "sparse matrix, not a list"),
], ids=["non-square", "lower-triangle", "complex-symmetric", "nan", "-inf",
        "ndarray", "list"])
def test_eigenvalue_counts_check_preconditions(monkeypatch, dense_limit,
                                               matrix, energies, named):
    """Each used to give an answer or an untyped error: numpy's LinAlgError
    for a non-square matrix, 2 for [[0, 1], [0, 0]] at E = 0.5 (the dense
    branch reads one triangle), n at NaN on the dense branch and "Factor is
    exactly singular" on the sparse one, TypeError for a dense array and
    AttributeError for a nested list."""
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", dense_limit)
    with pytest.raises(StructuralError, match=named):
        eigenvalue_counts(matrix, energies)


@pytest.mark.parametrize("dense_limit", [4000, 0], ids=["dense", "sparse"])
def test_eigenvalue_counts_accept_rounding_asymmetry(monkeypatch,
                                                     dense_limit):
    """|A - A^H| within n·eps·||A||_1 counts as hermitian."""
    monkeypatch.setattr(schrod, "_DENSE_LIMIT", dense_limit)
    near = sp.csr_matrix([[2.0, 1.0], [math.nextafter(1.0, 2.0), 2.0]])
    assert eigenvalue_counts(near, [0.5, 1.5, 3.5]).tolist() == [0, 1, 2]


def test_ids_identity_step(lattice):
    windows = [_inner_window(Fraction(5, 2)), _inner_window(Fraction(9, 2))]
    energies = [-0.5, 0.5, 0.999, 1.0, 1.5]
    rep = ids_estimate(KernelSpec.identity(), [lattice, lattice], windows,
                       energies)
    for curve in rep.curves:
        assert curve.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    assert rep.sup_differences == [0.0]


def test_kernel_spec_validation():
    with pytest.raises(StructuralError):
        KernelSpec(range=1.0, diagonal="degre")
    with pytest.raises(StructuralError):
        KernelSpec(range=-1.0)
    # a NaN range used to pass, and `build_operator` then assembled an
    # all-zero Laplacian (no pair is within NaN)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StructuralError, match=f"kernel range {bad!r}"):
            KernelSpec(range=bad, diagonal="degree", offdiagonal=-1)


def test_trace_deviation_flag_p1(hh, hhp):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=10)
    lyap = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(1.0), 2000, seed=0)
    kernel = KernelSpec.typewise(tuple(range(1, 7)))
    rep = trace_deviation(kernel, hh, x, seq, lyapunov=lyap)
    # kernel diagonal has a volume component, so the trace grows like T^d
    assert rep.slope == pytest.approx(2.0, abs=0.1)
    # at p=1 the ratio log2/log4 = 1/2 sits exactly at the (d-1)/d threshold,
    # so the flag reflects estimation noise; it must only match the ratio
    assert rep.ratio == pytest.approx(0.5, abs=0.01)
    assert rep.trace_flag == (rep.ratio > 0.5)


def test_trace_deviation_checks_exponents_before_the_fit(sol2):
    """One prototile gives one exponent, so r = 2 is a typed error (it was
    an IndexError after the fit), and so is a top exponent <= 0."""
    bern = MeasureSpec.bernoulli_p(0.5)
    x = sample_sequence(bern, 400, seed=0)
    seq = special_averaging_sequence(sol2, x, Region.unit_square(), eps=0.05,
                                     count=6)
    lyap = lyapunov_spectrum(sol2, bern, 1000, seed=0)
    kernel = KernelSpec.typewise([3])
    with pytest.raises(StructuralError, match="r = 2 .* 1 exponents"):
        trace_deviation(kernel, sol2, x, seq, lyapunov=lyap)
    assert trace_deviation(kernel, sol2, x, seq, lyapunov=lyap, r=1).ratio == 1
    with pytest.raises(ConvergenceError, match="not positive"):
        trace_deviation(kernel, sol2, x, seq, r=1,
                        lyapunov=SimpleNamespace(raw_exponents=[0.0]))


def test_trace_deviation_requires_typewise(hh):
    x = SymbolSequence.constant(1, 40)
    seq = special_averaging_sequence(hh, x, Region.unit_square(), eps=0.05,
                                     count=10)
    with pytest.raises(UnsupportedOperationError):
        trace_deviation(KernelSpec.laplacian(1.5), hh, x, seq)


@pytest.fixture(scope="module")
def half_hex_punctures():
    from randtile.substitution import half_hex_classical
    src = Region.box((-6, -6), (12, 12))
    patch = generate_patch(half_hex_classical(), SymbolSequence.constant(1, 24),
                           src)
    return PunctureSet.from_patch(patch, window=src)


def _norm(disp, embedding):
    return math.dist(embed_point(disp, embedding), (0.0,) * len(disp))


def _exact_pairs(punctures, radius):
    """{(i, j): exact displacement} of every pair i < j within `radius`, by
    exact differences of all pairs of points."""
    pts, emb = punctures.points, punctures.family.embedding
    want = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            disp = vsub(pts[j], pts[i])
            if _norm(disp, emb) <= radius + 1e-9:
                want[(i, j)] = disp
    return want


def _assert_exact_pairs(punctures, radius):
    """`pairs(radius)` is the exact enumeration, in lexicographic (i, j)
    order, with one class per distinct displacement; returns the pairs."""
    want = _exact_pairs(punctures, radius)
    pairs = punctures.pairs(radius)
    ij = list(zip(pairs.i.tolist(), pairs.j.tolist()))
    assert ij == sorted(want)
    assert [pairs.disps[c] for c in pairs.cls.tolist()] == [want[k] for k in ij]
    assert len(set(pairs.disps)) == len(pairs.disps) == len(set(want.values()))
    assert punctures.pairs(radius) is pairs
    return pairs


@pytest.mark.parametrize("radius", [1.0, 1.8])
def test_pairs_match_exact_enumeration(half_hex_punctures, radius):
    _assert_exact_pairs(half_hex_punctures, radius)


def test_pairs_keep_the_class_on_the_radius(half_hex_punctures):
    """The displacement (0, 1) embeds at exactly sqrt(3): a radius of
    sqrt(3) keeps it, and one just under sqrt(3) less the 1e-9 tolerance
    drops it."""
    sqrt3 = half_hex_punctures.family.embedding[1]
    on = (Fraction(0), Fraction(1))
    assert _norm(on, half_hex_punctures.family.embedding) == sqrt3
    assert on in _assert_exact_pairs(half_hex_punctures, sqrt3).disps
    below = math.nextafter(sqrt3 - 1e-9, 0)
    assert on not in _assert_exact_pairs(half_hex_punctures, below).disps


@pytest.fixture(scope="module")
def box_and_line_punctures(sol1, sol2):
    """Punctures of solenoid-2x3-2d (box tiles, no embedding) and of
    solenoid-2-1d (d = 1) on random sequences."""
    out = {}
    for name, fam, x, src in (
            ("2d", sol2, sample_sequence(MeasureSpec.bernoulli_p(0.5), 24,
                                         seed=7), Region.box((-4, -3), (8, 7))),
            ("1d", sol1, SymbolSequence.constant(1, 24), Region.box((-30,), (61,)))):
        out[name] = PunctureSet.from_patch(generate_patch(fam, x, src), src)
    return out


@pytest.mark.parametrize("name, radius", [
    ("2d", 1.0), ("2d", 1.5), ("2d", 2.0), ("1d", 1.0), ("1d", 3.5)])
def test_pairs_match_exact_enumeration_box_and_line(box_and_line_punctures,
                                                    name, radius):
    punctures = box_and_line_punctures[name]
    assert len(punctures) > 40
    assert len(_assert_exact_pairs(punctures, radius).i) > len(punctures) / 2


def test_pairs_on_a_far_shifted_grid(half_hex_punctures):
    """Shifted by a lattice vector past 2^30 the grid holds Python ints; at
    2^40 absolute float coordinates are 2^-12 apart, and the pairs, their
    order and their classes are still those of the unshifted set."""
    base = half_hex_punctures
    shift = np.array([3 * 2 ** 40 * base.scale, -2 ** 40 * base.scale],
                     dtype=object)
    far = PunctureSet(base.types, base.grid.astype(object) + shift, base.scale,
                      base.family)
    assert far.grid.dtype == object
    for radius in (1.8, base.family.embedding[1]):   # sqrt(3): a class on it
        want, got = base.pairs(radius), far.pairs(radius)
        assert got.i.tolist() == want.i.tolist()
        assert got.j.tolist() == want.j.tolist()
        assert got.cls.tolist() == want.cls.tolist() and got.disps == want.disps
    assert far.min_gap() == base.min_gap()


def test_pairs_and_min_gap_of_small_sets(sol2):
    empty = PunctureSet(np.zeros(0, dtype=int), np.zeros((0, 2), dtype=int),
                        1, sol2)
    one = PunctureSet([0], [[5, -3]], 1, sol2)
    for punctures in (empty, one):
        pairs = punctures.pairs(1.5)
        assert len(pairs.i) == len(pairs.j) == len(pairs.cls) == 0
        assert pairs.disps == []
        assert punctures.min_gap() == math.inf
    # far apart next to a tiny radius: the cells widen to keep their keys
    spread = PunctureSet([0, 0, 0], [[0, 0], [3, 4], [10 ** 9, 0]], 2, sol2)
    assert len(spread.pairs(1e-300).i) == 0
    pairs = spread.pairs(2.5)
    assert pairs.i.tolist() == [0] and pairs.j.tolist() == [1]
    assert pairs.disps == [(Fraction(3, 2), Fraction(2))]
    assert spread.min_gap() == 2.5


@pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan, math.inf,
                                    -math.inf])
def test_pairs_reject_negative_and_non_finite_radii(half_hex_punctures, radius):
    with pytest.raises(StructuralError, match=f"pair radius {radius!r}"):
        half_hex_punctures.pairs(radius)


def test_min_gap_matches_exact_distances(lattice, half_hex_punctures,
                                         box_and_line_punctures):
    for punctures in (lattice, half_hex_punctures,
                      *box_and_line_punctures.values()):
        pts, emb = punctures.points, punctures.family.embedding
        want = min(_norm(vsub(pts[j], pts[i]), emb)
                   for i in range(len(pts)) for j in range(i + 1, len(pts)))
        assert punctures.min_gap() == want


def _ref_operator(kernel, punctures, window):
    """The per-pair assembly with exact Fraction displacements."""
    emb = punctures.family.embedding
    pts = punctures.points
    sel = [i for i in range(len(punctures))
           if window.contains_points([pts[i]], emb)]
    pos = {i: k for k, i in enumerate(sel)}
    rows, cols, vals = [], [], []
    degrees = {i: 0 for i in sel}
    if kernel.range > 0 and sel:
        for (i, j), disp in _exact_pairs(punctures, kernel.range).items():
            if i in pos and j in pos:
                degrees[i] += 1
                degrees[j] += 1
                v = kernel.offdiagonal_value(disp)
                if v:
                    rows += [pos[i], pos[j]]
                    cols += [pos[j], pos[i]]
                    vals += ([v, np.conj(v)] if isinstance(v, complex)
                             else [float(v)] * 2)
    if kernel.diagonal is None:
        diag = [1] * len(sel)
    elif kernel.diagonal == "degree":
        diag = [degrees[i] for i in sel]
    else:
        diag = [kernel.diagonal[punctures.types[i]] for i in sel]
    for k, v in enumerate(diag):
        if v:
            rows.append(k)
            cols.append(k)
            vals.append(float(v) if isinstance(v, Fraction) else v)
    return sel, sp.csr_matrix((vals, (rows, cols)), shape=(len(sel),) * 2)


def test_build_operator_matches_per_pair_assembly(half_hex_punctures):
    punctures = half_hex_punctures
    disps = sorted(set(punctures.pairs(1.8).disps))
    kernels = [
        KernelSpec.identity(),
        KernelSpec.typewise([Fraction(t + 1, 3) for t in range(6)], 1.8),
        KernelSpec.laplacian(1.8),
        KernelSpec(range=1.8, diagonal=(0, 1, 2.5, 0, 1, 2),
                   offdiagonal=((disps[0], 1 + 2j), (disps[1], -0.5),
                                (disps[2], 3))),
        # a complex value only on a displacement that never occurs
        KernelSpec(range=1.8, offdiagonal=((disps[0], 2),
                                           ((Fraction(99), Fraction(0)), 1j))),
    ]
    window = Region.box((-4, -4), (8, 8))
    for kernel in kernels:
        op = build_operator(kernel, punctures, window)
        sel, want = _ref_operator(kernel, punctures, window)
        assert op.indices == sel
        assert op.matrix.dtype == want.dtype
        assert (op.matrix.toarray() == want.toarray()).all()
        assert (op.matrix.toarray() == op.matrix.toarray().conj().T).all()


def test_nonconvex_window_selects_contained_punctures(lattice):
    window = Region.polygon([(-2, -2), (2, -2), (2, 0), (0, 0), (0, 2),
                             (-2, 2)])
    op = build_operator(KernelSpec.identity(), lattice, window)
    want = [i for i, p in enumerate(lattice.points)
            if window.shape().contains_point(p)]
    assert op.indices == want
    assert windowed_trace(op, window, mode="raw") == len(want) == 21
