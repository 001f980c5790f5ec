import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtile.errors import StructuralError
from randtile.solenoid import (CylinderObservable, SolenoidSpec, base_cell,
                               dk_check, grid_cells, random_observable,
                               variation)
from randtile.symbolic import rng_stream


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _brute_variation(values):
    """Supremum of sum of oscillations over all clopen partitions."""
    best = Fraction(0)
    for part in _partitions(list(values)):
        tot = sum((max(g) - min(g) for g in part), Fraction(0))
        best = max(best, tot)
    return best


def _brute_integral(spec, f, y, path, n):
    """Unfolded weighted lattice sum: no residue folding."""
    m = f.depth
    qm = spec.q_prod(m)
    qn = spec.q_prod(n)
    grid = f.grid(spec)
    c0 = base_cell(spec, path, m)

    def w(a, j):
        if j == 0:
            return 1 - y[a]
        if j == qn:
            return y[a]
        return Fraction(1)

    total = Fraction(0)
    for j in itertools.product(range(qn + 1), repeat=spec.dim):
        wt = Fraction(1)
        for a in range(spec.dim):
            wt *= w(a, j[a])
        cell = tuple((c0[a] + j[a]) % qm for a in range(spec.dim))
        total += wt * grid[cell]
    return total


def test_spec_validation():
    with pytest.raises(StructuralError):
        SolenoidSpec(0, (2,))
    with pytest.raises(StructuralError):
        SolenoidSpec(1, (1,))
    with pytest.raises(StructuralError):
        SolenoidSpec(1, ())
    spec = SolenoidSpec(1, (2, 3), tail=(4, 5))
    assert [spec.q_at(k) for k in range(1, 7)] == [2, 3, 4, 5, 4, 5]
    assert spec.q_prod(4) == 120
    with pytest.raises(StructuralError):
        SolenoidSpec(1, (2,)).q_at(2)


def test_cylinder_measure():
    """Every depth-k cylinder weighs q_(k)^{-d}: the mean of its indicator."""
    spec = SolenoidSpec.periodic([2, 3], dim=2)
    for depth, want in ((0, 1), (1, Fraction(1, 4)), (2, Fraction(1, 36))):
        q = spec.q_prod(depth)
        for cell in ((0, 0), (q - 1, q // 2)):
            grid = np.zeros((q, q), dtype=int)
            grid[cell] = 1
            f = CylinderObservable.from_array(spec, depth, grid)
            assert f.mean() == want


def test_observable_shape_and_mean():
    spec = SolenoidSpec.periodic([2], dim=1)
    f = CylinderObservable.from_array(spec, 2, [1, 2, 3, 4])
    assert f.mean() == Fraction(5, 2)
    with pytest.raises(StructuralError):
        CylinderObservable.from_array(spec, 2, [1, 2, 3])
    with pytest.raises(StructuralError, match="depth -1 is negative"):
        CylinderObservable(-1, (Fraction(1),))
    with pytest.raises(StructuralError, match="depth -1 is negative"):
        random_observable(spec, -1, seed=3)


def _mixed_values(rng, count):
    """12-digit numerators of both signs over mixed denominators."""
    return [Fraction(int(a), int(b)) for a, b in zip(
        rng.integers(-10 ** 12, 10 ** 12, size=count),
        rng.choice([1, 3, 7, 16, 45, 1001], size=count))]


def test_variation_matches_brute_force():
    spec = SolenoidSpec.periodic([2], dim=1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = [Fraction(int(a), 4) for a in rng.integers(-8, 9, size=4)]
        f = CylinderObservable.from_array(spec, 2, vals)
        assert variation(f) == _brute_variation(vals)


@pytest.mark.parametrize("q, depth", [(2, 3), (3, 1), (5, 1), (7, 1)])
def test_variation_matches_brute_force_mixed_denominators(q, depth):
    """Even and odd cell counts (the odd middle value pairs with nothing),
    negative values over mixed denominators."""
    spec = SolenoidSpec.periodic([q], dim=1)
    rng = np.random.default_rng(q)
    for _ in range(3):
        vals = _mixed_values(rng, q ** depth)
        f = CylinderObservable.from_array(spec, depth, vals)
        assert variation(f) == _brute_variation(vals)
        assert f.mean() == sum(vals, Fraction(0)) / len(vals)


def test_variation_simple_cases():
    spec = SolenoidSpec.periodic([2], dim=1)
    const = CylinderObservable.from_array(spec, 1, [3, 3])
    assert variation(const) == 0
    step = CylinderObservable.from_array(spec, 1, [0, 1])
    assert variation(step) == 1
    f = CylinderObservable.from_array(spec, 2, [0, 0, 1, 1])
    assert variation(f) == 2      # two disjoint jumps can be paired


def test_base_cell_mixed_radix():
    spec = SolenoidSpec.periodic([2, 3], dim=1)
    # digit g_1 in {0,1} at scale 1, digit g_2 in {0,1,2} at scale 2
    assert base_cell(spec, [(1,), (2,)], 2) == (5,)
    assert base_cell(spec, [(0,), (1,)], 2) == (2,)
    with pytest.raises(StructuralError):
        base_cell(spec, [(1,), (3,)], 2)
    with pytest.raises(StructuralError):
        base_cell(spec, [(1,)], 2)


def test_dk_integral_matches_brute_force_1d():
    spec = SolenoidSpec.periodic([2], dim=1)
    f = CylinderObservable.from_array(
        spec, 2, [Fraction(1, 2), Fraction(-3, 4), 2, Fraction(1, 8)])
    y = (Fraction(3, 7),)
    path = [(1,), (0,)]
    rep = dk_check(spec, f, y, path, range(0, 4))
    for entry in rep.entries:
        assert entry.integral == _brute_integral(spec, f, y, path, entry.n)
        assert entry.target == f.mean() * spec.q_prod(entry.n)


def test_dk_integral_matches_brute_force_2d():
    spec = SolenoidSpec.periodic([2, 3], dim=2)
    f = random_observable(spec, 2, seed=1)
    y = (Fraction(1, 3), Fraction(5, 8))
    path = [(1, 0), (2, 1)]
    rep = dk_check(spec, f, y, path, range(0, 4))
    for entry in rep.entries:
        assert entry.integral == _brute_integral(spec, f, y, path, entry.n)


@pytest.mark.parametrize("qs, dim, depth, n_max", [
    ([2], 2, 1, 3),          # q_(n) = 1 = q_(m) - 1 meets the last residue
    ([2, 3], 1, 3, 5),       # q_(m) = 12; q_(n) = 1, 2, 6, 12, 36, 72
    ([2, 3], 2, 0, 2),       # one cell
    ([2, 3], 2, 3, 4),
    ([3, 2, 2], 2, 2, 4),    # q_(m) = 6; q_(n) = 1, 3, 6, 12, 36
    ([2], 3, 2, 3),
    ([3, 2, 2], 3, 1, 3),
])
def test_dk_integral_matches_brute_force_folds(qs, dim, depth, n_max):
    """The residue fold against the unfolded lattice sum: q_(n) below, equal
    to and a multiple of q_(m), offsets 0, with odd denominators and mixed,
    and values with 12-digit numerators over mixed denominators."""
    spec = SolenoidSpec.periodic(qs, dim=dim)
    rng = np.random.default_rng(len(qs) * 10 + dim * 3 + depth)
    qm = spec.q_prod(depth)
    f = CylinderObservable.from_array(
        spec, depth, np.array(_mixed_values(rng, qm ** dim),
                              dtype=object).reshape((qm,) * dim))
    path = [tuple(int(rng.integers(0, spec.q_at(k + 1))) for _ in range(dim))
            for k in range(depth)]
    for y in ((Fraction(0),) * dim,
              tuple(Fraction(2 * a + 1, 2 * a + 3) for a in range(dim)),
              tuple(Fraction(int(rng.integers(0, den)), den)
                    for den in (64, 9, 10)[:dim])):
        rep = dk_check(spec, f, y, path, range(n_max + 1))
        assert [e.n for e in rep.entries] == list(range(n_max + 1))
        for e in rep.entries:
            assert e.integral == _brute_integral(spec, f, y, path, e.n)
            assert e.target == f.mean() * spec.q_prod(e.n) ** dim
            assert e.gap == abs(e.integral - e.target)


def test_dk_gap_zero_beyond_depth():
    """For n >= depth the cube averages the observable exactly."""
    spec = SolenoidSpec.periodic([2, 3], dim=1)
    f = random_observable(spec, 2, seed=5)
    rep = dk_check(spec, f, (Fraction(2, 5),), [(1,), (0,)], range(2, 7))
    assert all(e.gap == 0 for e in rep.entries)


def test_dk_bound_holds_and_shift_invariance():
    spec = SolenoidSpec.periodic([2], dim=1)
    f = random_observable(spec, 2, seed=11)
    shifted = CylinderObservable(2, tuple(v + 7 for v in f.values))
    y = (Fraction(1, 4),)
    path = [(0,), (1,)]
    a = dk_check(spec, f, y, path, range(0, 6))
    b = dk_check(spec, shifted, y, path, range(0, 6))
    assert a.holds and b.holds
    assert [e.gap for e in a.entries] == [e.gap for e in b.entries]
    assert a.var == b.var


def test_random_observable_reproducible():
    spec = SolenoidSpec.periodic([2], dim=1)
    a = random_observable(spec, 2, seed=3, worker_id=1)
    b = random_observable(spec, 2, seed=3, worker_id=1)
    c = random_observable(spec, 2, seed=3, worker_id=2)
    assert a.values == b.values
    assert a.values != c.values



def test_grid_cells_counts_and_writes_the_grid():
    """q_(m)^d and that count as powers of the q_k, the one sizing of a
    depth-m grid that `random_observable` and `dk` share; past the tile
    budget it is refused, the count written as q_(m)^d."""
    spec = SolenoidSpec.periodic([2, 3], dim=2)
    assert grid_cells(spec, 5) == (72 ** 2, "2^6·3^4")
    assert grid_cells(spec, 0) == (1, "1")
    assert grid_cells(SolenoidSpec(1, (4,), (2,)), 3) == (16, "2^2·4^1")
    assert len(random_observable(spec, 2, seed=1).values) == grid_cells(
        spec, 2)[0]
    with pytest.raises(StructuralError, match=r"depth-10 observable has "
                       r"7776\^2 cells"):
        grid_cells(spec, 10)
    assert grid_cells(SolenoidSpec.periodic([2]), 23) == (2 ** 23, "2^23")
    with pytest.raises(StructuralError, match="has 16777216 cells, past the "
                       "budget of 10000000"):
        grid_cells(SolenoidSpec.periodic([2]), 24)
    # exactly the budget is admitted, decided on the ints at the edge
    assert grid_cells(SolenoidSpec(1, (10,) * 7), 7) == (10 ** 7, "10^7")
    assert grid_cells(SolenoidSpec(7, (10,)), 1) == (10 ** 7, "10^7")


def test_log2_q_prod_is_closed_form():
    """log2 q_(n) over the prefix and whole periods of the tail, without
    the product; past a finite prefix it is refused as `q_at` refuses."""
    spec = SolenoidSpec(2, (4, 5), (2, 3, 7))
    for n in range(12):
        assert spec.log2_q_prod(n) == pytest.approx(
            math.log2(spec.q_prod(n)), rel=1e-12, abs=0)
    assert SolenoidSpec.periodic([2, 3]).log2_q_prod(10 ** 8) == \
        pytest.approx(5 * 10 ** 7 * math.log2(6), rel=1e-12)
    with pytest.raises(StructuralError, match="beyond the finite prefix"):
        SolenoidSpec(1, (2, 3)).log2_q_prod(3)


def test_random_observable_values_are_per_cell_fractions():
    """The shared Fraction per numerator gives each cell's a/16."""
    spec = SolenoidSpec.periodic([2, 3], dim=2)
    f = random_observable(spec, 2, seed=5, worker_id=1)
    nums = rng_stream(5, 1).integers(-64, 65, size=36)
    assert f.values == tuple(Fraction(int(a), 16) for a in nums)


def test_cylinder_observable_coerces_values_once():
    f = CylinderObservable(1, (0.5, 1.5))
    assert f.mean() == 1 and type(f.mean()) is Fraction
    assert f.values == (Fraction(1, 2), Fraction(3, 2))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(StructuralError,
                           match=f"{bad!r} is not a finite number"):
            CylinderObservable(1, (bad, 1.5))


def test_dk_offset_validation():
    spec = SolenoidSpec.periodic([2], dim=1)
    f = random_observable(spec, 1, seed=0)
    with pytest.raises(StructuralError):
        dk_check(spec, f, (Fraction(3, 2),), [(0,)], [1])
    with pytest.raises(StructuralError):
        dk_check(spec, f, (Fraction(1, 2), Fraction(0)), [(0,)], [1])


@given(st.integers(0, 2 ** 30), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_dk_bound_property(seed, depth):
    spec = SolenoidSpec.periodic([2], dim=1)
    f = random_observable(spec, depth, seed)
    gen_y = Fraction(seed % 16, 16)
    path = [((seed >> k) % 2,) for k in range(depth)]
    rep = dk_check(spec, f, (gen_y,), path, range(0, 6))
    assert rep.holds
    assert max(e.gap for e in rep.entries) <= rep.var
