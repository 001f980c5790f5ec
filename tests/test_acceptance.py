"""End-to-end acceptance criteria, one printed PASS/FAIL line per criterion."""

import csv
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randtile.cli import main
from randtile.cocycle import lyapunov_spectrum
from randtile.ergodic import (TLCObservable, ergodic_vectors,
                              deviation_along_sequence,
                              make_zero_trace_observable,
                              special_averaging_sequence)
from randtile.schrodinger import (KernelSpec, PunctureSet, build_operator,
                                  ids_estimate, trace_deviation,
                                  windowed_trace)
from randtile.solenoid import SolenoidSpec, dk_check, random_observable
from randtile.substitution import (builtin_families, half_hex_classical,
                                   half_hex_pair, substitution_matrix)
from randtile.symbolic import (MeasureSpec, SymbolSequence, rng_stream,
                               sample_sequence)
from randtile.tiling import (Region, SupertileSystem, decompose_region,
                             decomposition_tile_multiset, generate_patch)

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)
LOG16 = math.log(16.0)
LOG52_HALF = 0.5 * math.log(52.0)


def _announce(capsys, num, ok, detail=""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, detail


def _charpoly(a):
    """Exact characteristic polynomial coefficients, leading first."""
    n = a.shape[0]
    a = a.astype(object)
    eye = np.eye(n, dtype=object) * Fraction(1)
    m = np.zeros((n, n), dtype=object) * Fraction(0)
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * eye
        coeffs.append(Fraction(-np.trace(a @ m), k))
    return coeffs


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _lsq_slope(xs, ys):
    a = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(sol[0])


@pytest.fixture(scope="module")
def fam_pair():
    return half_hex_pair()


@pytest.fixture(scope="module")
def fam_classic():
    return half_hex_classical()


@pytest.fixture(scope="module")
def rep_p1(fam_pair):
    return lyapunov_spectrum(fam_pair, MeasureSpec.bernoulli_p(1.0),
                             200_000, seed=1)


@pytest.fixture(scope="module")
def rep_p0(fam_pair):
    return lyapunov_spectrum(fam_pair, MeasureSpec.bernoulli_p(0.0),
                             200_000, seed=1)


@pytest.fixture(scope="module")
def x_p0():
    return SymbolSequence.constant(2, 40)


@pytest.fixture(scope="module")
def seq_p0(fam_pair, x_p0):
    return special_averaging_sequence(fam_pair, x_p0, Region.unit_square(),
                                      eps=0.05, count=25, seed=7)


def test_criterion_01_matrix_spectra(fam_pair, capsys):
    """Exact eigenvalue multisets {4,2,1,1,-1,-1} and {16, 7+-i*sqrt(3), 2,2,2}."""
    a1 = substitution_matrix(fam_pair.rules[0], 6)
    a2 = substitution_matrix(fam_pair.rules[1], 6)
    got1 = _charpoly(a1)
    want1 = [Fraction(1)]
    for root in (4, 2, 1, 1, -1, -1):
        want1 = _poly_mul(want1, [Fraction(1), Fraction(-root)])
    got2 = _charpoly(a2)
    want2 = [Fraction(1), Fraction(-16)]
    want2 = _poly_mul(want2, [Fraction(1), Fraction(-14), Fraction(52)])
    for _ in range(3):
        want2 = _poly_mul(want2, [Fraction(1), Fraction(-2)])
    ok = got1 == want1 and got2 == want2
    _announce(capsys, 1, ok, "exact characteristic polynomials over Z")


def test_criterion_02_lyapunov_endpoints(rep_p1, rep_p0, capsys):
    targets_p1 = [LOG4, LOG2, 0.0, 0.0, 0.0, 0.0]
    targets_p0 = [LOG16, LOG52_HALF, LOG52_HALF, LOG2, LOG2, LOG2]
    devs = []
    ok = True
    for rep, targets in ((rep_p1, targets_p1), (rep_p0, targets_p0)):
        for lam, se, t in zip(rep.raw_exponents, rep.raw_stderrs, targets):
            devs.append(abs(lam - t) / se)
            ok = ok and abs(lam - t) <= 3 * se
    _announce(capsys, 2, ok,
              f"max |dev|/stderr = {max(devs):.2f} over 12 exponents")


def test_criterion_03_top_exponent_law(fam_pair, capsys):
    devs = []
    ok = True
    for p in (0.25, 0.5, 0.75):
        rep = lyapunov_spectrum(fam_pair, MeasureSpec.bernoulli_p(p),
                                50_000, seed=2)
        target = p * LOG4 + (1 - p) * LOG16
        lam, se = rep.raw_exponents[0], rep.raw_stderrs[0]
        devs.append(abs(lam - target) / se)
        ok = ok and abs(lam - target) <= 3 * se
    _announce(capsys, 3, ok,
              "lambda_1(p) = p*log4+(1-p)*log16, max |dev|/stderr = "
              f"{max(devs):.2f}")


def test_criterion_04_spectrum_sweep_csv(tmp_path, capsys):
    grid = ",".join(str(round(0.1 * i, 1)) for i in range(11))
    rc = main(["spectrum", "--family", "half-hex-pair", "--steps", "20000",
               "--p-grid", grid, "--seed", "3", "--out", str(tmp_path)])
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ok = rc == 0 and len(rows) == 11 * 6
    by_p = {}
    for p, idx, lam, se, _ in rows:
        by_p.setdefault(float(p), []).append((float(lam), float(se)))
    # endpoints reproduce the closed-form spectra within 3 stderr
    for (lam, se), t in zip(by_p[1.0], [LOG4, LOG2, 0, 0, 0, 0]):
        ok = ok and abs(lam - t) <= 3 * se
    for (lam, se), t in zip(by_p[0.0],
                            [LOG16, LOG52_HALF, LOG52_HALF, LOG2, LOG2, LOG2]):
        ok = ok and abs(lam - t) <= 3 * se
    # lambda_1 decreases monotonically in p within error bars
    ps = sorted(by_p)
    tops = [by_p[p][0] for p in ps]
    for (l0, s0), (l1, s1) in zip(tops, tops[1:]):
        ok = ok and l1 <= l0 + 3 * (s0 + s1)
    _announce(capsys, 4, ok,
              "11-point sweep, endpoints match, lambda_1 monotone")


def test_criterion_05_denjoy_koksma(capsys):
    checked = 0
    violations = 0
    worst = Fraction(0)
    for combo, (qs, d) in enumerate(
            [((2,), 1), ((2,), 2), ((2, 3), 1), ((2, 3), 2)]):
        spec = SolenoidSpec.periodic(qs, dim=d)
        gen = rng_stream(100 + combo, 0)
        for trial in range(25):
            depth = int(gen.integers(0, 3))
            f = random_observable(spec, depth, seed=200 + combo,
                                  worker_id=trial)
            for _ in range(20):
                y = tuple(Fraction(int(a), 64)
                          for a in gen.integers(0, 64, size=d))
                path = [tuple(int(gen.integers(0, spec.q_at(k + 1)))
                              for _ in range(d)) for k in range(depth)]
                rep = dk_check(spec, f, y, path, range(0, 11))
                checked += len(rep.entries)
                violations += sum(e.gap > rep.var for e in rep.entries)
                if rep.var:
                    worst = max(worst, rep.max_gap / rep.var)
    ok = violations == 0 and checked == 4 * 25 * 20 * 11
    _announce(capsys, 5, ok,
              f"{checked} exact checks, {violations} violations, "
              f"max gap/Var = {float(worst):.3f}")


def test_criterion_06_decomposition_exactness(fam_classic, capsys):
    x = SymbolSequence.constant(1, 64)
    system = SupertileSystem(fam_classic, x)
    ok = True
    sizes = []
    boundary = []
    for e in range(3, 10):
        t = 2 ** e
        window = Region.unit_square(dilation=t)
        anchor = system.anchor(window)
        patch = generate_patch(fam_classic, x, window, system=system,
                               anchor=anchor)
        rep = decompose_region(fam_classic, x, Region.unit_square(), t,
                               system=system, anchor=anchor)
        ok = ok and decomposition_tile_multiset(
            rep, fam_classic, x) == patch.multiset()
        sizes.append(t)
        # the boundary layer: supertiles below the top level, plus the rim
        # tiles the best-first cover had to skip at the window edge
        top = max(rep.counts)
        boundary.append(sum(rep.total_count(i) for i in rep.counts
                            if i != top) + rep.boundary_skipped)
    slope = _lsq_slope([math.log(t) for t in sizes],
                       [math.log(b) for b in boundary])
    ok = ok and slope <= 1.1
    _announce(capsys, 6, ok,
              f"multisets equal for T=8..512, boundary-count slope "
              f"{slope:.3f} <= 1.1")


def test_criterion_07_deviation_exponents(fam_classic, fam_pair, x_p0,
                                          seq_p0, capsys):
    # geometric route at p=1
    x1 = SymbolSequence.constant(1, 40)
    f1 = make_zero_trace_observable(fam_classic, x1, 40)
    seq1 = special_averaging_sequence(fam_classic, x1, Region.unit_square(),
                                      eps=0.05, count=25)
    fit1 = deviation_along_sequence(f1, seq1, fam_classic, x1)
    # combinatorial route at p=0
    f0 = make_zero_trace_observable(fam_pair, x_p0, 40)
    fit0 = deviation_along_sequence(f0, seq_p0, fam_pair, x_p0)
    target0 = math.log(52) / math.log(16)
    ok = (len(seq1.entries) >= 8 and len(seq_p0.entries) >= 8
          and abs(fit1.slope - 1.0) <= 0.08
          and abs(fit0.slope - target0) <= 0.08)
    _announce(capsys, 7, ok,
              f"slopes {fit1.slope:.4f} (target 1.0) and {fit0.slope:.4f} "
              f"(target {target0:.4f}), both +-0.08")


def test_criterion_08_depth0_equivariance(capsys):
    ok = True
    checked = 0
    for fam in builtin_families():
        n = fam.n_prototiles
        if fam.n_rules > 1:
            x = sample_sequence(
                MeasureSpec.bernoulli((1 / fam.n_rules,) * fam.n_rules),
                20, seed=5)
        else:
            x = SymbolSequence.constant(1, 20)
        gen = rng_stream(17, 0)
        for _ in range(50):
            w = tuple(Fraction(int(a), 7) for a in gen.integers(-20, 21, n))
            vecs = ergodic_vectors(TLCObservable(0, w), fam, x, 20)
            for k in range(20):
                a = substitution_matrix(fam.rule(x[k + 1]), n).astype(object)
                ok = ok and (vecs[k + 1].values == a @ vecs[k].values).all()
                checked += 1
    _announce(capsys, 8, ok,
              f"V^(k+1) = A_(k+1) V^k exact, {checked} steps x 50 observables"
              f" over {len(builtin_families())} families")


def test_criterion_09_schrodinger_traces(fam_classic, capsys):
    x = SymbolSequence.constant(1, 40)
    system = SupertileSystem(fam_classic, x)
    src = Region.box((-6, -6), (12, 12))
    anchor = system.anchor(src)
    patch = generate_patch(fam_classic, x, src, system=system, anchor=anchor)
    punctures = PunctureSet.from_patch(patch, window=src)
    sub = Region.box((-3, -3), (6, 6))
    rep = decompose_region(fam_classic, x, sub, 1, system=system,
                           anchor=anchor)
    vols = fam_classic.volumes()
    gen = rng_stream(23, 0)
    ok = True
    for _ in range(20):
        diag = tuple(Fraction(int(a), 9) for a in gen.integers(-30, 31, 6))
        op = build_operator(KernelSpec.typewise(diag), punctures, src)
        trace = windowed_trace(op, sub, mode="interior-supertile")
        f = TLCObservable(0, tuple(diag[t] / vols[t] for t in range(6)))
        vecs = ergodic_vectors(f, fam_classic, x, max(rep.counts))
        integral = sum(kappa * vecs[level].values[j]
                       for level, counts in rep.counts.items()
                       for j, kappa in enumerate(counts))
        ok = ok and trace == integral
    lap = build_operator(KernelSpec.laplacian(1.5), punctures, sub)
    row_sums = np.abs(np.asarray(lap.matrix.sum(axis=1))).max()
    ok = ok and row_sums == 0.0
    ids = ids_estimate(KernelSpec.identity(), punctures,
                       [sub, Region.box((-4, -4), (8, 8))],
                       [0.0, 0.999, 1.0, 2.0])
    for curve in ids.curves:
        ok = ok and curve.tolist() == [0.0, 0.0, 1.0, 1.0]
    _announce(capsys, 9, ok,
              "20 exact trace identities, Laplacian row sums 0, "
              "identity IDS exact step")


def test_criterion_10_trace_flag(fam_pair, x_p0, seq_p0, rep_p0, capsys):
    ratio = rep_p0.raw_exponents[1] / rep_p0.raw_exponents[0]
    kernel = KernelSpec.typewise((1,) * 6)
    rep = trace_deviation(kernel, fam_pair, x_p0, seq_p0, lyapunov=rep_p0)
    ok = (abs(ratio - 0.713) <= 0.005 and ratio > 0.5
          and rep.trace_flag is True and rep.ratio == ratio)
    _announce(capsys, 10, ok,
              f"lambda_2/lambda_1 = {ratio:.4f} > 1/2 raises the trace flag")
