import math

import numpy as np
import pytest
from scipy.linalg import lapack

from randtile import cocycle
from randtile.cocycle import (NEG_INF, _group_exponents, lyapunov_spectrum,
                              top_left_direction)
from randtile.errors import ConvergenceError, StructuralError
from randtile.substitution import (builtin_families, builtin_family,
                                   matrix_only_family, substitution_matrix)
from randtile.symbolic import MeasureSpec, SymbolSequence, sample_sequence

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)
LOG16 = math.log(16.0)
LOG52_HALF = 0.5 * math.log(52.0)


def _qr(frame):
    """Q and diag R of one frame by LAPACK `dgeqrf`/`dorgqr`, one call per
    factor: the reference for the QRs of `lyapunov_spectrum`'s loop."""
    r, tau, _, _ = lapack.dgeqrf(frame)
    diag = r.diagonal().copy()
    q, _, _ = lapack.dorgqr(r, tau, overwrite_a=1)
    return q, diag


def _batch_fold(lognorms, dead, diags):
    """The per-batch fold that `cocycle._fold_chain` replaced, kept as its
    oracle: log-norms and dead columns after adding log|diag R| of the QRs
    in `diags` to `lognorms`."""
    diags = np.abs(np.array(diags))
    with np.errstate(divide="ignore"):
        logs = np.log(diags)
    sums = np.cumsum(np.vstack((lognorms, logs)), axis=0)[1:]
    dead = (dead | (diags == 0.0).any(axis=0)
            | (sums < cocycle._UNDERFLOW_LOG).any(axis=0))
    return np.where(dead, -np.inf, sums[-1]), dead


def _fold(diags):
    """`_fold_chain` over a list of diagonals, read after the last."""
    return cocycle._fold_chain(np.array(diags), [len(diags) - 1])[0]


def test_fold_zero_logs():
    assert _fold([np.ones(4)] * 10).tolist() == [0.0] * 4


def test_fold_scaling():
    """Signs of diag R do not count: 50 QRs of diag(2, -1/2)."""
    lognorms = _fold([np.array([2.0, -0.5])] * 50)
    assert lognorms[0] == pytest.approx(50 * LOG2)
    assert lognorms[1] == pytest.approx(-50 * LOG2)


def test_fold_zero_diagonal_is_dead():
    """A zero diagonal kills its column, which stays at -inf in every later
    batch end."""
    diags = np.array([[1.0, 0.0], [2.0, 3.0], [2.0, 3.0]])
    norms = cocycle._fold_chain(diags, [0, 1, 2])
    assert norms.tolist() == [[0.0, -math.inf], [LOG2, -math.inf],
                              [2 * LOG2, -math.inf]]


def test_fold_underflow_is_dead():
    """A running sum below -600 kills the column, even when later QRs of
    the chain bring the sum back above it."""
    small, big = math.exp(-400.0), math.exp(500.0)
    assert _fold([np.array([1.0, small]), np.array([1.0, small]),
                  np.array([1.0, big])]).tolist() == [0.0, -math.inf]
    assert math.isfinite(_fold([np.array([1.0, small])])[1])


def test_fold_in_one_call_matches_one_per_qr(hhp, odp):
    """One fold over a whole chain of QR diagonals, read after every QR,
    leaves the same log-norms and dead columns, bit for bit, as the old
    per-batch fold called once per QR."""
    for fam in (hhp, odp):
        mats = [fam.matrix(s).astype(float) for s in (1, 2)]
        x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 103, seed=2)
        frame, diags = np.eye(fam.n_prototiles), []
        for s in x.positive:
            frame, diag = _qr(mats[s - 1].dot(frame))
            diags.append(diag)
        chain = cocycle._fold_chain(np.array(diags), list(range(len(diags))))
        one = np.zeros(fam.n_prototiles), np.zeros(fam.n_prototiles, bool)
        for diag, norms in zip(diags, chain):
            one = _batch_fold(*one, [diag])
            assert norms.tobytes() == one[0].tobytes()
            assert np.array_equal(np.isinf(norms), one[1])
    assert one[1].any()                         # one-d-pair has a kernel


def _reference_spectrum(family, x, steps, every):
    """The per-step loop the word-blocked QR loop replaced, kept as its
    oracle: push one factor, `np.linalg.qr` every `every` pushes and at each
    batch edge, and update log-norms and dead columns after every QR.
    Returns the sorted raw exponents and standard errors."""
    mats = [family.matrix(s).astype(float)
            for s in range(1, family.n_rules + 1)]
    dim = family.n_prototiles
    frame, lognorms = np.eye(dim), np.zeros(dim)
    dead = np.zeros(dim, dtype=bool)
    pending = 0

    def reorthonormalize():
        nonlocal frame, lognorms, dead, pending
        if pending == 0:
            return
        q, r = np.linalg.qr(frame)
        diag = np.abs(np.diag(r))
        with np.errstate(divide="ignore"):
            logs = np.log(diag)
        dead = dead | (diag == 0.0) | (lognorms + logs < -600.0)
        lognorms = np.where(dead, -np.inf, lognorms + logs)
        frame, pending = q, 0

    n_batches = max(20, min(50, steps // 200))
    edges = np.linspace(0, steps, n_batches + 1).astype(int)
    batch_sums = np.zeros((n_batches, dim))
    prev = lognorms.copy()
    b = 0
    for k in range(1, steps + 1):
        frame = mats[x[k] - 1] @ frame
        pending += 1
        if pending >= every:
            reorthonormalize()
        if k == edges[b + 1]:
            reorthonormalize()
            batch_sums[b] = np.where(np.isinf(lognorms), 0.0, lognorms -
                                     np.where(np.isinf(prev), 0.0, prev))
            prev = lognorms.copy()
            b += 1
    return _sorted_spectrum(lognorms, dead, batch_sums, edges)


def _sorted_spectrum(lognorms, dead, batch_sums, edges):
    """Raw exponents and batch-means standard errors, largest first."""
    steps, n_batches = edges[-1], len(edges) - 1
    raw = [-math.inf if dead[i] else float(lognorms[i]) / steps
           for i in range(len(lognorms))]
    se = np.std(batch_sums / np.diff(edges)[:, None], axis=0,
                ddof=1) / math.sqrt(n_batches)
    raw_se = [max(float(s), 20.0 / steps) for s in se]
    order = sorted(range(len(raw)), key=lambda i: (
        not math.isfinite(raw[i]), -raw[i] if math.isfinite(raw[i]) else 0.0))
    return [raw[i] for i in order], [raw_se[i] for i in order]


def _per_factor_spectrum(family, x, steps):
    """The loop the word products replaced, at one factor per QR: every
    factor multiplied onto the frame on its own and QR-factored by `_qr`,
    and the log-norms folded after every QR."""
    mats = [family.matrix(s).astype(float)
            for s in range(1, family.n_rules + 1)]
    dim = family.n_prototiles
    n_batches = max(20, min(50, steps // 200))
    edges = np.linspace(0, steps, n_batches + 1).astype(int)
    frame, lognorms, dead = np.eye(dim), np.zeros(dim), np.zeros(dim, bool)
    batch_sums = np.zeros((n_batches, dim))
    for b in range(n_batches):
        prev = lognorms
        for s in x.positive[edges[b]:edges[b + 1]]:
            frame, diag = _qr(mats[s - 1].dot(frame))
            lognorms, dead = _batch_fold(lognorms, dead, [diag])
        batch_sums[b] = np.where(np.isinf(lognorms), 0.0, lognorms - np.where(
            np.isinf(prev), 0.0, prev))
    return _sorted_spectrum(lognorms, dead, batch_sums, edges)


def _per_batch_spectrum(family, x, steps, every):
    """The loop `lyapunov_spectrum` ran before its one whole-chain fold,
    kept as its oracle: per batch, the words of `cocycle._words`, one `_qr`
    call per word, and one `_batch_fold` at the batch end."""
    mats = [family.matrix(s).astype(float)
            for s in range(1, family.n_rules + 1)]
    dim = family.n_prototiles
    n_batches = max(20, min(50, steps // 200))
    edges = np.linspace(0, steps, n_batches + 1).astype(int)
    frame, lognorms, dead = np.eye(dim), np.zeros(dim), np.zeros(dim, bool)
    words, batch_sums = {}, np.zeros((n_batches, dim))
    for b in range(n_batches):
        diags = []
        for word in cocycle._words(mats, x.positive[edges[b]:edges[b + 1]],
                                   every, words):
            frame, diag = _qr(word.dot(frame))
            diags.append(diag)
        prev = lognorms
        lognorms, dead = _batch_fold(lognorms, dead, diags)
        batch_sums[b] = np.where(np.isinf(lognorms), 0.0, lognorms - np.where(
            np.isinf(prev), 0.0, prev))
    return _sorted_spectrum(lognorms, dead, batch_sums, edges)


_MARKOV = MeasureSpec.markov([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])


@pytest.mark.parametrize("every", [1, 2, 5, 7])
@pytest.mark.parametrize("case", ["hhp-bernoulli", "hhp-markov", "odp",
                                  "sol2"])
def test_lyapunov_spectrum_matches_per_step_reference(case, every, hhp, odp,
                                                      sol2):
    """5,003 steps divide evenly neither into batches nor by `every`."""
    fam, measure = {"hhp-bernoulli": (hhp, MeasureSpec.bernoulli_p(0.5)),
                    "hhp-markov": (hhp, _MARKOV),
                    "odp": (odp, MeasureSpec.bernoulli_p(0.5)),
                    "sol2": (sol2, MeasureSpec.bernoulli_p(0.5))}[case]
    steps = 5003
    x = sample_sequence(measure, steps, seed=4)
    rep = lyapunov_spectrum(fam, measure, steps, seed=4, reorth_every=every,
                            x=x)
    raw, se = _reference_spectrum(fam, x, steps, every)
    assert [math.isinf(v) for v in rep.raw_exponents] == \
        [math.isinf(v) for v in raw]
    for got, want in zip(rep.raw_exponents + rep.raw_stderrs, raw + se):
        assert got == want or abs(got - want) <= 1e-12
    assert rep.multiplicities == _group_exponents(raw, se)[1]
    if case == "odp":
        assert rep.raw_exponents[-1] == -math.inf


def _bernoulli_half(fam):
    measure = MeasureSpec.bernoulli_p(0.5)
    return fam, measure, sample_sequence(measure, 5003, seed=4)


_SHEARS = matrix_only_family("shears", [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


@pytest.mark.parametrize("every", [1, 5, 13])
@pytest.mark.parametrize("case", ["hhp", "sol2", "shears"])
def test_word_products_are_exact(case, every, hhp, sol2, monkeypatch):
    """Every word `lyapunov_spectrum` caches equals the exact integer
    product of its symbols (object matmul), first symbol rightmost: the
    factors are nonnegative integer matrices and the words stay below
    2^53.  The two matrices of half-hex-pair commute, and so do those of
    solenoid-2x3-2d; the shears do not, so they pin the order."""
    fam, measure, x = _bernoulli_half(
        {"hhp": hhp, "sol2": sol2, "shears": _SHEARS}[case])
    caches = []

    def recording(mats, symbols, length, cache):
        caches.append(cache)
        return words(mats, symbols, length, cache)
    words = cocycle._words
    monkeypatch.setattr(cocycle, "_words", recording)
    lyapunov_spectrum(fam, measure, 5003, seed=4, reorth_every=every, x=x)
    cache = caches[0]
    assert all(c is cache for c in caches)
    assert {len(run) for run in cache} >= {every}
    for run, word in cache.items():
        exact = np.eye(fam.n_prototiles, dtype=int).astype(object)
        for s in run:
            exact = fam.matrix(s).astype(object) @ exact
        assert max(exact.flat) < 2 ** 53
        assert word.dtype == float
        assert word.tolist() == exact.tolist()


@pytest.mark.parametrize("case", ["hhp", "sol2", "odp"])
def test_one_symbol_words_are_the_per_factor_product(case, hhp, sol2, odp):
    """At reorth_every=1 every word is one factor, so the spectrum is the
    per-factor result, folded after every QR, bit for bit."""
    fam, measure, x = _bernoulli_half({"hhp": hhp, "sol2": sol2,
                                       "odp": odp}[case])
    rep = lyapunov_spectrum(fam, measure, 5003, seed=4, reorth_every=1, x=x)
    raw, se = _per_factor_spectrum(fam, x, 5003)
    assert rep.raw_exponents == raw
    assert rep.raw_stderrs == se


# [[1, 1], [0, 0]] is idempotent and leaves a zero second row on the
# frame, so its QRs have an exactly zero diagonal entry; [[2, 1], [1, 1]]
# has determinant 1 and exponents ±log φ², so the second column's running
# log-norm falls below -600 after about 620 steps
_ZERO = matrix_only_family("zero-diagonal", [[[1, 1], [0, 0]],
                                             [[1, 0], [1, 1]]])
_UNDERFLOW = matrix_only_family("underflow", [[[2, 1], [1, 1]]])


@pytest.mark.parametrize("every", [1, 5, 7, 13])
@pytest.mark.parametrize("case, p, dead", [
    ("hhp", 0.5, False), ("odp", 0.0, True), ("odp", 0.5, True),
    ("sol2", 0.5, False), ("shears", 0.5, True),
    ("zero-diagonal", 1.0, True), ("zero-diagonal", 0.5, True),
    ("underflow", 1.0, True)])
def test_chain_fold_is_the_per_batch_loop_bit_for_bit(case, p, dead, every,
                                                       hhp, odp, sol2):
    """The one QR loop and whole-chain fold give the raw exponents and
    standard errors of the per-batch loop they replaced, bit for bit, -inf
    included.  5,003 steps leave a short last run at every `every` but 1."""
    fam = {"hhp": hhp, "odp": odp, "sol2": sol2, "shears": _SHEARS,
           "zero-diagonal": _ZERO, "underflow": _UNDERFLOW}[case]
    measure = MeasureSpec.bernoulli_p(p)
    x = sample_sequence(measure, 5003, seed=4)
    rep = lyapunov_spectrum(fam, measure, 5003, seed=4, reorth_every=every,
                            x=x)
    raw, se = _per_batch_spectrum(fam, x, 5003, every)
    assert [v.hex() for v in rep.raw_exponents] == [v.hex() for v in raw]
    assert [v.hex() for v in rep.raw_stderrs] == [v.hex() for v in se]
    assert (rep.raw_exponents[-1] == -math.inf) == dead


@pytest.mark.parametrize("every", [1, 2, 5, 7, 300])
def test_one_qr_per_word(every, hhp, monkeypatch):
    """One QR per run of `every` symbols, the runs starting again at each
    batch edge: sum over batches of ceil(len_b / every)."""
    calls = []

    def counting(frame):
        calls.append(1)
        return dgeqrf(frame)
    dgeqrf = lapack.dgeqrf
    monkeypatch.setattr(lapack, "dgeqrf", counting)
    measure = MeasureSpec.bernoulli_p(0.5)
    lyapunov_spectrum(hhp, measure, 5003, seed=4, reorth_every=every)
    lens = np.diff(np.linspace(0, 5003, 26).astype(int))   # 25 batches
    assert len(calls) == sum(-(-int(n) // every) for n in lens)


def test_lyapunov_p1_endpoint(hhp):
    rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(1.0), 20000, seed=0)
    targets = [LOG4, LOG2, 0.0, 0.0, 0.0, 0.0]
    for lam, se, t in zip(rep.raw_exponents, rep.raw_stderrs, targets):
        assert abs(lam - t) <= 3 * se
    assert sum(rep.multiplicities) == 6
    assert rep.exponents == sorted(rep.exponents, reverse=True)


def test_lyapunov_p0_endpoint(hhp):
    rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.0), 20000, seed=0)
    targets = [LOG16, LOG52_HALF, LOG52_HALF, LOG2, LOG2, LOG2]
    for lam, se, t in zip(rep.raw_exponents, rep.raw_stderrs, targets):
        assert abs(lam - t) <= 3 * se


def test_lyapunov_determinant_identity(hhp):
    """The exponents sum to E[log|det A|]: log 8 at p=1, log 6656 at p=0."""
    a1 = substitution_matrix(hhp.rules[0], 6).astype(float)
    a2 = substitution_matrix(hhp.rules[1], 6).astype(float)
    assert round(np.linalg.det(a1)) == 8
    assert round(np.linalg.det(a2)) == 6656
    for p, det in ((1.0, 8.0), (0.0, 6656.0)):
        rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(p), 20000, seed=1)
        assert sum(rep.raw_exponents) == pytest.approx(math.log(det), abs=1e-6)


@pytest.mark.parametrize("family", builtin_families(), ids=lambda f: f.name)
def test_lyapunov_top_exponent_is_the_mean_log_expansion(family):
    """vol is a common eigenvector, A_s·vol = θ_s^(−d)·vol, so along x the
    top exponent is (1/N)·Σ log θ_(x_k)^(−d).  The QR λ₁ starts from e_1,
    not vol, and is off by about log(√n)/N (0.90/N on half-hex, 0.35/N on
    one-d-pair, 0 on the one-type solenoids): within 1/N."""
    n_steps = 20000
    for p in ((0.0, 0.3, 0.5, 0.8, 1.0) if family.n_rules == 2 else (1.0,)):
        measure = MeasureSpec.bernoulli((p, 1 - p)[:family.n_rules])
        x = sample_sequence(measure, n_steps, seed=17)
        rep = lyapunov_spectrum(family, measure, n_steps, seed=17, x=x)
        exact = sum(math.log(family.rule(s).theta ** -family.dim)
                    for s in x.positive[:n_steps]) / n_steps
        assert abs(rep.raw_exponents[0] - exact) <= 1 / n_steps, p


def _circulant_mode_log_moduli(matrix):
    """log|μ_j| for the Fourier modes j of a circulant integer matrix on
    ℤ/n, n | 6, with −inf for a zero eigenvalue.  |μ_j|² = Σ_d r_d·cos(2πjd/n)
    with r the integer autocorrelation of the first row, and 2cos(2πjd/n)
    is an integer when n | 6, so |μ_j|² is exact."""
    n = len(matrix)
    row = [int(c) for c in matrix[0]]
    assert matrix.tolist() == [row[-i:] + row[:-i] for i in range(n)]
    r = [sum(row[m] * row[(m + d) % n] for m in range(n)) for d in range(n)]
    out = []
    for j in range(n):
        twice_cos = [2 * math.cos(2 * math.pi * j * d / n) for d in range(n)]
        assert all(abs(c - round(c)) < 1e-12 for c in twice_cos)
        twice_mod2 = sum(rd * round(c) for rd, c in zip(r, twice_cos))
        out.append(0.5 * math.log(twice_mod2 / 2) if twice_mod2 else NEG_INF)
    return out


@pytest.mark.parametrize("name", ["half-hex-pair", "one-d-pair",
                                  "solenoid-2x3-2d"])
def test_lyapunov_spectrum_is_exact_along_x_for_commuting_rules(name):
    """Circulant rules share the Fourier basis and are normal, so along x
    the spectrum is the sorted per-mode means (1/N)·Σ_k log|μ_(x_k),j|.  The
    QR starts from e_1…e_n, whose overlap with each mode is 1/√n: every
    raw exponent lies within log(√n)/N of the exact one, 0.90/N on
    half-hex-pair, 0.35/N on one-d-pair and 0 on the 1×1 solenoid."""
    family = builtin_family(name)
    n, n_steps = family.n_prototiles, 20000
    logs = [_circulant_mode_log_moduli(family.matrix(s)) for s in (1, 2)]
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        measure = MeasureSpec.bernoulli((p, 1 - p))
        for seed in (0, 7):
            x = sample_sequence(measure, n_steps, seed=seed)
            rep = lyapunov_spectrum(family, measure, n_steps, seed=seed, x=x)
            counts = [x.positive[:n_steps].count(s) for s in (1, 2)]
            exact = sorted((sum(c * lg[j] for c, lg in zip(counts, logs)
                                if c) / n_steps for j in range(n)),
                           reverse=True)
            for got, want in zip(rep.raw_exponents, exact):
                if want == NEG_INF:
                    assert got == NEG_INF, (p, seed)
                else:
                    assert abs(got - want) <= (math.log(math.sqrt(n)) / n_steps
                                               + 1e-12), (p, seed)


def _fekete_ceiling(family, p, n=14):
    """(1/n)·E log ‖B_w‖₂ over all 2^n words w, each weighted by its
    Bernoulli(p) probability: B_w is A_w on ℝᵏ/⟨vol⟩ (k tile types), taken
    as Q⊥ᵀ·A_w·Q⊥ on vol^⊥ (Q⊥ an orthonormal basis).  vol is an eigenvector of every
    A_s, so B_(uv) = B_u·B_v, and by subadditivity (Fekete) the quotient's
    top exponent, λ₂ of the cocycle, is at most this mean."""
    vol = np.array([float(v) for v in family.volumes()])
    q = np.linalg.qr(vol[:, None], mode="complete")[0][:, 1:]
    b = [q.T @ family.matrix(s) @ q for s in (1, 2)]
    words, logp = np.eye(len(vol) - 1)[None], np.zeros(1)
    for _ in range(n):
        words = np.concatenate([b[0] @ words, b[1] @ words])
        logp = np.concatenate([logp + math.log(p), logp + math.log(1 - p)])
    return float(np.exp(logp) @ np.log(np.linalg.norm(words, 2, axis=(1, 2)))) / n


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_lyapunov_second_exponent_below_the_fekete_ceiling(hhp, p):
    """The QR λ₂ on half-hex-pair lies below Fekete's ceiling at n = 14
    plus 5 standard errors.  The ceiling is 1.3832, 1.0045 and 0.7483 at
    p = 0.3, 0.5 and 0.7 (the QR gives 1.386, 0.982 and 0.693 at seed 0);
    at p = 1 and p = 0 it is log 2 and 1.9756, the exact λ₂, because the
    two circulant matrices commute and Q⊥ keeps them normal."""
    ceiling = _fekete_ceiling(hhp, p)
    rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(p), 20000, seed=0)
    assert rep.raw_exponents[1] <= ceiling + 5 * rep.raw_stderrs[1]
    assert ceiling < rep.raw_exponents[0]


def test_lyapunov_seed_reproducibility(hhp):
    m = MeasureSpec.bernoulli_p(0.5)
    a = lyapunov_spectrum(hhp, m, 2000, seed=5)
    b = lyapunov_spectrum(hhp, m, 2000, seed=5)
    assert a.raw_exponents == b.raw_exponents
    assert a.stderrs == b.stderrs


def test_lyapunov_reorth_insensitive(hhp):
    m = MeasureSpec.bernoulli_p(1.0)
    a = lyapunov_spectrum(hhp, m, 5000, seed=0, reorth_every=1)
    b = lyapunov_spectrum(hhp, m, 5000, seed=0, reorth_every=10)
    for x, y in zip(a.raw_exponents, b.raw_exponents):
        assert x == pytest.approx(y, abs=1e-9)


def test_lyapunov_explicit_sequence(hhp):
    x = SymbolSequence.constant(1, 5000)
    rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.5), 5000, seed=0,
                            x=x)
    assert rep.top == pytest.approx(LOG4, abs=1e-3)
    with pytest.raises(StructuralError):
        lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.5), 6000, seed=0, x=x)


def test_lyapunov_minimum_steps(hhp):
    with pytest.raises(StructuralError):
        lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.5), 500, seed=0)
    with pytest.raises(StructuralError, match="reorth_every"):
        lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.5), 1000, seed=0,
                          reorth_every=0)


def test_lyapunov_symbol_outside_family(hh):
    """half-hex-classical has one rule: a Bernoulli(1/2) draw uses symbol
    2, which it cannot map.  Only the first `steps` symbols are read, so a
    2 after them does not matter."""
    with pytest.raises(StructuralError,
                       match="symbol 2 .* 'half-hex-classical'.* 1..1"):
        lyapunov_spectrum(hh, MeasureSpec.bernoulli_p(0.5), 1000, seed=0)
    x = SymbolSequence((1,) * 1000 + (2,))
    rep = lyapunov_spectrum(hh, MeasureSpec.bernoulli_p(0.5), 1000, seed=0,
                            x=x)
    assert rep.top == pytest.approx(LOG4, abs=1e-3)


def test_top_left_direction_checks_sequence(hh, hhp):
    with pytest.raises(StructuralError, match=r"depth 40 .*\(30 symbols\)"):
        top_left_direction(hhp, SymbolSequence.constant(1, 30), 40)
    x = SymbolSequence((1, 1, 2, 1))
    with pytest.raises(StructuralError, match="symbol 2 .*half-hex-classical"):
        top_left_direction(hh, x, 3)
    assert top_left_direction(hh, x, 2).shape == (6,)


def test_normalized_spectrum(hhp):
    """λ_i/λ_1 over the raw spectrum: 1 at the top, log√52/log16 next."""
    rep = lyapunov_spectrum(hhp, MeasureSpec.bernoulli_p(0.0), 20000, seed=0)
    norm = [e / rep.top for e in rep.raw_exponents]
    assert norm[0] == 1.0
    assert norm[1] == pytest.approx(LOG52_HALF / LOG16, abs=0.02)


def test_top_left_direction_half_hex(hhp):
    x = SymbolSequence.constant(1, 40)
    u = top_left_direction(hhp, x, 40)
    assert np.allclose(u, np.full(6, 1 / math.sqrt(6)), atol=1e-12)


def test_top_left_direction_single_type(sol1):
    x = SymbolSequence.constant(1, 10)
    assert top_left_direction(sol1, x, 10).tolist() == [1.0]


def test_top_left_direction_no_gap():
    fam = matrix_only_family("perm", [np.eye(2, dtype=int)], dim=1)
    x = SymbolSequence.constant(1, 30)
    with pytest.raises(ConvergenceError):
        top_left_direction(fam, x, 30)
