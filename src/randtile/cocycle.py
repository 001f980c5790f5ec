"""Matrix cocycles over symbol sequences and their Lyapunov spectrum.

The cocycle acts on cotrace vectors by plain left multiplication: after k
steps the accumulated map is A_{x_k}···A_{x_1}.  Exponents are estimated by
the discrete-QR method (Benettin et al. 1980; Dieci & Van Vleck 1995):
`lyapunov_spectrum` multiplies the word product of each run of
`reorth_every` symbols onto an orthonormal frame and QR-factors it with
LAPACK `dgeqrf`/`dorgqr`, so one product and one QR advance the frame a
whole reorthonormalisation interval.  The QR loop only stores each diag R;
`_fold_chain` then rolls all of them, once per chain, into the column
log-norms at every batch end, with dead (kernel) directions at -inf.
Standard errors come from batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, StructuralError
from .geometry import sum_left
from .substitution import RuleFamily
from .symbolic import MeasureSpec, SymbolSequence, sample_sequence

NEG_INF = float("-inf")
MIN_STEPS = 1000         # the fewest steps of one spectrum estimate
_ORTHO_TOL = 1e-10
_UNDERFLOW_LOG = -600.0  # running column norm below e^-600 => kernel direction
_MERGE_FACTOR = 5.0      # exponents closer than this many stderrs are merged
_GAP_TOL = 1e-9          # relative top singular gap below this => no direction


def _family_matrices(family: RuleFamily, symbols):
    """Float substitution matrices, symbol s at index s - 1; every symbol in
    `symbols` must have a rule in the family."""
    top = max(symbols)
    if top > family.n_rules:
        raise StructuralError(
            f"symbol {top} has no rule in family {family.name!r}, whose "
            f"alphabet is 1..{family.n_rules}")
    return [family.matrix(s).astype(float)
            for s in range(1, family.n_rules + 1)]


def _fold_chain(diags, ends):
    """Column log-norms after the runs `ends`, from the signed diag R of
    every QR of a chain in order (`diags`, one row per QR), by one running
    sum down the chain.  A column is dead, and stays at -inf, from the first
    QR where its diagonal entry is 0 or its running sum falls below
    _UNDERFLOW_LOG."""
    diags = np.abs(diags)
    with np.errstate(divide="ignore"):
        sums = np.cumsum(np.log(diags), axis=0)
    dead = np.logical_or.accumulate((diags == 0.0) | (sums < _UNDERFLOW_LOG))
    return np.where(dead[ends], NEG_INF, sums[ends])


@dataclass
class LyapunovReport:
    """Estimated Lyapunov exponents, largest first, in nats per shift step."""

    exponents: list                 # one entry per distinct exponent
    multiplicities: list
    stderrs: list                   # combined standard error per group
    raw_exponents: list             # all dim exponents before grouping
    raw_stderrs: list

    @property
    def top(self) -> float:
        return self.exponents[0]

    def normalized(self) -> list:
        """lambda_i / lambda_1 over the raw (ungrouped) spectrum."""
        return [e / self.top for e in self.raw_exponents]


def _group_exponents(exponents, stderrs):
    """Merge exponents whose gap is within _MERGE_FACTOR * combined stderr."""
    groups = []
    for lam, se in zip(exponents, stderrs):
        if groups:
            lam0, ses = groups[-1]
            combined = math.hypot(se, ses[-1])
            if lam == lam0[-1] or (math.isfinite(lam) and math.isfinite(lam0[-1])
                                   and lam0[-1] - lam <= _MERGE_FACTOR * combined):
                lam0.append(lam)
                ses.append(se)
                continue
        groups.append(([lam], [se]))
    out_e, out_m, out_se = [], [], []
    for lams, ses in groups:
        finite = [v for v in lams if math.isfinite(v)]
        out_e.append(sum_left(finite) / len(finite) if finite else NEG_INF)
        out_m.append(len(lams))
        out_se.append(math.sqrt(sum_left(s * s for s in ses)) / len(ses))
    return out_e, out_m, out_se


def _words(mats, symbols, length, cache):
    """Word products a_{s_L}···a_{s_1}, one per run of `length` symbols, the
    runs cut from the start of `symbols` (so the last may be shorter).

    Each distinct run is multiplied once and kept in `cache`, keyed by its
    symbol tuple.  A one-symbol word is the factor itself.
    """
    out = []
    for i in range(0, len(symbols), length):
        run = symbols[i:i + length]
        word = cache.get(run)
        if word is None:
            word = mats[run[0] - 1]
            for s in run[1:]:
                word = mats[s - 1].dot(word)
            cache[run] = word
        out.append(word)
    return out


def lyapunov_spectrum(family: RuleFamily, measure: MeasureSpec, steps: int,
                      seed: int, reorth_every: int = 5,
                      x: Optional[SymbolSequence] = None) -> LyapunovReport:
    """Discrete-QR estimate of all exponents of A_{x_k}···A_{x_1}.

    The sequence is cut into >= 20 batches, and each batch into runs of
    `reorth_every` symbols from its first symbol, so the QR points are every
    `reorth_every` factors after a batch edge, plus each edge.  Each run
    meets the frame as one float word product a_L···a_1, multiplied once per
    call for each distinct run.  The substitution matrices are nonnegative
    integer matrices, so a word is exact while the entries of its partial
    products stay below 2^53; it is rounded once where it meets the frame,
    instead of once per factor.

    Standard errors are batch means over the batches, floored at 20/steps
    so deterministic (single-matrix) sequences still report the finite-step
    truncation error scale.  A symbol with no rule in the family, or a
    sequence shorter than `steps`, is a `StructuralError`.
    """
    if steps < MIN_STEPS:
        raise StructuralError(f"steps must be >= {MIN_STEPS}")
    if reorth_every < 1:
        raise StructuralError("reorth_every must be >= 1")
    if x is None:
        x = sample_sequence(measure, steps, seed)
    elif len(x) < steps:
        raise StructuralError("provided sequence shorter than steps")
    symbols = x.positive[:steps]
    mats = _family_matrices(family, symbols)
    dim = family.n_prototiles

    n_batches = max(20, min(50, steps // 200))
    edges = np.linspace(0, steps, n_batches + 1).astype(int)
    cache, words, ends = {}, [], []
    for b in range(n_batches):
        words += _words(mats, symbols[edges[b]:edges[b + 1]], reorth_every,
                        cache)
        ends.append(len(words) - 1)
    # the one QR loop; bound here so that `cocycle` imports no scipy itself
    from scipy.linalg.lapack import dgeqrf, dorgqr
    frame, diags = np.eye(dim), np.empty((len(words), dim))
    for i, word in enumerate(words):
        r, tau, _, _ = dgeqrf(word.dot(frame))
        diags[i] = r.diagonal()
        frame, _, _ = dorgqr(r, tau, overwrite_a=1)
    norms = _fold_chain(diags, ends)
    prev = np.vstack((np.zeros(dim), norms[:-1]))
    batch_sums = np.where(np.isinf(norms), 0.0, norms - np.where(
        np.isinf(prev), 0.0, prev))
    err = np.abs(frame.T @ frame - np.eye(dim)).max()
    if err > _ORTHO_TOL:
        raise StructuralError(f"frame lost orthonormality ({err:.2e})")

    batch_means = batch_sums / np.diff(edges)[:, None]
    raw = [float(v) / steps for v in norms[-1]]    # dead columns: -inf
    se = np.std(batch_means, axis=0, ddof=1) / math.sqrt(n_batches)
    raw_se = [max(float(s), 20.0 / steps) for s in se]

    order = sorted(range(dim), key=lambda i: (
        not math.isfinite(raw[i]), -raw[i] if math.isfinite(raw[i]) else 0.0))
    raw_sorted = [raw[i] for i in order]
    se_sorted = [raw_se[i] for i in order]
    exps, mults, gses = _group_exponents(raw_sorted, se_sorted)
    return LyapunovReport(exps, mults, gses, raw_sorted, se_sorted)


def apply_cocycle(matrices, v):
    """A_k···A_1·v for an explicit ordered factor list; exact for integral v."""
    vec = list(v)
    exact = all(isinstance(c, int) or (hasattr(c, "denominator"))
                for c in vec)
    out = np.array(vec, dtype=object if exact else float)
    for a in matrices:
        m = np.asarray(a)
        out = (m.astype(object) if exact else m.astype(float)) @ out
    return out


def top_left_direction(family: RuleFamily, x: SymbolSequence,
                       depth: int) -> np.ndarray:
    """Unit vector u aligned with the image of generic vectors under
    A_{x_depth}···A_{x_1}: the top left singular direction of the product.

    The product is rescaled every step to avoid overflow; a convergence error
    is raised when the top singular gap is below _GAP_TOL (no dominant
    direction, e.g. identity factors).
    """
    if depth < 1:
        raise StructuralError("depth must be >= 1")
    if depth > len(x):
        raise StructuralError(f"depth {depth} is longer than the sequence "
                              f"({len(x)} symbols)")
    symbols = x.positive[:depth]
    mats = _family_matrices(family, symbols)
    dim = family.n_prototiles
    prod = np.eye(dim)
    for sym in symbols:
        prod = mats[sym - 1] @ prod
        scale = np.abs(prod).max()
        if scale == 0.0:
            raise ConvergenceError("product vanished; no dominant direction")
        prod /= scale
    u, s, _ = np.linalg.svd(prod)
    if dim > 1 and (s[0] - s[1]) <= _GAP_TOL * s[0]:
        raise ConvergenceError(
            f"no singular gap after {depth} factors "
            f"(sigma1={s[0]:.3e}, sigma2={s[1]:.3e})")
    vec = u[:, 0]
    lead = next(c for c in vec if abs(c) > 1e-12)
    if lead < 0:
        vec = -vec
    return vec
