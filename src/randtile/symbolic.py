"""Symbol sequences driving the diagram: measures, sampling, recurrences.

Sequences are indexed 1..n (positive part) with an optional negative part
x_{-m}..x_{-1}; index 0 does not exist.  Randomness comes from the Philox
counter-based generator keyed by (seed, worker_id) so parallel streams are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True)
class MeasureSpec:
    """Bernoulli or Markov measure on sequences over {1..N}."""

    kind: str                      # "bernoulli" | "markov"
    probs: tuple = None            # bernoulli: per-symbol probabilities
    transition: tuple = None       # markov: row-stochastic matrix
    initial: tuple = None          # markov: initial distribution

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.probs is None:
                raise StructuralError("bernoulli measure needs probs")
            p = tuple(float(x) for x in self.probs)
            if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
                raise StructuralError("probabilities must be >=0 and sum to 1")
            object.__setattr__(self, "probs", p)
        elif self.kind == "markov":
            if self.transition is None or self.initial is None:
                raise StructuralError("markov measure needs transition+initial")
            t = tuple(tuple(float(x) for x in row) for row in self.transition)
            init = tuple(float(x) for x in self.initial)
            for row in t:
                if any(x < 0 for x in row) or abs(sum(row) - 1.0) > 1e-12:
                    raise StructuralError("transition rows must be stochastic")
            if any(x < 0 for x in init) or abs(sum(init) - 1.0) > 1e-12:
                raise StructuralError("initial distribution must be stochastic")
            object.__setattr__(self, "transition", t)
            object.__setattr__(self, "initial", init)
        else:
            raise StructuralError(f"unknown measure kind {self.kind!r}")

    @property
    def n_symbols(self) -> int:
        if self.kind == "bernoulli":
            return len(self.probs)
        return len(self.initial)

    @staticmethod
    def bernoulli(probs) -> "MeasureSpec":
        return MeasureSpec("bernoulli", probs=tuple(probs))

    @staticmethod
    def bernoulli_p(p: float) -> "MeasureSpec":
        """Two-symbol Bernoulli with P(symbol 1) = p."""
        return MeasureSpec("bernoulli", probs=(float(p), 1.0 - float(p)))

    @staticmethod
    def markov(transition, initial) -> "MeasureSpec":
        return MeasureSpec("markov", transition=tuple(map(tuple, transition)),
                           initial=tuple(initial))


@dataclass(frozen=True)
class SymbolSequence:
    """x = (x^-, x^+): symbols in {1..N}; index 0 absent."""

    positive: tuple
    negative: tuple = ()           # x_{-m}..x_{-1}, most negative first
    seed: Optional[int] = None
    measure: Optional[MeasureSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "positive", tuple(map(int, self.positive)))
        object.__setattr__(self, "negative", tuple(map(int, self.negative)))
        alpha = self.measure.n_symbols if self.measure is not None else None
        top = math.inf if alpha is None else alpha
        for part in (self.positive, self.negative):
            # min and max decide; the loop only names the first bad symbol
            if part and not 1 <= min(part) <= max(part) <= top:
                bad = next(s for s in part if not 1 <= s <= top)
                raise StructuralError(f"symbol {bad} outside alphabet")

    def __len__(self):
        return len(self.positive)

    def __getitem__(self, k: int) -> int:
        """x_k with the paper's indexing: k >= 1 positive, k <= -1 negative."""
        if k >= 1:
            return self.positive[k - 1]
        if k <= -1:
            return self.negative[k]
        raise IndexError("index 0 does not exist")

    @staticmethod
    def constant(symbol: int, length: int) -> "SymbolSequence":
        return SymbolSequence((symbol,) * length)


def rng_stream(seed: int, worker_id: int = 0) -> np.random.Generator:
    """Counter-based splittable stream keyed by (seed, worker_id)."""
    return np.random.Generator(np.random.Philox(key=(int(seed), int(worker_id))))


def _draw(measure: MeasureSpec, length: int, gen: np.random.Generator):
    if measure.kind == "bernoulli":
        p = np.asarray(measure.probs)
        return (gen.choice(len(p), size=length, p=p) + 1).tolist()
    # markov: invert each row's CDF on pre-drawn uniforms, built as
    # Generator.choice builds it, so the stream matches one choice per step
    u = gen.random(length)
    nxt = [None]                    # nxt[s][j]: symbol after s given u[j + 1]
    for row in measure.transition:
        nxt.append((_cdf(row).searchsorted(u[1:], side="right") + 1).tolist())
    sym = int(_cdf(measure.initial).searchsorted(u[0], side="right")) + 1
    out = [sym]
    for step in range(length - 1):
        sym = nxt[sym][step]
        out.append(sym)
    return out


def _cdf(probs) -> np.ndarray:
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_sequence(measure: MeasureSpec, length: int, seed: int,
                    negative_length: int = 0, worker_id: int = 0) -> SymbolSequence:
    """Sample x^+ (and optionally x^-) from the measure; deterministic in seed."""
    if length < 1:
        raise StructuralError("length must be >= 1")
    gen = rng_stream(seed, worker_id)
    pos = _draw(measure, length, gen)
    neg = _draw(measure, negative_length, gen) if negative_length else []
    return SymbolSequence(tuple(pos), tuple(neg), seed=seed, measure=measure)


def recurrence_times(x: SymbolSequence, window: int):
    """All k >= 1 with x_{k+j} = x_j for j = 1..window."""
    if window > len(x):
        raise StructuralError("window longer than sequence")
    pos = x.positive
    head = pos[:window]
    out = []
    for k in range(1, len(pos) - window + 1):
        if pos[k:k + window] == head:
            out.append(k)
    return out
