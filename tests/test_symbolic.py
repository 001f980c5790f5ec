import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtile.errors import StructuralError
from randtile.symbolic import (MeasureSpec, SymbolSequence, recurrence_times,
                               rng_stream, sample_sequence)


def test_measure_validation():
    with pytest.raises(StructuralError):
        MeasureSpec.bernoulli((0.5, 0.6))
    with pytest.raises(StructuralError):
        MeasureSpec.bernoulli((-0.1, 1.1))
    with pytest.raises(StructuralError):
        MeasureSpec.markov([[0.5, 0.4]], [1.0])
    with pytest.raises(StructuralError):
        MeasureSpec("gibbs")
    m = MeasureSpec.bernoulli_p(0.3)
    assert m.n_symbols == 2
    assert m.probs == pytest.approx((0.3, 0.7))


def test_sequence_indexing():
    x = SymbolSequence((1, 2, 1), negative=(2, 1))
    assert x[1] == 1 and x[2] == 2 and x[3] == 1
    assert x[-1] == 1 and x[-2] == 2
    with pytest.raises(IndexError):
        x[0]
    assert len(x) == 3


def test_levels_past_either_end_name_the_level():
    """Each was a bare IndexError; x[0] still is one."""
    x = SymbolSequence((1, 2, 1), negative=(2, 1))
    for k in (4, -3):
        with pytest.raises(StructuralError, match=f"level {k} is past the "
                           r"sequence \(3 positive and 2 negative symbols\)"):
            x[k]
    with pytest.raises(StructuralError, match="level -1 is past"):
        SymbolSequence((1, 2))[-1]
    with pytest.raises(IndexError, match="index 0 does not exist"):
        x[0]


@pytest.mark.parametrize("build", [
    lambda: MeasureSpec.bernoulli_p(math.nan),
    lambda: MeasureSpec.bernoulli((math.inf, 0.5)),
    lambda: MeasureSpec.markov([[math.nan, math.nan], [0.5, 0.5]],
                               [0.5, 0.5]),
    lambda: MeasureSpec.markov([[0.5, 0.5], [0.5, 0.5]], [math.nan, 1.0]),
    lambda: MeasureSpec.markov([[math.inf, 0.5], [0.5, 0.5]], [0.5, 0.5]),
], ids=["bernoulli-nan", "bernoulli-inf", "transition-nan", "initial-nan",
        "transition-inf"])
def test_measure_refuses_non_finite_entries(build):
    """`x < 0` and `abs(sum - 1) > 1e-12` are both false for NaN: a NaN
    Bernoulli measure failed later in numpy's sampler, and a NaN transition
    row sampled a sequence of 1s with no error."""
    with pytest.raises(StructuralError, match="must be finite"):
        build()


def test_sequence_alphabet_check():
    with pytest.raises(StructuralError):
        SymbolSequence((0, 1))
    with pytest.raises(StructuralError):
        SymbolSequence((3,), measure=MeasureSpec.bernoulli_p(0.5))


@pytest.mark.parametrize("positive, negative, bad", [
    ((1, 2, 0, 5), (), 0),
    ((1, 2, 2), (1, 3, -1, 4), -1),
    ((2, 1), (2, 0), 0),
    ((1, 4, 3), (0,), 4),
])
def test_sequence_alphabet_check_names_the_first_bad_symbol(positive,
                                                            negative, bad):
    """The symbol named is the first bad one of the positive part, then of
    the negative part, whichever bound it breaks."""
    with pytest.raises(StructuralError,
                       match=rf"^symbol {bad} outside alphabet$"):
        SymbolSequence(positive, negative,
                       measure=MeasureSpec.bernoulli((0.5, 0.25, 0.25)))


def test_sequence_coerces_symbols_to_int():
    """numpy ints, 2.0 and True become exact ints; a tuple of exact ints is
    kept as it is."""
    x = SymbolSequence(np.array([1, 2, 2]), [2.0, True])
    assert x.positive == (1, 2, 2) and x.negative == (2, 1)
    assert {type(s) for s in x.positive + x.negative} == {int}
    part = (1, 2, 1)
    assert SymbolSequence(part).positive is part
    with pytest.raises(StructuralError, match=r"^symbol 3 outside alphabet$"):
        SymbolSequence(np.array([1, 3, 0, 3]), (np.int64(1),),
                       measure=MeasureSpec.bernoulli_p(0.5))
    with pytest.raises(StructuralError, match=r"^symbol 0 outside alphabet$"):
        SymbolSequence((1, 2), (2.0, False))


def test_sampling_determinism():
    m = MeasureSpec.bernoulli_p(0.5)
    a = sample_sequence(m, 200, seed=7)
    b = sample_sequence(m, 200, seed=7)
    c = sample_sequence(m, 200, seed=8)
    assert a.positive == b.positive
    assert a.positive != c.positive
    assert sample_sequence(m, 100, 7, worker_id=1).positive != a.positive[:100]


def test_degenerate_bernoulli_endpoints():
    assert set(sample_sequence(MeasureSpec.bernoulli_p(1.0), 500, 0).positive) == {1}
    assert set(sample_sequence(MeasureSpec.bernoulli_p(0.0), 500, 0).positive) == {2}


def test_markov_sampling_respects_support():
    # transition forbids staying in state 1
    m = MeasureSpec.markov([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
    x = sample_sequence(m, 50, 3)
    assert x.positive == tuple(1 if k % 2 == 0 else 2 for k in range(50))


def test_negative_part():
    m = MeasureSpec.bernoulli_p(0.5)
    x = sample_sequence(m, 10, 5, negative_length=4)
    assert len(x.negative) == 4
    assert all(1 <= s <= 2 for s in x.negative)


def test_recurrence_times_constant():
    x = SymbolSequence.constant(1, 10)
    assert recurrence_times(x, 3) == list(range(1, 8))


def test_recurrence_times_pattern():
    x = SymbolSequence((1, 2, 1, 2, 1, 2, 2, 1, 2, 1))
    # head (1, 2) recurs at shifts 2, 4, 7
    assert recurrence_times(x, 2) == [2, 4, 7]
    with pytest.raises(StructuralError):
        recurrence_times(x, 11)


def _loop_recurrence_times(x, window):
    """The previous rule, one tuple slice per shift, as the oracle."""
    pos = x.positive
    head = pos[:window]
    out = []
    for k in range(1, len(pos) - window + 1):
        if pos[k:k + window] == head:
            out.append(k)
    return out


@pytest.mark.parametrize("measure", [
    MeasureSpec.bernoulli_p(0.5), MeasureSpec.bernoulli((0.7, 0.2, 0.1)),
    MeasureSpec.markov([[0.9, 0.1], [0.3, 0.7]], [0.5, 0.5]),
])
def test_recurrence_times_match_the_slice_loop(measure):
    """Every window from 0 (every shift recurs) to len(x) (none does)."""
    for seed, length in ((0, 1), (1, 2), (2, 57), (3, 120)):
        x = sample_sequence(measure, length, seed)
        for window in range(len(x) + 1):
            assert (recurrence_times(x, window)
                    == _loop_recurrence_times(x, window)), (seed, window)
    for big in (2 ** 64 - 1, 2 ** 70):   # big and big - 1: one float
        huge = SymbolSequence((1, big, 1, big - 1, 1, big, 1, big))
        for window in range(len(huge) + 1):
            assert (recurrence_times(huge, window)
                    == _loop_recurrence_times(huge, window))
    empty = SymbolSequence(())
    assert recurrence_times(empty, 0) == _loop_recurrence_times(empty, 0) == []
    assert recurrence_times(x, 0) == list(range(1, len(x) + 1))
    with pytest.raises(StructuralError, match="negative"):
        recurrence_times(x, -1)


def test_rng_stream_splitting():
    a = rng_stream(1, 0).integers(0, 1000, size=8)
    b = rng_stream(1, 0).integers(0, 1000, size=8)
    c = rng_stream(1, 1).integers(0, 1000, size=8)
    assert (a == b).all()
    assert (a != c).any()


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_sampled_symbols_in_alphabet(p, seed):
    x = sample_sequence(MeasureSpec.bernoulli_p(p), 64, seed)
    assert all(s in (1, 2) for s in x.positive)


def _reference_markov(measure, length, gen):
    """The per-step sampler CDF inversion replaced: one `gen.choice` per
    symbol, the initial distribution first."""
    t = np.asarray(measure.transition)
    out = [int(gen.choice(len(measure.initial),
                          p=np.asarray(measure.initial))) + 1]
    for _ in range(length - 1):
        out.append(int(gen.choice(t.shape[1], p=t[out[-1] - 1])) + 1)
    return out


@pytest.mark.parametrize("measure", [
    MeasureSpec.markov([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5]),
    MeasureSpec.markov([[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3],
                        [0.0, 0.45, 0.55]], [0.2, 0.3, 0.5]),
    MeasureSpec.markov([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0]),
    MeasureSpec.markov([[0.9, 0.1, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]],
                       [0.0, 0.0, 1.0]),
])
def test_markov_sampler_matches_per_step_choice(measure):
    for seed in range(5):
        for worker_id in (0, 11):
            gen = rng_stream(seed, worker_id)
            pos = _reference_markov(measure, 2003, gen)
            neg = _reference_markov(measure, 17, gen)
            x = sample_sequence(measure, 2003, seed, negative_length=17,
                                worker_id=worker_id)
            assert list(x.positive) == pos
            assert list(x.negative) == neg
    assert sample_sequence(measure, 1, 3).positive == tuple(
        _reference_markov(measure, 1, rng_stream(3)))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_bernoulli_draw_is_prefix_stable(p):
    """The first n symbols do not depend on the length drawn, so a longer
    sequence on the same seed extends a shorter one."""
    m = MeasureSpec.bernoulli_p(p)
    for seed in range(4):
        long = sample_sequence(m, 20000, seed).positive
        for n in (1, 64, 777):
            assert sample_sequence(m, n, seed).positive == long[:n]
