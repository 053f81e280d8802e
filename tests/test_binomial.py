"""The package's binomial sampler against the binomial law, its counter
layout, and the snapping that keeps certain counts exact.

The law is the binomial pmf from math.lgamma. Counts drawn on many
independent streams are binned, and their chi-square statistic must stay
below its critical value at ALPHA (Wilson-Hilferty), so a correct sampler
fails a seeded case about once in a million.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import draw, rng
from photonlab.core import PROB_SNAP, sample_count_array, sample_counts
from photonlab.entangle import correlation
from photonlab.optics import cascade_mc
from photonlab.rng import INVERSION_MEAN, binomial_array, stream_from_seed, stream_keys

ALPHA = 1e-6
MAX_TRIALS = 2**32


def log_pmf(n, p, k):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def law_bins(n, p, draws, most=40):
    """Upper edges (inclusive) and probabilities of bins of consecutive counts
    of Binomial(n, p), each expected to hold at least 5 of draws counts; the
    first and the last bin take the tails."""
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(mean - 12 * sd - 12)), min(n, math.ceil(mean + 12 * sd + 12))
    k = np.arange(lo, hi + 1, dtype=np.float64)
    # log f(k) - log f(k - 1) = log((n - k + 1) / k) + log(p / (1 - p))
    steps = np.log((n - k[1:] + 1.0) / k[1:]) + (math.log(p) - math.log1p(-p))
    cdf = np.cumsum(np.exp(log_pmf(n, p, lo) + np.concatenate([[0.0], np.cumsum(steps)])))
    cuts, below, least = [], 0.0, 5.0 / draws
    for i in np.unique(np.searchsorted(cdf, np.arange(1, most) / most)):
        if i < k.size - 1 and cdf[i] - below >= least and 1.0 - cdf[i] >= least:
            cuts.append(i)
            below = cdf[i]
    return k[cuts], np.diff(np.concatenate([[0.0], cdf[cuts], [1.0]]))


def chi_square_critical(df):
    z = NormalDist().inv_cdf(1.0 - ALPHA)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def assert_binomial_law(counts, n, p):
    assert ((counts >= 0) & (counts <= n)).all()
    uppers, probs = law_bins(n, p, counts.size)
    observed = np.bincount(np.searchsorted(uppers, counts), minlength=probs.size)
    expected = probs * counts.size
    stat = float(((observed - expected) ** 2 / expected).sum())
    if probs.size > 1:
        assert stat < chi_square_critical(probs.size - 1), (n, p, stat, probs.size - 1)


def draw_many(n, p, points, seed=2024, draw=0):
    """One count on each of points streams (seed, 0..points - 1)."""
    return binomial_array(np.full(points, n), np.full(points, p), stream_keys(seed, range(points)),
                          np.full(points, draw, dtype=np.uint64))


@st.composite
def laws(draw):
    """(n, p) with p at the snap edges, at 1/2, either side of the switch
    from inversion to BTRD, or anywhere in between."""
    n = draw(st.one_of(st.integers(1, MAX_TRIALS), st.sampled_from([1, 2, 20, 1000, MAX_TRIALS])))
    where = draw(st.sampled_from(["low", "high", "half", "switch", "any"]))
    if where == "low":
        return n, draw(st.floats(PROB_SNAP, 1e-13, exclude_min=True))
    if where == "high":
        return n, 1.0 - draw(st.floats(PROB_SNAP, 1e-13, exclude_min=True))
    if where == "half":
        return n, 0.5
    if where == "switch":
        n = max(n, 40)
        q = INVERSION_MEAN / n * (1.0 + draw(st.floats(-0.05, 0.05)))
        return n, (1.0 - q if draw(st.booleans()) else q)
    return n, draw(st.floats(1e-12, 1.0 - 1e-12))


@settings(max_examples=60)
@given(laws())
@example((MAX_TRIALS, 0.5))
@example((MAX_TRIALS, 2e-15))
@example((1000, 0.01))
@example((1000, 0.0099999))
@example((2, 0.5))
def test_counts_follow_the_binomial_pmf(law):
    n, p = law
    assert_binomial_law(draw_many(n, p, 20_000), n, p)


@pytest.mark.parametrize("n, p", [
    (1000, 0.3),
    (25, 0.4),  # mean 10: the first BTRD mean
    (40, 0.24),  # mean 9.6: inversion
    (MAX_TRIALS, 0.5),
    (MAX_TRIALS, 0.999999),
])
def test_counts_follow_the_binomial_pmf_at_high_power(n, p):
    # a second draw index gives 2 * 10^5 counts on 10^5 streams
    counts = np.concatenate([draw_many(n, p, 100_000, seed=77, draw=d) for d in (0, 1)])
    assert_binomial_law(counts, n, p)


def test_the_stirling_table_is_log_factorial_minus_stirling():
    for k in range(10):
        want = math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1) - 0.5 * math.log(2 * math.pi)
        # want cancels terms near 10, so it carries a few ulps of them
        assert abs(rng._STIRLING_TAIL[k] - want) < 1e-14
    # the series takes over at 10, within its first omitted term
    for k in (10.0, 16.0, 40.0):
        want = math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1) - 0.5 * math.log(2 * math.pi)
        assert abs(float(rng._stirling_tail(np.array([k]))[0]) - want) < 1e-10


# --- the counter layout -----------------------------------------------------------------


def _recording(monkeypatch) -> list:
    """Patch rng.philox and draw.philox_block, the one-count kernel, to
    record the counters of every call, each as a (4, P) array."""
    counters = []
    kernel, block = rng.philox, draw.philox_block

    def recording_philox(key, counter):
        counters.append(np.asarray(counter).copy())
        return kernel(key, counter)

    def recording_block(key, counter):
        counters.append(np.array(counter, dtype=np.uint64)[:, None])
        return block(key, counter)

    monkeypatch.setattr(rng, "philox", recording_philox)
    monkeypatch.setattr(draw, "philox_block", recording_block)
    return counters


def test_binomial_draw_d_reads_counter_r_d_0_1(monkeypatch):
    stream = stream_from_seed(5, 9)
    uniforms = stream_from_seed(5, 9).random(6)
    counters = _recording(monkeypatch)
    first, second = stream.binomial(1000, 0.3), stream.binomial(50, 0.02)
    assert stream.draws == 2
    # round 0 of draws 0 and 1, and the rounds of any rejection after them
    rounds = [c[:, 0].tolist() for c in counters]
    assert [r for r in rounds if r[0] == 0] == [[0, 0, 0, 1], [0, 1, 0, 1]]
    assert all(r[2:] == [0, 1] and r[1] in (0, 1) for r in rounds)
    # the same draws as binomial_array's, and the uniform words untouched
    key = stream_keys(5, [9])
    assert first == binomial_array([1000], [0.3], key, [0])[0]
    assert second == binomial_array([50], [0.02], key, [1])[0]
    assert stream.random(6).tolist() == uniforms.tolist()


def test_sample_counts_numbers_its_draws_on_from_the_stream():
    stream = stream_from_seed(8, 2)
    assert stream.binomial(100, 0.5) == stream_from_seed(8, 2).binomial(100, 0.5)
    counts = sample_counts([0.2, 0.3, 0.5], 10_000, stream)
    # outcome 0 is draw 1 of the stream, outcome 1 draw 2
    key = stream_keys(8, [2])
    first = binomial_array([10_000], [0.2], key, [1])[0]
    second = binomial_array([10_000 - first], [0.3 / 0.8], key, [2])[0]
    assert counts.tolist() == [first, second, 10_000 - first - second]
    assert stream.draws == 3


def test_a_certain_outcome_consumes_no_word(monkeypatch):
    counters = _recording(monkeypatch)
    stream = stream_from_seed(1, 0)
    assert sample_counts([1.0, 0.0], MAX_TRIALS, stream).tolist() == [MAX_TRIALS, 0]
    assert sample_counts([1e-16, 1.0 - 1e-16, 0.0], 77, stream).tolist() == [0, 77, 0]
    assert sample_counts([0.5, 0.5], 0, stream).tolist() == [0, 0]
    assert (stream.binomial(10, 1.0), stream.binomial(10, 0.0), stream.binomial(0, 0.3)) == (10, 0, 0)
    assert sample_count_array([[0.0, 1.0]] * 3, 9, 1, range(3)).tolist() == [[0, 9]] * 3
    assert counters == [] and stream.draws == 0


def test_binomial_checks_its_arguments():
    stream = stream_from_seed(1, 0)
    for n, p in ((-1, 0.5), (2**62 + 1, 0.5), (5, -0.1), (5, 1.5), (5, math.nan)):
        with pytest.raises(ValueError):
            stream.binomial(n, p)
    assert stream.draws == 0


# --- a point's counts are its own ---------------------------------------------------------

rows = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, MAX_TRIALS),
              st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-16, 0.5])),
                       min_size=3, max_size=3).filter(lambda p: max(p) > PROB_SNAP)),
    min_size=1, max_size=10, unique_by=lambda row: row[0])


@settings(max_examples=60)
@given(rows, rows, st.randoms(use_true_random=False), st.integers(0, 2**64 - 1))
def test_a_points_counts_do_not_depend_on_the_other_points(points, others, shuffle, seed):
    def counts_by_index(batch):
        index, n, probs = zip(*batch)
        got = sample_count_array(np.array(probs), np.array(n), seed, np.array(index, dtype=np.uint64))
        return {i: row.tolist() for i, row in zip(index, got)}

    alone = counts_by_index(points)
    taken = {i for i, _, _ in points}
    mixed = points + [row for row in others if row[0] not in taken]
    shuffle.shuffle(mixed)
    together = counts_by_index(mixed)
    assert {i: together[i] for i in alone} == alone
    for index, n, probs in points:
        assert alone[index] == sample_counts(probs, n, stream_from_seed(seed, index)).tolist()


# --- exact counts at the count cap -------------------------------------------------------


@settings(max_examples=30)
@given(st.floats(-50.0, 50.0), st.integers(0, 2**64 - 1))
@example(0.0, 0)
@example(math.pi / 2, 2**64 - 1)
def test_equal_bases_correlate_at_exactly_minus_one_at_the_cap(theta, seed):
    assert correlation(theta, theta, MAX_TRIALS, seed=seed).e_value == -1.0


@pytest.mark.parametrize("source", ["natural", "linear"])
def test_crossed_polarizers_pass_none_of_the_cap(source):
    result = cascade_mc(MAX_TRIALS, [0.0, math.pi / 2], source=source, source_angle=0.0, seed=3)
    assert result.per_stage_counts[1] == 0
    if source == "linear":
        assert result.per_stage_counts == (MAX_TRIALS, 0)


# --- the scalar draw ---------------------------------------------------------------------


def array_count(n, p, seed, index, d):
    return int(binomial_array([n], [p], stream_keys(seed, [index]), [d])[0])


@st.composite
def scalar_draws(pick):
    """(n, p, seed, index, d): n up to MAX_BINOMIAL_TRIALS, and p at the
    snap edges, at 1/2, on both sides of the inversion/BTRD switch, or anywhere."""
    n = pick(st.integers(1, 40) | st.integers(1, 2**32) | st.integers(1, rng.MAX_BINOMIAL_TRIALS))
    switch = INVERSION_MEAN / n
    edges = [1.5 * PROB_SNAP, 1.0 - 1.5 * PROB_SNAP, 0.5, switch, 1.0 - switch,
             math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)]
    p = pick(st.sampled_from([q for q in edges if 0.0 < q < 1.0])
             | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    u64 = st.integers(0, 2**64 - 1)
    return n, p, pick(u64), pick(u64 | st.integers(0, 9)), pick(u64 | st.integers(0, 9))


@settings(max_examples=500, deadline=None)
@given(scalar_draws())
@example((2**62, 0.5, 0, 0, 0))
@example((MAX_TRIALS, 1.5 * PROB_SNAP, 2**64 - 1, 2**64 - 1, 2**64 - 1))
def test_the_scalar_draw_is_binomial_arrays_count(case):
    n, p, seed, index, d = case
    assert draw.binomial(n, p, (seed, index), d) == array_count(n, p, seed, index, d)


def test_the_scalar_draw_inverts_every_count_below_20_at_one_half():
    # n p < INVERSION_MEAN: the protocol's smallest iid runs
    for n in range(1, 20):
        for seed in range(40):
            assert draw.binomial(n, 0.5, (seed, 0), 0) == array_count(n, 0.5, seed, 0, 0)


@settings(max_examples=100, deadline=None)
@given(scalar_draws())
@example((5, 0.5, 1, 0, 0))
def test_a_draw_that_defers_everywhere_gives_the_same_count(case):
    n, p, seed, index, d = case
    deferred = []
    kernel = rng.binomial_array

    def recording(*args):
        deferred.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(draw, "_DEFER_MARGIN", math.inf)
        patch.setattr(rng, "binomial_array", recording)
        count = draw.binomial(n, p, (seed, index), d)
    assert count == array_count(n, p, seed, index, d)
    # every inversion compares u with the pmf at least once, so it defers
    if n * min(p, 1.0 - p) < INVERSION_MEAN:
        assert len(deferred) == 1


@settings(max_examples=300)
@given(st.tuples(*[st.integers(0, 2**64 - 1)] * 2), st.tuples(*[st.integers(0, 2**64 - 1)] * 4))
@example((0, 0), (0, 0, 0, 0))
@example((2**64 - 1,) * 2, (2**64 - 1,) * 4)
def test_the_scalar_philox_is_rng_philox(key, counter):
    column = rng.philox(np.array(key, dtype=np.uint64)[:, None],
                        np.array(counter, dtype=np.uint64)[:, None])[:, 0]
    assert draw.philox_block(key, counter) == tuple(int(word) for word in column)


def test_the_scalar_draw_checks_its_arguments():
    assert draw.stream_key(2**64 - 1, 0) == (2**64 - 1, 0)
    for seed, index in ((-1, 0), (0, 2**64)):
        with pytest.raises(ValueError):
            draw.stream_key(seed, index)
    for n, p in ((0, 0.5), (2**62 + 1, 0.5), (5, 0.0), (5, 1.0), (5, math.nan)):
        with pytest.raises(ValueError):
            draw.binomial(n, p, (1, 0), 0)
