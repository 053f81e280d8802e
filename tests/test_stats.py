import itertools
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import stats
from photonlab.stats import (
    _as_bit_array,
    bit_table,
    mi_standard_error,
    permutation_independence_test,
    permutation_null_quantile,
    plugin_mi_bits,
    wilson_interval,
)
from photonlab.rng import stream_from_seed


def test_wilson_interval_reference_value():
    lo, hi = wilson_interval(500, 1000)
    assert lo == pytest.approx(0.4690696003681042, abs=1e-12)
    assert hi == pytest.approx(0.5309303996318958, abs=1e-12)


def test_wilson_interval_is_pinned_at_the_boundaries():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert lo < 1.0
    assert hi == 1.0


def test_wilson_interval_contains_the_point_estimate():
    # numpy's generator on the Philox words of stream (71, 0), as RngStream
    # wrapped it up to 0.9
    rng = np.random.Generator(np.random.Philox(key=[71, 0]))
    for _ in range(100):
        trials = int(rng.integers(1, 10_000))
        successes = int(rng.integers(0, trials + 1))
        lo, hi = wilson_interval(successes, trials)
        assert lo <= successes / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_interval_narrows_with_confidence_and_n():
    narrow = wilson_interval(500, 1000, confidence=0.5)
    wide = wilson_interval(500, 1000, confidence=0.99)
    assert wide[0] < narrow[0] < narrow[1] < wide[1]
    small = wilson_interval(50, 100)
    big = wilson_interval(5000, 10_000)
    assert big[1] - big[0] < small[1] - small[0]


# the default 95% interval takes its z as a constant, so it loads no statistics
def test_the_default_z_is_normal_dists_quantile_bit_for_bit():
    assert stats.Z_95.hex() == NormalDist().inv_cdf(0.975).hex()
    assert 0.5 + 0.95 / 2.0 == 0.975


@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
def test_wilson_interval_takes_normal_dists_z(confidence):
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n, p = 1000.0, 0.3
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    assert wilson_interval(300, 1000, confidence) == (center - half, center + half)


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, confidence=1.0)
    # a count that is not an integer is refused, not truncated, as a count
    # table's cell is (a bool is not a count)
    for successes, trials in ((5.5, 10), (5, 10.0), (5.0, 10), (True, 10), (1, True)):
        with pytest.raises(ValueError, match="integer count"):
            wilson_interval(successes, trials)
    # integer counts of any integer type give the same interval
    assert wilson_interval(np.int64(5), np.uint32(10)) == wilson_interval(5, 10)


def test_as_bit_array_accepts_bits_in_common_dtypes():
    np.testing.assert_array_equal(_as_bit_array([0, 1, 1]), [0, 1, 1])
    np.testing.assert_array_equal(_as_bit_array(np.array([True, False])), [1, 0])
    np.testing.assert_array_equal(_as_bit_array(np.array([0.0, 1.0])), [0, 1])
    assert _as_bit_array([1]).dtype == np.int64


def test_as_bit_array_rejects_everything_else():
    for bad in ([], [0, 2], [0.5, 1.0], [[0, 1]], [-1, 0]):
        with pytest.raises(ValueError):
            _as_bit_array(bad)


def test_bit_table_counts_each_cell_at_2x_plus_y():
    table = bit_table([0, 0, 1, 1, 1], np.array([False, True, False, True, True]))
    np.testing.assert_array_equal(table, [1, 1, 1, 2])
    np.testing.assert_array_equal(bit_table([1.0], [0]), [0, 0, 1, 0])


def test_bit_table_rejects_length_mismatches_and_non_bits():
    for x, y in (([0, 1], [0, 1, 1]), ([0, 2], [0, 1]), ([0, 1], [0.5, 1.0]),
                 ([0, 1], [-1, 0]), ([], []), ([[0, 1]], [[0, 1]])):
        with pytest.raises(ValueError):
            bit_table(x, y)


MALFORMED_TABLES = {
    "three cells": [1, 2, 3],
    "2x2 nested": [[1, 2], [3, 4]],
    "negative count": [5, -1, 3, 4],
    "non-integer count": [1.5, 2.0, 3.0, 4.0],
    "boolean": [True, False, True, True],
    "zero total": [0, 0, 0, 0],
}


@pytest.mark.parametrize("statistic", [plugin_mi_bits, mi_standard_error,
                                       permutation_null_quantile, permutation_independence_test])
@pytest.mark.parametrize("table", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES.keys())
def test_table_statistics_reject_a_malformed_table(statistic, table):
    with pytest.raises(ValueError, match="table"):
        statistic(table)


def test_plugin_mi_known_values():
    x = np.array([0, 1] * 500)
    assert plugin_mi_bits(bit_table(x, x)) == 1.0
    assert plugin_mi_bits(bit_table(x, 1 - x)) == 1.0
    assert plugin_mi_bits(bit_table(x, np.zeros_like(x))) == 0.0
    # frozen joint [[40, 10], [10, 40]] has I = 1 - H(0.2)
    x = np.array([0] * 50 + [1] * 50)
    y = np.array([0] * 40 + [1] * 10 + [0] * 10 + [1] * 40)
    assert plugin_mi_bits(bit_table(x, y)) == pytest.approx(0.27807190511263774, abs=1e-12)
    with pytest.raises(ValueError):
        plugin_mi_bits(bit_table([0, 1], [0, 1, 1]))


def test_plugin_mi_is_never_negative():
    rng = stream_from_seed(72, 0)
    for _ in range(50):
        x = (rng.random(200) < 0.5).astype(int)
        y = (rng.random(200) < 0.5).astype(int)
        assert plugin_mi_bits(bit_table(x, y)) >= 0.0


def test_mi_standard_error_behaviour():
    rng = stream_from_seed(73, 0)
    x = (rng.random(1000) < 0.5).astype(int)
    noisy = np.where(rng.random(1000) < 0.1, 1 - x, x)
    se = mi_standard_error(bit_table(x, noisy))
    assert se > 0.0
    # constant side: estimate is identically zero, so is its spread
    assert mi_standard_error(bit_table(x, np.zeros_like(x))) == 0.0
    x_big = np.tile(x, 4)
    noisy_big = np.tile(noisy, 4)
    assert mi_standard_error(bit_table(x_big, noisy_big)) == pytest.approx(se / 2, rel=1e-9)


def test_permutation_null_shapes_and_degenerate_cases():
    rng = stream_from_seed(74, 0)
    x = (rng.random(300) < 0.5).astype(int)
    y = (rng.random(300) < 0.5).astype(int)
    table = bit_table(x, y)
    _, mis, weights = reference_window(table)
    # the quantile is one of the null's MI values, and a looser level's is no larger
    assert permutation_null_quantile(table) in mis
    assert 0.0 <= permutation_null_quantile(table, 0.5) <= permutation_null_quantile(table)
    assert 0.0 < permutation_independence_test(table) <= 1.0
    for constant in (bit_table(x, np.ones_like(x)), bit_table(np.zeros_like(x), y)):
        assert permutation_null_quantile(constant) == 0.0
        assert permutation_independence_test(constant) == 1.0
    for level in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="level"):
            permutation_null_quantile(table, level)


def test_identical_sequences_get_the_smallest_possible_p():
    x = (stream_from_seed(75, 0).random(10_000) < 0.5).astype(int)
    p = permutation_independence_test(bit_table(x, x))
    assert p < 1 / 1001
    assert p <= 0.001


def test_constant_side_gives_p_of_one():
    x = (stream_from_seed(76, 0).random(500) < 0.5).astype(int)
    p = permutation_independence_test(bit_table(x, np.zeros_like(x)))
    assert p == 1.0


def test_independent_sequences_rarely_look_dependent():
    rejections = 0
    trials = 100
    for i in range(trials):
        gen = stream_from_seed(77, i)
        x = (gen.random(500) < 0.5).astype(int)
        y = (gen.random(500) < 0.5).astype(int)
        p = permutation_independence_test(bit_table(x, y))
        rejections += p <= 0.05
    assert rejections <= 10


def test_permutation_test_validation():
    with pytest.raises(ValueError):
        permutation_independence_test(bit_table([0, 1], [0, 1, 1]))


def bits_with_ones(n, ones):
    return np.array([1] * ones + [0] * (n - ones))


def test_exact_null_matches_every_labeling_for_small_n():
    """97.5% quantile and p-value against all C(n, b) labelings of y."""
    for n in range(1, 11):
        for a in range(n + 1):
            x = bits_with_ones(n, a)
            for b in range(n + 1):
                labelings = []
                for ones in itertools.combinations(range(n), b):
                    y = np.zeros(n, dtype=int)
                    y[list(ones)] = 1
                    labelings.append(y)
                total = len(labelings)
                mi_of = [plugin_mi_bits(bit_table(x, y)) for y in labelings]
                n11 = [int(y[:a].sum()) for y in labelings]
                ordered = sorted(mi_of)
                quantile = ordered[math.ceil(Fraction(975, 1000) * total) - 1]
                got = permutation_null_quantile(bit_table(x, labelings[0]))
                assert abs(got - quantile) <= 1e-12
                # the quantile is bitwise one of the observed tables' MI values
                assert got in mi_of
                for k in set(n11):
                    observed = mi_of[n11.index(k)]
                    at_least = sum(m > observed or math.isclose(m, observed, rel_tol=1e-9)
                                   for m in mi_of)
                    p = permutation_independence_test(bit_table(x, labelings[n11.index(k)]))
                    assert abs(p - at_least / total) <= 1e-12


def test_quantile_counts_a_cumulative_probability_of_exactly_the_level():
    # 2 ones in x and 3 in y among 16: the exact cumulative probability of the
    # tables with MI up to 0.0535 bits is 546/560 = 0.975 itself
    x = bits_with_ones(16, 2)
    y = bits_with_ones(16, 3)
    quantile = permutation_null_quantile(bit_table(x, y), 0.975)
    assert quantile == pytest.approx(0.0534985788656094, abs=1e-12)


def test_exact_quantile_agrees_with_a_seeded_shuffle_loop():
    n = 500
    gen = stream_from_seed(79, 0)
    x = (gen.random(n) < 0.5).astype(int)
    y = np.where(gen.random(n) < 0.1, 1 - x, (gen.random(n) < 0.5).astype(int))
    shuffles = 2000
    shuffler = np.random.Generator(np.random.Philox(key=[79, 1]))
    work = y.copy()
    null = np.empty(shuffles)
    for i in range(shuffles):
        shuffler.shuffle(work)
        null[i] = plugin_mi_bits(bit_table(x, work))
    table = bit_table(x, y)
    # the sampled 97.5% quantile lies between the exact quantiles 4 sigma
    # of its binomial level error away
    sigma = math.sqrt(0.975 * 0.025 / shuffles)
    lo = permutation_null_quantile(table, 0.975 - 4 * sigma)
    hi = permutation_null_quantile(table, 0.975 + 4 * sigma)
    assert lo <= np.quantile(null, 0.975) <= hi
    assert lo < permutation_null_quantile(table, 0.975) < hi
    # the sampled tail fraction at a mid-range statistic matches the exact one
    observed = permutation_null_quantile(table, 0.5)
    _, mis, weights = reference_window(table)
    exact = math.fsum(w for m, w in zip(mis, weights) if m >= observed) / math.fsum(weights)
    sampled = float((null >= observed).mean())
    assert abs(sampled - exact) <= 4 * math.sqrt(exact * (1 - exact) / shuffles)


def test_exact_quantile_approaches_the_g_test():
    """2 n ln2 MI is asymptotically chi^2 with one degree of freedom."""
    n = 1_000_000
    x = bits_with_ones(n, n // 2)
    q = permutation_null_quantile(bit_table(x, x), 0.975)
    chi2_975 = NormalDist().inv_cdf(0.9875) ** 2
    assert 2 * n * math.log(2) * q == pytest.approx(chi2_975, rel=0.02)


@st.composite
def bit_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(np.array)
    return draw(bits), draw(bits)


@settings(max_examples=200)
@given(bit_pairs(), st.data())
def test_table_of_a_concatenation_is_the_sum_of_the_tables_of_its_parts(pair, data):
    x, y = pair
    cuts = sorted(data.draw(st.lists(st.integers(0, len(x)), max_size=6)))
    edges = [0] + cuts + [len(x)]
    parts = [bit_table(x[i:j], y[i:j]) for i, j in zip(edges, edges[1:]) if j > i]
    whole = bit_table(x, y)
    np.testing.assert_array_equal(sum(parts), whole)
    assert whole.sum() == len(x)


@settings(max_examples=200)
@given(bit_pairs())
def test_exact_null_is_a_distribution_over_nonnegative_mi(pair):
    table = bit_table(*pair)
    quantile = permutation_null_quantile(table)
    p = permutation_independence_test(table)
    assert quantile >= 0.0 and 0.0 < p <= 1.0
    n, a, b = _margins(table)
    if a in (0, n) or b in (0, n):
        return
    ks, mis, weights = reference_window(table)
    assert min(mis) >= 0.0 and quantile in mis
    # the weights are the hypergeometric law relative to its mode's probability
    pmf = {k: math.comb(a, k) * math.comb(n - a, b - k) / math.comb(n, b) for k in ks}
    mode = ks[weights.index(1.0)]
    assert pmf[mode] == max(pmf.values())
    for k, w in zip(ks, weights):
        assert math.isclose(w, pmf[k] / pmf[mode], rel_tol=1e-12)


@settings(max_examples=200)
@given(bit_pairs())
def test_exact_null_ignores_which_side_is_which_and_the_labels(pair):
    x, y = pair
    p = permutation_independence_test(bit_table(x, y))
    q = permutation_null_quantile(bit_table(x, y))
    for other in ((y, x), (x, 1 - y)):
        assert abs(permutation_independence_test(bit_table(*other)) - p) <= 1e-12
        assert abs(permutation_null_quantile(bit_table(*other)) - q) <= 1e-12


@settings(max_examples=100)
@given(bit_pairs(), st.integers(0, 1))
def test_exact_null_of_a_constant_side_is_a_point_at_zero(pair, value):
    x, _ = pair
    constant = np.full_like(x, value)
    for sides in ((x, constant), (constant, x)):
        assert permutation_independence_test(bit_table(*sides)) == 1.0
        assert permutation_null_quantile(bit_table(*sides)) == 0.0


# --- the null walk against a full-support reference and against 0.12.0 --------------


def _margins(table):
    n00, n01, n10, n11 = (int(c) for c in table)
    return n00 + n01 + n10 + n11, n10 + n11, n01 + n11


def reference_weights(table) -> dict:
    """Every table's weight w(k) relative to the mode's, over the whole
    support, from the ratio recurrence as stats defines it, one k at a time;
    a weight below stats._FLOOR ends its side, and the tables past it are
    left out."""
    n, a, b = _margins(table)
    c = n - a - b
    lo, hi = max(0, a + b - n), min(a, b)
    mode = (a + 1) * (b + 1) // (n + 2)

    def ratio(k):
        return (float(a - k) * float(b - k)) / ((k + 1.0) * (c + k + 1.0))

    w = {mode: 1.0}
    for k in range(mode, hi):
        if w[k] < stats._FLOOR:
            break
        w[k + 1] = w[k] * ratio(k)
    for k in range(mode, lo, -1):
        if w[k] < stats._FLOOR:
            break
        w[k - 1] = w[k] / ratio(k - 1)
    return {k: v for k, v in w.items() if v >= stats._FLOOR}


def reference_mi(table, k):
    n, a, b = _margins(table)
    return stats._mi_bits(n - a - b + k, b - k, a - k, k)


def reference_window(table):
    """(k, MI, weight) of the null's window, ascending in k: the run of tables
    around the mode whose weights are at least stats._CUTOFF."""
    w = reference_weights(table)
    mode = next(k for k, v in w.items() if v == 1.0)
    ks = [mode]
    while ks[-1] + 1 in w and w[ks[-1] + 1] >= stats._CUTOFF:
        ks.append(ks[-1] + 1)
    while ks[0] - 1 in w and w[ks[0] - 1] >= stats._CUTOFF:
        ks.insert(0, ks[0] - 1)
    return ks, [reference_mi(table, k) for k in ks], [w[k] for k in ks]


def reference_quantile(table, level=0.975):
    """The smallest window MI v with P(MI <= v) >= level - 1e-9, found by
    trying every window MI in ascending order; P(MI <= v) is the k-ordered
    prefix sum of the window's weights over the run of tables with MI <= v,
    which must be a run of k (MI is convex in k)."""
    n, a, b = _margins(table)
    if a in (0, n) or b in (0, n):
        return 0.0
    ks, mis, weights = reference_window(table)
    prefix = list(accumulate(weights, initial=0.0))
    for v in sorted(set(mis)):
        below = [i for i, m in enumerate(mis) if m <= v]
        assert below == list(range(below[0], below[-1] + 1))
        if (prefix[below[-1] + 1] - prefix[below[0]]) / prefix[-1] >= level - 1e-9:
            return v
    raise AssertionError("no quantile")


def reference_p_value(table):
    """P(MI >= observed (1 - 1e-7)) with each tail summed from the table
    nearest the split floor(ab/n) outward while its weight is at least
    stats._CUTOFF of that table's, over the window's prefix total."""
    n, a, b = _margins(table)
    if a in (0, n) or b in (0, n):
        return 1.0
    w = reference_weights(table)
    threshold = reference_mi(table, int(table[3])) * (1.0 - 1e-7)
    split = a * b // n
    lo, hi = max(0, a + b - n), min(a, b)
    terms = []
    for side in (range(split, lo - 1, -1), range(split + 1, hi + 1)):
        tail = [k for k in side if reference_mi(table, k) >= threshold]
        if not tail or tail[0] not in w:
            continue
        first = w[tail[0]]
        for k in range(tail[0], side[-1] + side.step, side.step):
            if k not in w or w[k] < stats._CUTOFF * first:
                break
            assert reference_mi(table, k) >= threshold
            terms.append(w[k])
    _, _, weights = reference_window(table)
    return min(1.0, math.fsum(terms) / list(accumulate(weights))[-1])


def null_0_12_0(table):
    """Frozen copy of photonlab 0.12.0's numpy null: the MI values ascending
    and their probabilities within reach of the mean, and the observed MI."""
    def mi_bits(n00, n01, n10, n11, n):
        cells = [np.asarray(c) / n for c in (n00, n01, n10, n11)]
        px = (cells[0] + cells[1], cells[2] + cells[3])
        py = (cells[0] + cells[2], cells[1] + cells[3])
        mi = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for p, (i, j) in zip(cells, ((0, 0), (0, 1), (1, 0), (1, 1))):
                mi = mi + p * np.where(p > 0.0, np.log2(p / (px[i] * py[j])), 0.0)
        return np.maximum(mi, 0.0)

    n, a, b = _margins(table)
    observed = float(mi_bits(*(int(c) for c in table), n))
    if a in (0, n) or b in (0, n):
        return np.zeros(1), np.ones(1), observed
    s = min(a, b, n - a, n - b)
    reach = math.ceil(math.sqrt(s * (745.2 + math.log(s + 1)) / 2)) + 1
    mean = a * b // n
    k = np.arange(max(0, a + b - n, mean - reach), min(a, b, mean + 1 + reach) + 1)
    head = k[:-1]
    step = np.log((a - head) * (b - head) / ((head + 1.0) * (n - a - b + head + 1.0)))
    mode = int(np.count_nonzero(step > 0.0))
    log_pmf = np.zeros(k.shape[0])
    log_pmf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    log_pmf[mode + 1 :] = np.cumsum(step[mode:])
    pmf = np.exp(log_pmf)
    kept = pmf > 0.0
    k, pmf = k[kept], pmf[kept] / pmf.sum()
    mis = mi_bits(n - a - b + k, b - k, a - k, k, n)
    order = np.argsort(mis, kind="stable")
    return mis[order], pmf[order], observed


def quantile_0_12_0(table, level=0.975):
    mis, pmf, _ = null_0_12_0(table)
    return float(mis[np.searchsorted(np.cumsum(pmf), level - 1e-9)])


def p_value_0_12_0(table):
    mis, pmf, observed = null_0_12_0(table)
    return min(1.0, float(pmf[mis >= observed * (1.0 - 1e-7)].sum()))


@st.composite
def count_tables(draw, most=10**6):
    """2x2 tables with n up to most, margins anywhere from 0 to n, often at an end."""
    n = draw(st.integers(1, most) | st.sampled_from([1, 2, 3, most]))

    def margin():
        return draw(st.integers(0, n) | st.integers(0, min(n, 5)) | st.integers(max(0, n - 5), n)
                    | st.just(n // 2))

    a, b = margin(), margin()
    lo, hi = max(0, a + b - n), min(a, b)
    k = draw(st.integers(lo, hi) | st.sampled_from([lo, hi, a * b // n]))
    return np.array([n - a - b + k, b - k, a - k, k])


def mirrored(table):
    """The table of (x, 1 - y) and the table of (y, x)."""
    n00, n01, n10, n11 = table
    return np.array([n01, n00, n11, n10]), np.array([n00, n10, n01, n11])


@settings(max_examples=150, deadline=None)
@given(count_tables(most=1500))
def test_windowed_null_matches_the_full_support_null(table):
    # tiny supports and one-sided tables come from margins at an end of [0, n]
    for t in (table, *mirrored(table)):
        assert permutation_null_quantile(t) == reference_quantile(t)
        assert permutation_null_quantile(t, 0.5) == reference_quantile(t, 0.5)
        assert permutation_independence_test(t) == reference_p_value(t)


def _agrees_with_0_12_0(table):
    quantile, want = permutation_null_quantile(table), quantile_0_12_0(table)
    assert math.isclose(quantile, want, rel_tol=1e-12, abs_tol=0.0), (quantile, want)
    # 0.12.0 rounded a probability below about 1e-290 of the total to a
    # subnormal or to 0; the walk stops at stats._FLOOR of the mode's weight
    p, want = permutation_independence_test(table), p_value_0_12_0(table)
    assert math.isclose(p, want, rel_tol=1e-12, abs_tol=1e-280), (p, want)


@settings(max_examples=150, deadline=None)
@given(count_tables())
def test_null_walk_is_within_1e_12_of_0_12_0(table):
    for t in (table, *mirrored(table)):
        _agrees_with_0_12_0(t)


@pytest.mark.parametrize("table", [[2**31, 0, 0, 2**31], [2**31 - 7, 0, 0, 2**31 + 7],
                                   [2**30, 2**30 + 5, 2**30 - 5, 2**30]])
def test_null_walk_agrees_with_0_12_0_at_2_32_bits(table):
    _agrees_with_0_12_0(np.array(table))


def test_null_of_a_large_balanced_table_stays_small():
    for table in ([2**22] * 4, [2**31, 0, 0, 2**31]):
        tracemalloc.start()
        try:
            permutation_null_quantile(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 3e5 window weights and their prefix sums at 2^32 bits
        assert peak < 16 * 2**20
