import itertools
import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.stats import (
    _mi_bits,
    as_bit_array,
    bit_table,
    mi_standard_error,
    null_quantile,
    permutation_independence_test,
    permutation_null_mis,
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
    rng = stream_from_seed(71, 0)
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


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, confidence=1.0)


def test_as_bit_array_accepts_bits_in_common_dtypes():
    np.testing.assert_array_equal(as_bit_array([0, 1, 1]), [0, 1, 1])
    np.testing.assert_array_equal(as_bit_array(np.array([True, False])), [1, 0])
    np.testing.assert_array_equal(as_bit_array(np.array([0.0, 1.0])), [0, 1])
    assert as_bit_array([1]).dtype == np.int64


def test_as_bit_array_rejects_everything_else():
    for bad in ([], [0, 2], [0.5, 1.0], [[0, 1]], [-1, 0]):
        with pytest.raises(ValueError):
            as_bit_array(bad)


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
                                       permutation_null_mis, permutation_independence_test])
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
    mis, pmf = permutation_null_mis(bit_table(x, y))
    assert mis.shape == pmf.shape
    assert (mis >= 0.0).all()
    assert (np.diff(mis) >= 0.0).all()
    mis, pmf = permutation_null_mis(bit_table(x, np.ones_like(x)))
    np.testing.assert_array_equal(mis, [0.0])
    np.testing.assert_array_equal(pmf, [1.0])


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
    """pmf, 97.5% quantile and p-value against all C(n, b) labelings of y."""
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
                by_k = {k: (mi_of[n11.index(k)], n11.count(k) / total) for k in set(n11)}
                mis, pmf = permutation_null_mis(bit_table(x, labelings[0]))
                if 0 in (a, b) or n in (a, b):
                    assert list(mis) == [0.0] and list(pmf) == [1.0]
                else:
                    # ascending MI, equal values in ascending k
                    reference = [by_k[k] for k in sorted(by_k, key=lambda k: (by_k[k][0], k))]
                    # observed tables' MI values are bitwise the null's
                    assert list(mis) == [m for m, _ in reference]
                    np.testing.assert_allclose(pmf, [p for _, p in reference], rtol=0, atol=1e-12)
                ordered = sorted(mi_of)
                quantile = ordered[math.ceil(Fraction(975, 1000) * total) - 1]
                assert abs(null_quantile(mis, pmf, 0.975) - quantile) <= 1e-12
                for k, (observed, _) in by_k.items():
                    at_least = sum(m > observed or math.isclose(m, observed, rel_tol=1e-9)
                                   for m in mi_of)
                    p = permutation_independence_test(bit_table(x, labelings[n11.index(k)]))
                    assert abs(p - at_least / total) <= 1e-12


def test_quantile_counts_a_cumulative_probability_of_exactly_the_level():
    # 2 ones in x and 3 in y among 16: the exact cumulative probability of the
    # tables with MI up to 0.0535 bits is 546/560 = 0.975 itself
    x = bits_with_ones(16, 2)
    y = bits_with_ones(16, 3)
    mis, pmf = permutation_null_mis(bit_table(x, y))
    quantile = null_quantile(mis, pmf, 0.975)
    assert quantile == pytest.approx(0.0534985788656094, abs=1e-12)


def test_exact_quantile_agrees_with_a_seeded_shuffle_loop():
    n = 500
    gen = stream_from_seed(79, 0)
    x = (gen.random(n) < 0.5).astype(int)
    y = np.where(gen.random(n) < 0.1, 1 - x, (gen.random(n) < 0.5).astype(int))
    shuffles = 2000
    shuffler = stream_from_seed(79, 1)
    work = y.copy()
    null = np.empty(shuffles)
    for i in range(shuffles):
        shuffler.shuffle(work)
        null[i] = plugin_mi_bits(bit_table(x, work))
    mis, pmf = permutation_null_mis(bit_table(x, y))
    # the sampled 97.5% quantile lies between the exact quantiles 4 sigma
    # of its binomial level error away
    sigma = math.sqrt(0.975 * 0.025 / shuffles)
    lo = null_quantile(mis, pmf, 0.975 - 4 * sigma)
    hi = null_quantile(mis, pmf, 0.975 + 4 * sigma)
    assert lo <= np.quantile(null, 0.975) <= hi
    assert lo < null_quantile(mis, pmf, 0.975) < hi
    # the sampled tail fraction at a mid-range statistic matches the exact one
    observed = null_quantile(mis, pmf, 0.5)
    exact = float(pmf[mis >= observed].sum())
    sampled = float((null >= observed).mean())
    assert abs(sampled - exact) <= 4 * math.sqrt(exact * (1 - exact) / shuffles)


def test_exact_quantile_approaches_the_g_test():
    """2 n ln2 MI is asymptotically chi^2 with one degree of freedom."""
    n = 1_000_000
    x = bits_with_ones(n, n // 2)
    q = null_quantile(*permutation_null_mis(bit_table(x, x)), 0.975)
    chi2_975 = NormalDist().inv_cdf(0.9875) ** 2
    assert 2 * n * math.log(2) * q == pytest.approx(chi2_975, rel=0.02)


@st.composite
def bit_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(np.array)
    return draw(bits), draw(bits)


@settings(max_examples=200, deadline=None)
@given(bit_pairs(), st.data())
def test_table_of_a_concatenation_is_the_sum_of_the_tables_of_its_parts(pair, data):
    x, y = pair
    cuts = sorted(data.draw(st.lists(st.integers(0, len(x)), max_size=6)))
    edges = [0] + cuts + [len(x)]
    parts = [bit_table(x[i:j], y[i:j]) for i, j in zip(edges, edges[1:]) if j > i]
    whole = bit_table(x, y)
    np.testing.assert_array_equal(sum(parts), whole)
    assert whole.sum() == len(x)


@settings(max_examples=200, deadline=None)
@given(bit_pairs())
def test_exact_null_is_a_distribution_over_nonnegative_mi(pair):
    mis, pmf = permutation_null_mis(bit_table(*pair))
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert (pmf > 0.0).all()
    assert (mis >= 0.0).all()
    assert (np.diff(mis) >= 0.0).all()


@settings(max_examples=200, deadline=None)
@given(bit_pairs())
def test_exact_null_ignores_which_side_is_which_and_the_labels(pair):
    x, y = pair
    p = permutation_independence_test(bit_table(x, y))
    q = null_quantile(*permutation_null_mis(bit_table(x, y)), 0.975)
    for other in ((y, x), (x, 1 - y)):
        assert abs(permutation_independence_test(bit_table(*other)) - p) <= 1e-12
        assert abs(null_quantile(*permutation_null_mis(bit_table(*other)), 0.975) - q) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(bit_pairs(), st.integers(0, 1))
def test_exact_null_of_a_constant_side_is_a_point_at_zero(pair, value):
    x, _ = pair
    constant = np.full_like(x, value)
    for sides in ((x, constant), (constant, x)):
        assert permutation_independence_test(bit_table(*sides)) == 1.0
        assert null_quantile(*permutation_null_mis(bit_table(*sides)), 0.975) == 0.0


def _full_support_null(table):
    """Frozen copy of permutation_null_mis as of 0.4.0, which computed every k."""
    n00, n01, n10, n11 = (int(c) for c in table)
    n = n00 + n01 + n10 + n11
    a = n10 + n11
    b = n01 + n11
    if a in (0, n) or b in (0, n):
        return np.zeros(1), np.ones(1)
    k = np.arange(max(0, a + b - n), min(a, b) + 1)
    head = k[:-1]
    step = np.log((a - head) * (b - head) / ((head + 1.0) * (n - a - b + head + 1.0)))
    mode = int(np.count_nonzero(step > 0.0))
    log_pmf = np.zeros(k.shape[0])
    log_pmf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    log_pmf[mode + 1 :] = np.cumsum(step[mode:])
    pmf = np.exp(log_pmf)
    kept = pmf > 0.0
    k = k[kept]
    pmf = pmf[kept] / pmf.sum()
    mis = _mi_bits(n - a - b + k, b - k, a - k, k, n)
    order = np.argsort(mis, kind="stable")
    return mis[order], pmf[order]


@st.composite
def count_tables(draw):
    """2x2 tables with n up to 10^6, margins anywhere from 0 to n, often at an end."""
    n = draw(st.integers(1, 10**6) | st.sampled_from([1, 2, 10**6]))

    def margin():
        return draw(st.integers(0, n) | st.integers(0, min(n, 5)) | st.integers(max(0, n - 5), n)
                    | st.just(n // 2))

    a, b = margin(), margin()
    k = draw(st.integers(max(0, a + b - n), min(a, b)))
    return np.array([n - a - b + k, b - k, a - k, k])


@settings(max_examples=150, deadline=None)
@given(count_tables())
def test_windowed_null_matches_the_full_support_null(table):
    mis, pmf = permutation_null_mis(table)
    ref_mis, ref_pmf = _full_support_null(table)
    np.testing.assert_array_equal(mis, ref_mis)
    # only the normalising sum changed order; a subnormal probability rounds to
    # a multiple of 5e-324, so it may move by that much whatever its size
    assert (np.abs(pmf - ref_pmf) <= 1e-15 * ref_pmf + 5e-324).all()
    assert null_quantile(mis, pmf, 0.975) == null_quantile(ref_mis, ref_pmf, 0.975)
    observed = plugin_mi_bits(table)
    ref_p = min(1.0, float(ref_pmf[ref_mis >= observed * (1.0 - 1e-7)].sum()))
    assert abs(permutation_independence_test(table) - ref_p) <= 1e-12


def test_null_of_a_large_balanced_table_stays_small():
    half = 2**22
    table = np.array([half, half, half, half])
    tracemalloc.start()
    try:
        permutation_null_mis(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
