"""Binomial confidence intervals, plug-in mutual information and its exact
permutation null.

Every mutual-information statistic here is a function of one 2x2 count table
[n00, n01, n10, n11] of two bit sequences x and y, indexed by 2*x + y.
bit_table is the one place that reads bit sequences; the statistics take its
table, check it in O(1) and never see the bits, so block-wise callers sum the
tables of their blocks instead of joining bit columns. The null is computed,
not sampled: label shuffling keeps both margins of the table, which makes the
n11 cell hypergeometric, so its distribution, quantiles and p-values are pure
functions of the table.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The closed form never reaches the endpoints exactly, so the boundary cases
    are pinned by hand: zero successes gives lo = 0.0 and all successes gives
    hi = 1.0.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (float(lo), float(hi))


def as_bit_array(values, name: str = "values") -> np.ndarray:
    """Validate and convert a bit sequence to an int64 array of 0s and 1s."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if arr.dtype == bool:
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64, casting="unsafe")
        if not np.array_equal(as_int, arr):
            raise ValueError(f"{name} must contain only bits (0 or 1)")
        arr = as_int
    # an int64 input is checked in place, not copied
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() > 1:
        raise ValueError(f"{name} must contain only bits (0 or 1)")
    return arr


def bit_table(x, y) -> np.ndarray:
    """The 2x2 count table [n00, n01, n10, n11] of two equal-length bit sequences.

    Cell 2*x + y counts the positions where x and y take those values. This is
    the only statistics function that reads bits; the table is what the MI
    statistics below take, and the table of a concatenation is the sum of the
    tables of its parts.
    """
    x = as_bit_array(x, "x")
    y = as_bit_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return np.bincount(2 * x + y, minlength=4)


def _checked_table(table) -> np.ndarray:
    """The table as an int64 array, after the O(1) checks every MI statistic runs."""
    counts = np.asarray(table)
    if counts.shape != (4,) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"table must be 4 integer counts [n00, n01, n10, n11], got {table!r}")
    if counts.min() < 0 or counts.sum() <= 0:
        raise ValueError(f"table counts must be >= 0 with a positive total, got {table!r}")
    return counts.astype(np.int64)


def _information_density(n00, n01, n10, n11, n):
    """(p, g) per cell of 2x2 count tables, in the cell order 00, 01, 10, 11.

    p is the cell probability and g = log2(p / (px py)) its pointwise
    information, 0 where p is 0. Counts may be arrays of tables. Every MI
    value in this module is summed from these pairs in this order, so one
    table gives the same float whichever function reaches it.
    """
    cells = [np.asarray(c) / n for c in (n00, n01, n10, n11)]
    px = (cells[0] + cells[1], cells[2] + cells[3])
    py = (cells[0] + cells[2], cells[1] + cells[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        return [
            (p, np.where(p > 0.0, np.log2(p / (px[i] * py[j])), 0.0))
            for p, (i, j) in zip(cells, ((0, 0), (0, 1), (1, 0), (1, 1)))
        ]


def _mi_bits(n00, n01, n10, n11, n):
    """Plug-in MI in bits of 2x2 count tables, floored at 0.0 against rounding."""
    mi = 0.0
    for p, g in _information_density(n00, n01, n10, n11, n):
        mi = mi + p * g
    return np.maximum(mi, 0.0)


def plugin_mi_bits(table) -> float:
    """Plug-in mutual information I(X;Y) in bits of a 2x2 count table.

    Zero cells contribute zero; the estimate is floored at 0.0 so rounding
    noise never produces a negative information value.
    """
    counts = _checked_table(table)
    return float(_mi_bits(*counts, int(counts.sum())))


def mi_standard_error(table) -> float:
    """Delta-method standard error of the plug-in MI of a 2x2 count table.

    Var = (E[g^2] - E[g]^2)/n with g = log2 of the pointwise information
    density; exact zeros for degenerate marginals, where the plug-in estimate
    is constant.
    """
    counts = _checked_table(table)
    n = int(counts.sum())
    mean = 0.0
    mean_sq = 0.0
    for p, g in _information_density(*counts, n):
        mean += p * g
        mean_sq += p * g * g
    var = max(0.0, mean_sq - mean * mean) / n
    return float(np.sqrt(var))


def permutation_null_mis(table) -> tuple[np.ndarray, np.ndarray]:
    """Exact label-shuffling null of the plug-in MI: (values, probabilities).

    Shuffling y keeps both margins of the table, so a shuffled table is fixed
    by its n11 cell k, whose law is hypergeometric:
    P(k) = C(a, k) C(n - a, b - k) / C(n, b) over
    max(0, a + b - n) <= k <= min(a, b), where a = n10 + n11 and
    b = n01 + n11 count the ones in x and y (Fisher's exact test;
    asymptotically 2 n ln2 MI ~ chi^2_1). Returns the MI of every feasible
    table, ascending, with its probability, leaving out the tables whose
    probability is 0.0 in float64 (at 10^7 balanced bits, all but 6e4 of
    5e6). The observed MI is bitwise one of the values unless its own
    probability is 0.0. A constant side gives ([0.0], [1.0]).

    Only k within `reach` of the mean ab/n is computed, so time and memory
    grow as sqrt(n), not n. With s = min(a, b, n - a, n - b), Hoeffding's
    bound for sampling without replacement gives P(k) <= exp(-2 t^2 / s) at
    distance t from the mean, and P(mode) >= 1/(s + 1); beyond `reach` their
    ratio is below exp(-745.2), which underflows to 0.0 like the tables left
    out above.
    """
    n00, n01, n10, n11 = (int(c) for c in _checked_table(table))
    n = n00 + n01 + n10 + n11
    a = n10 + n11
    b = n01 + n11
    if a in (0, n) or b in (0, n):
        return np.zeros(1), np.ones(1)
    s = min(a, b, n - a, n - b)
    reach = math.ceil(math.sqrt(s * (745.2 + math.log(s + 1)) / 2)) + 1
    mean = a * b // n
    k = np.arange(max(0, a + b - n, mean - reach), min(a, b, mean + 1 + reach) + 1)
    # log P(k + 1) / P(k), decreasing in k; sum it outward from the mode so
    # the probabilities that matter carry no accumulated rounding
    head = k[:-1]
    step = np.log((a - head) * (b - head) / ((head + 1.0) * (n - a - b + head + 1.0)))
    mode = int(np.count_nonzero(step > 0.0))
    log_pmf = np.zeros(k.shape[0])
    log_pmf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    log_pmf[mode + 1 :] = np.cumsum(step[mode:])
    pmf = np.exp(log_pmf)
    # tables whose probability underflows to 0.0 move no quantile or p-value
    kept = pmf > 0.0
    k = k[kept]
    pmf = pmf[kept] / pmf.sum()
    mis = _mi_bits(n - a - b + k, b - k, a - k, k, n)
    order = np.argsort(mis, kind="stable")
    return mis[order], pmf[order]


def null_quantile(mis: np.ndarray, pmf: np.ndarray, level: float) -> float:
    """Smallest null MI whose cumulative probability reaches level.

    A cumulative sum within 1e-9 below level, the rounding a sum of up to
    10^7 terms can carry, counts as reaching it: where the exact cumulative
    probability is level itself (n = 16, a = 2, b = 3 at 0.975), the float
    sum can fall short and would skip to a far larger MI.
    """
    return float(mis[np.searchsorted(np.cumsum(pmf), level - 1e-9)])


def permutation_independence_test(table) -> float:
    """Exact permutation p-value for independence of the two sides of a 2x2 table.

    The statistic is plug-in MI and the null is label shuffling:
    p = P(MI_null >= observed) under permutation_null_mis, 1.0 when a side
    is constant. Null values within a relative 1e-7 of the observed MI count
    as ties, as in R's fisher.test, so a table and its mirror image, whose MI
    can differ in the last bits, are counted alike.
    """
    observed = plugin_mi_bits(table)
    mis, pmf = permutation_null_mis(table)
    return min(1.0, float(pmf[mis >= observed * (1.0 - 1e-7)].sum()))
