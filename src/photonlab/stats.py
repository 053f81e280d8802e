"""The Wilson interval of a binomial proportion, plug-in mutual information
and its exact permutation null.

Every mutual-information statistic here is a function of one 2x2 count table
[n00, n01, n10, n11] of two bit sequences x and y, indexed by 2*x + y.
bit_table is the one place that reads bit sequences; the statistics take its
table, check it in O(1) and never see the bits, so a caller that knows its
counts without the bits (the protocol, from its receiver's law) passes the
table directly. The null is computed, not sampled: label shuffling keeps both
margins of the table, which makes the n11 cell hypergeometric, so its
quantiles and p-values are pure functions of the table.

The table statistics and wilson_interval run in Python floats, with math, and
load no numpy; only bit_table, which reads bit sequences as arrays, imports
it, when it runs.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, count, islice, takewhile
from operator import mul, truediv


# NormalDist().inv_cdf(0.975), the z of the default 95% interval. statistics
# loads decimal and fractions with it, so only an interval at another
# confidence imports it, and no CLI run does
Z_95 = 1.9599639845400536


def _z(confidence: float) -> float:
    """The normal quantile NormalDist().inv_cdf(0.5 + confidence / 2)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if confidence == 0.95:
        return Z_95
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The closed form never reaches the endpoints exactly, so the boundary cases
    are pinned by hand: zero successes gives lo = 0.0 and all successes gives
    hi = 1.0. It runs in Python floats. Both counts must be integers, as a
    count table's cells must (a bool is not one).
    """
    successes, trials = _count(successes, "successes"), _count(trials, "trials")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    z = _z(confidence)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _count(value, name: str) -> int:
    """value as a Python int, refused if it is a bool or a value
    operator.index does not take, such as 5.5 or 5.0: the rule for every
    count here, a Wilson interval's and a count table's cells."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer count, got {value!r}")


def _as_bit_array(values, name: str = "values") -> np.ndarray:
    """Validate and convert a bit sequence to an int64 array of 0s and 1s."""
    import numpy as np

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
    import numpy as np

    x = _as_bit_array(x, "x")
    y = _as_bit_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return np.bincount(2 * x + y, minlength=4)


def _checked_table(table) -> tuple[int, int, int, int]:
    """The table's four counts as Python ints, after the O(1) checks every MI
    statistic runs."""
    try:
        counts = tuple(_count(c, "cell") for c in table)
    except (TypeError, ValueError):
        counts = ()
    if len(counts) != 4:
        raise ValueError(f"table must be 4 integer counts [n00, n01, n10, n11], got {table!r}")
    if min(counts) < 0 or sum(counts) <= 0:
        raise ValueError(f"table counts must be >= 0 with a positive total, got {table!r}")
    return counts


def _information_density(n00: int, n01: int, n10: int, n11: int) -> tuple:
    """(p, g) per cell of a 2x2 count table, in the cell order 00, 01, 10, 11.

    p is the cell probability and g = log2(p / (px py)) its pointwise
    information, 0 where p is 0. Every MI value in this module is summed from
    these pairs in this order, so one table gives the same float whichever
    function reaches it. Each count and the total become floats before they
    divide, as numpy divides int64 counts.
    """
    n = float(n00 + n01 + n10 + n11)
    p00, p01, p10, p11 = n00 / n, n01 / n, n10 / n, n11 / n
    x0, x1, y0, y1 = p00 + p01, p10 + p11, p00 + p10, p01 + p11
    log2 = math.log2
    return ((p00, log2(p00 / (x0 * y0)) if p00 > 0.0 else 0.0),
            (p01, log2(p01 / (x0 * y1)) if p01 > 0.0 else 0.0),
            (p10, log2(p10 / (x1 * y0)) if p10 > 0.0 else 0.0),
            (p11, log2(p11 / (x1 * y1)) if p11 > 0.0 else 0.0))


def _mi_bits(n00: int, n01: int, n10: int, n11: int) -> float:
    """Plug-in MI in bits of a 2x2 count table, floored at 0.0 against rounding."""
    (p00, g00), (p01, g01), (p10, g10), (p11, g11) = _information_density(n00, n01, n10, n11)
    mi = 0.0 + p00 * g00 + p01 * g01 + p10 * g10 + p11 * g11
    return mi if mi > 0.0 else 0.0


def plugin_mi_bits(table) -> float:
    """Plug-in mutual information I(X;Y) in bits of a 2x2 count table.

    Zero cells contribute zero; the estimate is floored at 0.0 so rounding
    noise never produces a negative information value.
    """
    return _mi_bits(*_checked_table(table))


def mi_standard_error(table) -> float:
    """Delta-method standard error of the plug-in MI of a 2x2 count table.

    Var = (E[g^2] - E[g]^2)/n with g = log2 of the pointwise information
    density; exact zeros for degenerate marginals, where the plug-in estimate
    is constant.
    """
    counts = _checked_table(table)
    mean = 0.0
    mean_sq = 0.0
    for p, g in _information_density(*counts):
        mean += p * g
        mean_sq += p * g * g
    var = max(0.0, mean_sq - mean * mean) / sum(counts)
    return math.sqrt(var)


# The null weighs each table by its hypergeometric probability relative to the
# mode's, w(mode) = 1, from the ratio recurrence w(k + 1) = w(k) r(k). Its
# window, the run of tables around the mode with w >= _CUTOFF, carries every
# quantile and the normalising sum; a p-value tail reads further out, down to
# _CUTOFF of its own first weight. Weights below _FLOOR, far above the
# subnormals where the recurrence would stall, count as 0.
_CUTOFF = 2.0**-60
_FLOOR = 2.0**-1020


def _first(lo: int, hi: int, pred) -> int:
    """The least k in [lo, hi] with pred(k), for pred false then true; hi + 1
    if there is none."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


class _Null:
    """The label-shuffling null of the tables with a ones in x and b in y
    among n, 0 < a, b < n, as a function of the n11 cell k.

    Shuffling y keeps both margins, so k is hypergeometric:
    P(k) = C(a, k) C(n - a, b - k) / C(n, b) over
    max(0, a + b - n) <= k <= min(a, b) (Fisher's exact test;
    asymptotically 2 n ln2 MI ~ chi^2_1). MI is convex in k with its minimum
    at ab/n, so it falls over k <= split = floor(ab/n) and rises after:
    {MI <= v} is an interval of k and {MI >= v} a lower and an upper tail,
    each end found by bisection with O(log n) MI evaluations.
    """

    def __init__(self, n: int, a: int, b: int):
        self.n, self.a, self.b, self.c = n, a, b, n - a - b
        self.lo, self.hi = max(0, a + b - n), min(a, b)
        self.split = a * b // n
        self.mode = (a + 1) * (b + 1) // (n + 2)
        below, above = self._window(-1), self._window(1)
        self.start = self.mode - len(below)
        self._below, self._above = below, above
        below = below[::-1]
        below.append(1.0)
        self.weights = below + above
        # the window's sums in k order: the mass of the tables from k to k' is
        # prefix[k' + 1 - start] - prefix[k - start]
        self.prefix = array("d", accumulate(self.weights, initial=0.0))
        self.total = self.prefix[-1]

    def _window(self, step: int) -> array:
        """w(mode + step), w(mode + 2 step), ... while they are >= _CUTOFF."""
        # Most windows end near 9.12 sigma (exp(-t^2 / 2 sigma^2) = 2^-60), so
        # that many weights are made without a test each, then cut back to the
        # first below _CUTOFF; a skewed side that reaches further goes on
        n, a, b = self.n, self.a, self.b
        sigma = math.sqrt(a * b * (n - a) * (n - b) / (n * n * (n - 1)))
        room = self._room(self.mode, step)
        weights = array("d", self._walk(self.mode, 1.0, step, min(room, int(9.2 * sigma) + 32)))
        cut = bisect_left(weights, True, key=_CUTOFF.__gt__)
        if cut < len(weights):
            del weights[cut:]
        elif weights:
            # the weights fall monotonically far from the mode, so only a run
            # that has not yet crossed _CUTOFF can go on
            far = self._walk(self.mode + step * cut, weights[-1], step, room - cut)
            weights.extend(takewhile(_CUTOFF.__le__, far))
        return weights

    def mi(self, k: int) -> float:
        return _mi_bits(self.c + k, self.b - k, self.a - k, k)

    def _room(self, k: int, step: int) -> int:
        """How many tables lie beyond k in the direction of step."""
        return self.hi - k if step > 0 else k - self.lo

    def _walk(self, k: int, w: float, step: int, limit: int):
        """w(k + step), w(k + 2 step), ..., limit of them, from w(k) = w, by
        the ratio recurrence r(k) = (a - k)(b - k) / ((k + 1)(c + k + 1)) in
        floats: w(k + 1) = w(k) r(k) and w(k - 1) = w(k) / r(k - 1)."""
        a, b, c = self.a, self.b, self.c
        if step > 0:
            ratios = map(truediv, map(mul, count(float(a - k), -1.0), count(float(b - k), -1.0)),
                         map(mul, count(k + 1.0), count(c + k + 1.0)))
            steps = accumulate(ratios, mul, initial=w)
        else:
            ratios = map(truediv, map(mul, count(a - k + 1.0), count(b - k + 1.0)),
                         map(mul, count(float(k), -1.0), count(float(c + k), -1.0)))
            steps = accumulate(ratios, truediv, initial=w)
        return islice(steps, 1, limit + 1)

    def _outward(self, step: int):
        """w(mode), w(mode + step), ... out to the first weight below _FLOOR."""
        window = self._above if step > 0 else self._below
        last = window[-1] if window else 1.0
        k = self.mode + step * len(window)
        beyond = self._walk(k, last, step, self._room(k, step))
        return chain((1.0,), window, takewhile(_FLOOR.__le__, beyond))

    def quantile(self, level: float) -> float:
        """The smallest MI v of a window table with P(MI <= v) >= level - 1e-9;
        the slack absorbs the rounding of a sum that reaches the level
        exactly. The tables with MI <= v are a run of k, and P(MI <= v) is
        their prefix difference over the total."""
        target = level - 1e-9
        start, prefix = self.start, self.prefix
        end = start + len(self.weights) - 1
        left_end, right_start = min(self.split, end), max(self.split + 1, start)

        def reaches(v: float) -> bool:
            # the run of tables with MI <= v: from the first on the falling
            # side to the last on the rising side
            i = (_first(start, left_end, lambda k: self.mi(k) <= v)
                 if start <= left_end else right_start)
            j = (_first(right_start, end, lambda k: self.mi(k) > v)
                 if right_start <= end else left_end + 1)
            return (prefix[j - start] - prefix[i - start]) / self.total >= target

        answers = []
        # along each side the candidates' MI rises step by step away from split
        for k_of, size in ((lambda t: left_end - t, left_end - start + 1),
                           (lambda t: right_start + t, end - right_start + 1)):
            t = _first(0, size - 1, lambda t: reaches(self.mi(k_of(t))))
            if t < size:
                answers.append(self.mi(k_of(t)))
        return min(answers)

    def tail_mass(self, threshold: float) -> float:
        """The fsum of the weights of the tables with MI >= threshold. Each of
        its two tails is summed from its inner end outward while a weight is
        at least _CUTOFF of the inner end's, so a tail beyond the window keeps
        its relative precision."""
        mi = self.mi
        inner_left = _first(self.lo, self.split, lambda k: mi(k) < threshold) - 1
        inner_right = _first(self.split + 1, self.hi, lambda k: mi(k) >= threshold)
        tails = []
        # the mode is split or split + 1, so the left tail starts at or below
        # it and the right one at or above it
        if inner_left >= self.lo:
            tails.append(islice(self._outward(-1), self.mode - inner_left, None))
        if inner_right <= self.hi:
            tails.append(islice(self._outward(1), inner_right - self.mode, None))
        terms = []
        for tail in tails:
            first = next(tail, None)
            if first is not None:
                terms.append(first)
                terms.extend(takewhile((_CUTOFF * first).__le__, tail))
        return math.fsum(terms)


def _margins(counts) -> tuple[int, int, int]:
    """(n, a, b): the total and the ones of x and of y of a checked table."""
    n00, n01, n10, n11 = counts
    return n00 + n01 + n10 + n11, n10 + n11, n01 + n11


def permutation_null_quantile(table, level: float = 0.975) -> float:
    """The level quantile of the plug-in MI of a 2x2 table under the exact
    label-shuffling null: the smallest null MI v with P(MI <= v) >= level,
    within 1e-9, the slack for a cumulative probability of exactly level (as
    at n = 16, a = 2, b = 3 at 0.975). A constant side gives 0.0.

    Only the tables whose probability is at least 2^-60 of the most likely
    one's are weighed, so the mass left out is of order 2^-60 of the total.
    The work grows as sqrt(n): at 2^32 bits it walks about 3e5 tables with
    C-level iterators and evaluates MI O(log^2 n) times.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    n, a, b = _margins(_checked_table(table))
    if a in (0, n) or b in (0, n):
        return 0.0
    return _Null(n, a, b).quantile(level)


def permutation_independence_test(table) -> float:
    """Exact permutation p-value for independence of the two sides of a 2x2 table.

    The statistic is plug-in MI and the null is label shuffling:
    p = P(MI_null >= observed), 1.0 when a side is constant. Null values
    within a relative 1e-7 of the observed MI count as ties, as in R's
    fisher.test, so a table and its mirror image, whose MI can differ in the
    last bits, are counted alike.
    """
    counts = _checked_table(table)
    n, a, b = _margins(counts)
    if a in (0, n) or b in (0, n):
        return 1.0
    null = _Null(n, a, b)
    return min(1.0, null.tail_mass(_mi_bits(*counts) * (1.0 - 1e-7)) / null.total)
