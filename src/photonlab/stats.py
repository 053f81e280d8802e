"""Binomial confidence intervals, plug-in mutual information, and the
permutation machinery behind every Monte Carlo assertion in the package."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .rng import RngStream, stream_from_seed


@dataclass(frozen=True)
class BinomialEstimate:
    successes: int
    trials: int
    point: float
    ci95: tuple[float, float]


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


def binomial_estimate(successes: int, trials: int, confidence: float = 0.95) -> BinomialEstimate:
    ci = wilson_interval(successes, trials, confidence)
    return BinomialEstimate(
        successes=int(successes), trials=int(trials), point=successes / trials, ci95=ci
    )


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
    arr = arr.astype(np.int64)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only bits (0 or 1)")
    return arr


def _joint_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.bincount(2 * x + y, minlength=4).reshape(2, 2)


def plugin_mi_bits(x, y) -> float:
    """Plug-in mutual information I(X;Y) in bits from the empirical 2x2 joint.

    Zero cells contribute zero; the estimate is floored at 0.0 so rounding
    noise never produces a negative information value.
    """
    x = as_bit_array(x, "x")
    y = as_bit_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    joint = _joint_counts(x, y) / x.shape[0]
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            p = joint[i, j]
            if p > 0.0:
                mi += p * np.log2(p / (px[i] * py[j]))
    return max(0.0, float(mi))


def mi_standard_error(x, y) -> float:
    """Delta-method standard error of the plug-in MI estimate.

    Var = (E[g^2] - E[g]^2)/n with g = log2 of the pointwise information
    density; exact zeros for degenerate marginals, where the plug-in estimate
    is constant.
    """
    x = as_bit_array(x, "x")
    y = as_bit_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    joint = _joint_counts(x, y) / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mean = 0.0
    mean_sq = 0.0
    for i in (0, 1):
        for j in (0, 1):
            p = joint[i, j]
            if p > 0.0:
                g = float(np.log2(p / (px[i] * py[j])))
                mean += p * g
                mean_sq += p * g * g
    var = max(0.0, mean_sq - mean * mean) / n
    return float(np.sqrt(var))


def permutation_null_mis(x, y, n_shuffles: int, rng: RngStream) -> np.ndarray:
    """MI values of x against independently permuted copies of y.

    Each step reshuffles the previous permutation in place; composing with a
    fresh uniform permutation yields another uniform permutation, so the draws
    are iid from the label-shuffling null.
    """
    x = as_bit_array(x, "x")
    y = as_bit_array(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if (x == x[0]).all() or (y == y[0]).all():
        # a constant side has MI exactly 0 under every permutation
        return np.zeros(n_shuffles)
    work = y.copy()
    out = np.empty(n_shuffles)
    for i in range(n_shuffles):
        rng.shuffle(work)
        out[i] = plugin_mi_bits(x, work)
    return out


def permutation_independence_test(x, y, n_shuffles: int = 1000, rng: RngStream | None = None) -> float:
    """Permutation p-value for independence of two bit sequences.

    The statistic is plug-in MI; the null is label shuffling. Uses the add-one
    estimate (1 + #{null >= observed}) / (1 + n_shuffles), which is never
    exactly zero and equals 1.0 when a side is constant.
    """
    if n_shuffles < 1000:
        raise ValueError(f"n_shuffles must be >= 1000, got {n_shuffles}")
    if rng is None:
        rng = stream_from_seed(0, 0)
    observed = plugin_mi_bits(x, y)
    null = permutation_null_mis(x, y, n_shuffles, rng)
    ge = int((null >= observed).sum())
    return (1 + ge) / (1 + n_shuffles)
