"""One binomial count at a time, over Python ints and floats, without numpy.

A protocol run draws one count, a Monte Carlo cascade one per stage and a
sweep of at most SCALAR_ROWS points one outcome chain per point, so they draw
here instead of through rng's arrays: philox_block computes a Philox-4x64-10
block over Python ints, and binomial runs the inversion and BTRD steps of
rng.binomial_array on it for one point. Its contract is equality:
binomial(n, p, stream_key(seed, index), draw) is the count rng.binomial_array
gives for the same (seed, index, draw, n, p), since it reads the same words
(counter (round, draw, 0, 1)) and takes the same IEEE steps in the same order.
counts is core._chain_counts for one row on top of it, so its counts are
core.sample_count_array's.
"""

from __future__ import annotations

import math

from .scalars import (
    INVERSION_MEAN,
    MAX_BINOMIAL_TRIALS,
    PHILOX_BUMPS,
    PHILOX_MULTIPLIERS,
    PHILOX_ROUNDS,
    STIRLING_TAIL,
    check_u64,
    snap_probability,
)

_MASK_U64 = 2**64 - 1


def stream_key(seed: int, index: int) -> tuple[int, int]:
    """The Philox key (seed, index) of one stream, checked, as Python ints:
    what binomial takes, and one column of rng.stream_keys."""
    return check_u64(seed, "seed"), check_u64(index, "stream_index")


def philox_block(key, counter) -> tuple[int, int, int, int]:
    """One Philox-4x64-10 block over Python ints: the four words of key (k0,
    k1) and counter (c0, c1, c2, c3), each an unsigned 64-bit integer, as
    rng.philox gives them in one column. Integer arithmetic keeps every word
    exact."""
    k0, k1 = key
    c0, c1, c2, c3 = counter
    m0, m1 = PHILOX_MULTIPLIERS
    b0, b1 = PHILOX_BUMPS
    for r in range(PHILOX_ROUNDS):
        if r:
            k0 = (k0 + b0) & _MASK_U64
            k1 = (k1 + b1) & _MASK_U64
        p0 = c0 * m0
        p1 = c2 * m1
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK_U64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK_U64
    return c0, c1, c2, c3


# In Python floats +, -, *, /, sqrt and floor give numpy's bits. Only log,
# log1p and exp come from another library (the platform's libm, not numpy's
# kernels), and the two round apart in the last bit on some arguments.
# Each comparison that reads one of them is made only when its two sides lie
# more than _DEFER_MARGIN (relative to the magnitudes involved) apart, far
# beyond either library's error; inside the margin the draw defers to
# rng.binomial_array. Either way the count is binomial_array's.
_DEFER_MARGIN = 2.0**-32


class _Defer(Exception):
    """A comparison too close to call in Python floats."""


def _check_apart(x: float, y: float, scale: float) -> None:
    if abs(x - y) <= _DEFER_MARGIN * scale:
        raise _Defer


def _stirling_tail_one(k: float) -> float:
    if k < 10.0:
        return STIRLING_TAIL[int(k)]
    inv = 1.0 / (k + 1.0)
    inv2 = inv * inv
    return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv


def _inversion_one(n: float, q: float, u: float):
    """rng._inversion for one point: the count, or None where the attempt fails."""
    mean = n * q
    bound = min(n, mean + 10.0 * math.sqrt(mean * (1.0 - q) + 1.0))
    odds = q / (1.0 - q)
    f = math.exp(n * math.log1p(-q))
    k = 0.0
    while True:
        # u and f carry libm's rounding of exp and log1p, at most a few ulps of 1
        _check_apart(u, f, 1.0)
        if not u > f:
            return k
        u -= f
        k += 1.0
        f *= (n - k + 1.0) / k * odds
        if not k <= bound:
            return None


def _btrd_one(n: float, q: float, v: float, w: float):
    """rng._btrd for one point: the count, or None where the attempt fails."""
    spq = math.sqrt(n * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    vr = 0.92 - 4.2 / b
    quick = v <= 0.86 * vr
    tail = v >= vr
    u = v / vr - (0.43 if quick else 0.93)
    if not quick:
        u = w - 0.5 if tail else (-0.5 if u < 0.0 else 0.5) - u
    us = 0.5 - abs(u)
    if us == 0.0:
        return None  # the candidate is +-inf, outside [0, n]
    k = float(math.floor((2.0 * a / us + b) * u + n * q + 0.5))
    if not 0.0 <= k <= n:
        return None
    if quick:
        return k
    v = (v if tail else w * vr) * (2.83 + 5.1 / b) * spq
    v /= a / (us * us) + b
    return k if _btrd_ratio_one(n, q, k, v) else None


def _btrd_ratio_one(n: float, q: float, k: float, v: float) -> bool:
    """rng._btrd_ratio for one point."""
    r = q / (1.0 - q)
    m = float(math.floor((n + 1.0) * q))
    km = abs(k - m)
    if km <= 15.0:
        base = min(k, m)
        ratio = 1.0
        step = 1.0
        while step <= km:
            ratio *= (n + 1.0) * r / (base + step) - r
            step += 1.0
        return v <= ratio if k > m else v * ratio <= 1.0
    npq = n * q * (1.0 - q)
    log_v = math.log(v)
    rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
    t = -km * km / (2.0 * npq)
    scale = abs(log_v) + 1.0
    _check_apart(log_v, t - rho, scale)
    if log_v < t - rho:
        return True
    _check_apart(log_v, t + rho, scale)
    if log_v > t + rho:
        return False
    nm = n - m + 1.0
    nk = n - k + 1.0
    logs = ((m + 0.5) * math.log((m + 1.0) / (r * nm)), (n + 1.0) * math.log(nm / nk),
            (k + 0.5) * math.log(nk * r / (k + 1.0)))
    log_ratio = (logs[0] + logs[1] + logs[2] + _stirling_tail_one(m) + _stirling_tail_one(n - m)
                 - _stirling_tail_one(k) - _stirling_tail_one(n - k))
    # each log term carries its rounding times its factor
    _check_apart(log_v, log_ratio, scale + sum(map(abs, logs)))
    return log_v <= log_ratio


def _attempt_one(n: float, q: float, v: float, w: float):
    """rng._attempt for one point: inversion below INVERSION_MEAN, BTRD at or above."""
    if n * q < INVERSION_MEAN:
        return _inversion_one(n, q, v)
    return _btrd_one(n, q, v, w)


def binomial(n: int, p: float, key: tuple[int, int], draw: int) -> int:
    """One Binomial(n, p) count, the draw-th binomial draw of the stream key
    (stream_key): the count rng.binomial_array gives for that point, computed
    over Python ints and floats without numpy. Like binomial_array it needs
    1 <= n <= MAX_BINOMIAL_TRIALS and 0 < p < 1. A draw whose log or exp
    comparison falls within _DEFER_MARGIN is handed to rng.binomial_array,
    so the count is the same either way."""
    if not 1 <= n <= MAX_BINOMIAL_TRIALS:
        raise ValueError(f"n must be in [1, 2^62], got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    flip = p > 0.5
    q = 1.0 - p if flip else p
    trials = float(n)
    try:
        rnd = 0
        while True:
            # open (0, 1): 52 bits and half a step
            v0, w0, v1, w1 = (((word >> 12) + 0.5) * 2.0**-52
                              for word in philox_block(key, (rnd, draw, 0, 1)))
            k = _attempt_one(trials, q, v0, w0)
            if k is None:
                k = _attempt_one(trials, q, v1, w1)
            if k is not None:
                break
            rnd += 1
    except _Defer:
        import numpy as np

        from . import rng

        column = np.array(key, dtype=np.uint64)[:, None]
        return int(rng.binomial_array([n], [p], column, [draw])[0])
    # rounding beyond 2^53 trials could put k past n
    count = min(int(k), n)
    return n - count if flip else count


def counts(probs, n: int, key: tuple[int, int], first_draw: int) -> tuple[list[int], int]:
    """Outcome counts of n Born draws from one distribution over len(probs)
    outcomes, from the stream key, its binomial draws numbered on from
    first_draw: (the counts, the number of draws made).

    This is one row of core._chain_counts in Python floats. The probabilities
    are snapped; outcome k then gets binomial(left, min(1, p_k / (p_k + ... +
    p_last))) of the n - (counts so far) trials left, the tail summed left to
    right. An outcome of probability 0 gets none and a certain one all that
    are left, and neither, nor an empty remainder, draws; the last outcome
    takes what is left.
    """
    p = [snap_probability(x) for x in probs]
    if not 0 <= n <= MAX_BINOMIAL_TRIALS:
        raise ValueError(f"n must be in [0, 2^62], got {n}")
    if not any(x > 0.0 for x in p):
        raise ValueError("a row needs an outcome of nonzero probability")
    out = []
    left = n
    drawn = 0
    for k in range(len(p) - 1):
        q = 0.0
        if p[k] > 0.0:
            tail = p[k]
            for x in p[k + 1:]:
                tail += x
            q = min(1.0, p[k] / tail)
        if q == 1.0:
            take = left
        elif left and q > 0.0:
            take = binomial(left, q, key, first_draw + drawn)
            drawn += 1
        else:
            take = 0
        out.append(take)
        left -= take
    out.append(left)
    return out, drawn
