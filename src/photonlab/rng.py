"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from Philox-4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), keyed by a
(seed, stream_index) pair. Philox is a pure function of (key, counter), so
philox() computes it as uint64 array arithmetic, for any number of keys and
counters at once; no part of the package loads numpy.random.

A stream's uniform words are those of numpy's Philox(key=(seed,
stream_index)): the counters 1, 2, 3, ... give four words each, and a double
is (word >> 11) * 2**-53. So RngStream.random, which no run calls, draws
numpy's doubles exactly.

Counts come from the package's exact binomial sampler, binomial_array. The
d-th binomial draw of a stream (d = 0, 1, ...) reads, in its rejection round
r, the four words of counter (r, d, 0, 1), two per attempt. A uniform word has
last counter word 0, so the two never share a word, and a draw's count is a
function of (seed, stream_index, d, n, p) alone: a sweep draws all its points
at once, and each point's counts do not depend on the other points.
draw.binomial computes one such count over Python ints and floats.

Only array code imports this module: core's count chain, which draws a
long sweep's counts as arrays, draw.binomial, which hands it the rare draw
whose float comparisons fall too close to call, and perfbench's draw-rate
microbenchmark. Each has loaded numpy by then, so numpy is imported once,
here at the top.
"""

from __future__ import annotations

import numpy as np

# Uniform and binomial draws run Philox over at most SLICE_BLOCKS blocks at a
# time, so their temporaries stay within a few MB however many are asked for.
# It is core's point slice. scalars also keeps the names of the words and of
# the sampler on them and the sampler's constants, so a run that draws
# nothing slices its points and names its words without loading this module,
# and a run that draws one count at a time (draw) without compiling it.
from .scalars import (
    ALGORITHM_ID,
    INVERSION_MEAN,
    MAX_BINOMIAL_TRIALS,
    PHILOX_BUMPS as _BUMPS,
    PHILOX_MULTIPLIERS as _MULTIPLIERS,
    PHILOX_ROUNDS as _ROUNDS,
    SLICE_POINTS as SLICE_BLOCKS,
    STIRLING_TAIL as _STIRLING_TAIL,
    WORDS_ID,
    check_u64 as _u64,
)

_MAX_U64 = 2**64


def _mulhilo(x: np.ndarray, multiplier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of each row of the (2, P)
    uint64 array x with its row of the (2, 1) multipliers, computed through
    32-bit halves."""
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    mul_lo, mul_hi = multiplier & low, multiplier >> half
    lo = x & low
    hi = x >> half
    lo_lo = lo * mul_lo
    lo *= mul_hi
    hi_lo = hi * mul_lo
    hi *= mul_hi
    # the middle sum stays below 3 * 2^32, so it cannot wrap
    lo_lo >>= half
    lo_lo += lo & low
    lo_lo += hi_lo & low
    lo >>= half
    hi_lo >>= half
    lo_lo >>= half
    hi += lo
    hi += hi_lo
    hi += lo_lo
    return hi, x * multiplier


def philox(key, counter) -> np.ndarray:
    """Philox-4x64-10 blocks as a (4, P) uint64 array: column j is the block
    of key (2, P) and counter (4, P) column j, the four words numpy's
    Philox(key=key[:, j]) gives at that counter. Either argument may have a
    single column, shared by every column of the other.

    Both 64x64 -> 128-bit multiplies of a round run as one (2, P) operation."""
    key = np.array(key, dtype=np.uint64)  # a copy: the rounds bump it
    counter = np.asarray(counter, dtype=np.uint64)
    # one row per multiplied word
    multiplier = np.array(_MULTIPLIERS, dtype=np.uint64)[:, None]
    bump = np.array(_BUMPS, dtype=np.uint64)[:, None]
    x, y = counter[0::2], counter[1::2]  # words (0, 2) are multiplied
    for r in range(_ROUNDS):
        if r:
            key += bump
        hi, lo = _mulhilo(x, multiplier)
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        x = hi[::-1] ^ y ^ key
        y = lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]])


def stream_keys(seed: int, indices: range) -> np.ndarray:
    """The (2, P) uint64 Philox keys (seed, index) of the streams named by a
    seed and a range of P stream indices."""
    seed = _u64(seed, "seed")
    for end in indices[:1], indices[-1:]:
        for index in end:
            _u64(index, "stream_index")
    # arithmetic mod 2^64 lands every index of the range where it belongs
    index = (np.arange(len(indices), dtype=np.uint64) * np.uint64(indices.step % _MAX_U64)
             + np.uint64(indices.start % _MAX_U64))
    key = np.empty((2, index.size), dtype=np.uint64)
    key[0] = seed
    key[1] = index
    return key


# --- the binomial sampler ------------------------------------------------------------

def _stirling_tail(k: np.ndarray) -> np.ndarray:
    inv = 1.0 / (k + 1.0)
    inv2 = inv * inv
    series = (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv
    table = np.array(_STIRLING_TAIL)
    return np.where(k < 10.0, table[np.minimum(k, 9.0).astype(np.intp)], series)


def _binomial_words(key: np.ndarray, draw: np.ndarray, rnd: int) -> np.ndarray:
    """The (4, P) words that binomial draw draw[j] of stream key[:, j] reads
    in rejection round rnd: the block of counter (rnd, draw[j], 0, 1)."""
    counter = np.empty((4, draw.size), dtype=np.uint64)
    counter[0] = rnd
    counter[1] = draw
    counter[2] = 0
    counter[3] = 1
    return philox(key, counter)


def _inversion(n, q, u):
    """One inversion attempt per element for Binomial(n, q), q <= 1/2 and
    mean n q below INVERSION_MEAN: the count is the least x with u <= F(x),
    found by walking the pmf up from f(0) = (1 - q)^n. An attempt fails past
    n q + 10 sqrt(n q (1 - q) + 1) or n, which only a cdf that rounding
    leaves short of 1 reaches. Returns the counts and which are accepted."""
    mean = n * q
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * (1.0 - q) + 1.0))
    odds = q / (1.0 - q)
    f = np.exp(n * np.log1p(-q))
    u = u.copy()
    k = np.zeros(n.shape)
    walk = np.flatnonzero(u > f)
    while walk.size:
        u[walk] -= f[walk]
        k[walk] += 1.0
        # f(x) = f(x - 1) * (n - x + 1) / x * q / (1 - q)
        f[walk] *= (n[walk] - k[walk] + 1.0) / k[walk] * odds[walk]
        walk = walk[(u[walk] > f[walk]) & (k[walk] <= bound[walk])]
    return k, k <= bound


def _btrd(n, q, v, w):
    """One BTRD attempt per element for Binomial(n, q), q <= 1/2 and mean
    n q of at least INVERSION_MEAN, from the uniforms v and w (Hoermann, "The
    generation of binomial random variates", J. Stat. Comput. Simul. 46,
    1993). Returns the candidate counts and which are accepted."""
    spq = np.sqrt(n * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    vr = 0.92 - 4.2 / b
    # step 1: v inside the box accepts at once; step 2: else a point of the hat
    quick = v <= 0.86 * vr
    tail = v >= vr
    u = v / vr - np.where(quick, 0.43, 0.93)
    u = np.where(quick, u, np.where(tail, w - 0.5, np.where(u < 0.0, -0.5, 0.5) - u))
    # step 3.0: the candidate; us > 0 unless u is +-1/2, which gives k = +-inf
    us = 0.5 - np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor((2.0 * a / us + b) * u + n * q + 0.5)
    inside = (k >= 0.0) & (k <= n)
    accepted = quick & inside
    # step 3.0 goes on for the candidates outside the box
    s = np.flatnonzero(inside & ~quick)
    if s.size:
        v = np.where(tail[s], v[s], w[s] * vr[s]) * (2.83 + 5.1 / b[s]) * spq[s]
        v /= a[s] / (us[s] * us[s]) + b[s]
        accepted[s] = _btrd_ratio(n[s], q[s], k[s], v)
    return k, accepted


def _btrd_ratio(n, q, k, v):
    """Steps 3.1-3.4 of BTRD: whether v <= f(k) / f(m), m the mode."""
    r = q / (1.0 - q)
    m = np.floor((n + 1.0) * q)
    km = np.abs(k - m)
    accepted = np.empty(k.shape, dtype=bool)
    # 3.1, |k - m| <= 15: the ratio from f(i) / f(i - 1) = (n + 1) r / i - r
    near = np.flatnonzero(km <= 15.0)
    if near.size:
        steps = np.arange(1.0, 16.0)
        i = np.minimum(k[near], m[near])[:, None] + steps
        factor = (n[near] + 1.0)[:, None] * r[near, None] / i - r[near, None]
        ratio = np.where(steps <= km[near, None], factor, 1.0).prod(axis=1)
        accepted[near] = np.where(k[near] > m[near], v[near] <= ratio, v[near] * ratio <= 1.0)
    # 3.2-3.4, |k - m| > 15: a squeeze on log v, then the log ratio with
    # Stirling's correction terms
    far = np.flatnonzero(km > 15.0)
    if far.size:
        n, r, m, k, km = n[far], r[far], m[far], k[far], km[far]
        npq = n * q[far] * (1.0 - q[far])
        log_v = np.log(v[far])
        rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
        t = -km * km / (2.0 * npq)
        nm = n - m + 1.0
        nk = n - k + 1.0
        log_ratio = ((m + 0.5) * np.log((m + 1.0) / (r * nm)) + (n + 1.0) * np.log(nm / nk)
                     + (k + 0.5) * np.log(nk * r / (k + 1.0)) + _stirling_tail(m)
                     + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k))
        accepted[far] = (log_v < t - rho) | ((log_v <= t + rho) & (log_v <= log_ratio))
    return accepted


def _attempt(n, q, v, w):
    """One attempt per element from the uniforms v and w: inversion below
    INVERSION_MEAN, which reads v only, BTRD at or above it."""
    k = np.empty(n.shape)
    accepted = np.empty(n.shape, dtype=bool)
    small = n * q < INVERSION_MEAN
    pick = np.flatnonzero(small)
    if pick.size:
        k[pick], accepted[pick] = _inversion(n[pick], q[pick], v[pick])
    pick = np.flatnonzero(~small)
    if pick.size:
        k[pick], accepted[pick] = _btrd(n[pick], q[pick], v[pick], w[pick])
    return k, accepted


def _round(n, p, words):
    """The counts of one rejection round for points of n trials at
    probability p from their (4, P) round words, and which points accepted:
    attempt 0 reads words 0 and 1, and where it fails attempt 1 reads words 2
    and 3. A point samples the smaller of p and 1 - p and reflects the count."""
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    trials = n.astype(np.float64)
    # open (0, 1): 52 bits and half a step
    u = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    k, accepted = _attempt(trials, q, u[0], u[1])
    retry = np.flatnonzero(~accepted)
    if retry.size:
        k[retry], accepted[retry] = _attempt(trials[retry], q[retry], u[2, retry], u[3, retry])
    # rounding beyond 2^53 trials could put k past n
    count = np.minimum(k.astype(np.int64), n)
    return np.where(flip, n - count, count), accepted


def binomial_array(n, p, key, draw) -> np.ndarray:
    """One Binomial(n[j], p[j]) count per column j of the (2, P) keys, as
    the draw[j]-th binomial draw of that stream: inversion for a mean n
    min(p, 1 - p) below INVERSION_MEAN, BTRD above. Each point needs n >= 1
    and 0 < p < 1. Rejection runs in masked rounds, SLICE_BLOCKS points at a
    time: round r reads the block of counter (r, draw, 0, 1) for the points
    still rejecting only. The int64 counts have the binomial law up to
    float64 rounding, exactly for n up to 2^53 trials."""
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    draw = np.asarray(draw, dtype=np.uint64)
    counts = np.empty(n.shape, dtype=np.int64)
    for lo in range(0, n.size, SLICE_BLOCKS):
        todo = np.arange(lo, min(lo + SLICE_BLOCKS, n.size))
        rnd = 0
        while todo.size:
            words = _binomial_words(key[:, todo], draw[todo], rnd)
            count, done = _round(n[todo], p[todo], words)
            counts[todo[done]] = count[done]
            todo = todo[~done]
            rnd += 1
    return counts


class RngStream:
    """One independent stream of uniform doubles, advancing through numpy's
    Philox sequence. Single-owner: never share across threads."""

    def __init__(self, seed: int, stream_index: int):
        self.key = stream_keys(seed, range(stream_index, stream_index + 1))
        self.seed, self.stream_index = (int(word) for word in self.key[:, 0])
        self._blocks = 0  # uniform blocks made; the next has counter _blocks + 1
        self._spare = np.empty(0, dtype=np.uint64)  # their words not yet read

    def _words(self, n: int):
        """The next n uniform words, in arrays of at most 4 * SLICE_BLOCKS."""
        spare, self._spare = self._spare[:n], self._spare[n:]
        if spare.size:
            yield spare
        n -= spare.size
        while n > 0:
            blocks = min(SLICE_BLOCKS, -(-n // 4))
            counter = np.zeros((4, blocks), dtype=np.uint64)
            counter[0] = np.arange(self._blocks + 1, self._blocks + blocks + 1, dtype=np.uint64)
            self._blocks += blocks
            words = philox(self.key, counter).T.reshape(-1)
            self._spare = words[n:].copy()
            yield words[:n]
            n -= min(n, words.size)

    def random(self, size=None):
        """Uniform float64 samples in [0, 1), as numpy's Generator.random
        draws them; a float when size is None. No experiment draws uniforms:
        this stays for the tests of the words against numpy's Philox and for
        perfbench's draw-rate microbenchmark."""
        out = np.empty(1 if size is None else size, dtype=np.float64)
        flat = out.reshape(-1)
        start = 0
        for words in self._words(flat.size):
            flat[start:start + words.size] = (words >> np.uint64(11)) * 2.0**-53
            start += words.size
        return float(out[0]) if size is None else out

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


def stream_from_seed(seed: int, index: int) -> RngStream:
    """Return the stream named by (seed, index); distinct pairs are independent."""
    return RngStream(seed, index)
