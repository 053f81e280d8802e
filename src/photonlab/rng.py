"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from an RngStream named by a
(seed, stream_index, block) triple. Streams are backed by a counter-based
generator (numpy's Philox-4x64): the key is (seed, stream_index) and the block
sits in the high half of the 256-bit counter, so each block owns 2^128
counters and the same triple produces the same sequence on every platform.

Bulk work is split into fixed blocks of BLOCK trials, whatever the worker
count. Block b of a run draws from block b of its stream, and map_partitions
returns per-block results in block order, so every result is a function of
(seed, params) alone; the worker count only sets how many threads run the
blocks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ALGORITHM_ID = "numpy-philox-4x64/block-2^18"

# trials per block; the last block of a run is shorter
BLOCK = 2**18

_MAX_U64 = 2**64


class RngStream:
    """One independent random stream. Single-owner: never share across threads."""

    def __init__(self, seed: int, stream_index: int, block: int = 0):
        seed = int(seed)
        stream_index = int(stream_index)
        block = int(block)
        if not 0 <= seed < _MAX_U64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        if not 0 <= stream_index < _MAX_U64:
            raise ValueError(
                f"stream_index must be an unsigned 64-bit integer, got {stream_index!r}"
            )
        if not 0 <= block < 2**128:
            raise ValueError(f"block must be in [0, 2^128), got {block!r}")
        self.seed = seed
        self.stream_index = stream_index
        self.block = block
        self.algorithm = ALGORITHM_ID
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._bit_generator = np.random.Philox(key=key, counter=block << 128)
        self._generator = np.random.Generator(self._bit_generator)

    def random(self, size=None):
        """Uniform float64 samples in [0, 1)."""
        return self._generator.random(size)

    def integers(self, low, high, size=None):
        """Integers in [low, high), numpy Generator semantics."""
        return self._generator.integers(low, high, size=size)

    def binomial(self, n, p, size=None):
        """Binomial(n, p) counts, numpy Generator semantics."""
        return self._generator.binomial(n, p, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator.permutation(n)

    def shuffle(self, x) -> None:
        self._generator.shuffle(x)

    def raw_u64(self, n: int) -> np.ndarray:
        """Raw 64-bit generator words, used by stream-independence checks."""
        return self._bit_generator.random_raw(n)

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.seed}, stream_index={self.stream_index}, "
            f"block={self.block}, algorithm={self.algorithm!r})"
        )


def stream_from_seed(seed: int, index: int, block: int = 0) -> RngStream:
    """Return the stream named by (seed, index, block); distinct triples are independent.

    Block 0 starts at counter 0, so it is the stream keyed by (seed, index)
    alone.
    """
    return RngStream(seed, index, block)


def pool_size(workers: int) -> int:
    """Threads map_partitions may use for a worker count: at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


def map_partitions(n: int, workers: int, worker_fn):
    """Run worker_fn(block, size) over the BLOCK-trial blocks of n; results in block order.

    Every block but the last holds BLOCK trials, and n = 0 has no blocks.
    Blocks run on min(pool_size(workers), number of blocks) threads, in the
    calling thread when that is 1. A worker function draws from block `block`
    of its streams, which makes the returned list a pure function of the seed
    and n, independent of workers, scheduling and thread count.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    full, rest = divmod(n, BLOCK)
    sizes = [BLOCK] * full + ([rest] if rest else [])
    threads = min(pool_size(workers), len(sizes))
    if threads <= 1:
        return list(map(worker_fn, range(len(sizes)), sizes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker_fn, range(len(sizes)), sizes))
