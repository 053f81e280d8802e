"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from an RngStream named by a
(seed, stream_index) pair. Streams are backed by a counter-based generator
(numpy's Philox-4x64) keyed directly with that pair, so the same pair produces
the same sequence on every platform and worker partitions can draw
independently without coordination.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ALGORITHM_ID = "numpy-philox-4x64"

_MAX_U64 = 2**64


class RngStream:
    """One independent random stream. Single-owner: never share across threads."""

    def __init__(self, seed: int, stream_index: int):
        seed = int(seed)
        stream_index = int(stream_index)
        if not 0 <= seed < _MAX_U64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        if not 0 <= stream_index < _MAX_U64:
            raise ValueError(
                f"stream_index must be an unsigned 64-bit integer, got {stream_index!r}"
            )
        self.seed = seed
        self.stream_index = stream_index
        self.algorithm = ALGORITHM_ID
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._bit_generator = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._bit_generator)

    def random(self, size=None):
        """Uniform float64 samples in [0, 1)."""
        return self._generator.random(size)

    def integers(self, low, high, size=None):
        """Integers in [low, high), numpy Generator semantics."""
        return self._generator.integers(low, high, size=size)

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
            f"algorithm={self.algorithm!r})"
        )


def stream_from_seed(seed: int, index: int) -> RngStream:
    """Return the stream named by (seed, index); distinct indices are independent."""
    return RngStream(seed, index)


def partition_sizes(n: int, parts: int) -> list[int]:
    """Split n trials into near-equal chunks; the first n % parts chunks get one extra."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def pool_size(workers: int) -> int:
    """Threads map_partitions runs workers chunks on: at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


def map_partitions(n: int, workers: int, worker_fn):
    """Run worker_fn(worker_index, chunk_size) per chunk; results in worker order.

    Chunks run on pool_size(workers) threads, in the calling thread when that
    is 1. Each worker function must derive its own RngStream from its index,
    which makes the returned list a pure function of (seed, workers)
    regardless of scheduling or thread count.
    """
    sizes = partition_sizes(n, workers)
    threads = pool_size(workers)
    if threads == 1:
        return list(map(worker_fn, range(workers), sizes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker_fn, range(workers), sizes))
