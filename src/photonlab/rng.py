"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from an RngStream named by a
(seed, stream_index, block) triple. Streams are backed by a counter-based
generator (numpy's Philox-4x64): the key is (seed, stream_index) and the block
sits in the high half of the 256-bit counter, so each block owns 2^128
counters and the same triple produces the same sequence on every platform.

A Monte Carlo point draws its counts from block 0 of its stream, which is the
stream keyed by (seed, stream_index) alone. Blocks remain only for the
protocol, which works through its bits a chunk at a time and draws chunk b
from block b of its streams.
"""

from __future__ import annotations

import numpy as np

# the generator, and the protocol's chunks of 2^18 bits on block-offset counters;
# every result file carries it
ALGORITHM_ID = "numpy-philox-4x64/block-2^18"

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

