"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from an RngStream named by a
(seed, stream_index) pair. Streams are backed by a counter-based generator
(numpy's Philox-4x64) keyed by that pair, with the counter starting at 0, so
the same pair produces the same sequence on every platform and distinct pairs
are independent.

A Monte Carlo point draws its counts from its own stream, and the protocol
draws from at most three streams per run, whatever its number of bits.
"""

from __future__ import annotations

import numpy as np

# the generator; every result file carries it
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
        self._bit_generator = np.random.Philox(key=key, counter=0)
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
            f"algorithm={self.algorithm!r})"
        )


def stream_from_seed(seed: int, index: int) -> RngStream:
    """Return the stream named by (seed, index); distinct pairs are independent."""
    return RngStream(seed, index)
