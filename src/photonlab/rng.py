"""Seeded, splittable random streams for reproducible Monte Carlo runs.

Every stochastic routine in this package draws from an RngStream named by a
(seed, stream_index) pair. Streams are backed by a counter-based generator
(numpy's Philox-4x64) keyed by that pair, with the counter starting at 0, so
the same pair produces the same sequence on every platform and distinct pairs
are independent.

A Monte Carlo point draws its counts from its own stream, and the protocol
draws from at most three streams per run, whatever its number of bits. A run
of many points names their streams through streams(), which re-keys one
generator per point instead of building one: the same words, at a fraction
of the cost.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

# the generator; every result file carries it
ALGORITHM_ID = "numpy-philox-4x64"

_MAX_U64 = 2**64


def _u64(value, name: str) -> int:
    value = int(value)
    if not 0 <= value < _MAX_U64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return value


class RngStream:
    """One independent random stream. Single-owner: never share across threads."""

    def __init__(self, seed: int, stream_index: int):
        seed = _u64(seed, "seed")
        stream_index = _u64(stream_index, "stream_index")
        self.seed = seed
        self.stream_index = stream_index
        self.algorithm = ALGORITHM_ID
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._bit_generator = np.random.Philox(key=key, counter=0)
        self._generator = np.random.Generator(self._bit_generator)

    def rekey(self, stream_index: int) -> None:
        """Make this the stream (seed, stream_index) from its first word, as
        stream_from_seed(seed, stream_index) would build it: key (seed,
        stream_index), counter 0, and no buffered word or half-used uint32,
        whatever was drawn before."""
        stream_index = _u64(stream_index, "stream_index")
        self.stream_index = stream_index
        # buffer_pos 4 marks Philox's 4-word output buffer as empty
        self._bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.seed, stream_index)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

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


def streams(seed: int, indices: Iterable[int]) -> Iterator[RngStream]:
    """The stream of each (seed, index) in turn, drawing the same words as
    stream_from_seed(seed, index): one stream, re-keyed for every index after
    the first. A yielded stream is valid until the next one is yielded."""
    stream = None
    for index in indices:
        if stream is None:
            stream = RngStream(seed, index)
        else:
            stream.rekey(index)
        yield stream
