import os

import numpy as np
import pytest

from photonlab import rng
from photonlab.rng import (
    ALGORITHM_ID,
    RngStream,
    map_partitions,
    partition_sizes,
    pool_size,
    stream_from_seed,
)

# first raw words of stream (42, 0); pins the generator across versions
_REFERENCE_RAW = [
    15129985323320379406,
    3490965594592278910,
    16005516994917231875,
    7278743398533373529,
]


def test_algorithm_id_is_stable():
    assert ALGORITHM_ID == "numpy-philox-4x64"
    assert stream_from_seed(0, 0).algorithm == ALGORITHM_ID


def test_same_seed_and_index_reproduce_the_sequence():
    a = stream_from_seed(42, 0).random(1000)
    b = stream_from_seed(42, 0).random(1000)
    np.testing.assert_array_equal(a, b)


def test_reference_sequence_is_pinned():
    raw = stream_from_seed(42, 0).raw_u64(4)
    assert raw.dtype == np.uint64
    assert list(int(v) for v in raw) == _REFERENCE_RAW


def test_distinct_indices_give_distinct_sequences():
    a = stream_from_seed(42, 0).random(100)
    b = stream_from_seed(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_vector_draws_match_scalar_draws():
    vec = stream_from_seed(7, 3).random(50)
    scalar_stream = stream_from_seed(7, 3)
    scalars = np.array([scalar_stream.random() for _ in range(50)])
    np.testing.assert_array_equal(vec, scalars)


def test_uniform_mean_is_where_it_should_be():
    n = 1_000_000
    mean = stream_from_seed(42, 0).random(n).mean()
    sigma = 1.0 / np.sqrt(12 * n)
    assert abs(mean - 0.5) < 4 * sigma


def test_streams_share_no_raw_words():
    # 64 streams x 10^4 words: any collision would be a keying bug
    words = np.concatenate([stream_from_seed(5, i).raw_u64(10_000) for i in range(64)])
    assert np.unique(words).size == words.size


def test_integers_cover_the_range():
    draws = stream_from_seed(1, 0).integers(0, 2, 10_000)
    assert set(np.unique(draws)) == {0, 1}
    assert abs(draws.mean() - 0.5) < 4 * np.sqrt(0.25 / 10_000)


def test_permutation_and_shuffle_preserve_elements():
    s = stream_from_seed(9, 2)
    perm = s.permutation(100)
    assert sorted(perm) == list(range(100))
    arr = np.arange(37)
    s.shuffle(arr)
    assert sorted(arr) == list(range(37))


def test_seed_and_index_bounds_are_enforced():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    RngStream(2**64 - 1, 2**64 - 1)  # the extremes are valid


def test_partition_sizes_are_near_equal_and_sum():
    for n, parts in [(10, 3), (1, 4), (100, 7), (0, 2), (5, 5)]:
        sizes = partition_sizes(n, parts)
        assert sum(sizes) == n
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        partition_sizes(10, 0)
    with pytest.raises(ValueError):
        partition_sizes(-1, 2)


def test_map_partitions_keeps_worker_order():
    def work(worker, size):
        return (worker, size)

    assert map_partitions(10, 1, work) == [(0, 10)]
    results = map_partitions(10, 3, work)
    assert results == [(0, 4), (1, 3), (2, 3)]


def test_map_partitions_threaded_equals_sequential():
    def work(worker, size):
        return stream_from_seed(3, worker).random(size).sum()

    threaded = map_partitions(10_000, 4, work)
    sequential = [work(w, s) for w, s in enumerate(partition_sizes(10_000, 4))]
    assert threaded == sequential


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    cpus = os.cpu_count() or 1
    assert pool_size(1) == 1
    assert pool_size(10**6) == cpus
    assert pool_size(cpus) == cpus
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_size(3) == 3
    assert pool_size(100_000) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(8) == 1


def test_many_workers_share_a_capped_pool_in_worker_order(monkeypatch):
    def work(worker, size):
        return worker, size, stream_from_seed(4, worker).random(size).sum()

    capped = map_partitions(1000, 64, work)
    sequential = [work(w, s) for w, s in enumerate(partition_sizes(1000, 64))]
    assert capped == sequential
    assert [r[0] for r in capped] == list(range(64))
    # one thread per worker, as before the cap, gives the same list
    monkeypatch.setattr(rng, "pool_size", lambda workers: workers)
    assert map_partitions(1000, 64, work) == capped
