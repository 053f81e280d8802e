import numpy as np
import pytest

from photonlab.rng import ALGORITHM_ID, RngStream, stream_from_seed

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


def test_stream_is_philox_keyed_by_seed_and_index():
    for seed, index in [(0, 0), (42, 0), (7, 3), (2**64 - 1, 2**64 - 1)]:
        a = stream_from_seed(seed, index).raw_u64(16)
        key = np.array([seed, index], dtype=np.uint64)
        b = np.random.Philox(key=key, counter=0).random_raw(16)
        np.testing.assert_array_equal(a, b)


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
    # 64 indices of one seed plus 4 seeds of one index, x 10^4 words each: any
    # collision would be a keying bug
    streams = [stream_from_seed(5, i) for i in range(64)]
    streams += [stream_from_seed(seed, 99) for seed in range(6, 10)]
    words = np.concatenate([s.raw_u64(10_000) for s in streams])
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
    with pytest.raises(TypeError):
        RngStream(0, 0, 1)  # streams have no blocks
    RngStream(2**64 - 1, 2**64 - 1)  # the extremes are valid

