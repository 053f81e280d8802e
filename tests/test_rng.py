import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab.rng import ALGORITHM_ID, RngStream, stream_from_seed, streams

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
    keyed = [stream_from_seed(5, i) for i in range(64)]
    keyed += [stream_from_seed(seed, 99) for seed in range(6, 10)]
    words = np.concatenate([s.raw_u64(10_000) for s in keyed])
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



# --- re-keyed streams ----------------------------------------------------------------

u64 = st.integers(0, 2**64 - 1)


def _predraw(stream, kind):
    """Leave the generator part way through its output, as a run's draws may."""
    if kind == "uint32":  # half of a 64-bit word kept for the next uint32
        stream._generator.integers(0, 2**32, size=3, dtype=np.uint32)
    elif kind == "buffered":  # words of Philox's 4-word output block left unread
        stream.raw_u64(5)
    elif kind == "binomial":
        stream.binomial(1000, 0.3)


def _draws(stream):
    return (stream.raw_u64(9).tolist(), [stream.binomial(n, 0.37) for n in (1, 40, 10**6)],
            stream.random(3).tolist(), stream._generator.integers(0, 2**32, size=3,
                                                                  dtype=np.uint32).tolist())


@settings(max_examples=200)
@given(u64, u64, u64, st.sampled_from(["none", "uint32", "buffered", "binomial"]))
@example(0, 0, 0, "uint32")
@example(2**64 - 1, 2**64 - 1, 0, "buffered")
@example(5, 0, 2**64 - 1, "uint32")
def test_a_rekeyed_stream_draws_what_a_new_stream_draws(seed, first, index, kind):
    stream = RngStream(seed, first)
    _predraw(stream, kind)
    stream.rekey(index)
    assert stream.stream_index == index
    assert _draws(stream) == _draws(stream_from_seed(seed, index))


def test_the_predraws_leave_a_half_used_word_and_a_buffered_one():
    stream = stream_from_seed(3, 0)
    _predraw(stream, "uint32")
    assert stream._bit_generator.state["has_uint32"] == 1
    stream = stream_from_seed(3, 0)
    _predraw(stream, "buffered")
    assert stream._bit_generator.state["buffer_pos"] < 4


@given(u64, st.lists(u64, max_size=8))
def test_streams_yields_the_stream_of_each_index(seed, indices):
    yielded = [(s.seed, s.stream_index, _draws(s)) for s in streams(seed, indices)]
    assert yielded == [(seed, i, _draws(stream_from_seed(seed, i))) for i in indices]


def test_rekey_bounds_are_enforced():
    stream = stream_from_seed(1, 2)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            stream.rekey(bad)
    assert stream.stream_index == 2
    with pytest.raises(ValueError):
        next(streams(2**64, [0]))
