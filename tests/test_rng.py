import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photonlab import draw, rng
from photonlab.core import sample_count_array
from photonlab.entangle import _correlation_columns
from photonlab.rng import (
    ALGORITHM_ID,
    WORDS_ID,
    RngStream,
    binomial_array,
    philox,
    stream_from_seed,
    stream_keys,
)

# first raw words of stream (42, 0); pins the generator across versions
_REFERENCE_RAW = [
    15129985323320379406,
    3490965594592278910,
    16005516994917231875,
    7278743398533373529,
]


def _stream_words(seed, index, n):
    """The first n uniform words of stream (seed, index): the Philox blocks
    at counters (k, 0, 0, 0), k = 1, 2, ..."""
    blocks = -(-n // 4)
    counter = np.zeros((4, blocks), dtype=np.uint64)
    counter[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    return philox(stream_keys(seed, range(index, index + 1)), counter).T.reshape(-1)[:n]


def test_algorithm_id_is_stable():
    assert ALGORITHM_ID == "numpy-philox-4x64/btrd"
    assert WORDS_ID == "numpy-philox-4x64"
    assert repr(stream_from_seed(0, 3)) == "RngStream(seed=0, stream_index=3)"


def test_same_seed_and_index_reproduce_the_sequence():
    a = stream_from_seed(42, 0).random(1000)
    b = stream_from_seed(42, 0).random(1000)
    np.testing.assert_array_equal(a, b)


def test_reference_sequence_is_pinned():
    raw = _stream_words(42, 0, 4)
    assert raw.dtype == np.uint64
    assert list(int(v) for v in raw) == _REFERENCE_RAW


def test_stream_is_philox_keyed_by_seed_and_index():
    for seed, index in [(0, 0), (42, 0), (7, 3), (2**64 - 1, 2**64 - 1)]:
        a = _stream_words(seed, index, 16)
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
    keyed = [(5, i) for i in range(64)] + [(seed, 99) for seed in range(6, 10)]
    words = np.concatenate([_stream_words(seed, index, 10_000) for seed, index in keyed])
    assert np.unique(words).size == words.size


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


# --- the words are numpy's Philox-4x64 ------------------------------------------------

u64 = st.integers(0, 2**64 - 1)


@given(u64, u64, st.integers(0, 2**256 - 1))
@example(2**64 - 1, 2**64 - 1, 0)
@example(2**64 - 1, 2**64 - 1, 2**256 - 1)
@example(0, 0, 2**64)
def test_philox_is_numpys_block_at_any_counter(seed, index, counter):
    # numpy's Philox steps its counter before each block, so its first block
    # is the one at the counter after the one it starts from
    start = (counter - 1) % 2**256
    words = np.array([(start >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64)
    want = np.random.Philox(key=np.array([seed, index], dtype=np.uint64),
                            counter=words).random_raw(4)
    column = np.array([(counter >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64)
    got = philox(stream_keys(seed, range(index, index + 1)), column[:, None])
    assert got.dtype == np.uint64 and got.shape == (4, 1)
    assert got[:, 0].tolist() == want.tolist()


def test_philox_runs_many_keys_and_counters_at_once():
    keys = stream_keys(3, range(40))
    counters = np.arange(160, dtype=np.uint64).reshape(4, 40)
    both = philox(keys, counters)
    one_key = philox(keys[:, :1], counters)
    one_counter = philox(keys, counters[:, :1])
    for j in range(40):
        key, counter = keys[:, j:j + 1], counters[:, j:j + 1]
        assert both[:, j].tolist() == philox(key, counter)[:, 0].tolist()
        assert one_key[:, j].tolist() == philox(keys[:, :1], counter)[:, 0].tolist()
        assert one_counter[:, j].tolist() == philox(key, counters[:, :1])[:, 0].tolist()


draw_sizes = st.lists(st.integers(0, 13), max_size=12)


@settings(max_examples=60)
@given(u64, u64, draw_sizes, st.integers(1, 3))
def test_uniform_draws_follow_numpy_across_block_and_slice_boundaries(seed, index, sizes,
                                                                     slice_blocks):
    # slices of 1-3 blocks put slice boundaries among a few words
    generator = np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                                   dtype=np.uint64)))
    stream = stream_from_seed(seed, index)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "SLICE_BLOCKS", slice_blocks)
        for size in sizes:
            assert stream.random(size).tolist() == generator.random(size).tolist()
        assert stream.random() == generator.random()


def test_partial_block_draws_continue_the_sequence():
    whole = stream_from_seed(11, 4).random(4)
    parts = stream_from_seed(11, 4)
    assert parts.random(1).tolist() + parts.random(3).tolist() == whole.tolist()
    shaped = stream_from_seed(11, 4).random((2, 3))
    assert shaped.shape == (2, 3)
    assert shaped.ravel().tolist() == stream_from_seed(11, 4).random(6).tolist()


def test_a_large_uniform_draw_runs_in_slices(monkeypatch):
    widths = []
    kernel = rng.philox

    def recording_philox(key, counter):
        widths.append(np.shape(counter)[1])
        return kernel(key, counter)

    monkeypatch.setattr(rng, "philox", recording_philox)
    n = 2 * 4 * rng.SLICE_BLOCKS + 5
    got = stream_from_seed(6, 1).random(n)
    assert widths == [rng.SLICE_BLOCKS, rng.SLICE_BLOCKS, 2]
    key = np.array([6, 1], dtype=np.uint64)
    assert got.tolist() == np.random.Generator(np.random.Philox(key=key)).random(n).tolist()


# --- a sweep keys each point's stream ----------------------------------------------

# the first row of a two-row sweep: it draws nothing, one binomial or a chain of three
_FIRST_ROWS = {"none": [1.0, 0.0, 0.0, 0.0], "one": [0.3, 0.7, 0.0, 0.0],
               "chain": [0.1, 0.2, 0.3, 0.4]}


@settings(max_examples=200)
@given(u64, u64, u64, st.sampled_from(sorted(_FIRST_ROWS)))
@example(0, 0, 1, "chain")
@example(2**64 - 1, 2**64 - 1, 0, "one")
@example(5, 0, 2**64 - 1, "none")
def test_a_rekeyed_stream_draws_what_a_new_stream_draws(seed, first, index, kind):
    # a sweep re-keys its chain to each row's stream: the row after one that
    # drew anything draws what a new stream of its own index draws
    assume(first != index)
    probs = np.array([_FIRST_ROWS[kind], [0.37, 0.13, 0.25, 0.25]])
    n = np.array([1000, 10**6])
    step = index - first
    got = sample_count_array(probs, n, seed, range(first, index + step, step))
    fresh, _ = draw.counts(probs[1], 10**6, draw.stream_key(seed, index), 0)
    assert got[1].tolist() == fresh
    assert got[0].tolist() == draw.counts(probs[0], 1000, draw.stream_key(seed, first), 0)[0]


@given(u64, u64, u64, st.integers(1, 2**64 - 1))
@example(0, 2**63 - 2, 2**63 + 1, 1)  # indices below and above 2^63
@example(0, 2**64 - 1, 0, 1)
@example(0, 2**64 - 1, 0, 2**63 + 7)
def test_streams_yields_the_stream_of_each_index(seed, first, last, step):
    # stream_keys gives a sweep the stream of each index at once: its key,
    # its uniform words and its binomial draws
    sign = 1 if first <= last else -1
    indices = range(first, last + sign, sign * step)[:8]
    keys = stream_keys(seed, indices)
    assert keys.T.tolist() == [[seed, i] for i in indices]
    first_block = np.zeros((4, 1), dtype=np.uint64)
    first_block[0] = 1
    assert philox(keys, first_block).T.tolist() == [
        np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(4).tolist()
        for i in indices]
    size = len(indices)
    drawn = [binomial_array(np.full(size, n), np.full(size, 0.37), keys, np.full(size, d))
             for d, n in enumerate((1, 40, 10**6))]
    assert np.array(drawn, dtype=np.int64).reshape(3, size).T.tolist() == [
        [draw.binomial(n, 0.37, draw.stream_key(seed, i), d) for d, n in enumerate((1, 40, 10**6))]
        for i in indices]


def test_stream_key_bounds_are_enforced():
    with pytest.raises(ValueError):
        stream_keys(2**64, range(1))
    for bad in (range(-1, 0), range(2**64, 2**64 + 1), range(0, 2**64 + 1, 2**64), range(-1, 2),
                range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError):
            stream_keys(1, bad)
    top = 2**64 - 1
    assert stream_keys(1, range(top, top - 3, -1))[1].tolist() == [top, top - 1, top - 2]
    assert stream_keys(1, range(top - 2, top + 1))[1].tolist() == [top - 2, top - 1, top]
    assert stream_keys(1, range(0))[1].tolist() == []
    # a sweep whose last point would need index 2^64 is refused before any draw
    with pytest.raises(ValueError):
        _correlation_columns([0.1, 0.2], 0.0, 10, seed=1, stream_base=top)
    with pytest.raises(ValueError):
        sample_count_array([[0.5, 0.5]], 10, 1, range(2**64, 2**64 + 1))

