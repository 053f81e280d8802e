import math
import tracemalloc

import numpy as np
import pytest

from photonlab import protocol
from photonlab.core import MeasurementBasis, collapse, ket_from_angle, states_equal
from photonlab.entangle import conditional_state, make_pair
from photonlab.protocol import (
    BasisOracle,
    EncodingRule,
    FixedBasisML,
    PhotonStream,
    Repetition,
    encode,
    mutual_information,
    receive,
    run_protocol,
    standard_strategies,
)
from photonlab.rng import ALGORITHM_ID, BLOCK, stream_from_seed
from photonlab.stats import bit_table


def balanced_bits(n, seed):
    bits = np.repeat([0, 1], n // 2)
    stream_from_seed(seed, 0).shuffle(bits)
    return bits


def bob_state(photons, i):
    return photons.states[photons.bits[i]][photons.outcomes[i]]


def test_encoding_rule_defaults_and_degeneracy():
    rule = EncodingRule()
    assert rule.basis_for(1) == 0.0
    assert rule.basis_for(0) == math.pi / 4
    assert not rule.is_degenerate
    assert EncodingRule(0.2, 0.2).is_degenerate
    # a basis and its perpendicular share the same eigenvector pair
    assert EncodingRule(0.2, 0.2 + math.pi / 2).is_degenerate
    assert EncodingRule(math.pi + 0.3, 0.3).basis_for_one == pytest.approx(0.3, abs=1e-12)


def test_encode_tags_and_states():
    rule = EncodingRule()
    rng = stream_from_seed(81, 0)
    photons = encode([1] * 400 + [0] * 400, rule, rng)
    pair = make_pair()
    aligned = 0
    for i in range(400):
        assert rule.basis_for(photons.bits[i]) == 0.0
        s0 = conditional_state(pair, 0.0, 0)[1]
        s1 = conditional_state(pair, 0.0, 1)[1]
        state = bob_state(photons, i)
        assert states_equal(state, s0) or states_equal(state, s1)
        aligned += states_equal(state, s0)
    assert abs(aligned / 400 - 0.5) < 4 * math.sqrt(0.25 / 400)
    for i in range(400, 800):
        assert rule.basis_for(photons.bits[i]) == pytest.approx(math.pi / 4, abs=1e-15)


def test_encode_indexing_and_validation():
    rule = EncodingRule()
    photons = encode([1, 0], rule, stream_from_seed(82, 0), pairs_per_bit=3)
    assert list(photons.bits) == [1, 1, 1, 0, 0, 0]
    assert len(photons) == 6
    with pytest.raises(ValueError):
        encode([], rule, stream_from_seed(82, 0))
    with pytest.raises(ValueError):
        encode([1], rule, stream_from_seed(82, 0), pairs_per_bit=0)
    with pytest.raises(ValueError):
        encode([2, 0], rule, stream_from_seed(82, 0))


def test_encode_draws_are_reconstructible():
    rule = EncodingRule()
    pair = make_pair()
    n = 1000
    photons = encode([1] * n, rule, stream_from_seed(83, 0))
    u = stream_from_seed(83, 0).random(n)
    for i, draw in enumerate(u):
        outcome = int(draw >= 0.5)
        assert photons.outcomes[i] == outcome
        assert states_equal(bob_state(photons, i), conditional_state(pair, 0.0, outcome)[1])


def test_bob_state_always_sits_in_the_tagged_eigenset():
    rng = stream_from_seed(84, 0)
    for _ in range(5):
        one, zero = rng.random(2) * math.pi
        rule = EncodingRule(one, zero)
        photons = encode([0, 1] * 50, rule, rng)
        for i in range(len(photons)):
            basis = MeasurementBasis(rule.basis_for(photons.bits[i]))
            state = bob_state(photons, i)
            assert states_equal(state, basis.eigenvector(0)) or states_equal(
                state, basis.eigenvector(1)
            )


def test_strategy_labels_and_pair_counts():
    assert FixedBasisML(0.0).label == "fixed-basis-ml:0"
    assert FixedBasisML(math.pi / 8).label == "fixed-basis-ml:22.5"
    assert BasisOracle().label == "basis-oracle"
    rep = Repetition(11, FixedBasisML(math.pi / 8))
    assert rep.label == "repetition:11:fixed-basis-ml:22.5"
    assert rep.pairs_per_bit == 11
    assert Repetition(3, Repetition(5, BasisOracle())).pairs_per_bit == 15
    with pytest.raises(ValueError):
        Repetition(0, BasisOracle())
    names = [s.label for s in standard_strategies()]
    assert names == ["fixed-basis-ml:0", "fixed-basis-ml:22.5", "repetition:11:fixed-basis-ml:22.5"]


def test_oracle_receiver_reads_every_bit():
    rng = stream_from_seed(85, 0)
    for seed in (0, 1, 2):
        for rule in (EncodingRule(), EncodingRule(0.3, 1.2), EncodingRule(1.0, 0.1)):
            bits = (rng.random(500) < 0.5).astype(int)
            photons = encode(bits, rule, stream_from_seed(seed, 1))
            decoded = receive(photons, BasisOracle(), rule, stream_from_seed(seed, 2))
            np.testing.assert_array_equal(decoded, bits)


def test_fixed_basis_ml_decodes_nothing():
    report = run_protocol(100_000, strategy=FixedBasisML(0.0), seed=11)
    sigma = math.sqrt(0.25 / 100_000)
    assert abs(report.ber - 0.5) < 3 * sigma
    assert report.decode_ties == 100_000
    assert report.mutual_info_bits == 0.0
    assert report.mi_confidence_interval[0] == 0.0


def test_repetition_cannot_amplify_zero_information():
    report = run_protocol(
        10_000, strategy=Repetition(101, FixedBasisML(math.pi / 8)), seed=12
    )
    sigma = math.sqrt(0.25 / 10_000)
    assert abs(report.ber - 0.5) < 3 * sigma
    assert report.mutual_info_bits == 0.0


def test_receive_validates_the_photon_count():
    rule = EncodingRule()
    photons = encode([1, 0, 1], rule, stream_from_seed(86, 0))
    with pytest.raises(ValueError):
        receive(photons, Repetition(2, BasisOracle()), rule, stream_from_seed(86, 1))
    with pytest.raises(ValueError):
        receive([], BasisOracle(), rule, stream_from_seed(86, 1))


def test_majority_tie_resolves_to_zero():
    rule = EncodingRule()
    state = ket_from_angle(0.0)
    # one photon encoding a 1 (basis 0) and one encoding a 0 (basis pi/4)
    photons = PhotonStream(
        bits=np.array([1, 0]), outcomes=np.array([0, 0]), states=((state, state), (state, state))
    )
    decoded = receive(photons, Repetition(2, BasisOracle()), rule, stream_from_seed(87, 0))
    np.testing.assert_array_equal(decoded, [0])


def test_unknown_strategy_is_rejected():
    class Mystery:
        label = "mystery"
        pairs_per_bit = 1

    rule = EncodingRule()
    photons = encode([1], rule, stream_from_seed(88, 0))
    with pytest.raises(ValueError):
        receive(photons, Mystery(), rule, stream_from_seed(88, 1))


def test_degenerate_rule_blinds_even_the_oracle():
    rule = EncodingRule(0.4, 0.4 + math.pi / 2)
    report = run_protocol(4000, rule=rule, strategy=BasisOracle(), seed=13)
    assert report.decode_ties == 4000
    assert abs(report.ber - 0.5) < 4 * math.sqrt(0.25 / 4000)


def test_mutual_information_identity_channel():
    x = balanced_bits(10_000, 91)
    mi, (lo, hi) = mutual_information(bit_table(x, x))
    assert mi == 1.0
    assert lo <= 1.0 <= hi
    mi, (lo, hi) = mutual_information(bit_table(x, 1 - x))
    assert mi == 1.0
    assert hi == 1.0


def test_mutual_information_independent_channel():
    gen = stream_from_seed(92, 0)
    x = (gen.random(100_000) < 0.5).astype(int)
    y = (gen.random(100_000) < 0.5).astype(int)
    mi, (lo, hi) = mutual_information(bit_table(x, y))
    assert mi < 0.001
    assert lo == 0.0
    assert lo <= mi <= hi


def test_mutual_information_tracks_known_binary_channels():
    n = 100_000
    x = balanced_bits(n, 93)
    for i, p in enumerate((0.0, 0.1, 0.25, 0.5)):
        flips = stream_from_seed(94, i).random(n) < p
        y = np.where(flips, 1 - x, x)
        truth = 1.0 if p in (0.0, 1.0) else 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
        mi, (lo, hi) = mutual_information(bit_table(x, y))
        assert lo <= truth <= hi, f"p={p}: {truth} outside [{lo}, {hi}]"
        assert lo <= mi <= hi


def test_mutual_information_validation():
    for table in ([0, 1, 1], [2, -1, 0, 3], [0.5, 0.5, 1.0, 1.0], [0, 0, 0, 0]):
        with pytest.raises(ValueError, match="table"):
            mutual_information(table)


def test_run_protocol_is_deterministic():
    a = run_protocol(2000, seed=14, workers=4)
    b = run_protocol(2000, seed=14, workers=4)
    assert a == b
    c = run_protocol(2000, seed=15, workers=4)
    assert a != c
    assert a.rng_algorithm == ALGORITHM_ID
    assert a.bit_source == "iid"
    assert a.n_bits == 2000
    lo, hi = a.mi_confidence_interval
    assert lo <= a.mutual_info_bits <= hi


def test_three_block_reports_keep_their_pinned_values():
    # 600,000 bits are three blocks of 2^18 bits, reduced to count tables and
    # summed; the values are those of the report computed from joined columns
    oracle = run_protocol(600_000, strategy=BasisOracle(), seed=5, workers=3)
    assert oracle.ber == 0.0
    assert oracle.mutual_info_bits == 0.9999995110144906
    assert oracle.mi_confidence_interval == (0.9999934694953208, 1.0)
    assert oracle.decode_ties == 0
    strategy = Repetition(11, FixedBasisML(math.radians(22.5)))
    repetition = run_protocol(600_000, strategy=strategy, seed=5, workers=3)
    assert repetition.ber == 0.5004116666666667
    assert repetition.mutual_info_bits == 0.0
    assert repetition.mi_confidence_interval == (0.0, 0.0)
    assert repetition.decode_ties == 11 * 600_000


def test_standard_strategies_extract_nothing_small_scale():
    for strategy in standard_strategies():
        report = run_protocol(20_000, strategy=strategy, seed=16)
        assert report.mutual_info_bits < 0.001
        assert report.mi_confidence_interval[0] == 0.0
        assert report.strategy is strategy


def test_oracle_with_balanced_bits_is_a_perfect_channel():
    report = run_protocol(
        2000, strategy=BasisOracle(), seed=17, workers=2, bit_source="balanced"
    )
    assert report.ber == 0.0
    assert report.mutual_info_bits == 1.0
    assert report.decode_ties == 0
    assert report.mi_confidence_interval[1] == 1.0


def test_run_protocol_validation():
    with pytest.raises(ValueError):
        run_protocol(0)
    with pytest.raises(ValueError):
        run_protocol(100, bit_source="alternating")
    # balanced bits split n_bits into equal halves, whatever the workers
    with pytest.raises(ValueError):
        run_protocol(5, bit_source="balanced")
    two = run_protocol(6, bit_source="balanced", seed=20, workers=2)
    assert two == run_protocol(6, bit_source="balanced", seed=20, workers=1)


def test_balanced_bits_are_balanced_over_all_blocks():
    # the fixed-basis receiver decodes every bit as 0, so ber is the share of ones
    n = 2 * BLOCK + 6
    report = run_protocol(n, seed=21, workers=2, bit_source="balanced")
    assert report.ber == 0.5
    assert report == run_protocol(n, seed=21, workers=1, bit_source="balanced")


@pytest.mark.parametrize("n_bits", [2, BLOCK, 2 * BLOCK + 6])
def test_balanced_bits_hold_half_ones_in_every_block(monkeypatch, n_bits):
    full, rest = divmod(n_bits, BLOCK)
    reports = []
    for workers in (1, 3):
        seen = []

        def spy(x, y):
            seen.append((len(x), int(np.sum(x))))
            return bit_table(x, y)

        monkeypatch.setattr(protocol, "bit_table", spy)
        reports.append(run_protocol(n_bits, strategy=BasisOracle(), seed=23, workers=workers,
                                    bit_source="balanced"))
        assert sorted(size for size, _ in seen) == sorted([BLOCK] * full + [rest] * (rest > 0))
        assert all(ones == size // 2 for size, ones in seen)
    assert reports[0] == reports[1]


def test_balanced_bits_take_memory_per_block_not_per_bit():
    peaks = []
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            run_protocol(blocks * BLOCK, strategy=BasisOracle(), seed=24, bit_source="balanced")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one int64 array of all the bits would add 24 MiB between the two runs
    assert peaks[1] <= peaks[0] + 2**20


def test_more_workers_than_bits_leaves_chunks_empty():
    report = run_protocol(2, seed=19, workers=3)
    assert report.n_bits == 2
    assert report.ber in (0.0, 0.5, 1.0)
    assert report.decode_ties == 2
    lo, hi = report.mi_confidence_interval
    assert 0.0 <= lo <= report.mutual_info_bits <= hi <= 1.0
    assert report == run_protocol(2, seed=19, workers=1)
    oracle = run_protocol(3, strategy=BasisOracle(), seed=19, workers=5)
    assert oracle.ber == 0.0
    assert oracle.decode_ties == 0


def test_encodings_of_zero_and_one_are_indistinguishable():
    # measure both populations in one fixed basis and compare pass rates
    rule = EncodingRule()
    n = 5000
    ones = encode([1] * n, rule, stream_from_seed(96, 0))
    zeros = encode([0] * n, rule, stream_from_seed(96, 1))
    basis = MeasurementBasis(0.3)
    rng = stream_from_seed(96, 2)
    count_one = sum(collapse(bob_state(ones, i), basis, rng).outcome == 0 for i in range(n))
    count_zero = sum(collapse(bob_state(zeros, i), basis, rng).outcome == 0 for i in range(n))
    p = (count_one + count_zero) / (2 * n)
    z = (count_one / n - count_zero / n) / math.sqrt(p * (1 - p) * 2 / n)
    assert abs(z) < 4


def test_no_information_even_at_a_million_bits():
    report = run_protocol(1_000_000, strategy=FixedBasisML(0.0), seed=18, workers=4)
    assert report.mutual_info_bits == 0.0
    assert report.mi_confidence_interval[0] == 0.0
