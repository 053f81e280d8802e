import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonlab import draw, protocol
from photonlab.cli import MAX_PAIRS_PER_BIT, MAX_STRATEGY_NESTING, MAX_TRIALS
from photonlab.core import MeasurementBasis, states_equal
from photonlab.entangle import conditional_state, joint_probabilities, make_pair
from photonlab.protocol import (
    BIT_SOURCES,
    BasisOracle,
    EncodingRule,
    FixedBasisML,
    Repetition,
    mutual_information,
    parse_strategy,
    receiver_law,
    run_protocol,
)
from photonlab import draw
from photonlab.rng import ALGORITHM_ID, WORDS_ID, stream_from_seed
from photonlab.runner_protocol import _strategy
from photonlab.stats import bit_table

# standard-physics receivers, no oracle
STANDARD_STRATEGIES = (
    FixedBasisML(0.0),
    FixedBasisML(math.pi / 8),
    Repetition(11, FixedBasisML(math.pi / 8)),
)


def balanced_bits(n, seed):
    # numpy's generator on the Philox words of stream (seed, 0), the shuffle
    # RngStream wrapped up to 0.9
    bits = np.repeat([0, 1], n // 2)
    np.random.Generator(np.random.Philox(key=[seed, 0])).shuffle(bits)
    return bits


# angles in [0, pi), with a few that make the rule degenerate or put the
# receiver on an encoding basis
angles = st.one_of(st.floats(0.0, math.pi, exclude_max=True),
                   st.sampled_from([0.0, math.pi / 8, math.pi / 4, math.pi / 2]))
rules = st.builds(EncodingRule, angles, angles)


def test_encoding_rule_defaults_and_degeneracy():
    rule = EncodingRule()
    assert rule.basis_for(1) == 0.0
    assert rule.basis_for(0) == math.pi / 4
    assert not rule.is_degenerate
    assert EncodingRule(0.2, 0.2).is_degenerate
    # a basis and its perpendicular share the same eigenvector pair
    assert EncodingRule(0.2, 0.2 + math.pi / 2).is_degenerate
    assert EncodingRule(math.pi + 0.3, 0.3).basis_for_one == pytest.approx(0.3, abs=1e-12)


@given(rules, st.integers(0, 1), st.integers(0, 1))
def test_bob_state_always_sits_in_the_tagged_eigenset(rule, bit, outcome):
    basis = MeasurementBasis(rule.basis_for(bit))
    state = conditional_state(make_pair(), basis, outcome)[1]
    assert states_equal(state, basis.eigenvector(0)) or states_equal(state, basis.eigenvector(1))


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
    names = [s.label for s in STANDARD_STRATEGIES]
    assert names == ["fixed-basis-ml:0", "fixed-basis-ml:22.5", "repetition:11:fixed-basis-ml:22.5"]


def test_oracle_receiver_reads_every_bit():
    for rule in (EncodingRule(), EncodingRule(0.3, 1.2), EncodingRule(1.0, 0.1)):
        assert receiver_law(BasisOracle(), rule) == ({(0, 0): 1.0}, {(1, 0): 1.0})
        for seed in (0, 1, 2):
            assert run_protocol(500, rule, BasisOracle(), seed).ber == 0.0


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


def test_a_receiver_of_any_depth_is_walked_without_recursion():
    # 3,000 nested repetitions, past Python's default recursion limit of 1,000
    for inner, ties in (("basis-oracle", 0), ("fixed-basis-ml:22.5", 1)):
        for k in (1, 2):
            label = f"repetition:{k}:" * 3000 + inner
            deep = parse_strategy(label)
            assert deep.label == label
            assert deep.pairs_per_bit == k**3000
            report = run_protocol(1000, strategy=deep, seed=5)
            flat = run_protocol(1000, strategy=parse_strategy(inner), seed=5)
            assert report.ber == flat.ber
            assert report.mutual_info_bits == flat.mutual_info_bits
            assert report.decode_ties == k**3000 * ties * 1000


def test_unknown_strategy_is_rejected():
    class Mystery:
        label = "mystery"
        pairs_per_bit = 1

    for strategy in (Mystery(), Repetition(3, Mystery())):
        with pytest.raises(ValueError, match="unknown receiver strategy"):
            receiver_law(strategy, EncodingRule())
        with pytest.raises(ValueError, match="unknown receiver strategy"):
            run_protocol(10, strategy=strategy, seed=88)


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
    a = run_protocol(2000, seed=14)
    b = run_protocol(2000, seed=14)
    assert a == b
    c = run_protocol(2000, seed=15)
    assert a != c
    assert a.rng_algorithm == ALGORITHM_ID
    assert a.bit_source == "iid"
    assert a.n_bits == 2000
    lo, hi = a.mi_confidence_interval
    assert lo <= a.mutual_info_bits <= hi


def test_three_block_reports_keep_their_pinned_values():
    # 600,000 iid bits at seed 5, pinned at 0.10.0: one binomial draw of the
    # number of ones, from the package's sampler, then each receiver's
    # point-mass law
    oracle = run_protocol(600_000, strategy=BasisOracle(), seed=5)
    assert oracle.ber == 0.0
    assert oracle.mutual_info_bits == 0.9999999932594081
    assert oracle.mi_confidence_interval == (0.9999939545392612, 1.0)
    assert oracle.decode_ties == 0
    strategy = Repetition(11, FixedBasisML(math.radians(22.5)))
    repetition = run_protocol(600_000, strategy=strategy, seed=5)
    assert repetition.ber == 0.4999516666666667
    assert repetition.mutual_info_bits == 0.0
    assert repetition.mi_confidence_interval == (0.0, 0.0)
    assert repetition.decode_ties == 11 * 600_000


def test_standard_strategies_extract_nothing_small_scale():
    for strategy in STANDARD_STRATEGIES:
        report = run_protocol(20_000, strategy=strategy, seed=16)
        assert report.mutual_info_bits < 0.001
        assert report.mi_confidence_interval[0] == 0.0
        assert report.strategy is strategy


def test_oracle_with_balanced_bits_is_a_perfect_channel():
    report = run_protocol(2000, strategy=BasisOracle(), seed=17, bit_source="balanced")
    assert report.ber == 0.0
    assert report.mutual_info_bits == 1.0
    assert report.decode_ties == 0
    assert report.mi_confidence_interval[1] == 1.0


def test_run_protocol_validation():
    with pytest.raises(ValueError):
        run_protocol(0)
    with pytest.raises(ValueError):
        run_protocol(100, bit_source="alternating")
    # balanced bits split n_bits into equal halves; the fixed-basis receiver
    # decodes every bit as 0, so ber is the share of ones
    with pytest.raises(ValueError):
        run_protocol(5, bit_source="balanced")
    assert run_protocol(6, bit_source="balanced", seed=20).ber == 0.5


def test_balanced_bits_are_balanced_over_all_blocks():
    # the fixed-basis receiver decodes every bit as 0, so ber is the share of ones
    report = run_protocol(2**19 + 6, seed=21, bit_source="balanced")
    assert report.ber == 0.5


# a run is scored as one block: its whole count table holds exactly n/2 ones
@pytest.mark.parametrize("n_bits", [2, 2**18, 2**19 + 6])
def test_balanced_bits_hold_half_ones_in_every_block(monkeypatch, n_bits):
    tables = []

    def spy(table):
        tables.append(list(table))
        return mutual_information(table)

    monkeypatch.setattr(protocol, "mutual_information", spy)
    half = n_bits // 2
    oracle = run_protocol(n_bits, strategy=BasisOracle(), seed=23, bit_source="balanced")
    assert oracle.ber == 0.0
    # the fixed-basis receiver decodes every bit as 0, so ber is the share of ones
    fixed = run_protocol(n_bits, seed=21, bit_source="balanced")
    assert fixed.ber == 0.5
    assert tables == [[half, 0, 0, half], [half, 0, half, 0]]


@pytest.mark.parametrize("bit_source", protocol.BIT_SOURCES)
def test_runs_take_memory_independent_of_n_bits(bit_source):
    strategy = Repetition(11, FixedBasisML(math.pi / 8))
    peaks = []
    for n_bits in (2**20, 2**32):
        tracemalloc.start()
        try:
            run_protocol(n_bits, strategy=strategy, seed=24, bit_source=bit_source)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one byte per bit would add 4 GiB between the two runs
    assert peaks[1] <= peaks[0] + 2**16


def test_runs_of_a_few_bits():
    report = run_protocol(2, seed=19)
    assert report.n_bits == 2
    assert report.ber in (0.0, 0.5, 1.0)
    assert report.decode_ties == 2
    lo, hi = report.mi_confidence_interval
    assert 0.0 <= lo <= report.mutual_info_bits <= hi <= 1.0
    oracle = run_protocol(3, strategy=BasisOracle(), seed=19)
    assert oracle.ber == 0.0
    assert oracle.decode_ties == 0


@given(rules, angles)
def test_encodings_of_zero_and_one_are_indistinguishable(rule, theta):
    # Bob's outcome law given the bit is the joint Born law summed over
    # Alice's outcomes; it equals the receiver's likelihood row for that bit,
    # and the rows of the two bits agree
    basis = MeasurementBasis(theta)
    table = protocol._ml_table(rule, basis)
    for v in (0, 1):
        bob = joint_probabilities(make_pair(), rule.basis_for(v), basis.theta).sum(axis=0)
        assert np.abs(bob - table[v]).max() <= 1e-12
    assert np.abs(np.subtract(table[1], table[0])).max() <= 1e-12


def test_no_information_even_at_a_million_bits():
    report = run_protocol(1_000_000, strategy=FixedBasisML(0.0), seed=18)
    assert report.mutual_info_bits == 0.0
    assert report.mi_confidence_interval[0] == 0.0


def receivers(max_factor):
    """FixedBasisML and BasisOracle inside at most 3 nested repetitions."""
    return st.recursive(
        st.one_of(st.builds(FixedBasisML, angles), st.just(BasisOracle())),
        lambda inner: st.builds(Repetition, st.integers(1, max_factor), inner),
        max_leaves=4,
    ).filter(lambda s: s.label.count("repetition:") <= 3)


def point_mass(law):
    """The one (decoded, ties) type of a point-mass law."""
    assert len(law) == 1 and list(law.values()) == [1.0], law
    return next(iter(law))


def law_table(strategy, rule, n_zeros, n_ones):
    """The count table and tie count of n_zeros and n_ones bits under the law."""
    table = np.zeros(4, dtype=np.int64)
    ties = 0
    for v, (law, sent) in enumerate(zip(receiver_law(strategy, rule), (n_zeros, n_ones))):
        decoded, type_ties = point_mass(law)
        table[2 * v + decoded] += sent
        ties += type_ties * sent
    return table, ties


def decode_from_the_joint_law(strategy, rule, v):
    """(decoded, ties) of a bit sent as v, decided from the joint Born law:
    BasisOracle reads v unless the rule is degenerate, FixedBasisML decides
    each of Bob's outcomes by maximum likelihood, and Repetition votes over
    k copies of its inner decision."""
    if isinstance(strategy, BasisOracle):
        return (0, 1) if rule.is_degenerate else (v, 0)
    if isinstance(strategy, FixedBasisML):
        like = [joint_probabilities(make_pair(), rule.basis_for(u),
                                    strategy.basis.theta).sum(axis=0) for u in (0, 1)]
        decisions = {(int(like[1][o] > like[0][o] + 1e-12),
                      int(abs(like[1][o] - like[0][o]) <= 1e-12)) for o in (0, 1)}
        # both of Bob's outcomes decide alike
        assert len(decisions) == 1
        return decisions.pop()
    inner, inner_ties = decode_from_the_joint_law(strategy.inner, rule, v)
    ones = sum([inner] * strategy.k)
    return int(2 * ones > strategy.k), strategy.k * inner_ties + int(2 * ones == strategy.k)


@settings(max_examples=200, deadline=None)
@given(rules, receivers(4))
# two bases one tie tolerance apart: the oracle's decision must agree with
# is_degenerate whichever basis the distance is measured from
@example(EncodingRule(0.0, 1e-12), BasisOracle())
def test_bit_decision_matches_a_decode_from_the_joint_law(rule, strategy):
    for v in (0, 1):
        assert protocol._bit_decision(strategy, rule, v) == decode_from_the_joint_law(
            strategy, rule, v)


def nested(leaf, factors):
    """leaf inside one repetition per factor, the first outermost."""
    for k in reversed(factors):
        leaf = Repetition(k, leaf)
    return leaf


# the CLI's deepest strategies, MAX_STRATEGY_NESTING repetitions, and its
# largest, whose factors multiply to MAX_PAIRS_PER_BIT
deep_receivers = st.builds(
    nested,
    st.one_of(st.builds(FixedBasisML, angles), st.just(BasisOracle())),
    st.one_of(
        st.lists(st.integers(1, 8), min_size=MAX_STRATEGY_NESTING,
                 max_size=MAX_STRATEGY_NESTING),
        st.just([2] * (MAX_STRATEGY_NESTING - 1)
                + [MAX_PAIRS_PER_BIT >> (MAX_STRATEGY_NESTING - 1)]),
        st.just([MAX_PAIRS_PER_BIT]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(rules, st.one_of(receivers(4), receivers(2**20), deep_receivers),
       st.sampled_from(BIT_SOURCES),
       st.one_of(st.integers(1, MAX_TRIALS), st.sampled_from([1, 2, 3, MAX_TRIALS])),
       st.integers(0, 2**32))
def test_run_protocol_counts_every_bit_by_the_law(rule, strategy, bit_source, n_bits, seed):
    if bit_source == "balanced":
        n_bits += n_bits % 2
        n_ones = n_bits // 2
    else:
        n_ones = draw.binomial(n_bits, 0.5, draw.stream_key(seed, 0), 0)
    report = run_protocol(n_bits, rule, strategy, seed, bit_source)
    table, ties = law_table(strategy, rule, n_bits - n_ones, n_ones)
    assert report.ber == float((table[1] + table[2]) / n_bits)
    assert report.decode_ties == ties
    # a balanced run samples nothing, so it names only the words
    assert report.rng_algorithm == (WORDS_ID if bit_source == "balanced" else ALGORITHM_ID)


@settings(max_examples=300, deadline=None)
@given(rules, receivers(2**20))
def test_every_receiver_law_is_a_point_mass(rule, strategy):
    for law in receiver_law(strategy, rule):
        decoded, ties = point_mass(law)
        assert decoded in (0, 1)
        assert 0 <= ties <= 2 * strategy.pairs_per_bit


def test_iid_ber_at_2_32_bits_is_within_5_sigma():
    n = 2**32
    report = run_protocol(n, strategy=FixedBasisML(0.0), seed=31)
    # every bit decodes as 0, so the errors are the ones sent: binomial(n, 1/2)
    assert abs(report.ber - 0.5) < 5 * math.sqrt(0.25 / n)
    assert report.decode_ties == n
    assert run_protocol(n, strategy=BasisOracle(), seed=31).ber == 0.0


@pytest.mark.parametrize("strategy", [
    *STANDARD_STRATEGIES,
    BasisOracle(),
    Repetition(4, Repetition(3, FixedBasisML(0.0))),
    Repetition(2**24, FixedBasisML(0.0)),
], ids=lambda s: s.label)
def test_2_32_bits_run_in_under_a_second(strategy):
    start = time.perf_counter()
    report = run_protocol(2**32, strategy=strategy, seed=32)
    assert time.perf_counter() - start < 1.0
    assert report.n_bits == 2**32


def test_balanced_runs_create_no_stream_and_iid_runs_one(monkeypatch):
    created = []
    original = draw.stream_key

    def recording(seed, index):
        created.append((seed, index))
        return original(seed, index)

    # an iid run keys its stream with draw.stream_key when it draws
    monkeypatch.setattr(draw, "stream_key", recording)
    for strategy in (*STANDARD_STRATEGIES, BasisOracle()):
        run_protocol(1000, strategy=strategy, seed=33, bit_source="balanced")
        assert created == []
        run_protocol(1000, strategy=strategy, seed=33)
        assert created == [(33, 0)]
        created.clear()


def test_parse_strategy_forms():
    assert isinstance(parse_strategy("basis-oracle"), BasisOracle)
    ml = parse_strategy("fixed-basis-ml:22.5")
    assert isinstance(ml, FixedBasisML)
    assert ml.basis.theta == pytest.approx(math.pi / 8, abs=1e-12)
    rep = parse_strategy("repetition:5:fixed-basis-ml:0")
    assert isinstance(rep, Repetition)
    assert rep.k == 5
    nested = parse_strategy("repetition:3:repetition:2:basis-oracle")
    assert nested.pairs_per_bit == 6
    for bad in ("oracle", "fixed-basis-ml:abc", "repetition:x:basis-oracle",
                "repetition:0:basis-oracle", "repetition:2"):
        with pytest.raises(ValueError):
            parse_strategy(bad)


# 0.16.0's parser, frozen as the reference for the one in protocol: it lived in
# the CLI, which applied its caps while parsing, and raised ConfigError, a
# ValueError
_FORMS_0_16_0 = (
    "valid strategies: 'basis-oracle', 'fixed-basis-ml:<angle_deg>', "
    "'repetition:<k>:<inner strategy>'"
)


def _strategy_form_0_16_0(label):
    label = label.strip()
    if label.count("repetition:") > MAX_STRATEGY_NESTING:
        raise ValueError(
            f"strategy nests more than {MAX_STRATEGY_NESTING} repetitions; {_FORMS_0_16_0}"
        )
    factors = []
    base = label
    while base.startswith("repetition:"):
        parts = base.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed repetition strategy {base!r}; {_FORMS_0_16_0}")
        try:
            factors.append(int(parts[1]))
        except ValueError:
            raise ValueError(
                f"bad repetition factor {parts[1]!r} in {base!r}; {_FORMS_0_16_0}"
            ) from None
        base = parts[2].strip()
    if base == "basis-oracle":
        deg = None
    elif base.startswith("fixed-basis-ml:"):
        raw = base.split(":", 1)[1]
        try:
            deg = float(raw)
        except ValueError:
            raise ValueError(f"bad angle {raw!r} in {base!r}; {_FORMS_0_16_0}") from None
        if not math.isfinite(deg):
            raise ValueError(f"angle in {base!r} must be finite; {_FORMS_0_16_0}")
    else:
        raise ValueError(f"unknown strategy {base!r}; {_FORMS_0_16_0}")
    for k in reversed(factors):
        if k < 1:
            raise ValueError(f"repetition factor must be >= 1, got {k}; {_FORMS_0_16_0}")
    pairs_per_bit = math.prod(factors)
    if pairs_per_bit > MAX_PAIRS_PER_BIT:
        raise ValueError(
            f"strategy {label} sends {pairs_per_bit} pairs per bit, "
            f"more than {MAX_PAIRS_PER_BIT}; lower its repetition factors"
        )
    return factors, deg


def _parse_strategy_0_16_0(label):
    factors, deg = _strategy_form_0_16_0(label)
    strategy = BasisOracle() if deg is None else FixedBasisML(math.radians(deg))
    for k in reversed(factors):
        strategy = Repetition(k, strategy)
    return strategy


def _tree(strategy):
    """The classes and fields of a receiver, outermost first; namedtuples of
    different classes may compare equal as tuples, so the class is named."""
    tree = []
    while isinstance(strategy, Repetition):
        tree.append(("Repetition", strategy.k))
        strategy = strategy.inner
    return [*tree, (type(strategy).__name__, *strategy)]


def _outcome(parse, label):
    try:
        return parse(label), None
    except ValueError as exc:
        return None, str(exc)


def _mostly(good, bad):
    """good in eight draws of ten, else bad."""
    return st.integers(0, 9).flatmap(lambda i: good if i < 8 else bad)


_pads = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_factors = _mostly(
    st.integers(1, 12).map(str),
    st.one_of(st.integers(-2, 0).map(str), st.integers(1000, 2**25).map(str),
              st.sampled_from(["", "x", "1.5", "1_0", "1__0", "_1", "+2", " 3 ", "0x3", "2e1",
                               "-0", "\u0663", "1:"])),
)
_angles = _mostly(
    st.one_of(st.floats(-720.0, 720.0).map(repr), st.floats(-720.0, 720.0).map(lambda x: f"{x:g}"),
              st.sampled_from(["22.5", " 22.5 ", "1_0", ".5", "5.", "-0", "1e-300",
                               "179.9999999"])),
    st.one_of(st.floats().map(repr),
              st.sampled_from(["", "abc", "1__0", "_1", "1e400", "-1e400", "inf", "nan",
                               "22.5:1", "0:", "1e", "0x1"])),
)
_bases = _mostly(
    st.one_of(st.just("basis-oracle"), _angles.map(lambda angle: "fixed-basis-ml:" + angle)),
    st.sampled_from(["oracle", "Basis-Oracle", "BASIS-ORACLE", "basis-oracle:", "fixed-basis-ml",
                     "Fixed-Basis-ML:0", "", ":", "repetition", "repetition:",
                     "basis-oracle basis-oracle", "fixed-basis-ml :0"]),
)
_prefixes = _mostly(
    st.just("repetition:"),
    st.sampled_from(["Repetition:", "REPETITION:", "repetition :", "repetition", "repetition::"]),
)


def _label(levels, base, pad, tail):
    return pad + "".join(f"{before}{prefix}{k}:{after}" for before, prefix, k, after in levels) \
        + base + tail + pad


# labels built from valid forms and their mutations, and free text over the
# grammar's characters
_labels = _mostly(
    st.builds(_label,
              st.lists(st.tuples(_pads, _prefixes, _factors, _pads),
                       max_size=MAX_STRATEGY_NESTING + 2),
              _bases, _pads, _mostly(st.just(""), st.sampled_from([":", " :", "x"]))),
    st.text(alphabet="repetitionbasfxdml-:0123456789._ ", max_size=40),
)


@settings(max_examples=1500, deadline=None)
@given(_labels)
@example("repetition:1000:repetition:1000:repetition:1000:basis-oracle")
@example("repetition:1:" * (MAX_STRATEGY_NESTING + 1) + "basis-oracle")
@example(f"repetition:{MAX_PAIRS_PER_BIT}:repetition:1_0:fixed-basis-ml: 1_0 ")
@example("repetition:0:repetition:-1:fixed-basis-ml:inf")
@example("repetition:0:repetition:-1:basis-oracle")
@example(" fixed-basis-ml:inf ")
@example("repetition:2: oracle")
@example("fixed-basis-ml:179.9999999")
@example("fixed-basis-ml:2.7749958019034553e+25")
def test_the_parser_accepts_exactly_what_0_16_0_accepted(label):
    reference, reference_error = _outcome(_parse_strategy_0_16_0, label)
    # the CLI reads a label through the parser and its own two caps
    parsed, error = _outcome(_strategy, label)
    assert (parsed is None) == (reference is None), (reference_error, error)
    if parsed is None:
        # the parser's messages and the pairs cap's keep 0.16.0's wording
        if label.count("repetition:") <= MAX_STRATEGY_NESTING:
            assert error == reference_error
        return
    assert parsed.label == reference.label
    assert parsed.pairs_per_bit == reference.pairs_per_bit
    assert _tree(parsed) == _tree(reference)
    assert _tree(parse_strategy(label)) == _tree(parsed)
    # the label a receiver prints parses back to it, but for an angle just
    # below 180 degrees: it prints as 180, which parses to 0
    again = parse_strategy(parsed.label).label
    if parsed.label.endswith("fixed-basis-ml:180"):
        assert again == parsed.label[:-3] + "0"
    else:
        assert again == parsed.label
