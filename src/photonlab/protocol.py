"""The entanglement bit-transmission scheme end to end: Alice encodes a bit in
her measurement-basis choice, Bob receives the conditionally collapsed partner
photon, and a receiver model tries to read the bit back.

A run is computed from the receiver's exact law, not photon by photon. For
every receiver defined here, each bit sent as v decodes to the same
(decoded, ties) pair, computed once per run from the Born table; so
run_protocol draws only the number of ones sent, and the count table follows
from it with no further draw.

Receiver models span the honest range. The standard-physics strategies
(fixed-basis maximum likelihood, repetition with majority vote) operate only on
Bob's photon states; because Bob's marginal is the maximally mixed state
whatever Alice does, their likelihoods tie on every photon and the decoded
stream carries no information. The basis-oracle strategy reads the bit itself,
that is, which basis Alice measured in, directly: a capability no physical
receiver has for a single copy. It is included, clearly labeled, to show that
the scheme works if and only if that capability is granted.
"""

from __future__ import annotations

import math
from collections import namedtuple

# every step of a run is a closed form over a few scalars, so nothing here
# (nor in scalars, stats or draw) loads numpy
from .scalars import ALGORITHM_ID, WORDS_ID, MeasurementBasis, canonical_angle, snap_probability
from .stats import mi_standard_error, permutation_null_quantile, plugin_mi_bits

_TIE_ATOL = 1e-12

# the stream index of the number of ones sent, the one draw of an iid run
_ROLE_BITS = 0

BIT_SOURCES = ("iid", "balanced")


def _basis_set_distance(a: float, b: float) -> float:
    """Angle between the eigenvector sets of two bases, folded into [0, pi/4].

    A basis at theta and one at theta + pi/2 share the same eigenvector pair,
    so distinctness of encodings is distance modulo pi/2, not modulo pi. The
    fold takes |a - b|, so the distance is symmetric in a and b to the bit.
    """
    r = abs(a - b) % (math.pi / 2)
    return min(r, math.pi / 2 - r)


class EncodingRule(namedtuple("EncodingRule", "basis_for_one basis_for_zero")):
    """Alice's bit-to-basis map; defaults are basis 0 for "1" and pi/4 for "0".
    Both angles are kept canonical, in [0, pi)."""

    __slots__ = ()

    def __new__(cls, basis_for_one: float = 0.0, basis_for_zero: float = math.pi / 4):
        return tuple.__new__(cls, (canonical_angle(basis_for_one),
                                   canonical_angle(basis_for_zero)))

    @property
    def is_degenerate(self) -> bool:
        """True when both bits select the same eigenvector set, which makes the
        two encodings identical even to the basis oracle."""
        return _basis_set_distance(self.basis_for_one, self.basis_for_zero) <= _TIE_ATOL

    def basis_for(self, bit: int) -> float:
        return self.basis_for_one if bit else self.basis_for_zero


class FixedBasisML(namedtuple("FixedBasisML", "basis")):
    """Measure every photon in one fixed basis, decode by maximum likelihood.

    The likelihood of either outcome is exactly 1/2 under both bit hypotheses,
    so every decode is a tie and resolves to 0; the tie count makes that
    visible in reports. basis is a MeasurementBasis, or an angle made into one.
    """

    __slots__ = ()

    def __new__(cls, basis):
        if not isinstance(basis, MeasurementBasis):
            basis = MeasurementBasis(float(basis))
        return tuple.__new__(cls, (basis,))

    @property
    def label(self) -> str:
        return f"fixed-basis-ml:{math.degrees(self.basis.theta):g}"

    @property
    def pairs_per_bit(self) -> int:
        return 1


class BasisOracle(namedtuple("BasisOracle", "")):
    """Counterfactual receiver that reads the hidden basis tag directly.

    Grants exactly the single-copy basis identification the transmission
    scheme requires; no quantum operation provides it.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        return "basis-oracle"

    @property
    def pairs_per_bit(self) -> int:
        return 1


class Repetition(namedtuple("Repetition", "k inner")):
    """Send k pairs per bit, decode each with the inner strategy, majority-vote."""

    __slots__ = ()

    def __new__(cls, k: int, inner: "ReceiverStrategy"):
        if k < 1:
            raise ValueError(f"repetition factor must be >= 1, got {k}")
        return tuple.__new__(cls, (k, inner))

    @property
    def label(self) -> str:
        factors, base = _repetitions(self)
        return "".join(f"repetition:{k}:" for k in factors) + base.label

    @property
    def pairs_per_bit(self) -> int:
        factors, base = _repetitions(self)
        return math.prod(factors) * base.pairs_per_bit


ReceiverStrategy = FixedBasisML | BasisOracle | Repetition


def _repetitions(strategy) -> tuple[list[int], object]:
    """The repetition factors around a receiver, outermost first, and the
    receiver inside them, walked in a loop so that no depth recurses."""
    factors = []
    while isinstance(strategy, Repetition):
        factors.append(strategy.k)
        strategy = strategy.inner
    return factors, strategy


def _bad_label(what: str) -> ValueError:
    return ValueError(f"{what}; valid strategies: 'basis-oracle', "
                      "'fixed-basis-ml:<angle_deg>', 'repetition:<k>:<inner strategy>'")


def parse_strategy(label: str) -> ReceiverStrategy:
    """The receiver a label names, the inverse of .label: 'basis-oracle',
    'fixed-basis-ml:<angle_deg>' or 'repetition:<k>:<inner label>', as in
    'repetition:11:fixed-basis-ml:22.5'. Whitespace around the label and each
    inner label is ignored, and k and the angle are read by int and float.
    The constructors check what they build: a finite angle, and k >= 1, the
    innermost bad factor named first. A bad label raises ValueError naming
    the bad part, the label and the valid forms."""
    factors = []
    base = label.strip()
    while base.startswith("repetition:"):
        parts = base.split(":", 2)
        if len(parts) != 3:
            raise _bad_label(f"malformed repetition strategy {base!r}")
        try:
            factors.append(int(parts[1]))
        except ValueError:
            raise _bad_label(f"bad repetition factor {parts[1]!r} in {base!r}") from None
        base = parts[2].strip()
    if base == "basis-oracle":
        strategy = BasisOracle()
    elif base.startswith("fixed-basis-ml:"):
        raw = base.split(":", 1)[1]
        try:
            deg = float(raw)
        except ValueError:
            raise _bad_label(f"bad angle {raw!r} in {base!r}") from None
        try:
            strategy = FixedBasisML(math.radians(deg))
        except ValueError:
            raise _bad_label(f"angle in {base!r} must be finite") from None
    else:
        raise _bad_label(f"unknown strategy {base!r}")
    for k in reversed(factors):
        try:
            strategy = Repetition(k, strategy)
        except ValueError as exc:
            raise _bad_label(str(exc)) from None
    return strategy


def _outcome_probability(theta: float, basis: MeasurementBasis, outcome: int) -> float:
    """Born probability of outcome 0 (aligned with basis) or 1 for a photon
    polarized at theta: cos^2 or sin^2 of the angle between them."""
    d = theta - basis.theta
    return math.cos(d) ** 2 if outcome == 0 else math.sin(d) ** 2


def _ml_table(rule: EncodingRule, basis: MeasurementBasis) -> list[list[float]]:
    """Outcome likelihoods table[bit][outcome] under the equal-mixture model.

    Given the bit, Bob's photon is an even mixture of the two eigenvectors of
    Alice's basis, so table[v][o] = (P(o|aligned) + P(o|orthogonal))/2. Both
    rows are (1/2, 1/2) for every angle pair; the general formula is kept so
    the tie is a computed fact rather than an assumption.
    """
    table = []
    for v in (0, 1):
        theta = rule.basis_for(v)
        aligned = [_outcome_probability(theta, basis, o) for o in (0, 1)]
        orthogonal = [_outcome_probability(theta + math.pi / 2, basis, o) for o in (0, 1)]
        table.append([snap_probability(0.5 * (pa + po)) for pa, po in zip(aligned, orthogonal)])
    return table


def _oracle_decisions(rule: EncodingRule) -> tuple[list[int], list[bool]]:
    """The basis oracle's (decided bit, tied) for each sent bit value."""
    tags = (rule.basis_for_zero, rule.basis_for_one)
    d_one = [_basis_set_distance(t, rule.basis_for_one) for t in tags]
    d_zero = [_basis_set_distance(t, rule.basis_for_zero) for t in tags]
    tied = [abs(one - zero) <= _TIE_ATOL for one, zero in zip(d_one, d_zero)]
    decided = [int(one + _TIE_ATOL < zero) for one, zero in zip(d_one, d_zero)]
    return decided, tied


def _ml_decisions(rule: EncodingRule, basis: MeasurementBasis) -> tuple[list[int], list[bool]]:
    """The maximum-likelihood (decoded bit, tied) for each of Bob's outcomes."""
    like_zero, like_one = _ml_table(rule, basis)
    tied = [abs(one - zero) <= _TIE_ATOL for one, zero in zip(like_one, like_zero)]
    decided = [int(one > zero + _TIE_ATOL) for one, zero in zip(like_one, like_zero)]
    return decided, tied


def _bit_decision(strategy, rule: EncodingRule, v: int) -> tuple[int, int]:
    """The (decoded, ties) of every bit sent as v, whatever Bob's outcomes:
    the bit the receiver reads from that bit's photons and how many of its
    decodes tied.

    Each repetition of k copies takes k equal inner decodes: the majority is
    their value and never splits, and the ties are k times theirs."""
    factors, base = _repetitions(strategy)
    if isinstance(base, BasisOracle):
        decided, tied = _oracle_decisions(rule)
        decoded, ties = decided[v], tied[v]
    elif isinstance(base, FixedBasisML):
        # Bob's likelihoods tie on both outcomes, so both decide alike
        decided, tied = _ml_decisions(rule, base.basis)
        decoded, ties = decided[0], tied[0]
    else:
        raise ValueError(f"unknown receiver strategy: {base!r}")
    return int(decoded), math.prod(factors) * int(ties)


def receiver_law(strategy, rule: EncodingRule) -> tuple[dict, dict]:
    """The exact law of one bit's (decoded bit, tie count) under a receiver,
    for a bit sent as 0 and for a bit sent as 1.

    Each law maps (decoded, ties) to its probability; decoded is the bit the
    receiver reads from that bit's photons and ties the number of its decodes
    that tied. Every law of a singlet
    receiver is a point mass: Bob's likelihoods tie on every outcome,
    whatever the rule and the basis, so FixedBasisML decides alike on both;
    BasisOracle reads the sent value; and Repetition's k inner decodes are
    equal, so its majority is theirs and its ties are k times theirs.
    """
    return tuple({_bit_decision(strategy, rule, v): 1.0} for v in (0, 1))


def mutual_information(table):
    """Plug-in MI of the sent/decoded channel with a 95% confidence interval.

    table is the channel's 2x2 count table [n00, n01, n10, n11], indexed by
    2*sent + decoded (stats.bit_table). The half-width is the larger of the
    permutation-null 97.5% quantile and the 1.96-sigma delta-method error,
    clamped to [0, 1]. The null is exact (stats.permutation_null_quantile),
    and its quantile is the smallest null MI whose cumulative probability
    reaches 0.975, so the interval is a pure function of the table. The null
    part keeps the interval honest near independence, where the delta method
    degenerates; the delta part keeps it honest away from independence, where
    the null quantile says nothing about estimator spread.
    """
    mi = plugin_mi_bits(table)
    null_q = permutation_null_quantile(table, 0.975)
    half = max(null_q, 1.96 * mi_standard_error(table))
    lo = max(0.0, mi - half)
    hi = min(1.0, mi + half)
    return mi, (lo, hi)


class TransmissionReport(namedtuple("TransmissionReport",
                                    "n_bits ber mutual_info_bits mi_confidence_interval seed "
                                    "strategy rule decode_ties bit_source")):
    """Everything one protocol run produced, sufficient to reproduce it."""

    __slots__ = ()

    @property
    def rng_algorithm(self) -> str:
        """The sampler the run drew with: a balanced run samples nothing, so
        it names only the words, as the CLI does."""
        return WORDS_ID if self.bit_source == "balanced" else ALGORITHM_ID


def run_protocol(
    n_bits: int,
    rule: EncodingRule | None = None,
    strategy: ReceiverStrategy | None = None,
    seed: int = 0,
    bit_source: str = "iid",
) -> TransmissionReport:
    """Draw bits, send them through the receiver's law, and score the transmission.

    Stream 0 gives n1, the number of ones sent: bit_source "iid" sends each
    bit uniformly, so n1 is one binomial(n_bits, 1/2) draw; "balanced"
    (n_bits must be even) sends exactly n_bits / 2 ones and draws nothing,
    which makes the identity channel's MI exactly 1 bit. Every bit sent as v
    decodes alike (receiver_law), so the receiver's (decoded, ties) is
    computed once per sent value and counted once per bit sent with it; no
    other stream is keyed. The report is computed from the resulting 2x2
    sent/decoded count table and tie count; no array grows with n_bits.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    if bit_source not in BIT_SOURCES:
        raise ValueError(f"bit_source must be one of {BIT_SOURCES}, got {bit_source!r}")
    if rule is None:
        rule = EncodingRule()
    if strategy is None:
        strategy = FixedBasisML(0.0)
    if bit_source == "balanced":
        if n_bits % 2 != 0:
            raise ValueError(f"balanced bit source needs an even n_bits, got {n_bits}")
        n_ones = n_bits // 2
    else:
        # loaded here, so a balanced run, which draws nothing, never imports it
        from . import draw

        # binomial(n_bits, 1/2), the first draw of stream 0
        n_ones = draw.binomial(n_bits, 0.5, draw.stream_key(seed, _ROLE_BITS), 0)
    table = [0, 0, 0, 0]
    ties = 0
    for v, sent in enumerate((n_bits - n_ones, n_ones)):
        decoded, bit_ties = _bit_decision(strategy, rule, v)
        table[2 * v + decoded] += sent
        ties += bit_ties * sent
    mi, ci = mutual_information(table)
    return TransmissionReport(
        n_bits=int(n_bits),
        ber=(table[1] + table[2]) / n_bits,
        mutual_info_bits=mi,
        mi_confidence_interval=ci,
        seed=int(seed),
        strategy=strategy,
        rule=rule,
        decode_ties=int(ties),
        bit_source=bit_source,
    )
