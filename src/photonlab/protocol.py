"""The entanglement bit-transmission scheme end to end: Alice encodes a bit in
her measurement-basis choice, Bob receives the conditionally collapsed partner
photon, and a receiver model tries to read the bit back.

The photon stream is columnar. Bob's photon is fixed by the bit (which basis
Alice measured in) and Alice's outcome, so a stream is those two columns plus
the 2x2 table of conditional states they index.

Receiver models span the honest range. The standard-physics strategies
(fixed-basis maximum likelihood, repetition with majority vote) operate only on
Bob's photon states; because Bob's marginal is the maximally mixed state
whatever Alice does, their likelihoods tie on every photon and the decoded
stream carries no information. The basis-oracle strategy reads the bit column,
that is, which basis Alice measured in, directly: a capability no physical
receiver has for a single copy. It is included, clearly labeled, to show that
the scheme works if and only if that capability is granted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MeasurementBasis,
    born_probabilities,
    canonical_angle,
    sample_binary,
    snap_probability,
)
from .entangle import conditional_state, make_pair
from .rng import ALGORITHM_ID, RngStream, map_partitions, stream_from_seed
from .stats import (
    as_bit_array,
    bit_table,
    mi_standard_error,
    null_quantile,
    permutation_null_mis,
    plugin_mi_bits,
)

_TIE_ATOL = 1e-12

# stream indices: bits, Alice's and Bob's measurements (per block)
_ROLE_BITS = 0
_ROLE_ENCODE = 1
_ROLE_RECEIVE = 2

BIT_SOURCES = ("iid", "balanced")


def _basis_set_distance(a: float, b: float) -> float:
    """Angle between the eigenvector sets of two bases, folded into [0, pi/4].

    A basis at theta and one at theta + pi/2 share the same eigenvector pair,
    so distinctness of encodings is distance modulo pi/2, not modulo pi.
    """
    r = (a - b) % (math.pi / 2)
    return min(r, math.pi / 2 - r)


@dataclass(frozen=True)
class EncodingRule:
    """Alice's bit-to-basis map; defaults are basis 0 for "1" and pi/4 for "0"."""

    basis_for_one: float = 0.0
    basis_for_zero: float = math.pi / 4

    def __post_init__(self):
        object.__setattr__(self, "basis_for_one", canonical_angle(self.basis_for_one))
        object.__setattr__(self, "basis_for_zero", canonical_angle(self.basis_for_zero))

    @property
    def is_degenerate(self) -> bool:
        """True when both bits select the same eigenvector set, which makes the
        two encodings identical even to the basis oracle."""
        return _basis_set_distance(self.basis_for_one, self.basis_for_zero) <= _TIE_ATOL

    def basis_for(self, bit: int) -> float:
        return self.basis_for_one if bit else self.basis_for_zero


@dataclass(frozen=True, eq=False)
class PhotonStream:
    """Bob's photons, one per transmitted pair, as columns.

    Photon i is states[bits[i]][outcomes[i]]: Alice measured its partner in
    the basis of bit bits[i] and got outcome outcomes[i]. The bit column is
    bookkeeping the simulation carries, not a property a receiver can extract
    from a single photon; only the basis-oracle strategy reads it.
    """

    bits: np.ndarray
    outcomes: np.ndarray
    states: tuple

    def __len__(self) -> int:
        return int(self.bits.shape[0])


@dataclass(frozen=True)
class FixedBasisML:
    """Measure every photon in one fixed basis, decode by maximum likelihood.

    The likelihood of either outcome is exactly 1/2 under both bit hypotheses,
    so every decode is a tie and resolves to 0; the tie count makes that
    visible in reports.
    """

    basis: MeasurementBasis

    def __init__(self, basis):
        if not isinstance(basis, MeasurementBasis):
            basis = MeasurementBasis(float(basis))
        object.__setattr__(self, "basis", basis)

    @property
    def label(self) -> str:
        return f"fixed-basis-ml:{math.degrees(self.basis.theta):g}"

    @property
    def pairs_per_bit(self) -> int:
        return 1


@dataclass(frozen=True)
class BasisOracle:
    """Counterfactual receiver that reads the hidden basis tag directly.

    Grants exactly the single-copy basis identification the transmission
    scheme requires; no quantum operation provides it.
    """

    @property
    def label(self) -> str:
        return "basis-oracle"

    @property
    def pairs_per_bit(self) -> int:
        return 1


@dataclass(frozen=True)
class Repetition:
    """Send k pairs per bit, decode each with the inner strategy, majority-vote."""

    k: int
    inner: "ReceiverStrategy"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"repetition factor must be >= 1, got {self.k}")

    @property
    def label(self) -> str:
        return f"repetition:{self.k}:{self.inner.label}"

    @property
    def pairs_per_bit(self) -> int:
        return self.k * self.inner.pairs_per_bit


ReceiverStrategy = FixedBasisML | BasisOracle | Repetition


def standard_strategies() -> list:
    """The shipped standard-physics receivers (no oracle)."""
    return [
        FixedBasisML(0.0),
        FixedBasisML(math.pi / 8),
        Repetition(11, FixedBasisML(math.pi / 8)),
    ]


def encode(bits, rule: EncodingRule, rng: RngStream, pairs_per_bit: int = 1) -> PhotonStream:
    """Measure one fresh singlet per pair in the bit's basis; collect Bob's photons.

    Each photon consumes one uniform (Alice's outcome draw). With
    pairs_per_bit = k, bit i occupies photons i*k through i*k + k - 1.
    """
    bits = as_bit_array(bits, "bits")
    if pairs_per_bit < 1:
        raise ValueError(f"pairs_per_bit must be >= 1, got {pairs_per_bit}")
    pair = make_pair()
    # per bit value: Alice's aligned-outcome probability and Bob's two states
    p_aligned = np.empty(2)
    states = []
    for v in (0, 1):
        angle = rule.basis_for(v)
        p_aligned[v], state0 = conditional_state(pair, angle, 0)
        _, state1 = conditional_state(pair, angle, 1)
        states.append((state0, state1))
    repeated = np.repeat(bits, pairs_per_bit)
    outcomes = sample_binary(p_aligned[repeated], rng.random(repeated.shape[0]))
    return PhotonStream(bits=repeated, outcomes=outcomes, states=tuple(states))


def _ml_table(rule: EncodingRule, basis: MeasurementBasis) -> np.ndarray:
    """Outcome likelihoods table[bit, outcome] under the equal-mixture model.

    Given the bit, Bob's photon is an even mixture of the two eigenvectors of
    Alice's basis, so table[v, o] = (P(o|aligned) + P(o|orthogonal))/2. Both
    rows are (1/2, 1/2) for every angle pair; the general formula is kept so
    the tie is a computed fact rather than an assumption.
    """
    table = np.empty((2, 2))
    for v in (0, 1):
        b = MeasurementBasis(rule.basis_for(v))
        pa = born_probabilities(b.aligned(), basis)
        po = born_probabilities(b.orthogonal(), basis)
        table[v, 0] = snap_probability(0.5 * (pa[0] + po[0]))
        table[v, 1] = snap_probability(0.5 * (pa[1] + po[1]))
    return table


def _decode(photons: PhotonStream, strategy, rule: EncodingRule, rng: RngStream):
    """Decode a photon stream, returning (bits, tie count)."""
    if isinstance(strategy, BasisOracle):
        # the decision depends only on the bit column: decide each bit value once
        tags = np.array([rule.basis_for_zero, rule.basis_for_one])
        d_one = np.array([_basis_set_distance(t, rule.basis_for_one) for t in tags])
        d_zero = np.array([_basis_set_distance(t, rule.basis_for_zero) for t in tags])
        tied = np.abs(d_one - d_zero) <= _TIE_ATOL
        decided = (d_one + _TIE_ATOL < d_zero).astype(np.int64)
        return decided[photons.bits], int(np.count_nonzero(tied[photons.bits]))
    if isinstance(strategy, FixedBasisML):
        # Born table over Bob's four possible states, indexed 2*bit + outcome
        p_aligned = np.array(
            [born_probabilities(s, strategy.basis)[0] for row in photons.states for s in row]
        )
        which = 2 * photons.bits + photons.outcomes
        outcomes = sample_binary(p_aligned[which], rng.random(len(photons)))
        table = _ml_table(rule, strategy.basis)
        like_zero = table[0, outcomes]
        like_one = table[1, outcomes]
        ties = int((np.abs(like_one - like_zero) <= _TIE_ATOL).sum())
        bits = (like_one > like_zero + _TIE_ATOL).astype(np.int64)
        return bits, ties
    if isinstance(strategy, Repetition):
        inner_bits, inner_ties = _decode(photons, strategy.inner, rule, rng)
        votes = inner_bits.reshape(-1, strategy.k)
        ones = votes.sum(axis=1)
        majority_ties = int((2 * ones == strategy.k).sum())
        bits = (2 * ones > strategy.k).astype(np.int64)
        return bits, inner_ties + majority_ties
    raise ValueError(f"unknown receiver strategy: {strategy!r}")


def receive(photons: PhotonStream, strategy, rule: EncodingRule, rng: RngStream) -> np.ndarray:
    """Decode the photon stream into bits with the given receiver strategy."""
    if len(photons) == 0:
        raise ValueError("photons must be non-empty")
    per_bit = strategy.pairs_per_bit
    if len(photons) % per_bit != 0:
        raise ValueError(
            f"photon count {len(photons)} is not a multiple of {per_bit} "
            f"(pairs per bit for {strategy.label})"
        )
    bits, _ = _decode(photons, strategy, rule, rng)
    return bits


def mutual_information(table):
    """Plug-in MI of the sent/decoded channel with a 95% confidence interval.

    table is the channel's 2x2 count table [n00, n01, n10, n11], indexed by
    2*sent + decoded (stats.bit_table). The half-width is the larger of the
    permutation-null 97.5% quantile and the 1.96-sigma delta-method error,
    clamped to [0, 1]. The null is exact (stats.permutation_null_mis), and
    its quantile is the smallest null MI whose cumulative probability reaches
    0.975, so the interval is a pure function of the table. The null part
    keeps the interval honest near independence, where the delta method
    degenerates; the delta part keeps it honest away from independence, where
    the null quantile says nothing about estimator spread.
    """
    mi = plugin_mi_bits(table)
    null_q = null_quantile(*permutation_null_mis(table), 0.975)
    half = max(null_q, 1.96 * mi_standard_error(table))
    lo = max(0.0, mi - half)
    hi = min(1.0, mi + half)
    return mi, (lo, hi)


@dataclass(frozen=True)
class TransmissionReport:
    """Everything one protocol run produced, sufficient to reproduce it."""

    n_bits: int
    ber: float
    mutual_info_bits: float
    mi_confidence_interval: tuple[float, float]
    seed: int
    strategy: ReceiverStrategy
    rule: EncodingRule
    decode_ties: int
    bit_source: str
    rng_algorithm: str = field(default=ALGORITHM_ID)


def run_protocol(
    n_bits: int,
    rule: EncodingRule | None = None,
    strategy: ReceiverStrategy | None = None,
    seed: int = 0,
    workers: int = 1,
    bit_source: str = "iid",
) -> TransmissionReport:
    """Draw bits, encode, receive, and score one full transmission.

    Block b of the bits uses block b of stream indices 0 (bit draws), 1
    (Alice's measurements) and 2 (receiver measurements), and reduces to its
    sent/decoded count table and tie count; the report is computed from the
    sum of those tables and is bit-identical for a fixed seed at any workers.

    bit_source "iid" draws each bit uniformly; "balanced" (n_bits must be
    even) shuffles each block's exactly half-ones array with that block of
    stream 0, which makes the identity channel's MI exactly 1 bit in O(block)
    memory.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    if bit_source not in BIT_SOURCES:
        raise ValueError(f"bit_source must be one of {BIT_SOURCES}, got {bit_source!r}")
    if rule is None:
        rule = EncodingRule()
    if strategy is None:
        strategy = FixedBasisML(0.0)
    per_bit = strategy.pairs_per_bit
    if bit_source == "balanced":
        # every block is even, as BLOCK is, so each holds exactly half ones
        if n_bits % 2 != 0:
            raise ValueError(f"balanced bit source needs an even n_bits, got {n_bits}")

    def run_block(block: int, size: int):
        bit_stream = stream_from_seed(seed, _ROLE_BITS, block)
        if bit_source == "iid":
            bits = bit_stream.integers(0, 2, size)
        else:
            bits = (np.arange(size) < size // 2).astype(np.int64)
            bit_stream.shuffle(bits)
        photons = encode(
            bits, rule, stream_from_seed(seed, _ROLE_ENCODE, block), pairs_per_bit=per_bit
        )
        decoded, ties = _decode(
            photons, strategy, rule, stream_from_seed(seed, _ROLE_RECEIVE, block)
        )
        return bit_table(bits, decoded), ties

    blocks = map_partitions(n_bits, workers, run_block)
    table = sum(t for t, _ in blocks)
    mi, ci = mutual_information(table)
    return TransmissionReport(
        n_bits=int(n_bits),
        ber=float((table[1] + table[2]) / n_bits),
        mutual_info_bits=mi,
        mi_confidence_interval=ci,
        seed=int(seed),
        strategy=strategy,
        rule=rule,
        decode_ties=int(sum(ties for _, ties in blocks)),
        bit_source=bit_source,
    )
