"""Polarization-entangled photon pairs: the singlet state, local measurements,
joint statistics, and the no-signaling marginal check.

The shipped pair is the singlet (|01> - |10>)/sqrt(2). Its equal-basis outcomes
are perfectly anti-correlated at every angle and its correlation function is
E(a, b) = -cos 2(a - b), which drives the CHSH value to 2*sqrt(2) at the
standard settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SLICE_POINTS,
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    OutcomeRecord,
    StateVector,
    _coerce_basis,
    _eigenvectors,
    _ordered_trace_distances,
    canonical_angle_array,
    normalize_array,
    point_slices,
    sample_binary,
    sample_categories,
    sample_counts,
    snap_probability,
    snap_probability_array,
)
from .rng import RngStream, map_partitions, stream_from_seed

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)

_MIN_BRANCH_PROBABILITY = 1e-12


@dataclass(frozen=True, eq=False)
class PairState:
    """A two-photon pure state on the 4-dimensional joint space."""

    joint: StateVector

    def __post_init__(self):
        if self.joint.dim != 4:
            raise ValueError(f"pair state must have dimension 4, got {self.joint.dim}")


def make_pair() -> PairState:
    """The singlet pair used throughout."""
    return PairState(StateVector(_SINGLET))


@dataclass(frozen=True)
class JointOutcome:
    """Outcomes of one joint measurement; 0 is aligned with the local basis."""

    outcome_a: int
    outcome_b: int
    basis_a: MeasurementBasis
    basis_b: MeasurementBasis


def _amplitude_matrix(pair: PairState) -> np.ndarray:
    # amplitudes indexed [a, b] in the computational product basis
    return pair.joint.amplitudes.reshape(2, 2)


def _branches(pair: PairState, theta: np.ndarray, outcome: int):
    """Project photon A onto its outcome eigenvector at each canonical angle,
    returning (P probabilities, (P, 2) B amplitudes)."""
    e = _eigenvectors(theta, outcome)
    c = (e.conj()[:, None, :] @ _amplitude_matrix(pair))[:, 0, :]
    p = snap_probability_array(np.real(c.conj()[:, None, :] @ c[:, :, None])[:, 0, 0])
    return p, c


def _branch(pair: PairState, basis_a, outcome: int):
    """Project photon A onto an eigenvector, returning (probability, B amplitudes)."""
    p, c = _branches(pair, np.array([_coerce_basis(basis_a).theta]), outcome)
    return float(p[0]), c[0]


def conditional_state(pair: PairState, basis_a, outcome: int) -> tuple[float, StateVector]:
    """Probability of A's outcome and the normalized state B is left in."""
    p, c = _branch(pair, basis_a, outcome)
    if p < _MIN_BRANCH_PROBABILITY:
        raise InvalidStateError(
            f"outcome {outcome} has probability {p:.3e}; no conditional state exists"
        )
    return p, StateVector.normalize(c)


def measure_A(pair: PairState, basis_a, rng: RngStream) -> tuple[OutcomeRecord, StateVector]:
    """Measure photon A with one uniform draw, returning A's record and B's
    post-measurement state (for the singlet, the eigenvector orthogonal to A's)."""
    basis_a = _coerce_basis(basis_a)
    outcome = int(sample_binary(_branch(pair, basis_a, 0)[0], rng.random(1))[0])
    p, b_state = conditional_state(pair, basis_a, outcome)
    record = OutcomeRecord(
        outcome=outcome,
        post_state=basis_a.eigenvector(outcome),
        basis=basis_a,
        probability=p,
    )
    return record, b_state


def joint_probabilities(pair: PairState, basis_a, basis_b) -> np.ndarray:
    """2x2 array of P(outcome_a, outcome_b) for local measurements on both photons."""
    basis_a = _coerce_basis(basis_a)
    basis_b = _coerce_basis(basis_b)
    m = _amplitude_matrix(pair)
    probs = np.empty((2, 2))
    for oa in (0, 1):
        ea = basis_a.eigenvector(oa).amplitudes
        for ob in (0, 1):
            fb = basis_b.eigenvector(ob).amplitudes
            amp = ea.conj() @ m @ fb.conj()
            probs[oa, ob] = snap_probability(float(np.real(amp * np.conj(amp))))
    return probs


def measure_pair(pair: PairState, basis_a, basis_b, rng: RngStream) -> JointOutcome:
    """Sample one joint outcome from the 4-category joint distribution."""
    basis_a = _coerce_basis(basis_a)
    basis_b = _coerce_basis(basis_b)
    probs = joint_probabilities(pair, basis_a, basis_b).ravel()
    idx = int(sample_categories(probs, rng.random(1))[0])
    return JointOutcome(outcome_a=idx // 2, outcome_b=idx % 2, basis_a=basis_a, basis_b=basis_b)


def _joint_counts(theta_a, theta_b, n, seed, pair, workers, stream_base) -> np.ndarray:
    """Counts of the joint outcomes (00, 01, 10, 11) over n sampled pairs: one
    four-outcome core.sample_counts draw per block."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if pair is None:
        pair = make_pair()
    probs = joint_probabilities(pair, theta_a, theta_b).ravel()

    def run_block(block: int, size: int) -> np.ndarray:
        return sample_counts(probs, size, stream_from_seed(seed, stream_base, block))

    return sum(map_partitions(n, workers, run_block))


@dataclass(frozen=True)
class CorrelationStats:
    """Sample correlation of +-1 outcome products with its standard error."""

    e_value: float
    n: int
    std_err: float

    @classmethod
    def from_counts(cls, n_equal: int, n: int) -> "CorrelationStats":
        e = (2 * n_equal - n) / n
        se = math.sqrt(max(0.0, 1.0 - e * e) / n)
        return cls(e_value=e, n=n, std_err=se)


def correlation(
    theta_a: float,
    theta_b: float,
    n: int,
    seed: int = 0,
    pair: PairState | None = None,
    workers: int = 1,
    stream_base: int = 0,
) -> CorrelationStats:
    """Monte Carlo estimate of E(a, b), the mean of +1 (equal outcomes) and -1
    (different outcomes) over n pairs; analytically -cos 2(a - b) for the singlet.

    Block b of the pairs draws its joint-outcome counts from the multinomial
    law of joint_probabilities with one core.sample_counts call on
    stream_from_seed(seed, stream_base, b); no pair is drawn one by one. At
    equal bases the equal outcomes snap to probability 0, so E is exactly -1
    at any n.
    """
    counts = _joint_counts(theta_a, theta_b, n, seed, pair, workers, stream_base)
    return CorrelationStats.from_counts(n_equal=int(counts[0] + counts[3]), n=int(n))


CHSH_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


def chsh(
    settings=CHSH_SETTINGS,
    n_per_setting: int = 100_000,
    seed: int = 0,
    pair: PairState | None = None,
    workers: int = 1,
    stream_base: int = 0,
) -> float:
    """CHSH statistic S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| from four
    independent correlation runs of n_per_setting pairs each.

    The singlet reaches 2*sqrt(2) at the default settings; product states stay
    within 2. Setting s draws from stream index stream_base + s, so no two
    settings share draws.
    """
    if n_per_setting < 1:
        raise ValueError(f"n_per_setting must be >= 1, got {n_per_setting}")
    a, a_prime, b, b_prime = (float(x) for x in settings)
    combos = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    e = [
        correlation(
            ta,
            tb,
            n_per_setting,
            seed=seed,
            pair=pair,
            workers=workers,
            stream_base=stream_base + s,
        ).e_value
        for s, (ta, tb) in enumerate(combos)
    ]
    return abs(e[0] - e[1] + e[2] + e[3])


def bob_marginal_counts(
    theta_a: float,
    theta_b: float,
    n: int,
    seed: int = 0,
    pair: PairState | None = None,
    workers: int = 1,
    stream_base: int = 0,
) -> tuple[int, int]:
    """Sample n joint measurements and count Bob's aligned outcomes.

    Returns (n, count of outcome_b == 0). The joint counts are drawn per
    block as correlation draws them, from the same streams. The count's
    distribution does not depend on theta_a; this is the empirical face of the
    no-signaling check.
    """
    counts = _joint_counts(theta_a, theta_b, n, seed, pair, workers, stream_base)
    return int(n), int(counts[0] + counts[2])


def _bob_marginals(pair: PairState, theta: np.ndarray) -> np.ndarray:
    """(P, 2, 2) stack of B's marginals after A measures at each canonical angle:
    the probability-weighted mixture of the conditional states."""
    rho = np.zeros((theta.shape[0], 2, 2), dtype=np.complex128)
    for outcome in (0, 1):
        p, c = _branches(pair, theta, outcome)
        kept = p >= _MIN_BRANCH_PROBABILITY
        psi = normalize_array(c[kept])
        rho[kept] += p[kept, None, None] * (psi[:, :, None] * psi.conj()[:, None, :])
    return rho


def bob_reduced_state(pair: PairState, basis_a) -> DensityOperator:
    """B's marginal after A measures in basis_a but before the outcome is known:
    the probability-weighted mixture of the conditional states."""
    return DensityOperator(_bob_marginals(pair, np.array([_coerce_basis(basis_a).theta]))[0])


def _pair_slices(n: int):
    """Index arrays (i, j) of the pairs i < j of n items, in row order, whole
    rows at a time and at most max(SLICE_POINTS, n - 1) pairs per slice."""
    step = max(1, SLICE_POINTS // n)
    for lo in range(0, n - 1, step):
        rows = range(lo, min(lo + step, n - 1))
        yield (np.concatenate([np.full(n - 1 - r, r) for r in rows]),
               np.concatenate([np.arange(r + 1, n) for r in rows]))


def no_signaling_check(bases_a, pair: PairState | None = None) -> float:
    """Maximum pairwise trace distance between B's marginals over A's basis choices.

    The marginals coincide up to numerical noise for every basis, which is why
    A's basis choice alone carries no information to B. A single basis
    trivially returns 0.0.

    Bitwise-equal marginals are at distance exactly 0, so only the distinct
    ones are compared. Sorted by their bytes, which is trace_distance's
    canonical operand order, each pair i < j of them takes the eigvalsh that
    trace_distance would, in stacks of up to SLICE_POINTS pairs.
    """
    if pair is None:
        pair = make_pair()
    bases = list(bases_a)
    if not bases:
        raise ValueError("bases_a must be non-empty")
    theta = canonical_angle_array([b.theta if isinstance(b, MeasurementBasis) else b
                                   for b in bases])
    distinct = set()
    for rows in point_slices(theta.shape[0]):
        distinct.update(m.tobytes() for m in _bob_marginals(pair, theta[rows]))
    ordered = np.frombuffer(b"".join(sorted(distinct)), dtype=np.complex128).reshape(-1, 2, 2)
    worst = 0.0
    for i, j in _pair_slices(ordered.shape[0]):
        worst = max(worst, float(_ordered_trace_distances(ordered[i], ordered[j]).max()))
    return worst
