"""Polarization-entangled photon pairs: the singlet state, local measurements,
joint statistics, and the no-signaling marginal check.

The shipped pair is the singlet (|01> - |10>)/sqrt(2). Its equal-basis outcomes
are perfectly anti-correlated at every angle and its correlation function is
E(a, b) = -cos 2(a - b), which drives the CHSH value to 2*sqrt(2) at the
standard settings.

The singlet's counts are drawn from the closed form of its joint law: with
delta the difference of the canonical angles, each equal outcome has
probability sin^2(delta)/2 and each different one cos^2(delta)/2. It is
evaluated with math for one point and with numpy for a long sweep's arrays by
the same IEEE steps, so the two agree bit for bit. Every sampled count comes
from it; the amplitude algebra of a PairState serves the analytic functions,
each at one pair of bases (joint_probabilities, conditional_state and
bob_reduced_state) or one list of them (no_signaling_check, which runs it in
Python floats and complex).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

# numpy and core load only for a PairState's amplitude algebra and a sweep of
# more than SCALAR_ROWS points
from .scalars import (
    MeasurementBasis,
    _coerce_basis,
    canonical_angle,
    point_list,
    snap_probability,
)

if TYPE_CHECKING:
    import numpy as np

    from .core import DensityOperator, StateVector

_MIN_BRANCH_PROBABILITY = 1e-12


class PairState(namedtuple("PairState", "joint")):
    """A two-photon pure state on the 4-dimensional joint space; joint is a
    StateVector. Pairs compare and hash by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, joint: StateVector):
        if joint.dim != 4:
            raise ValueError(f"pair state must have dimension 4, got {joint.dim}")
        return tuple.__new__(cls, (joint,))


# the singlet's amplitudes (00, 01, 10, 11), as make_pair's StateVector holds them
_SINGLET = (0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0)


@functools.cache
def make_pair() -> PairState:
    """The singlet pair used throughout: one frozen PairState with read-only
    amplitudes, built and checked on the first call."""
    import numpy as np

    from .core import StateVector

    return PairState(StateVector(np.array(_SINGLET, dtype=np.complex128)))


def _branch(pair: PairState, theta: float, outcome: int) -> tuple[float, np.ndarray]:
    """Project photon A onto its outcome eigenvector at the canonical angle
    theta, returning the outcome's probability and B's unnormalized amplitudes."""
    from .core import _eigenvector

    # the pair's amplitudes indexed [a, b] in the computational product basis
    c = _eigenvector(theta, outcome).amplitudes.conj() @ pair.joint.amplitudes.reshape(2, 2)
    return snap_probability((c.conj() @ c).real), c


def conditional_state(pair: PairState, basis_a, outcome: int) -> tuple[float, StateVector]:
    """Probability of A's outcome and the normalized state B is left in."""
    from .core import InvalidStateError, StateVector

    p, c = _branch(pair, _coerce_basis(basis_a).theta, outcome)
    if p < _MIN_BRANCH_PROBABILITY:
        raise InvalidStateError(
            f"outcome {outcome} has probability {p:.3e}; no conditional state exists"
        )
    return p, StateVector.normalize(c)


def joint_probabilities(pair: PairState, basis_a, basis_b) -> np.ndarray:
    """2x2 array of P(outcome_a, outcome_b) for local measurements on both
    photons: |<e_a| M |f_b*>|^2, snapped, for A's outcome eigenvector e_a, B's
    f_b and the pair's amplitude matrix M."""
    import numpy as np

    from .core import _eigenvector

    theta_a, theta_b = (_coerce_basis(b).theta for b in (basis_a, basis_b))
    probs = np.empty((2, 2))
    for oa in (0, 1):
        left = _branch(pair, theta_a, oa)[1]
        for ob in (0, 1):
            amp = left @ _eigenvector(theta_b, ob).amplitudes.conj()
            probs[oa, ob] = snap_probability(np.real(amp * np.conj(amp)))
    return probs


def _singlet_row(theta_a: float, theta_b: float) -> list[float]:
    """The singlet's joint law (00, 01, 10, 11) at two canonical angles, in
    math: sin^2(delta)/2 for equal outcomes, cos^2(delta)/2 for different
    ones, each snapped."""
    delta = theta_a - theta_b
    s, c = math.sin(delta), math.cos(delta)
    equal, different = snap_probability(0.5 * (s * s)), snap_probability(0.5 * (c * c))
    return [equal, different, different, equal]


def _singlet_rows(theta_a: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """_singlet_row of each pair of canonical angles, as (P, 4) rows, in numpy."""
    import numpy as np

    from .core import snap_probability_array

    delta = theta_a - theta_b
    s, c = np.sin(delta), np.cos(delta)
    equal, different = snap_probability_array(0.5 * (s * s)), snap_probability_array(0.5 * (c * c))
    return np.stack([equal, different, different, equal], axis=1)


def _angle_rows(thetas_a, thetas_b):
    """The canonical angle pairs of at most SCALAR_ROWS points, thetas_a and
    thetas_b broadcast, as a list of (a, b); None for a larger sweep."""
    side_a, side_b = point_list(thetas_a), point_list(thetas_b)
    if side_a is None or side_b is None:
        return None
    if len(side_a) != len(side_b) and 1 not in (len(side_a), len(side_b)):
        raise ValueError(f"cannot broadcast {len(side_a)} angles against {len(side_b)}")
    if len(side_a) == 1:
        side_a = side_a * len(side_b)
    if len(side_b) == 1:
        side_b = side_b * len(side_a)
    return [(canonical_angle(a), canonical_angle(b)) for a, b in zip(side_a, side_b)]


def _joint_counts(thetas_a, thetas_b, n, seed, stream_base):
    """Counts of the singlet's joint outcomes (00, 01, 10, 11) over n sampled
    pairs at each pair of angles, point i drawing on stream (seed,
    stream_base + i).

    At no more than SCALAR_ROWS points the result is a list of 4-lists: each
    point's closed form in math and one draw.counts chain. Otherwise it is a
    (P, 4) int64 array from core.sample_count_array over the closed form in
    numpy. The two paths give the same counts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    points = _angle_rows(thetas_a, thetas_b)
    if points is not None:
        from . import draw

        return [draw.counts(_singlet_row(a, b), n, draw.stream_key(seed, stream_base + i), 0)[0]
                for i, (a, b) in enumerate(points)]
    import numpy as np

    from .core import canonical_angle_array, sample_count_array

    theta_a, theta_b = np.broadcast_arrays(canonical_angle_array(thetas_a),
                                           canonical_angle_array(thetas_b))
    probs = _singlet_rows(theta_a, theta_b)
    return sample_count_array(probs, n, seed, range(stream_base, stream_base + probs.shape[0]))


class CorrelationStats(namedtuple("CorrelationStats", "e_value n std_err")):
    """Sample correlation of +-1 outcome products with its standard error."""

    __slots__ = ()

    @classmethod
    def from_counts(cls, n_equal: int, n: int) -> "CorrelationStats":
        e = (2 * n_equal - n) / n
        se = math.sqrt(max(0.0, 1.0 - e * e) / n)
        return cls(e_value=e, n=n, std_err=se)


def _correlation_columns(thetas_a, thetas_b, n, seed=0, stream_base=0):
    """correlation at each pair of angles (thetas_a and thetas_b broadcast),
    as columns (e_values, std_errs): point i draws its n pairs from stream
    (seed, stream_base + i), exactly as correlation(..., stream_base=
    stream_base + i) does, with the float operations of
    CorrelationStats.from_counts. The columns are lists of floats where
    _joint_counts draws row by row, float64 arrays where it draws arrays."""
    counts = _joint_counts(thetas_a, thetas_b, n, seed, stream_base)
    if isinstance(counts, list):
        stats = [CorrelationStats.from_counts(row[0] + row[3], n) for row in counts]
        return [c.e_value for c in stats], [c.std_err for c in stats]
    import numpy as np

    e = (2 * (counts[:, 0] + counts[:, 3]) - n) / n
    spread = 1.0 - e * e
    return e, np.sqrt(np.where(spread > 0.0, spread, 0.0) / n)


def correlation(
    theta_a: float,
    theta_b: float,
    n: int,
    seed: int = 0,
    stream_base: int = 0,
) -> CorrelationStats:
    """Monte Carlo estimate of E(a, b), the mean of +1 (equal outcomes) and -1
    (different outcomes) over n pairs; analytically -cos 2(a - b) for the singlet.

    The joint-outcome counts come from the multinomial law of the singlet's
    joint outcomes, drawn as one four-outcome chain on the stream (seed,
    stream_base), as _joint_counts draws a point; no pair is drawn one by one.
    At equal bases the equal outcomes snap to probability 0, so E is exactly
    -1 at any n.
    """
    counts = _joint_counts(_coerce_basis(theta_a).theta, _coerce_basis(theta_b).theta, n, seed,
                           stream_base)[0]
    return CorrelationStats.from_counts(n_equal=int(counts[0] + counts[3]), n=int(n))


CHSH_SETTINGS = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


def chsh(
    settings=CHSH_SETTINGS,
    n_per_setting: int = 100_000,
    seed: int = 0,
    stream_base: int = 0,
) -> float:
    """CHSH statistic S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| from four
    independent correlation runs of n_per_setting pairs each.

    The singlet reaches 2*sqrt(2) at the default settings, past the bound of
    2 that every product state keeps. Setting s draws from stream index
    stream_base + s, so no two settings share draws.
    """
    if n_per_setting < 1:
        raise ValueError(f"n_per_setting must be >= 1, got {n_per_setting}")
    a, a_prime, b, b_prime = (float(x) for x in settings)
    e, _ = _correlation_columns([a, a, a_prime, a_prime], [b, b_prime, b, b_prime],
                                n_per_setting, seed=seed, stream_base=stream_base)
    e = [float(x) for x in e]
    return abs(e[0] - e[1] + e[2] + e[3])


def bob_marginal_counts(
    theta_a: float,
    theta_b: float,
    n: int,
    seed: int = 0,
    stream_base: int = 0,
) -> tuple[int, int]:
    """Sample n joint measurements and count Bob's aligned outcomes.

    Returns (n, count of outcome_b == 0). The joint counts are drawn as
    correlation draws them, from the same stream. The count's
    distribution does not depend on theta_a; this is the empirical face of the
    no-signaling check.
    """
    counts = _joint_counts(_coerce_basis(theta_a).theta, _coerce_basis(theta_b).theta, n, seed,
                           stream_base)[0]
    return int(n), int(counts[0] + counts[2])


def bob_reduced_state(pair: PairState, basis_a) -> DensityOperator:
    """B's marginal after A measures in basis_a but before the outcome is known:
    the probability-weighted mixture of the conditional states."""
    import numpy as np

    from .core import DensityOperator, StateVector

    theta = _coerce_basis(basis_a).theta
    rho = np.zeros((2, 2), dtype=np.complex128)
    for outcome in (0, 1):
        p, c = _branch(pair, theta, outcome)
        if p >= _MIN_BRANCH_PROBABILITY:
            psi = StateVector.normalize(c).amplitudes
            rho += p * np.outer(psi, psi.conj())
    return DensityOperator(rho)


def _marginal_coordinates(amplitudes, theta: float) -> tuple:
    """B's marginal after A measures at the canonical angle theta, in Python
    floats or complex: rho = sum over A's outcomes o of c_o c_o^dagger, where
    c_o = <e_o|_A |pair> holds B's unnormalized amplitudes, for the
    eigenvectors e_0 = (cos theta, sin theta) and e_1 = (-sin theta, cos
    theta). Returned as its trace and half its Bloch vector: (rho00 + rho11,
    (rho00 - rho11) / 2, Re rho01, Im rho01)."""
    m00, m01, m10, m11 = amplitudes
    c, s = math.cos(theta), math.sin(theta)
    rho00 = rho11 = rho01 = 0.0
    for e0, e1 in ((c, s), (-s, c)):
        b0, b1 = e0 * m00 + e1 * m10, e0 * m01 + e1 * m11
        rho00 += (b0 * b0.conjugate()).real
        rho11 += (b1 * b1.conjugate()).real
        rho01 += b0 * b1.conjugate()
    return rho00 + rho11, (rho00 - rho11) / 2.0, rho01.real, rho01.imag


def _max_trace_distance(marginals) -> float:
    """The largest trace distance between two of the marginals, each given as
    _marginal_coordinates gives it; 0.0 for one.

    The difference D of two marginals is 2x2 Hermitian, with eigenvalues
    tr(D)/2 +- r, r the length of half its Bloch vector, so its trace
    distance (|lambda_+| + |lambda_-|)/2 is max(|tr D|/2, r). The maximum over
    pairs is then the larger of the traces' spread over 2 and the largest
    distance between two distinct half Bloch vectors, math.dist over every
    pair of the distinct ones.
    """
    traces = [m[0] for m in marginals]
    vectors = list({m[1:] for m in marginals})
    worst = (max(traces) - min(traces)) / 2.0
    for i, v in enumerate(vectors[:-1]):
        worst = max(worst, max(map(math.dist, itertools.repeat(v), vectors[i + 1:])))
    return worst


def no_signaling_check(bases_a, pair: PairState | None = None) -> float:
    """Maximum pairwise trace distance between B's marginals over A's basis choices.

    The marginals coincide up to numerical noise for every basis, which is why
    A's basis choice alone carries no information to B. A single basis
    trivially returns 0.0.

    It runs in Python floats and complex, and reads the singlet's amplitudes
    without numpy when pair is None: each marginal is summed from the pair's
    amplitudes (_marginal_coordinates), and each pairwise distance follows
    from the closed-form eigenvalues of their 2x2 difference
    (_max_trace_distance).
    """
    amplitudes = _SINGLET if pair is None else pair.joint.amplitudes.tolist()
    thetas = [b.theta if isinstance(b, MeasurementBasis) else canonical_angle(b)
              for b in bases_a]
    if not thetas:
        raise ValueError("bases_a must be non-empty")
    return _max_trace_distance({_marginal_coordinates(amplitudes, theta) for theta in thetas})
