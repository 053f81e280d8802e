"""Polarization-entangled photon pairs: the singlet state, local measurements,
joint statistics, and the no-signaling marginal check.

The shipped pair is the singlet (|01> - |10>)/sqrt(2). Its equal-basis outcomes
are perfectly anti-correlated at every angle and its correlation function is
E(a, b) = -cos 2(a - b), which drives the CHSH value to 2*sqrt(2) at the
standard settings.

The singlet's counts are drawn from the closed form of its joint law: with
delta the difference of the canonical angles, each equal outcome has
probability sin^2(delta)/2 and each different one cos^2(delta)/2. It is
evaluated with math for one point and with numpy for arrays by the same IEEE
steps, so the two agree bit for bit. Every sampled count comes from it; the
amplitude algebra of a PairState serves the analytic functions
(joint_probabilities, conditional_state, bob_reduced_state and
no_signaling_check).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

# numpy and core load only for the amplitude algebra, the marginals and a sweep
# of more than SCALAR_ROWS points
from .scalars import (
    SLICE_POINTS,
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


@functools.cache
def make_pair() -> PairState:
    """The singlet pair used throughout: one frozen PairState with read-only
    amplitudes, built and checked on the first call."""
    import numpy as np

    from .core import StateVector

    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return PairState(StateVector(singlet))


def _amplitude_matrix(pair: PairState) -> np.ndarray:
    # amplitudes indexed [a, b] in the computational product basis
    return pair.joint.amplitudes.reshape(2, 2)


def _branches(pair: PairState, theta: np.ndarray, outcome: int):
    """Project photon A onto its outcome eigenvector at each canonical angle,
    returning (P probabilities, (P, 2) B amplitudes)."""
    import numpy as np

    from .core import _eigenvectors, snap_probability_array

    e = _eigenvectors(theta, outcome)
    c = (e.conj()[:, None, :] @ _amplitude_matrix(pair))[:, 0, :]
    p = snap_probability_array(np.real(c.conj()[:, None, :] @ c[:, :, None])[:, 0, 0])
    return p, c


def conditional_state(pair: PairState, basis_a, outcome: int) -> tuple[float, StateVector]:
    """Probability of A's outcome and the normalized state B is left in."""
    import numpy as np

    from .core import InvalidStateError, StateVector

    p, c = _branches(pair, np.array([_coerce_basis(basis_a).theta]), outcome)
    p, c = float(p[0]), c[0]
    if p < _MIN_BRANCH_PROBABILITY:
        raise InvalidStateError(
            f"outcome {outcome} has probability {p:.3e}; no conditional state exists"
        )
    return p, StateVector.normalize(c)


def joint_probabilities(pair: PairState, basis_a, basis_b) -> np.ndarray:
    """2x2 array of P(outcome_a, outcome_b) for local measurements on both photons."""
    theta_a = _coerce_basis(basis_a).theta
    theta_b = _coerce_basis(basis_b).theta
    return joint_probability_array(pair, theta_a, theta_b)[0]


def joint_probability_array(pair: PairState, thetas_a, thetas_b) -> np.ndarray:
    """(P, 2, 2) stack of joint_probabilities, one per pair of measurement
    angles; thetas_a and thetas_b broadcast against each other (a single
    angle counts as one point).

    Each amplitude <e_a| M |f_b*> runs, per point, the stacked form of the
    BLAS calls of ea.conj() @ m @ fb.conj() on one pair of eigenvectors, so a
    point's probabilities do not depend on the batch.
    """
    import numpy as np

    from .core import _eigenvectors, canonical_angle_array, point_slices, snap_probability_array

    theta_a, theta_b = np.broadcast_arrays(canonical_angle_array(thetas_a).reshape(-1),
                                           canonical_angle_array(thetas_b).reshape(-1))
    m = _amplitude_matrix(pair)
    probs = np.empty(theta_a.shape + (2, 2))
    for rows in point_slices(theta_a.shape[0]):
        fb = [_eigenvectors(theta_b[rows], ob).conj()[:, :, None] for ob in (0, 1)]
        for oa in (0, 1):
            left = _eigenvectors(theta_a[rows], oa).conj()[:, None, :] @ m
            for ob in (0, 1):
                amp = (left @ fb[ob])[:, 0, 0]
                probs[rows, oa, ob] = snap_probability_array(np.real(amp * np.conj(amp)))
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

    theta_a, theta_b = np.broadcast_arrays(canonical_angle_array(thetas_a).reshape(-1),
                                           canonical_angle_array(thetas_b).reshape(-1))
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


def correlation_array(thetas_a, thetas_b, n: int, seed: int = 0,
                      stream_base: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """correlation at each pair of angles (thetas_a and thetas_b broadcast),
    as arrays (e_values, std_errs): point i draws its n pairs from stream
    (seed, stream_base + i), exactly as correlation(..., stream_base=
    stream_base + i) does, with the float operations of
    CorrelationStats.from_counts."""
    import numpy as np

    e, std_err = _correlation_columns(thetas_a, thetas_b, n, seed, stream_base)
    return np.asarray(e, dtype=np.float64), np.asarray(std_err, dtype=np.float64)


def _correlation_columns(thetas_a, thetas_b, n, seed=0, stream_base=0):
    """correlation_array's (e_values, std_errs): lists of floats where
    _joint_counts draws row by row, arrays where it draws arrays."""
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


def bob_marginal_count_array(thetas_a, thetas_b, n: int, seed: int = 0,
                             stream_base: int = 0) -> np.ndarray:
    """Bob's aligned-outcome counts of bob_marginal_counts at each pair of
    angles (thetas_a and thetas_b broadcast), point i drawing from stream
    (seed, stream_base + i), as an int64 array."""
    import numpy as np

    counts = np.asarray(_joint_counts(thetas_a, thetas_b, n, seed, stream_base),
                        dtype=np.int64).reshape(-1, 4)
    return counts[:, 0] + counts[:, 2]


def _bob_marginals(pair: PairState, theta: np.ndarray) -> np.ndarray:
    """(P, 2, 2) stack of B's marginals after A measures at each canonical angle:
    the probability-weighted mixture of the conditional states."""
    import numpy as np

    from .core import normalize_array

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
    import numpy as np

    from .core import DensityOperator

    return DensityOperator(_bob_marginals(pair, np.array([_coerce_basis(basis_a).theta]))[0])


def _pair_slices(n: int):
    """Index arrays (i, j) of the pairs i < j of n items, in row order, whole
    rows at a time and at most max(SLICE_POINTS, n - 1) pairs per slice."""
    import numpy as np

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
    import numpy as np

    from .core import _ordered_trace_distances, canonical_angle_array, point_slices

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
