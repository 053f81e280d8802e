"""Qubit states, measurement bases, Born-rule outcome laws and their sampled
counts.

Photon polarization lives in a 2-dimensional complex Hilbert space; linear
polarization at angle theta is the real ket (cos theta, sin theta), and a
measurement axis at theta projects onto the orthonormal pair
|theta> = (cos theta, sin theta), |theta_perp> = (-sin theta, cos theta).
Two-photon joint states live in the 4-dimensional tensor product, and density
operators represent mixed beams and reduced single-photon states.

Every analytic function takes one state, one operator and one axis, and runs
the row kernels (_eigenvectors, _born, _expectation) on one row. The array
code here serves only the counts of a long Monte Carlo sweep
(sample_count_array, with canonical_angle_array and snap_probability_array).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

# the scalar pieces live where a run that needs no arrays can load them without
# numpy; core re-exports them
from .scalars import (
    ALGEBRA_ATOL,
    ALGORITHM_ID,
    MAX_BINOMIAL_TRIALS,
    PROB_SNAP,
    SLICE_POINTS,
    WORDS_ID,
    MeasurementBasis,
    _coerce_basis,
    canonical_angle,
    snap_probability,
)

# precondition checks are looser than the algebra's ALGEBRA_ATOL
PRECONDITION_ATOL = 1e-9


class InvalidStateError(ValueError):
    """An input violates its structural invariants, e.g. an unnormalized state,
    a malformed density operator, an absorbed photon, or an empty branch."""


def canonical_angle_array(thetas) -> np.ndarray:
    """canonical_angle of every angle in an array, as float64 of the same shape.

    The same IEEE operations as canonical_angle, elementwise, so each element
    equals canonical_angle of it bit for bit; canonical_angle itself stays
    scalar because every MeasurementBasis runs it.
    """
    theta = np.asarray(thetas, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise ValueError(f"angles must be finite, got {theta[~np.isfinite(theta)].flat[0]!r}")
    reduced = np.fmod(theta, math.pi) + 0.0
    reduced = np.where(reduced < 0.0, reduced + math.pi, reduced)
    return np.where(reduced == math.pi, 0.0, reduced)


def point_slices(n: int):
    """Slices of range(n), SLICE_POINTS long except the last."""
    return (slice(lo, min(lo + SLICE_POINTS, n)) for lo in range(0, n, SLICE_POINTS))


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be a length-2 or length-4 vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # the real and imaginary parts each dotted with themselves by a stacked
    # matmul: the BLAS dot np.linalg.norm runs on one vector, to the bit
    re, im = rows.real, rows.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _unit(arr: np.ndarray) -> np.ndarray:
    """arr divided by its norm, which must be within PRECONDITION_ATOL of 1."""
    norm = float(_row_norms(arr[None])[0])
    if abs(norm - 1.0) > PRECONDITION_ATOL:
        raise InvalidStateError(
            f"state norm {norm!r} deviates from 1 by more than {PRECONDITION_ATOL}"
        )
    return arr / norm


class StateVector(namedtuple("StateVector", "amplitudes")):
    """A normalized pure state on 2 or 4 dimensions; amplitudes is a read-only
    complex array. States compare and hash by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, amplitudes):
        arr = _unit(_as_complex_vector(amplitudes, "amplitudes"))
        arr.flags.writeable = False
        return tuple.__new__(cls, (arr,))

    @classmethod
    def _of_unit(cls, arr: np.ndarray) -> "StateVector":
        """Wrap amplitudes already normalized, without a second pass."""
        arr = arr.copy()
        arr.flags.writeable = False
        return tuple.__new__(cls, (arr,))

    @classmethod
    def normalize(cls, values) -> "StateVector":
        """Build a state from an unnormalized vector; rejects near-zero vectors."""
        arr = _as_complex_vector(values, "amplitudes")
        norm = float(_row_norms(arr[None])[0])
        if norm < 1e-6:
            raise InvalidStateError("cannot normalize a near-zero vector")
        return cls(arr / norm)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])


def _coerce_state(state) -> StateVector:
    return state if isinstance(state, StateVector) else StateVector(state)


def _basis_eigenvector(theta: float, outcome: int) -> StateVector:
    """The StateVector of MeasurementBasis(theta).eigenvector(outcome), for a
    canonical angle theta."""
    return StateVector._of_unit(_eigenvectors(np.array([theta]), outcome)[0])


def ket_from_angle(theta: float) -> StateVector:
    """Linear polarization state (cos theta, sin theta)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return StateVector(np.array([math.cos(theta), math.sin(theta)], dtype=np.complex128))


def _eigenvectors(theta: np.ndarray, outcome: int) -> np.ndarray:
    # theta: a 1-d array of canonical angles
    c, s = np.cos(theta), np.sin(theta)
    rows = np.empty(theta.shape + (2,), dtype=np.complex128)
    rows[:, 0], rows[:, 1] = (c, s) if outcome == 0 else (-s, c)
    return rows / _row_norms(rows)[:, None]


def snap_probability_array(p) -> np.ndarray:
    """snap_probability of every element of an array (float64, same shape)."""
    p = np.asarray(p, dtype=np.float64)
    return np.where(p <= PROB_SNAP, 0.0, np.where(p >= 1.0 - PROB_SNAP, 1.0, p))


def sample_count_array(probs, n, seed: int, indices) -> np.ndarray:
    """Outcome counts of Born draws from each row of a (P, K) array of
    outcome probabilities: row i draws n trials (or n[i], for an array n)
    from the stream (seed, indices[i]), as draw.counts(row, n,
    draw.stream_key(seed, indices[i]), 0) does, and the result is the (P, K)
    int64 counts. indices is a range of P stream indices.

    Each row's counts follow the multinomial law, drawn as a chain of
    conditional binomials: outcome k gets Binomial(left, p_k / (p_k + ... +
    p_last)) of the trials not yet assigned, where p_last is the last outcome
    with nonzero snapped probability; that outcome takes whatever is left, so
    a snapped-to-zero outcome gets exactly 0. The tail sum, not 1 minus the
    head, keeps the conditional probability accurate when the tail is small.
    An outcome of probability 0 and an empty remainder draw nothing, so a
    certain outcome gets all n trials without a draw.

    The chain runs as arrays, SLICE_POINTS rows at a time: each outcome's
    binomial draws are one rng.binomial_array call over the rows that draw
    it. Each tail sum is added left to right as Python's sum adds a row, and
    each row keeps its own key, so a row's counts do not depend on the other
    rows.
    """
    from .rng import stream_keys

    p, trials = _count_inputs(probs, n)
    points = p.shape[0]
    if len(indices) != points:
        raise ValueError(f"{len(indices)} stream indices for {points} rows")
    counts = np.empty(p.shape, dtype=np.int64)
    for rows in point_slices(points):
        counts[rows] = _chain_counts(p[rows], trials[rows], stream_keys(seed, indices[rows]),
                                     np.uint64(0))[0]
    return counts


def _count_inputs(probs, n) -> tuple[np.ndarray, np.ndarray]:
    """Snapped (P, K) probabilities and P trial counts, checked."""
    p = snap_probability_array(probs)
    if p.ndim != 2:
        raise ValueError(f"probs must be a (points, outcomes) array, got shape {p.shape}")
    trials = np.broadcast_to(np.asarray(n, dtype=np.int64), p.shape[:1])
    if trials.size and int(trials.min()) < 0:
        raise ValueError(f"n must be >= 0, got {int(trials.min())}")
    if trials.size and int(trials.max()) > MAX_BINOMIAL_TRIALS:
        raise ValueError(f"n must be at most 2^62, got {int(trials.max())}")
    if not (p > 0.0).any(axis=1).all():
        raise ValueError("every row needs an outcome of nonzero probability")
    return p, trials


def _chain_counts(p, trials, key, first_draw) -> tuple[np.ndarray, np.ndarray]:
    """The chain of sample_count_array over P rows at once: row i draws from the
    stream key[:, i], each row's binomial draws numbered on from first_draw.
    Returns the (P, K) counts and the number of draws each row made."""
    from .rng import binomial_array

    cond = _binomial_chain(p)
    counts = np.zeros(p.shape, dtype=np.int64)
    left = trials.copy()
    drawn = np.zeros(left.shape, dtype=np.uint64)
    for k in range(p.shape[1] - 1):
        q = cond[:, k]
        # a certain outcome takes every trial left and an impossible one none
        take = np.where(q == 1.0, left, 0)
        rows = np.flatnonzero((left > 0) & (q > 0.0) & (q < 1.0))
        if rows.size:
            take[rows] = binomial_array(left[rows], q[rows], key[:, rows],
                                        first_draw + drawn[rows])
            drawn[rows] += np.uint64(1)
        counts[:, k] = take
        left -= take
    counts[:, -1] = left
    return counts, drawn


def _binomial_chain(p: np.ndarray) -> np.ndarray:
    """For (P, K) snapped probabilities, each row with a nonzero entry: the
    binomial probability of outcome k among the trials not yet placed,
    min(1, p_k / (p_k + ... + p_last)), or 0 where p_k is 0. It is 1 for the
    last nonzero outcome of a row, which so takes the rest."""
    nonzero = p > 0.0
    cond = np.zeros_like(p)
    for k in range(p.shape[1] - 1):
        # the outcomes past the last nonzero one add exact zeros to the tail
        tail = p[:, k].copy()
        for j in range(k + 1, p.shape[1]):
            tail += p[:, j]
        np.divide(p[:, k], tail, out=cond[:, k], where=nonzero[:, k])
    return np.where(cond < 1.0, cond, 1.0)


def _require_qubit(state) -> StateVector:
    state = _coerce_state(state)
    if state.dim != 2:
        raise ValueError(f"expected a 2-dim state, got dim {state.dim}")
    return state


def _born(states: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # states: checked (P, 2) unit rows; theta: P canonical angles
    c, s = np.cos(theta), np.sin(theta)
    a0, a1 = states[:, 0], states[:, 1]
    amp = np.empty(states.shape, dtype=np.complex128)
    amp[:, 0], amp[:, 1] = c * a0 + s * a1, -s * a0 + c * a1
    p = snap_probability_array(np.abs(amp) ** 2)
    # a certain outcome leaves the other impossible
    p[p[:, 0] == 1.0, 1] = 0.0
    p[p[:, 1] == 1.0, 0] = 0.0
    return p


def born_probabilities(state, basis) -> tuple[float, float]:
    """Born-rule outcome probabilities (|<theta|psi>|^2, |<theta_perp|psi>|^2)."""
    state = _require_qubit(state)
    theta = np.array([_coerce_basis(basis).theta])
    p0, p1 = _born(state.amplitudes[None], theta)[0].tolist()
    return p0, p1


def tensor_product(a, b) -> StateVector:
    """Joint state with row-major amplitudes (a0 b0, a0 b1, a1 b0, a1 b1)."""
    a, b = _coerce_state(a), _coerce_state(b)
    if a.dim != 2 or b.dim != 2:
        raise ValueError("tensor_product takes two 2-dim states")
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


class DensityOperator(namedtuple("DensityOperator", "matrix")):
    """Hermitian, trace-1, positive-semidefinite operator on 2 or 4 dimensions;
    matrix is a read-only complex array. Operators compare and hash by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"matrix must be 2x2 or 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix must have finite entries")
        if float(np.abs(m - m.conj().T).max()) > ALGEBRA_ATOL:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m))
        if max(abs(tr.real - 1.0), abs(tr.imag)) > ALGEBRA_ATOL:
            raise InvalidStateError(f"trace must be 1 within 1e-12, got {tr!r}")
        if float(np.linalg.eigvalsh(m).min()) < -ALGEBRA_ATOL:
            raise InvalidStateError("matrix has an eigenvalue below -1e-12")
        m.flags.writeable = False
        return tuple.__new__(cls, (m,))

    @classmethod
    def from_pure(cls, state) -> "DensityOperator":
        v = _coerce_state(state).amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int = 2) -> "DensityOperator":
        if dim not in (2, 4):
            raise ValueError(f"dim must be 2 or 4, got {dim}")
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _coerce_density(rho) -> DensityOperator:
    return rho if isinstance(rho, DensityOperator) else DensityOperator(rho)


def _expectation(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Snapped <v|m|v> of P unit rows v against P stacked (or one) 2x2 operators.

    The stacked matmul runs, per point, the BLAS calls that v.conj() @ m @ v
    runs on one vector.
    """
    vm = v.conj()[:, None, :] @ m
    return snap_probability_array(np.real(vm @ v[:, :, None])[:, 0, 0])


def projection_probability(rho, basis) -> float:
    """<theta|rho|theta>: aligned-outcome probability for a mixed qubit state."""
    rho = _coerce_density(rho)
    if rho.dim != 2:
        raise ValueError(f"expected a 2-dim operator, got dim {rho.dim}")
    v = _eigenvectors(np.array([_coerce_basis(basis).theta]), 0)
    return float(_expectation(rho.matrix, v)[0])


def partial_trace(rho, keep: str) -> DensityOperator:
    """Reduce a two-photon operator to one side; keep is "A" (first) or "B"."""
    rho = _coerce_density(rho)
    if rho.dim != 4:
        raise ValueError(f"partial_trace needs a 4-dim operator, got dim {rho.dim}")
    if keep not in ("A", "B"):
        raise ValueError(f'keep must be "A" or "B", got {keep!r}')
    r = rho.matrix.reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    reduced = np.einsum("abcb->ac", r) if keep == "A" else np.einsum("abad->bd", r)
    return DensityOperator(reduced)


def trace_distance(r1, r2) -> float:
    """Half the absolute-eigenvalue sum of r1 - r2."""
    m1 = _coerce_density(r1).matrix
    m2 = _coerce_density(r2).matrix
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch: {m1.shape[0]} vs {m2.shape[0]}")
    if m1.tobytes() > m2.tobytes():
        # canonical operand order keeps the float path identical both ways
        m1, m2 = m2, m1
    return float(0.5 * np.abs(np.linalg.eigvalsh(m1 - m2)).sum())


def states_equal(a, b, atol: float = ALGEBRA_ATOL) -> bool:
    """Equality up to a global phase: |<a|b>| = 1 within atol."""
    a, b = _coerce_state(a), _coerce_state(b)
    if a.dim != b.dim:
        return False
    return abs(abs(complex(np.vdot(a.amplitudes, b.amplitudes))) - 1.0) <= atol
