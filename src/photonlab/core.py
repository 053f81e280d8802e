"""Qubit states, measurement bases, and Born-rule collapse.

Photon polarization lives in a 2-dimensional complex Hilbert space; linear
polarization at angle theta is the real ket (cos theta, sin theta), and a
measurement axis at theta projects onto the orthonormal pair
|theta> = (cos theta, sin theta), |theta_perp> = (-sin theta, cos theta).
Two-photon joint states live in the 4-dimensional tensor product, and density
operators represent mixed beams and reduced single-photon states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

# Algebraic identities hold to ALGEBRA_ATOL; precondition checks are looser.
ALGEBRA_ATOL = 1e-12
PRECONDITION_ATOL = 1e-9

# Probabilities within PROB_SNAP of exact 0 or 1 are snapped to the exact value.
# cos(pi/2) in doubles is ~6.1e-17, so crossed-polarizer extinction, eigenstate
# measurement, and equal-basis pair anti-correlation would otherwise miss their
# exact branch; every genuine probability in scope is many orders larger.
PROB_SNAP = 1e-15


class InvalidStateError(ValueError):
    """An input violates its structural invariants, e.g. an unnormalized state,
    a malformed density operator, an absorbed photon, or an empty branch."""


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the polarization range [0, pi)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    reduced = theta - math.pi * math.floor(theta / math.pi)
    if reduced >= math.pi:
        # floor division noise can land exactly on pi for tiny negative inputs
        reduced -= math.pi
    return 0.0 if reduced < 0.0 else reduced


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be a length-2 or length-4 vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state on 2 or 4 dimensions."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes, "amplitudes")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > PRECONDITION_ATOL:
            raise InvalidStateError(
                f"state norm {norm!r} deviates from 1 by more than {PRECONDITION_ATOL}"
            )
        arr = arr / norm
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def normalize(cls, values) -> "StateVector":
        """Build a state from an unnormalized vector; rejects near-zero vectors."""
        arr = _as_complex_vector(values, "amplitudes")
        norm = float(np.linalg.norm(arr))
        if norm < 1e-6:
            raise InvalidStateError("cannot normalize a near-zero vector")
        return cls(arr / norm)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])


def _coerce_state(state) -> StateVector:
    return state if isinstance(state, StateVector) else StateVector(state)


@dataclass(frozen=True)
class MeasurementBasis:
    """A polarization measurement axis; angles are directions mod pi."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    def aligned(self) -> StateVector:
        """Eigenvector for outcome 0, |theta>."""
        return StateVector(
            np.array([math.cos(self.theta), math.sin(self.theta)], dtype=np.complex128)
        )

    def orthogonal(self) -> StateVector:
        """Eigenvector for outcome 1, |theta + pi/2>."""
        return StateVector(
            np.array([-math.sin(self.theta), math.cos(self.theta)], dtype=np.complex128)
        )

    def eigenvector(self, outcome: int) -> StateVector:
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        return self.aligned() if outcome == 0 else self.orthogonal()


def _coerce_basis(basis) -> MeasurementBasis:
    return basis if isinstance(basis, MeasurementBasis) else MeasurementBasis(basis)


@dataclass(frozen=True)
class OutcomeRecord:
    """One projective measurement: outcome 0 is aligned, 1 is orthogonal."""

    outcome: int
    post_state: StateVector
    basis: MeasurementBasis
    probability: float


def ket_from_angle(theta: float) -> StateVector:
    """Linear polarization state (cos theta, sin theta)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return StateVector(np.array([math.cos(theta), math.sin(theta)], dtype=np.complex128))


def snap_probability(p: float) -> float:
    """Clamp to [0, 1] and snap double-precision noise onto exact 0 and 1."""
    p = float(p)
    if p <= PROB_SNAP:
        return 0.0
    if p >= 1.0 - PROB_SNAP:
        return 1.0
    return p


def sample_categories(probs, u) -> np.ndarray:
    """Born-rule outcome index (uint8, shaped like the array u) of each uniform
    draw in u, all following one distribution over len(probs) outcomes.

    Outcome k is drawn when u lies between the cumulative snapped probabilities
    before and through it. A draw in the sliver where snapped probabilities sum
    to under 1 goes to the last outcome with nonzero probability, so a
    snapped-to-zero outcome is never drawn.
    """
    p = [snap_probability(x) for x in probs]
    last_nonzero = max(k for k, x in enumerate(p) if x > 0.0)
    outcome = np.zeros(np.shape(u), dtype=np.uint8)
    for edge in itertools.accumulate(p[:last_nonzero]):
        outcome += u >= edge
    return outcome


def sample_binary(p0, u) -> np.ndarray:
    """Two-outcome sample_categories for an outcome-0 probability p0 that may
    differ per draw (p0 broadcasts against u). Outcome 1 holds the rest, so it
    is impossible exactly when p0 snaps to 1.
    """
    if np.ndim(p0) == 0:
        return np.greater_equal(u, snap_probability(p0)).view(np.uint8)
    p0 = np.asarray(p0)
    # u >= snapped p0, without a snapped copy of the per-draw p0
    outcome = np.greater_equal(u, p0)
    outcome &= p0 < 1.0 - PROB_SNAP
    outcome |= p0 <= PROB_SNAP
    return outcome.view(np.uint8)


def _require_qubit(state) -> StateVector:
    state = _coerce_state(state)
    if state.dim != 2:
        raise ValueError(f"expected a 2-dim state, got dim {state.dim}")
    norm = float(np.linalg.norm(state.amplitudes))
    if abs(norm - 1.0) > PRECONDITION_ATOL:
        raise InvalidStateError(f"state norm {norm!r} deviates from 1 beyond tolerance")
    return state


def born_probabilities(state, basis) -> tuple[float, float]:
    """Born-rule outcome probabilities (|<theta|psi>|^2, |<theta_perp|psi>|^2)."""
    state = _require_qubit(state)
    basis = _coerce_basis(basis)
    c, s = math.cos(basis.theta), math.sin(basis.theta)
    a0, a1 = state.amplitudes
    amp_aligned = c * a0 + s * a1
    amp_orth = -s * a0 + c * a1
    p0 = snap_probability(abs(amp_aligned) ** 2)
    p1 = snap_probability(abs(amp_orth) ** 2)
    if p0 == 1.0:
        p1 = 0.0
    elif p1 == 1.0:
        p0 = 0.0
    return p0, p1


def collapse(state, basis, rng: RngStream) -> OutcomeRecord:
    """Sample an outcome per the Born rule; consumes exactly one uniform draw."""
    basis = _coerce_basis(basis)
    p0, p1 = born_probabilities(state, basis)
    outcome = int(sample_categories((p0, p1), rng.random(1))[0])
    return OutcomeRecord(
        outcome=outcome,
        post_state=basis.eigenvector(outcome),
        basis=basis,
        probability=p0 if outcome == 0 else p1,
    )


def tensor_product(a, b) -> StateVector:
    """Joint state with row-major amplitudes (a0 b0, a0 b1, a1 b0, a1 b1)."""
    a, b = _coerce_state(a), _coerce_state(b)
    if a.dim != 2 or b.dim != 2:
        raise ValueError("tensor_product takes two 2-dim states")
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, trace-1, positive-semidefinite operator on 2 or 4 dimensions."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"matrix must be 2x2 or 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix must have finite entries")
        if float(np.abs(m - m.conj().T).max()) > ALGEBRA_ATOL:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        tr = complex(m.trace())
        if abs(tr.real - 1.0) > ALGEBRA_ATOL or abs(tr.imag) > ALGEBRA_ATOL:
            raise InvalidStateError(f"trace must be 1 within 1e-12, got {tr!r}")
        if float(np.linalg.eigvalsh(m).min()) < -ALGEBRA_ATOL:
            raise InvalidStateError("matrix has an eigenvalue below -1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

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


def projection_probability(rho, basis) -> float:
    """<theta|rho|theta>: aligned-outcome probability for a mixed qubit state."""
    rho = _coerce_density(rho)
    if rho.dim != 2:
        raise ValueError(f"expected a 2-dim operator, got dim {rho.dim}")
    v = _coerce_basis(basis).aligned().amplitudes
    return snap_probability(float(np.real(v.conj() @ rho.matrix @ v)))


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
    return 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())


def states_equal(a, b, atol: float = ALGEBRA_ATOL) -> bool:
    """Equality up to a global phase: |<a|b>| = 1 within atol."""
    a, b = _coerce_state(a), _coerce_state(b)
    if a.dim != b.dim:
        return False
    return abs(abs(complex(np.vdot(a.amplitudes, b.amplitudes))) - 1.0) <= atol
