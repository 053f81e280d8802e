import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonlab import draw
from photonlab.core import (
    ALGEBRA_ATOL,
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    StateVector,
    born_probabilities,
    canonical_angle,
    ket_from_angle,
    partial_trace,
    projection_probability,
    snap_probability,
    states_equal,
    tensor_product,
    trace_distance,
)
from photonlab.rng import stream_from_seed


def test_canonical_angle_lands_in_half_open_range():
    rng = stream_from_seed(11, 0)
    for theta in (rng.random(500) - 0.5) * 50:
        reduced = canonical_angle(theta)
        assert 0.0 <= reduced < math.pi
        # same polarization direction mod pi
        assert abs(math.cos(2 * (reduced - theta)) - 1.0) < 1e-10


def test_canonical_angle_period():
    for theta in (0.0, 0.3, 1.2, 3.0):
        assert abs(canonical_angle(theta + math.pi) - canonical_angle(theta)) < 1e-12
    assert canonical_angle(math.pi) == 0.0
    assert canonical_angle(0.0) == 0.0
    with pytest.raises(ValueError):
        canonical_angle(float("nan"))


def test_state_vector_normalizes_small_deviations():
    eps = 1e-10
    s = StateVector(np.array([1.0 + eps, 0.0], dtype=complex))
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    assert s.dim == 2


def test_state_vector_rejects_bad_inputs():
    with pytest.raises(InvalidStateError):
        StateVector(np.array([1.0, 1.0], dtype=complex))  # norm sqrt(2)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))  # dim 3
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0], dtype=complex))
    with pytest.raises(InvalidStateError):
        StateVector.normalize([0.0, 0.0])


def test_state_vector_is_immutable():
    s = ket_from_angle(0.3)
    with pytest.raises((ValueError, AttributeError)):
        s.amplitudes[0] = 5.0


def test_normalize_accepts_any_reasonable_scale():
    s = StateVector.normalize([3.0, 4.0])
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8], atol=1e-15)


def test_basis_eigenvectors_are_orthonormal():
    rng = stream_from_seed(12, 0)
    for theta in rng.random(100) * math.pi:
        b = MeasurementBasis(theta)
        a, o = b.aligned().amplitudes, b.orthogonal().amplitudes
        assert abs(np.vdot(a, a) - 1.0) < 1e-12
        assert abs(np.vdot(o, o) - 1.0) < 1e-12
        assert abs(np.vdot(a, o)) < 1e-12
    assert MeasurementBasis(math.pi + 0.25).theta == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        MeasurementBasis(0.0).eigenvector(2)


def test_snap_probability_handles_float_noise():
    assert snap_probability(1e-16) == 0.0
    assert snap_probability(1 - 1e-16) == 1.0
    assert snap_probability(0.3) == 0.3
    assert snap_probability(-1e-18) == 0.0
    assert snap_probability(1.0 + 1e-16) == 1.0


def test_born_rule_matches_malus_form():
    rng = stream_from_seed(13, 0)
    for _ in range(300):
        phi, theta = rng.random(2) * math.pi
        p0, p1 = born_probabilities(ket_from_angle(phi), theta)
        assert abs(p0 + p1 - 1.0) <= 1e-12
        assert abs(p0 - math.cos(theta - phi) ** 2) < 1e-12


def test_born_rule_is_exact_on_eigenstates():
    b = MeasurementBasis(0.7)
    assert born_probabilities(b.aligned(), b) == (1.0, 0.0)
    assert born_probabilities(b.orthogonal(), b) == (0.0, 1.0)
    # crossed polarizers: angle difference of exactly pi/2
    assert born_probabilities(ket_from_angle(math.pi / 2), 0.0) == (0.0, 1.0)


def test_born_rule_rejects_non_qubits():
    joint = tensor_product(ket_from_angle(0.0), ket_from_angle(0.0))
    with pytest.raises(ValueError):
        born_probabilities(joint, 0.0)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_collapse_is_idempotent_in_the_same_basis(theta):
    # the post-collapse state gives the same outcome again with certainty
    basis = MeasurementBasis(theta)
    assert born_probabilities(basis.eigenvector(0), basis) == (1.0, 0.0)
    assert born_probabilities(basis.eigenvector(1), basis) == (0.0, 1.0)


def test_collapse_frequencies_follow_the_born_rule():
    state, basis = ket_from_angle(0.0), MeasurementBasis(math.pi / 6)
    p0 = math.cos(math.pi / 6) ** 2
    n = 20_000
    (zeros, ones), _ = draw.counts(born_probabilities(state, basis), n, draw.stream_key(25, 0), 0)
    assert zeros + ones == n
    assert abs(zeros / n - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)


def test_tensor_product_layout():
    a = StateVector(np.array([1.0, 0.0], dtype=complex))
    b = StateVector(np.array([0.0, 1.0], dtype=complex))
    np.testing.assert_array_equal(tensor_product(a, b).amplitudes, [0, 1, 0, 0])
    with pytest.raises(ValueError):
        tensor_product(tensor_product(a, b), a)


def test_density_operator_validation():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.eye(3) / 3)


def test_density_operator_construction():
    rho = DensityOperator.from_pure(ket_from_angle(0.9))
    assert abs(rho.matrix.trace() - 1.0) < 1e-12
    assert rho.dim == 2
    mixed = DensityOperator.maximally_mixed(2)
    np.testing.assert_allclose(mixed.matrix, np.eye(2) / 2)
    lam = rho.eigenvalues()
    assert lam.min() > -1e-12 and abs(lam.max() - 1.0) < 1e-12


def test_projection_probability_matches_malus_for_pure_states():
    rng = stream_from_seed(26, 0)
    for _ in range(200):
        phi, theta = rng.random(2) * math.pi
        rho = DensityOperator.from_pure(ket_from_angle(phi))
        expected = math.cos(theta - phi) ** 2
        assert abs(projection_probability(rho, theta) - expected) < 1e-12
    half = projection_probability(DensityOperator.maximally_mixed(2), 0.77)
    assert abs(half - 0.5) < 1e-12


def test_partial_trace_of_product_state():
    joint = tensor_product(ket_from_angle(0.3), ket_from_angle(1.4))
    rho = DensityOperator.from_pure(joint)
    np.testing.assert_allclose(
        partial_trace(rho, "A").matrix,
        DensityOperator.from_pure(ket_from_angle(0.3)).matrix,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        partial_trace(rho, "B").matrix,
        DensityOperator.from_pure(ket_from_angle(1.4)).matrix,
        atol=1e-12,
    )
    with pytest.raises(ValueError):
        partial_trace(rho, "C")
    with pytest.raises(ValueError):
        partial_trace(DensityOperator.maximally_mixed(2), "A")


def test_trace_distance_values_and_exact_symmetry():
    r0 = DensityOperator.from_pure(ket_from_angle(0.0))
    r45 = DensityOperator.from_pure(ket_from_angle(math.pi / 4))
    d = trace_distance(r0, r45)
    assert abs(d - math.sin(math.pi / 4)) < 1e-12
    assert trace_distance(r0, r45) == trace_distance(r45, r0)
    assert trace_distance(r0, r0) == 0.0
    # orthogonal pure states are perfectly distinguishable
    r90 = DensityOperator.from_pure(ket_from_angle(math.pi / 2))
    assert abs(trace_distance(r0, r90) - 1.0) < 1e-12


def test_states_equal_ignores_global_phase():
    s = ket_from_angle(0.8)
    rotated = StateVector(s.amplitudes * np.exp(1j * 1.234))
    assert states_equal(s, rotated)
    assert not states_equal(s, ket_from_angle(0.9))
    assert not states_equal(s, tensor_product(s, s))
    assert states_equal(s, s, atol=ALGEBRA_ATOL)
