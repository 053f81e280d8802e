import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.core import (
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    born_probabilities,
    ket_from_angle,
    partial_trace,
    states_equal,
    tensor_product,
)
from photonlab.entangle import (
    CHSH_SETTINGS,
    CorrelationStats,
    PairState,
    bob_marginal_count_array,
    bob_marginal_counts,
    bob_reduced_state,
    chsh,
    conditional_state,
    correlation,
    correlation_array,
    joint_probabilities,
    make_pair,
    no_signaling_check,
)
from photonlab.rng import stream_from_seed


def product_pair(theta_a=0.0, theta_b=0.0):
    return PairState(tensor_product(ket_from_angle(theta_a), ket_from_angle(theta_b)))


def test_pair_state_amplitudes():
    pair = make_pair()
    expected = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(pair.joint.amplitudes, expected, atol=1e-12)
    with pytest.raises(ValueError):
        PairState(ket_from_angle(0.0))


def test_each_photon_alone_is_maximally_mixed():
    rho = DensityOperator.from_pure(make_pair().joint)
    for side in ("A", "B"):
        np.testing.assert_allclose(partial_trace(rho, side).matrix, np.eye(2) / 2, atol=1e-12)


def test_conditional_state_is_the_orthogonal_eigenvector():
    pair = make_pair()
    p, b_state = conditional_state(pair, 0.0, 0)
    assert abs(p - 0.5) < 1e-12
    assert states_equal(b_state, MeasurementBasis(0.0).eigenvector(1))
    p, b_state = conditional_state(pair, math.pi / 4, 0)
    assert abs(p - 0.5) < 1e-12
    assert states_equal(b_state, ket_from_angle(3 * math.pi / 4))
    rng = stream_from_seed(51, 0)
    for theta in rng.random(50) * math.pi:
        for outcome in (0, 1):
            p, b_state = conditional_state(pair, theta, outcome)
            assert abs(p - 0.5) < 1e-12
            assert states_equal(b_state, MeasurementBasis(theta).eigenvector(1 - outcome))


def test_conditional_state_refuses_impossible_branches():
    # photon A of |00> can never give the orthogonal outcome in basis 0
    with pytest.raises(InvalidStateError):
        conditional_state(product_pair(), 0.0, 1)


def test_joint_probabilities_are_a_distribution():
    pair = make_pair()
    rng = stream_from_seed(54, 0)
    for _ in range(100):
        ta, tb = rng.random(2) * math.pi
        probs = joint_probabilities(pair, ta, tb)
        assert probs.shape == (2, 2)
        assert abs(probs.sum() - 1.0) < 1e-12
        # both single-photon marginals are unbiased
        assert abs(probs.sum(axis=1)[0] - 0.5) < 1e-12
        assert abs(probs.sum(axis=0)[0] - 0.5) < 1e-12


def test_joint_probabilities_depend_only_on_the_angle_difference():
    pair = make_pair()
    rng = stream_from_seed(55, 0)
    for _ in range(50):
        ta, tb, shift = rng.random(3) * math.pi
        np.testing.assert_allclose(
            joint_probabilities(pair, ta, tb),
            joint_probabilities(pair, ta + shift, tb + shift),
            atol=1e-12,
        )


def test_equal_bases_never_agree():
    pair = make_pair()
    probs = joint_probabilities(pair, 0.7, 0.7)
    assert probs[0, 0] == 0.0
    assert probs[1, 1] == 0.0
    np.testing.assert_allclose(probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=60)
@given(angles, st.integers(min_value=0, max_value=2**32))
def test_perpendicular_bases_always_agree(theta, seed):
    # the different outcomes snap to probability 0, so no sampled pair differs
    assert correlation(theta, theta + math.pi / 2, 2000, seed=seed).e_value == 1.0


def test_correlation_is_exactly_minus_one_at_equal_bases():
    for theta in (0.0, 0.3, math.pi / 4, 2.0):
        stats = correlation(theta, theta, 5000, seed=2)
        assert stats.e_value == -1.0
        assert stats.std_err == 0.0
    # at the largest count the CLI accepts
    capped = correlation(0.3, 0.3, 2**32, seed=2)
    assert (capped.e_value, capped.std_err) == (-1.0, 0.0)


def test_correlation_matches_the_cosine_law():
    stats = correlation(0.0, math.pi / 8, 200_000, seed=3)
    truth = -math.cos(math.pi / 4)
    sigma = math.sqrt((1 - truth**2) / 200_000)
    assert abs(stats.e_value - truth) < 3 * sigma
    rng = stream_from_seed(59, 0)
    for i in range(5):
        ta, tb = rng.random(2) * math.pi
        truth = -math.cos(2 * (ta - tb))
        est = correlation(ta, tb, 50_000, seed=100 + i)
        sigma = math.sqrt(max(1e-12, 1 - truth**2) / 50_000)
        assert abs(est.e_value - truth) < 4 * sigma + 1e-6
    # at the largest count the CLI accepts: the equal-outcome count is
    # binomial with P(equal) = sin^2(a - b)
    n, ta, tb = 2**32, 0.3, 0.1
    est = correlation(ta, tb, n, seed=8)
    n_equal = round((est.e_value + 1) * n / 2)
    assert est.e_value == (2 * n_equal - n) / n
    p_equal = math.sin(ta - tb) ** 2
    assert abs(n_equal - n * p_equal) < 5 * math.sqrt(n * p_equal * (1 - p_equal))


def test_correlation_reporting_and_validation():
    stats = correlation(0.1, 0.6, 10_000, seed=4)
    assert stats.n == 10_000
    assert stats.std_err == pytest.approx(math.sqrt((1 - stats.e_value**2) / 10_000), rel=1e-12)
    again = correlation(0.1, 0.6, 10_000, seed=4)
    assert stats == again
    assert correlation(0.1, 0.6, 10_000, seed=5) != stats
    with pytest.raises(ValueError):
        correlation(0.0, 0.0, 0)


def test_correlation_stats_from_counts():
    stats = CorrelationStats.from_counts(n_equal=75, n=100)
    assert stats.e_value == 0.5
    assert stats.std_err == pytest.approx(math.sqrt(0.75 / 100))


def test_chsh_with_all_settings_equal_is_exactly_two():
    assert chsh(settings=(0.4, 0.4, 0.4, 0.4), n_per_setting=2000, seed=6) == 2.0


def test_chsh_reaches_the_quantum_bound():
    s = chsh(n_per_setting=100_000, seed=7)
    sigma = math.sqrt(4 * 0.5 / 100_000)
    assert abs(s - 2 * math.sqrt(2)) < 3 * sigma
    assert chsh(n_per_setting=100_000, seed=7) == s


def test_chsh_standard_settings_constant():
    np.testing.assert_allclose(
        CHSH_SETTINGS, [0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8]
    )


@given(angles, angles, st.lists(angles, min_size=4, max_size=4))
def test_product_pair_respects_the_classical_bound(theta_a, theta_b, axes):
    # S computed exactly from a product state's joint law, at any settings
    pair = product_pair(theta_a, theta_b)

    def e(x, y):
        p = joint_probabilities(pair, x, y)
        return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])

    a, a_prime, b, b_prime = axes
    s = abs(e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime))
    assert s <= 2.0 + 1e-12
    with pytest.raises(ValueError):
        chsh(n_per_setting=0)


def test_a_count_comes_from_the_singlet_alone():
    # at 0.14.0 passing the shipped singlet as pair= drew from its amplitude
    # algebra, whose middle chain probability sits one ulp off 1/2 here, and
    # gave 1,000,803
    theta = math.radians(-99.138179)
    assert bob_marginal_counts(theta, theta, 2_000_000, seed=3) == (2_000_000, 999_197)
    for sample in (lambda: bob_marginal_counts(theta, theta, 10, pair=make_pair()),
                   lambda: bob_marginal_count_array([theta], theta, 10, pair=make_pair()),
                   lambda: correlation(0.0, 0.0, 10, pair=make_pair()),
                   lambda: correlation_array([0.0], 0.0, 10, pair=make_pair()),
                   lambda: chsh(n_per_setting=10, pair=make_pair())):
        with pytest.raises(TypeError):
            sample()


def test_bob_reduced_state_never_depends_on_basis_a():
    pair = make_pair()
    rng = stream_from_seed(60, 0)
    for theta in rng.random(20) * math.pi:
        np.testing.assert_allclose(
            bob_reduced_state(pair, theta).matrix, np.eye(2) / 2, atol=1e-12
        )


def test_no_signaling_marginals_coincide():
    assert no_signaling_check([0.0, math.pi / 4]) < 1e-12
    assert no_signaling_check([0.3]) == 0.0
    angles = np.linspace(0.0, math.pi, 32, endpoint=False)
    assert no_signaling_check(list(angles)) < 1e-12
    with pytest.raises(ValueError):
        no_signaling_check([])


def test_bob_counts_ignore_alice_basis():
    n = 100_000
    n1, k1 = bob_marginal_counts(0.0, 0.2, n, seed=9)
    n2, k2 = bob_marginal_counts(1.3, 0.2, n, seed=10)
    assert n1 == n2 == n
    for k in (k1, k2):
        assert abs(k / n - 0.5) < 4 * math.sqrt(0.25 / n)
    # two-proportion z, pooled
    p = (k1 + k2) / (2 * n)
    z = (k1 / n - k2 / n) / math.sqrt(p * (1 - p) * 2 / n)
    assert abs(z) < 4
    with pytest.raises(ValueError):
        bob_marginal_counts(0.0, 0.0, 0)


@given(angles, angles, st.integers(0, 1), st.integers(0, 1))
def test_sequential_and_joint_sampling_tell_the_same_story(ta, tb, oa, ob):
    # measure A, then B's conditional state, versus one joint measurement
    pair = make_pair()
    p, b_state = conditional_state(pair, ta, oa)
    sequential = p * born_probabilities(b_state, tb)[ob]
    assert abs(sequential - joint_probabilities(pair, ta, tb)[oa, ob]) <= 1e-12

