"""Properties of the Born-sampling kernel over generated probabilities and angles."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.core import (
    PROB_SNAP,
    born_probabilities,
    ket_from_angle,
    sample_binary,
    sample_categories,
)
from photonlab.entangle import (
    conditional_state,
    correlation,
    joint_probabilities,
    make_pair,
    measure_pair,
    no_signaling_check,
)
from photonlab.rng import stream_from_seed

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
uniform = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
uniforms = st.lists(uniform, min_size=1, max_size=40).map(np.array)
snapped_to_zero = st.floats(min_value=0.0, max_value=PROB_SNAP)


@st.composite
def distributions(draw):
    """Probability vectors whose entries are either weights or at most PROB_SNAP."""
    k = draw(st.integers(min_value=2, max_value=6))
    tiny = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    if all(tiny):
        tiny[draw(st.integers(min_value=0, max_value=k - 1))] = False
    probs = [draw(snapped_to_zero) if t else draw(st.floats(0.01, 1.0)) for t in tiny]
    rest = 1.0 - sum(p for p, t in zip(probs, tiny) if t)
    weight = sum(p for p, t in zip(probs, tiny) if not t)
    return [p if t else p / weight * rest for p, t in zip(probs, tiny)]


@given(angles, angles)
def test_outcome_probabilities_sum_to_one(theta, phi):
    p0, p1 = born_probabilities(ket_from_angle(theta), phi)
    assert abs(p0 + p1 - 1.0) <= 1e-12
    pair = make_pair()
    joint = joint_probabilities(pair, theta, phi)
    assert (joint >= 0.0).all()
    assert abs(float(joint.sum()) - 1.0) <= 1e-12
    branches = conditional_state(pair, theta, 0)[0] + conditional_state(pair, theta, 1)[0]
    assert abs(branches - 1.0) <= 1e-12


@given(distributions(), uniforms)
def test_snapped_to_zero_outcomes_are_never_sampled(probs, u):
    outcome = sample_categories(probs, u)
    assert outcome.shape == u.shape
    assert all(probs[k] > PROB_SNAP for k in outcome)


@given(st.integers(min_value=2, max_value=6), st.data(), uniforms)
def test_a_snapped_to_one_outcome_is_always_sampled(k, data, u):
    # every other outcome shares at most PROB_SNAP
    others = data.draw(st.lists(st.floats(0.0, PROB_SNAP / (k - 1)), min_size=k - 1, max_size=k - 1))
    sure = data.draw(st.integers(min_value=0, max_value=k - 1))
    probs = others[:sure] + [1.0 - sum(others)] + others[sure:]
    assert probs[sure] >= 1.0 - PROB_SNAP
    assert (sample_categories(probs, u) == sure).all()


per_draw_p0 = st.one_of(snapped_to_zero, st.floats(1.0 - PROB_SNAP, 1.0), st.floats(0.0, 1.0))


@given(st.lists(st.tuples(per_draw_p0, uniform), min_size=1, max_size=40))
def test_binary_draws_snap_exactly_and_otherwise_compare(draws):
    p0 = np.array([p for p, _ in draws])
    u = np.array([v for _, v in draws])
    outcome = sample_binary(p0, u)
    assert (outcome[p0 <= PROB_SNAP] == 1).all()
    assert (outcome[p0 >= 1.0 - PROB_SNAP] == 0).all()
    middle = (p0 > PROB_SNAP) & (p0 < 1.0 - PROB_SNAP)
    np.testing.assert_array_equal(outcome[middle], u[middle] >= p0[middle])
    # one shared probability decides every draw the way the per-draw form does
    for p in p0:
        np.testing.assert_array_equal(sample_binary(p, u), sample_binary(np.full(u.shape, p), u))


@settings(max_examples=40)
@given(angles, st.integers(min_value=0, max_value=2**32))
def test_equal_bases_are_anticorrelated_at_any_angle(theta, seed):
    assert correlation(theta, theta, 2000, seed=seed).e_value == -1.0
    rng = stream_from_seed(seed, 1)
    pair = make_pair()
    for _ in range(20):
        out = measure_pair(pair, theta, theta, rng)
        assert out.outcome_a != out.outcome_b


@given(st.lists(angles, min_size=1, max_size=8))
def test_no_signaling_for_generated_bases(bases):
    assert no_signaling_check(bases) < 1e-12
    assert no_signaling_check([b + math.pi for b in bases]) < 1e-12
