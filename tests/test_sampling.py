"""Properties of the Born-sampling kernel over generated probabilities and angles."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import draw
from photonlab.core import PROB_SNAP, born_probabilities, ket_from_angle
from photonlab.entangle import (
    conditional_state,
    correlation,
    joint_probabilities,
    make_pair,
    no_signaling_check,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)
counts_n = st.integers(min_value=0, max_value=2**40)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
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


@settings(max_examples=40)
@given(angles, st.integers(min_value=0, max_value=2**32))
def test_equal_bases_are_anticorrelated_at_any_angle(theta, seed):
    assert correlation(theta, theta, 2000, seed=seed).e_value == -1.0
    joint = joint_probabilities(make_pair(), theta, theta)
    assert joint[0, 0] == joint[1, 1] == 0.0


@given(st.lists(angles, min_size=1, max_size=8))
def test_no_signaling_for_generated_bases(bases):
    assert no_signaling_check(bases) < 1e-12
    assert no_signaling_check([b + math.pi for b in bases]) < 1e-12


@given(distributions(), counts_n, seeds)
def test_counts_add_up_and_skip_snapped_to_zero_outcomes(probs, n, seed):
    counts, _ = draw.counts(probs, n, draw.stream_key(seed, 0), 0)
    assert len(counts) == len(probs) and all(type(c) is int for c in counts)
    assert sum(counts) == n
    assert min(counts) >= 0
    assert all(c == 0 for p, c in zip(probs, counts) if p <= PROB_SNAP)


@given(st.integers(min_value=2, max_value=6), st.data(), counts_n, seeds)
def test_a_snapped_to_one_outcome_takes_every_count_without_a_draw(k, data, n, seed):
    others = data.draw(st.lists(st.floats(0.0, PROB_SNAP / (k - 1)), min_size=k - 1, max_size=k - 1))
    sure = data.draw(st.integers(min_value=0, max_value=k - 1))
    probs = others[:sure] + [1.0 - sum(others)] + others[sure:]
    counts, drawn = draw.counts(probs, n, draw.stream_key(seed, 0), 0)
    assert counts[sure] == n and sum(counts) == n
    assert drawn == 0


def test_counts_are_the_chain_of_tail_sum_binomials():
    # outcome k draws binomial(left, p_k / (p_k + ... + p_last)); in the second
    # case the tail sum is accurate to rounding, while 1 - p_0 keeps only
    # about four correct digits
    cases = [
        ([0.1, 0.25, 0.0, 0.65], 10**6),
        ([1 - 3e-13, 1e-13, 1e-13, 1e-13], 2**62),
        ([0.3, PROB_SNAP / 2, 0.7, PROB_SNAP / 2], 5_000),
    ]
    for probs, n in cases:
        snapped = [p if p > PROB_SNAP else 0.0 for p in probs]
        last = max(k for k, p in enumerate(snapped) if p > 0.0)
        key = draw.stream_key(61, 0)
        left, expected, drawn = n, [0] * len(probs), 0
        for k in range(last):
            if snapped[k] > 0.0:
                q = snapped[k] / sum(snapped[k:last + 1])
                expected[k] = draw.binomial(left, q, key, drawn)
                left -= expected[k]
                drawn += 1
        expected[last] = left
        assert draw.counts(probs, n, key, 0) == (expected, drawn)


def test_counts_follow_the_multinomial_law_over_blocks():
    # per cell: the mean and the sample variance over m blocks of n draws each,
    # one stream per block, against the binomial marginal, within 5 standard errors
    m, n = 2_000, 1_000
    pair = joint_probabilities(make_pair(), 0.0, math.pi / 8).ravel()
    for probs in (pair, [0.1, 0.25, 0.0, 0.65], [0.3, 1e-16, 0.7]):
        counts = np.array([draw.counts(probs, n, draw.stream_key(62, b), 0)[0]
                           for b in range(m)], dtype=np.float64)
        for cell, p in zip(counts.T, probs):
            p = p if p > PROB_SNAP else 0.0
            var = n * p * (1.0 - p)
            mu4 = var * (1.0 + 3.0 * p * (1.0 - p) * (n - 2))
            var_of_s2 = mu4 / m - var**2 * (m - 3) / (m * (m - 1))
            assert abs(cell.mean() - n * p) <= 5.0 * math.sqrt(var / m)
            assert abs(cell.var(ddof=1) - var) <= 5.0 * math.sqrt(var_of_s2)
