"""The array forms of the Monte Carlo layer against frozen copies of the scalar
code they replaced (photonlab 0.9.0), over generated angles, phases and counts.

The references below are that scalar code, kept here verbatim in substance:
one pair of eigenvectors per joint probability, one two-mode state per
detector probability, Python floats per Wilson interval and one chain of
binomials per row. The stacked forms must reproduce them bit
for bit, and a point's result must not depend on the batch it is in. The
detector probabilities are the exception: since 0.14.0 they are the closed
form (1 + cos phi)/2, and exactly 1/2 without the second beamsplitter, so the
two-mode algebra is their reference within 1e-15, not to the bit.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import core, draw
from photonlab.core import PROB_SNAP, SLICE_POINTS, sample_count_array
from photonlab.entangle import (
    bob_marginal_count_array,
    bob_marginal_counts,
    chsh,
    correlation,
    correlation_array,
    joint_probabilities,
    joint_probability_array,
    make_pair,
)
from photonlab.mzi import (
    MziConfig,
    detector_probabilities,
    detector_probability_array,
    fringe_counts,
    run_mzi,
)
from photonlab.stats import wilson_interval, wilson_interval_array

FOUR_PI = 4 * math.pi
angle = st.floats(min_value=-FOUR_PI, max_value=FOUR_PI, allow_nan=False)
wide_angle = st.one_of(angle, st.floats(-1e6, 1e6))
_BEAMSPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


# --- frozen scalar references (photonlab 0.9.0) ---------------------------------


def ref_snap(p):
    p = float(p)
    if p <= 1e-15:
        return 0.0
    if p >= 1.0 - 1e-15:
        return 1.0
    return p


def ref_eigenvector(theta, outcome):
    t = core.canonical_angle(theta)
    c, s = math.cos(t), math.sin(t)
    arr = np.array([c, s] if outcome == 0 else [-s, c], dtype=np.complex128)
    return arr / float(np.linalg.norm(arr))


def ref_joint_probabilities(theta_a, theta_b):
    m = make_pair().joint.amplitudes.reshape(2, 2)
    probs = np.empty((2, 2))
    for oa in (0, 1):
        ea = ref_eigenvector(theta_a, oa)
        for ob in (0, 1):
            fb = ref_eigenvector(theta_b, ob)
            amp = ea.conj() @ m @ fb.conj()
            probs[oa, ob] = ref_snap(float(np.real(amp * np.conj(amp))))
    return probs


def ref_detector_probabilities(phase, second_bs):
    psi = _BEAMSPLITTER @ np.array([1.0, 0.0], dtype=np.complex128)
    psi[0] *= np.exp(1j * phase)
    if second_bs:
        psi = _BEAMSPLITTER @ psi
    p0 = ref_snap(float(np.abs(psi[0]) ** 2))
    return p0, 1.0 - p0


def ref_wilson_interval(successes, trials, confidence=0.95):
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (float(lo), float(hi))


def ref_sample_counts(probs, n, key):
    # the stream's binomial draws are numbered from 0, and a certain one
    # takes every trial left without a draw
    p = [ref_snap(x) for x in probs]
    last_nonzero = max(k for k, x in enumerate(p) if x > 0.0)
    left = int(n)
    counts = np.zeros(len(p), dtype=np.int64)
    drawn = 0
    for k in range(last_nonzero):
        if left == 0:
            break
        if p[k] > 0.0:
            q = min(1.0, p[k] / sum(p[k:last_nonzero + 1]))
            if q < 1.0:
                counts[k] = draw.binomial(left, q, key, drawn)
                drawn += 1
            else:
                counts[k] = left
            left -= int(counts[k])
    counts[last_nonzero] = left
    return counts


# --- generated inputs -------------------------------------------------------------


@st.composite
def angle_pairs(draw):
    """Angle pairs, some of them equal bases (the same angle, or a multiple of
    pi apart), where the equal outcomes snap to exactly 0."""
    pairs = draw(st.lists(st.tuples(wide_angle, wide_angle), min_size=1, max_size=40))
    equal = draw(st.lists(st.tuples(angle, st.integers(-3, 3)), max_size=10))
    pairs += [(a, a + k * math.pi) if k else (a, a) for a, k in equal]
    return draw(st.permutations(pairs))


@st.composite
def wilson_counts(draw):
    trials = draw(st.lists(st.integers(1, 2**32), min_size=1, max_size=30))
    successes = [draw(st.sampled_from([0, n, n // 2]) | st.integers(0, n)) for n in trials]
    return successes, trials


probability_rows = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-16, 1.0 - 1e-16, 0.5])),
    min_size=2, max_size=5,
).filter(lambda row: any(ref_snap(x) > 0.0 for x in row))


# --- stacked forms equal the 0.9.0 scalar code -------------------------------------


@given(angle_pairs())
def test_joint_probability_array_equals_the_scalar_code(pairs):
    a, b = (np.array(side) for side in zip(*pairs))
    got = joint_probability_array(make_pair(), a, b)
    assert got.shape == (len(pairs), 2, 2)
    for k, (ta, tb) in enumerate(pairs):
        assert got[k].tobytes() == ref_joint_probabilities(ta, tb).tobytes()
        assert joint_probabilities(make_pair(), ta, tb).tobytes() == got[k].tobytes()


@given(angle, st.integers(-3, 3))
def test_equal_bases_snap_the_equal_outcomes_to_zero(theta, turns):
    probs = joint_probability_array(make_pair(), theta, theta + turns * math.pi)[0]
    assert probs[0, 0] == 0.0 and probs[1, 1] == 0.0


@given(st.lists(st.one_of(wide_angle, st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi])),
                min_size=1, max_size=60), st.booleans())
def test_detector_probability_array_equals_the_scalar_code(phases, second_bs):
    got = detector_probability_array(phases, second_bs)
    for k, phase in enumerate(phases):
        p0, p1 = detector_probabilities(phase, second_bs)
        assert tuple(got[k].tolist()) == (p0, p1)
        assert within_1e_15(p0, ref_detector_probabilities(phase, second_bs)[0])
        assert p0 + p1 == 1.0


def within_1e_15(closed, algebra) -> bool:
    """Whether a closed-form probability is within 1e-15 of the algebra's; where
    one of the two snapped to 0 or 1 and the other did not, within PROB_SNAP
    more."""
    snapped = closed in (0.0, 1.0) or algebra in (0.0, 1.0)
    return abs(closed - algebra) <= 1e-15 + (PROB_SNAP if snapped else 0.0)


def test_detector_probabilities_are_the_two_mode_algebra_within_1e_15():
    phases = np.linspace(-100.0, 100.0, 20_001)
    for second_bs in (True, False):
        got = detector_probability_array(phases, second_bs)[:, 0].tolist()
        want = [ref_detector_probabilities(float(p), second_bs)[0] for p in phases]
        assert all(map(within_1e_15, got, want))
    # the open arm is exactly flat, where the algebra's last bits are not
    assert detector_probability_array(phases, False)[:, 0].tolist() == [0.5] * phases.size


@given(wilson_counts(), st.sampled_from([0.95, 0.5, 0.99, 1e-9]))
@example(([0, 7, 2**32], [7, 7, 2**32]), 0.95)
def test_wilson_interval_array_equals_the_scalar_code(counts, confidence):
    successes, trials = counts
    lo, hi = wilson_interval_array(successes, trials, confidence)
    for k, (x, n) in enumerate(zip(successes, trials)):
        want = ref_wilson_interval(x, n, confidence)
        assert (lo[k], hi[k]) == want
        assert wilson_interval(x, n, confidence) == want


def test_wilson_interval_pins_the_zero_and_full_counts():
    lo, hi = wilson_interval_array([0, 50, 0, 1], [50, 50, 1, 1])
    assert lo.tolist()[0] == 0.0 and hi.tolist()[1] == 1.0
    assert (lo[2], hi[3]) == (0.0, 1.0)


def test_wilson_interval_array_checks_its_counts():
    for successes, trials in (([1], [0]), ([-1], [5]), ([6], [5])):
        with pytest.raises(ValueError):
            wilson_interval_array(successes, trials)
    with pytest.raises(ValueError):
        wilson_interval_array([1], [5], confidence=1.0)


@settings(max_examples=60)
@given(st.lists(probability_rows, min_size=1, max_size=12), st.integers(0, 2**32),
       st.integers(0, 2**64 - 1))
def test_sample_count_array_equals_the_scalar_chain(rows, n, seed):
    width = max(map(len, rows))
    probs = [row + [0.0] * (width - len(row)) for row in rows]
    got = sample_count_array(probs, n, seed, range(len(probs)))
    for i, row in enumerate(probs):
        want = ref_sample_counts(row, n, draw.stream_key(seed, i))
        assert got[i].tolist() == want.tolist()
        assert draw.counts(row, n, draw.stream_key(seed, i), 0)[0] == want.tolist()


def test_sample_count_array_takes_one_count_per_row_and_checks_its_streams():
    probs = [[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]
    got = sample_count_array(probs, [10, 0, 7], 3, range(3))
    assert got[1].tolist() == [0, 0] and got[2].tolist() == [7, 0]
    assert got[0].tolist() == ref_sample_counts(probs[0], 10, draw.stream_key(3, 0)).tolist()
    with pytest.raises(ValueError):
        sample_count_array(probs, 5, 3, range(2))
    with pytest.raises(ValueError):
        sample_count_array([[0.0, 1e-16]], 5, 3, range(1))
    with pytest.raises(ValueError):
        sample_count_array(probs, -1, 3, range(3))
    with pytest.raises(ValueError):
        sample_count_array(probs, 2**62 + 1, 3, range(3))


# --- a batch equals its size-1 calls ----------------------------------------------


@settings(max_examples=30)
@given(st.lists(wide_angle, min_size=1, max_size=12), angle, st.integers(1, 2**32),
       st.integers(0, 2**64 - 1), st.integers(0, 2**32))
def test_entangled_batches_equal_their_size_one_calls(thetas, probe, n, seed, base):
    e, se = correlation_array(thetas, probe, n, seed=seed, stream_base=base)
    count0 = bob_marginal_count_array(thetas, probe, n, seed=seed, stream_base=base)
    for i, theta in enumerate(thetas):
        one = correlation(theta, probe, n, seed=seed, stream_base=base + i)
        assert (one.e_value, one.std_err) == (e[i], se[i])
        assert bob_marginal_counts(theta, probe, n, seed=seed, stream_base=base + i) == (
            n, count0[i])


@settings(max_examples=30)
@given(st.lists(wide_angle, min_size=1, max_size=12), st.booleans(), st.integers(1, 2**32),
       st.integers(0, 2**32), st.integers(0, 2**32), st.integers(1, 5),
       st.sampled_from(["mc", "analytic"]))
def test_fringe_counts_equal_their_size_one_runs(phases, second_bs, n, seed, base, step, mode):
    got = fringe_counts(phases, second_bs, n, seed=seed, mode=mode, stream_base=base,
                        stream_step=step)
    for i, phase in enumerate(phases):
        one = run_mzi(MziConfig(phase, second_bs=second_bs), n, seed=seed, mode=mode,
                      stream_base=base + step * i)
        assert one.count_d0 == got[i]


def test_chsh_equals_its_four_correlations():
    settings_ = (0.1, 0.9, 0.4, 1.3)
    a, a2, b, b2 = settings_
    e = [correlation(ta, tb, 5000, seed=4, stream_base=10 + s).e_value
         for s, (ta, tb) in enumerate(((a, b), (a, b2), (a2, b), (a2, b2)))]
    assert chsh(settings_, 5000, seed=4, stream_base=10) == abs(e[0] - e[1] + e[2] + e[3])


def test_batches_across_a_slice_boundary_equal_their_size_one_calls(monkeypatch):
    n = SLICE_POINTS + 3
    theta = np.linspace(-3.7, 400.0, n)
    whole = joint_probability_array(make_pair(), theta, 0.3)
    head = joint_probability_array(make_pair(), theta[:SLICE_POINTS], 0.3)
    tail = joint_probability_array(make_pair(), theta[SLICE_POINTS:], 0.3)
    assert whole.tobytes() == np.concatenate([head, tail]).tobytes()
    phases = detector_probability_array(theta, True)
    assert phases.tobytes() == np.concatenate(
        [detector_probability_array(theta[:SLICE_POINTS], True),
         detector_probability_array(theta[SLICE_POINTS:], True)]).tobytes()
    e, se = correlation_array(theta, 0.3, 1000, seed=8, stream_base=5)
    head = correlation_array(theta[:SLICE_POINTS], 0.3, 1000, seed=8, stream_base=5)
    tail = correlation_array(theta[SLICE_POINTS:], 0.3, 1000, seed=8,
                             stream_base=5 + SLICE_POINTS)
    assert e.tolist() == head[0].tolist() + tail[0].tolist()
    assert se.tolist() == head[1].tolist() + tail[1].tolist()
    # the same across many slice boundaries, against the size-1 calls
    monkeypatch.setattr(core, "SLICE_POINTS", 4)
    e, se = correlation_array(theta[:11], 0.3, 1000, seed=8, stream_base=5)
    for i in range(11):
        one = correlation(theta[i], 0.3, 1000, seed=8, stream_base=5 + i)
        assert (one.e_value, one.std_err) == (e[i], se[i])
    counts = fringe_counts(theta[:11], False, 1000, seed=8, stream_base=2, stream_step=4)
    assert counts.tolist() == [
        run_mzi(MziConfig(theta[i], second_bs=False), 1000, seed=8, stream_base=2 + 4 * i).count_d0
        for i in range(11)]


def test_make_pair_is_one_read_only_singlet():
    pair = make_pair()
    assert make_pair() is pair
    assert not pair.joint.amplitudes.flags.writeable
    with pytest.raises(AttributeError):
        pair.joint = None
