"""The array forms of the Monte Carlo layer against frozen copies of the scalar
code they replaced (photonlab 0.9.0), over generated angles, phases and counts.

The references below are that scalar code, kept here verbatim in substance:
one pair of eigenvectors per joint probability, one two-mode state per
detector probability, Python floats per Wilson interval and one chain of
binomials per row. The stacked forms must reproduce them bit
for bit, and a point's result must not depend on the batch it is in: the
column functions the runners call (entangle._correlation_columns and
_joint_counts, mzi._d0_counts) give each point what its one-point form
gives. The Wilson interval has one form, wilson_interval, since 0.20.0. The
detector probabilities are the exception: since 0.14.0 they are the closed
form (1 + cos phi)/2, and exactly 1/2 without the second beamsplitter, so the
two-mode algebra is their reference within 1e-15, not to the bit. Since
0.19.0 joint_probabilities, the one form of the joint Born law, takes one
pair of bases, and reproduces its reference bit for bit.
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
    _correlation_columns,
    _joint_counts,
    bob_marginal_counts,
    chsh,
    correlation,
    joint_probabilities,
    make_pair,
)
from photonlab.mzi import (
    MziConfig,
    _d0_counts,
    _detector_probability_array,
    detector_probabilities,
    run_mzi,
)
from photonlab.scalars import SCALAR_ROWS
from photonlab.stats import wilson_interval

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
def test_joint_probabilities_equal_the_scalar_code(pairs):
    for ta, tb in pairs:
        got = joint_probabilities(make_pair(), ta, tb)
        assert got.shape == (2, 2)
        assert got.tobytes() == ref_joint_probabilities(ta, tb).tobytes()


@given(angle, st.integers(-3, 3))
def test_equal_bases_snap_the_equal_outcomes_to_zero(theta, turns):
    probs = joint_probabilities(make_pair(), theta, theta + turns * math.pi)
    assert probs[0, 0] == 0.0 and probs[1, 1] == 0.0


@given(st.lists(st.one_of(wide_angle, st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi])),
                min_size=1, max_size=60), st.booleans())
def test_detector_probability_array_equals_the_scalar_code(phases, second_bs):
    got = _detector_probability_array(phases, second_bs)
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
        got = _detector_probability_array(phases, second_bs)[:, 0].tolist()
        want = [ref_detector_probabilities(float(p), second_bs)[0] for p in phases]
        assert all(map(within_1e_15, got, want))
    # the open arm is exactly flat, where the algebra's last bits are not
    assert _detector_probability_array(phases, False)[:, 0].tolist() == [0.5] * phases.size


@given(wilson_counts(), st.sampled_from([0.95, 0.5, 0.99, 1e-9]))
@example(([0, 7, 2**32], [7, 7, 2**32]), 0.95)
def test_wilson_interval_equals_the_scalar_code(counts, confidence):
    successes, trials = counts
    for x, n in zip(successes, trials):
        assert wilson_interval(x, n, confidence) == ref_wilson_interval(x, n, confidence)


def test_wilson_interval_pins_the_zero_and_full_counts():
    assert wilson_interval(0, 50)[0] == 0.0 and wilson_interval(50, 50)[1] == 1.0
    assert (wilson_interval(0, 1)[0], wilson_interval(1, 1)[1]) == (0.0, 1.0)


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
    e, se = _correlation_columns(thetas, probe, n, seed=seed, stream_base=base)
    counts = _joint_counts(thetas, probe, n, seed, base)
    for i, theta in enumerate(thetas):
        one = correlation(theta, probe, n, seed=seed, stream_base=base + i)
        assert (one.e_value, one.std_err) == (e[i], se[i])
        assert bob_marginal_counts(theta, probe, n, seed=seed, stream_base=base + i) == (
            n, counts[i][0] + counts[i][2])


@settings(max_examples=30)
@given(st.lists(wide_angle, min_size=1, max_size=12), st.booleans(), st.integers(1, 2**32),
       st.integers(0, 2**32), st.integers(0, 2**32), st.integers(1, 5),
       st.sampled_from(["mc", "analytic"]))
def test_fringe_counts_equal_their_size_one_runs(phases, second_bs, n, seed, base, step, mode):
    got = _d0_counts(phases, second_bs, n, seed, mode, base, step)
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
    phases = _detector_probability_array(theta, True)
    assert phases.tobytes() == np.concatenate(
        [_detector_probability_array(theta[:SLICE_POINTS], True),
         _detector_probability_array(theta[SLICE_POINTS:], True)]).tobytes()
    e, se = _correlation_columns(theta, 0.3, 1000, seed=8, stream_base=5)
    head = _correlation_columns(theta[:SLICE_POINTS], 0.3, 1000, seed=8, stream_base=5)
    # the last three points draw row by row, with the same counts
    tail = _correlation_columns(theta[SLICE_POINTS:], 0.3, 1000, seed=8,
                                stream_base=5 + SLICE_POINTS)
    assert e.tolist() == head[0].tolist() + tail[0]
    assert se.tolist() == head[1].tolist() + tail[1]
    # the same across many slice boundaries, against the size-1 calls; past
    # SCALAR_ROWS points, so the columns are drawn as arrays
    monkeypatch.setattr(core, "SLICE_POINTS", 4)
    points = SCALAR_ROWS + 11
    e, se = _correlation_columns(theta[:points], 0.3, 1000, seed=8, stream_base=5)
    for i in range(points):
        one = correlation(theta[i], 0.3, 1000, seed=8, stream_base=5 + i)
        assert (one.e_value, one.std_err) == (e[i], se[i])
    counts = _d0_counts(theta[:points], False, 1000, 8, "mc", 2, 4)
    assert counts.tolist() == [
        run_mzi(MziConfig(theta[i], second_bs=False), 1000, seed=8, stream_base=2 + 4 * i).count_d0
        for i in range(points)]


def test_make_pair_is_one_read_only_singlet():
    pair = make_pair()
    assert make_pair() is pair
    assert not pair.joint.amplitudes.flags.writeable
    with pytest.raises(AttributeError):
        pair.joint = None
