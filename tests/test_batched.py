"""The one-point analytic functions against frozen copies of the scalar code
of photonlab 0.5.0, over generated angles, states and beams.

The references below are that scalar code, kept here verbatim in substance:
one DensityOperator, one StateVector and one eigvalsh per point. 0.6.0 to
0.18.0 also had batched forms of these functions, and 0.19.0 removed them;
since 0.21.0 the one-point forms compute at one point as the references do,
and must reproduce them bit for bit. Since 0.6.0 the Born probabilities
square |amplitude| with x*x, not libm pow, so they equal an x*x reference
exactly and the pow one, which the outcome entropies keep, within 1e-15.
Since 0.18.0 no_signaling_check runs in Python floats on the marginals'
closed-form eigenvalues, and its reference is the pairwise loop at 50
digits. The one array path left, the count chain of a long Monte Carlo sweep,
must write the same bytes however its points are sliced.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from photonlab import cli, core, entangle
from photonlab.core import (
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    StateVector,
    born_probabilities,
    canonical_angle,
    canonical_angle_array,
    ket_from_angle,
    projection_probability,
    snap_probability,
    snap_probability_array,
    trace_distance,
)
from photonlab.entangle import PairState, make_pair, no_signaling_check
from photonlab.entropy import collapse_entropy_report
from photonlab.optics import LightBeam, cascade_analytic, linear_light, natural_light
from photonlab.scalars import SCALAR_ROWS

FOUR_PI = 4 * math.pi
angle = st.floats(min_value=-FOUR_PI, max_value=FOUR_PI, allow_nan=False)


# --- frozen scalar references (photonlab 0.5.0) ---------------------------------


def ref_canonical_angle(theta):
    reduced = theta - math.pi * math.floor(theta / math.pi)
    if reduced >= math.pi:
        reduced -= math.pi
    return 0.0 if reduced < 0.0 else reduced


def ref_unit(values):
    """The StateVector constructor: one division by np.linalg.norm."""
    arr = np.array(values, dtype=np.complex128)
    return arr / float(np.linalg.norm(arr))


def ref_eigenvector(theta, outcome):
    t = ref_canonical_angle(theta)
    c, s = math.cos(t), math.sin(t)
    return ref_unit([c, s] if outcome == 0 else [-s, c])


def ref_snap(p):
    p = float(p)
    if p <= 1e-15:
        return 0.0
    if p >= 1.0 - 1e-15:
        return 1.0
    return p


def ref_projection_probability(m, theta):
    v = ref_eigenvector(theta, 0)
    return ref_snap(float(np.real(v.conj() @ m @ v)))


def ref_cascade(m, intensity, axes):
    """0.5.0's one-stage transmission folded over the axes, one DensityOperator
    per stage."""
    stages = []
    for theta in axes:
        t = ref_projection_probability(m, theta)
        v = ref_eigenvector(theta, 0)
        m = np.array(np.outer(v, v.conj()), dtype=np.complex128)
        intensity = intensity * t
        stages.append(intensity)
    return stages


def ref_born_probabilities(amplitudes, theta, square=lambda x: x ** 2):
    """Squares |amplitude| with numpy-scalar ** (libm pow), or with square."""
    t = ref_canonical_angle(theta)
    c, s = math.cos(t), math.sin(t)
    a0, a1 = amplitudes
    p0 = ref_snap(square(abs(c * a0 + s * a1)))
    p1 = ref_snap(square(abs(-s * a0 + c * a1)))
    if p0 == 1.0:
        p1 = 0.0
    elif p1 == 1.0:
        p0 = 0.0
    return p0, p1


def ref_shannon(probs):
    p = np.clip(np.asarray(probs, dtype=np.float64), 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def ref_entropy_report(amplitudes, theta):
    before = ref_shannon(ref_born_probabilities(amplitudes, theta))
    after = max(ref_shannon(ref_born_probabilities(ref_eigenvector(theta, o), theta))
                for o in (0, 1))
    return before, after, after - before


def ref_branch(joint, theta, outcome):
    """A's outcome probability and B's unnormalized amplitudes after it."""
    c = ref_eigenvector(theta, outcome).conj() @ joint.reshape(2, 2)
    return ref_snap(float(np.real(c.conj() @ c))), c


def ref_conditional_state(c):
    """B's state after a branch: normalized, then built as a StateVector."""
    return ref_unit(np.array(c) / float(np.linalg.norm(c)))


def ref_bob_marginal(joint, theta):
    rho = np.zeros((2, 2), dtype=np.complex128)
    for outcome in (0, 1):
        p, c = ref_branch(joint, theta, outcome)
        if p < 1e-12:
            continue
        psi = ref_conditional_state(c)
        rho += p * np.outer(psi, psi.conj())
    return rho


def ref_trace_distance(m1, m2):
    if m1.tobytes() > m2.tobytes():
        m1, m2 = m2, m1
    return 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())


def ref_no_signaling_check(joint, bases):
    """The maximum pairwise trace distance of B's marginals at 50 digits
    (photonlab 0.18.0 replaced the eigvalsh loop this pinned): each marginal
    is sum_o c_o c_o^dagger at the canonical angle's exact cos and sin, and
    each distance half the absolute sum of the eigenvalues tr/2 +- sqrt(tr^2/4
    - det) of the 2x2 difference."""
    with mpmath.workdps(50):
        m = [mpmath.mpc(complex(a)) for a in joint]
        marginals = []
        for b in bases:
            theta = mpmath.mpf(ref_canonical_angle(b))
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            rho = mpmath.zeros(2)
            for e0, e1 in ((c, s), (-s, c)):
                v = (e0 * m[0] + e1 * m[2], e0 * m[1] + e1 * m[3])
                for i in range(2):
                    for j in range(2):
                        rho[i, j] += v[i] * mpmath.conj(v[j])
            marginals.append(rho)
        worst = mpmath.mpf(0)
        for i in range(len(marginals)):
            for j in range(i + 1, len(marginals)):
                d = marginals[i] - marginals[j]
                half_trace = mpmath.re(d[0, 0] + d[1, 1]) / 2
                det = mpmath.re(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
                root = mpmath.sqrt(max(half_trace ** 2 - det, 0))
                worst = max(worst, (abs(half_trace + root) + abs(half_trace - root)) / 2)
        return float(worst)


# --- generated inputs -------------------------------------------------------------


@st.composite
def beams(draw):
    """Natural, linear and mixed source beams of any intensity in (0, 1]."""
    kind = draw(st.sampled_from(["natural", "linear", "mixed"]))
    intensity = draw(st.floats(min_value=1e-3, max_value=1.0))
    if kind == "natural":
        return LightBeam(natural_light().rho, intensity)
    if kind == "linear":
        return linear_light(draw(angle), intensity)
    w = draw(st.floats(min_value=0.0, max_value=1.0))
    a, b = (ket_from_angle(draw(angle)).amplitudes for _ in range(2))
    m = w * np.outer(a, a.conj()) + (1.0 - w) * np.outer(b, b.conj())
    return LightBeam(DensityOperator(m), intensity)


cascade_axes = st.lists(angle, min_size=1, max_size=6)


# --- cascade ----------------------------------------------------------------------


@given(beams(), cascade_axes)
def test_batched_cascade_matches_the_scalar_fold(beam, axes):
    result = cascade_analytic(beam, axes)
    want = ref_cascade(beam.rho.matrix, beam.intensity, axes)
    assert result.axes == tuple(axes)
    assert list(result.per_stage_intensity) == want
    assert result.final_intensity() == result.per_stage_intensity[-1]


@given(angle)
def test_crossed_axes_extinguish_exactly(theta):
    assert cascade_analytic(natural_light(), [theta, theta + math.pi / 2]).final_intensity() == 0.0


def _run_bytes(tmp_path, name, argv) -> bytes:
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("experiment", ["bell", "mzi"])
def test_sweeps_write_the_same_bytes_whatever_the_point_slice(monkeypatch, tmp_path, experiment):
    # only a sweep of more than SCALAR_ROWS points draws its counts as arrays,
    # a slice of core.SLICE_POINTS rows at a time; patched, it runs 29 slices
    # of at most 7 points where the default runs one
    n = 3 * SCALAR_ROWS + 5
    if experiment == "bell":
        # a step of 2^-6 degrees puts exactly n points on the sweep
        sweep = {"start_deg": -3.0, "stop_deg": -3.0 + (n - 1) / 64, "step_deg": 1 / 64}
        argv = ["bell", "--set", f"sweep={json.dumps(sweep)}", "--set", "n_per_point=1000"]
    else:
        config = tmp_path / "phases.json"
        config.write_text(json.dumps({"params": {"phases_deg": [k / 64 - 3.0 for k in range(n)],
                                                 "n_per_phase": 1000}}))
        argv = ["mzi", "--config", str(config)]
    argv += ["--format", "csv"]
    whole = _run_bytes(tmp_path, "default", argv)
    monkeypatch.setattr(core, "SLICE_POINTS", 7)
    sliced = _run_bytes(tmp_path, "sliced", argv)
    assert sliced == whole
    assert whole.count(b"\n") - 1 == n


def test_batched_cascade_rejects_bad_axes():
    for axes in ([], [0.0, math.inf], [math.nan]):
        with pytest.raises(ValueError):
            cascade_analytic(natural_light(), axes)
    # a (points, stages) array of cascades, which 0.6.0 to 0.18.0 took
    with pytest.raises(TypeError):
        cascade_analytic(natural_light(), np.zeros((2, 2)))


# --- entropy ----------------------------------------------------------------------


@given(st.floats(0.0, 1.0), angle)
def test_batched_entropy_report_matches_the_pow_reference(p0, theta):
    state = StateVector([math.sqrt(p0), math.sqrt(1.0 - p0)])
    report = collapse_entropy_report(state, theta)
    before, after, _ = ref_entropy_report(state.amplitudes, theta)
    assert abs(report.before_bits - before) <= 1e-15
    assert report.after_bits == after == 0.0
    assert report.delta_bits == -report.before_bits


def test_scalar_entropy_report_keeps_float_fields():
    report = collapse_entropy_report(ket_from_angle(0.3), 1.1)
    assert all(type(v) is float for v in (report.before_bits, report.after_bits,
                                          report.delta_bits))


# --- no-signaling -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(angle, st.floats(-1e6, 1e6)), min_size=1, max_size=60))
def test_no_signaling_check_equals_the_pairwise_loop(bases):
    # the singlet's marginals are I/2 up to rounding
    got = no_signaling_check(bases)
    assert got < 1e-15
    assert abs(got - ref_no_signaling_check(make_pair().joint.amplitudes, bases)) < 1e-15
    assert no_signaling_check(bases, make_pair()) == got


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).filter(
           lambda a: np.linalg.norm(a) > 0.1),
       st.lists(angle, min_size=1, max_size=40))
def test_no_signaling_check_equals_the_loop_for_any_real_pair(amplitudes, bases):
    # no pure pair signals: B's marginal is the same mixture at every basis,
    # and the marginals, bitwise distinct for a generic pair, are all compared
    pair = PairState(StateVector.normalize(amplitudes))
    want = ref_no_signaling_check(pair.joint.amplitudes, bases)
    assert abs(no_signaling_check(bases, pair) - want) < 1e-14


hermitian_2x2 = st.tuples(*[st.floats(-1.0, 1.0)] * 4)


@settings(deadline=None)
@given(st.lists(hermitian_2x2, min_size=1, max_size=12))
def test_no_signaling_check_takes_the_pairwise_maximum_of_closed_form_distances(entries):
    # arbitrary Hermitian [[a, x + iy], [x - iy, d]] stand in for the marginals
    marginals = {(a + d, (a - d) / 2.0, x, y) for a, d, x, y in entries}
    with mpmath.workdps(50):
        want = 0.0
        for a1, d1, x1, y1 in entries:
            for a2, d2, x2, y2 in entries:
                m = mpmath.matrix([[a1 - a2, mpmath.mpc(x1 - x2, y1 - y2)],
                                   [mpmath.mpc(x1 - x2, y2 - y1), d1 - d2]])
                want = max(want, float(sum(abs(v) for v in mpmath.eighe(m)[0]) / 2))
    assert abs(entangle._max_trace_distance(marginals) - want) <= 8 * 2.0**-52


def test_trace_distance_is_the_size_one_call():
    r1 = ref_bob_marginal(np.array([0.0, 0.6, -0.8, 0.0]), 0.3)
    r2 = np.outer(ket_from_angle(1.0).amplitudes, ket_from_angle(1.0).amplitudes.conj())
    assert trace_distance(r1, r2) == ref_trace_distance(r1, r2)
    assert trace_distance(r2, r1) == ref_trace_distance(r1, r2)


# --- scalar forms ------------------------------------------------------------------


@given(angle, angle)
def test_scalar_forms_agree_with_the_references(phi, theta):
    state = ket_from_angle(phi)
    p0, p1 = born_probabilities(state, theta)
    assert (p0, p1) == ref_born_probabilities(state.amplitudes, theta, square=lambda x: x * x)
    w0, w1 = ref_born_probabilities(state.amplitudes, theta)
    assert abs(p0 - w0) <= 1e-15 and abs(p1 - w1) <= 1e-15
    m = np.outer(state.amplitudes, state.amplitudes.conj())
    assert projection_probability(m, theta) == ref_projection_probability(m, theta)
    basis = MeasurementBasis(theta)
    for outcome in (0, 1):
        np.testing.assert_array_equal(basis.eigenvector(outcome).amplitudes,
                                      ref_eigenvector(theta, outcome))


pair_amplitudes = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda a: np.linalg.norm(a) > 0.1)


@given(angle, pair_amplitudes)
def test_bob_reduced_state_equals_the_reference(theta, amplitudes):
    for pair in (make_pair(), PairState(StateVector.normalize(amplitudes))):
        want = ref_bob_marginal(pair.joint.amplitudes, theta)
        assert entangle.bob_reduced_state(pair, theta).matrix.tobytes() == want.tobytes()


@given(angle, pair_amplitudes)
def test_conditional_state_equals_the_reference(theta, amplitudes):
    for pair in (make_pair(), PairState(StateVector.normalize(amplitudes))):
        for outcome in (0, 1):
            p, c = ref_branch(pair.joint.amplitudes, theta, outcome)
            if p < 1e-12:
                with pytest.raises(InvalidStateError):
                    entangle.conditional_state(pair, theta, outcome)
                continue
            got_p, got = entangle.conditional_state(pair, theta, outcome)
            assert got_p == p
            assert got.amplitudes.tobytes() == ref_conditional_state(c).tobytes()


@given(arrays(np.float64, st.integers(1, 32),
              elements=st.one_of(angle, st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))),
       arrays(np.float64, st.integers(1, 32), elements=st.floats(-1e-14, 1.0 + 1e-14)))
def test_array_rules_equal_their_scalar_rules_elementwise(theta, p):
    assert canonical_angle_array(theta).tolist() == [canonical_angle(t) for t in theta.tolist()]
    assert snap_probability_array(p).tolist() == [snap_probability(x) for x in p.tolist()]


def test_array_forms_check_their_inputs_once():
    # the one-point forms check their state, operator and axis
    with pytest.raises(InvalidStateError):
        born_probabilities([1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        born_probabilities([1.0, 0.0, 0.0, 0.0], 0.0)
    with pytest.raises(InvalidStateError):
        projection_probability(np.eye(2), 1.0)
    with pytest.raises(InvalidStateError):
        projection_probability([[0.5, 0.5j], [0.5j, 0.5]], 0.0)
    with pytest.raises(ValueError):
        MeasurementBasis(math.nan)
    with pytest.raises(ValueError):
        MeasurementBasis(0.0).eigenvector(2)
    assert [projection_probability(np.eye(2) / 2, t) for t in (0.1, 2.0)] == [0.5, 0.5]
    # the array rules of the count path check every angle at once
    with pytest.raises(ValueError):
        canonical_angle_array([0.0, math.nan])
