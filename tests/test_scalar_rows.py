"""Sweeps of at most SCALAR_ROWS points draw row by row, without numpy, and
give the counts the array path gives.

The row path takes each point's probabilities from its closed form in math
and draws them with draw.counts; the array path takes them from the same
closed form in numpy and draws with core.sample_count_array. The closed
forms use only sin, cos and IEEE +, -, *, /, so the two agree bit for bit,
and draw.counts is one row of core._chain_counts.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import cli, core, draw, entangle, rng
from photonlab.entangle import (
    bob_marginal_count_array,
    correlation_array,
    joint_probability_array,
    make_pair,
)
from photonlab.mzi import detector_probabilities, detector_probability_array, fringe_counts
from photonlab.scalars import PROB_SNAP, SCALAR_ROWS, canonical_angle

FOUR_PI = 4 * math.pi
angle = st.floats(min_value=-FOUR_PI, max_value=FOUR_PI, allow_nan=False)
wide_angle = st.one_of(angle, st.floats(-1e6, 1e6))
# exact fringe points, the open arm's 1/2 and phases near them
special_phases = st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 1e-300])
phases = st.lists(st.one_of(wide_angle, special_phases), min_size=1, max_size=80)

probability = st.one_of(st.floats(0.0, 1.0),
                        st.sampled_from([0.0, 1.0, PROB_SNAP, 1e-16, 1.0 - 1e-16, 0.5]))
rows = st.integers(2, 5).flatmap(
    lambda k: st.lists(probability, min_size=k, max_size=k)
).filter(lambda row: any(core.snap_probability(p) > 0.0 for p in row))


def _chain_row(row, n, seed, index, first_draw):
    counts, drawn = core._chain_counts(core.snap_probability_array([row]),
                                       np.array([n], dtype=np.int64),
                                       rng.stream_keys(seed, range(index, index + 1)),
                                       np.uint64(first_draw))
    return counts[0].tolist(), int(drawn[0])


# --- draw.counts is one row of the array chain ----------------------------------


@settings(max_examples=300, deadline=None)
@given(rows, st.one_of(st.integers(0, 2**32), st.sampled_from([0, 1, 2**32])),
       st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**40))
@example([0.5, 0.5], 2**32, 0, 0, 0)
@example([1e-16, 0.3, 1.0 - 1e-16, 0.0, 0.2], 7, 2**64 - 1, 2**64 - 1, 2**40)
@example([0.0, 1.0, 0.0], 2**32, 1, 2, 3)
def test_counts_is_one_row_of_the_array_chain(row, n, seed, index, first_draw):
    got = draw.counts(row, n, draw.stream_key(seed, index), first_draw)
    assert got == _chain_row(row, n, seed, index, first_draw)
    assert sum(got[0]) == n


def test_counts_numbers_its_draws_on_from_first_draw():
    key = draw.stream_key(9, 4)
    first, drawn = draw.counts([0.2, 0.3, 0.5], 1000, key, 0)
    assert drawn == 2
    second, _ = draw.counts([0.2, 0.3, 0.5], 1000, key, drawn)
    assert second[0] == draw.binomial(1000, 0.2, key, 2)
    # a certain outcome and an empty remainder draw nothing
    assert draw.counts([0.0, 1.0, 0.0], 50, key, 5) == ([0, 50, 0], 0)
    assert draw.counts([0.4, 0.6], 0, key, 5) == ([0, 0], 0)


def test_counts_checks_its_arguments():
    key = draw.stream_key(0, 0)
    for probs, n in (([0.0, 1e-16], 5), ([0.5, 0.5], -1), ([0.5, 0.5], 2**62 + 1)):
        with pytest.raises(ValueError):
            draw.counts(probs, n, key, 0)


# --- the closed forms: math equals numpy, and both the amplitude algebra ----------


def within_1e_15(closed, algebra) -> bool:
    """Whether a closed-form probability is within 1e-15 of the algebra's; where
    one of the two snapped to 0 or 1 and the other did not, within PROB_SNAP
    more."""
    snapped = closed in (0.0, 1.0) or algebra in (0.0, 1.0)
    return abs(closed - algebra) <= 1e-15 + (PROB_SNAP if snapped else 0.0)


def _singlet_math(thetas_a, thetas_b):
    return [entangle._singlet_row(canonical_angle(a), canonical_angle(b))
            for a, b in zip(thetas_a, thetas_b)]


def _singlet_numpy(thetas_a, thetas_b):
    return entangle._singlet_rows(core.canonical_angle_array(thetas_a),
                                  core.canonical_angle_array(thetas_b))


@given(st.lists(st.tuples(wide_angle, wide_angle), min_size=1, max_size=40),
       st.lists(st.tuples(angle, st.integers(-3, 3)), max_size=10))
def test_the_singlet_closed_form_is_the_same_in_math_and_numpy(pairs, equal):
    pairs += [(a, a + k * math.pi) for a, k in equal]
    a, b = (list(side) for side in zip(*pairs))
    assert _singlet_numpy(a, b).tolist() == _singlet_math(a, b)


@given(phases, st.booleans())
def test_the_fringe_closed_form_is_the_same_in_math_and_numpy(phis, second_bs):
    assert detector_probability_array(phis, second_bs).tolist() == [
        list(detector_probabilities(phi, second_bs)) for phi in phis]


def test_the_closed_forms_agree_on_many_random_arguments():
    rand = random.Random(22)
    a = [rand.uniform(-1e4, 1e4) for _ in range(20_000)]
    b = [rand.uniform(-1e4, 1e4) for _ in range(20_000)]
    assert _singlet_numpy(a, b).tolist() == _singlet_math(a, b)
    assert detector_probability_array(a, True).tolist() == [
        list(detector_probabilities(phi, True)) for phi in a]


@given(st.lists(st.tuples(wide_angle, wide_angle), min_size=1, max_size=40))
def test_the_singlet_closed_form_is_the_amplitude_algebra_within_1e_15(pairs):
    a, b = (list(side) for side in zip(*pairs))
    algebra = joint_probability_array(make_pair(), a, b).reshape(-1).tolist()
    assert all(map(within_1e_15, _singlet_numpy(a, b).reshape(-1).tolist(), algebra))


_BEAMSPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def algebra_d0(phase, second_bs):
    """P(D0) from the two-mode amplitude algebra."""
    psi = _BEAMSPLITTER @ np.array([1.0, 0.0], dtype=np.complex128)
    psi[0] *= np.exp(1j * phase)
    if second_bs:
        psi = _BEAMSPLITTER @ psi
    return core.snap_probability(float(abs(psi[0]) ** 2))


@given(phases, st.booleans())
def test_the_fringe_closed_form_is_the_amplitude_algebra_within_1e_15(phis, second_bs):
    got = detector_probability_array(phis, second_bs)
    for phi, (p0, p1) in zip(phis, got.tolist()):
        assert within_1e_15(p0, algebra_d0(phi, second_bs))
        assert p0 + p1 == 1.0


# --- a point's counts do not depend on the path its sweep takes --------------------


def _sweep_angles(points):
    """points angles: crossed and equal bases, multiples of 22.5 degrees (where
    a chain probability sits at 1/2) and random angles, in radians."""
    rand = random.Random(points)
    fixed = [0.0, math.pi / 2, math.pi / 4, math.pi / 8, 3 * math.pi / 8, math.pi, -math.pi / 2]
    return (fixed + [rand.uniform(-10.0, 10.0) for _ in range(points)])[:points]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_a_point_draws_the_same_counts_on_either_side_of_scalar_rows(seed):
    thetas = _sweep_angles(SCALAR_ROWS + 1)
    small, large = thetas[:SCALAR_ROWS], thetas
    for n in (1, 7, 200_000, 2**32):
        e_small, se_small = correlation_array(small, 0.3, n, seed=seed, stream_base=5)
        e_large, se_large = correlation_array(large, 0.3, n, seed=seed, stream_base=5)
        assert e_small.tolist() == e_large.tolist()[:SCALAR_ROWS]
        assert se_small.tolist() == se_large.tolist()[:SCALAR_ROWS]
        assert bob_marginal_count_array(small, 0.3, n, seed=seed).tolist() == \
            bob_marginal_count_array(large, 0.3, n, seed=seed).tolist()[:SCALAR_ROWS]
        for second_bs in (True, False):
            for mode in ("mc", "analytic"):
                assert fringe_counts(small, second_bs, n, seed=seed, mode=mode,
                                     stream_base=2, stream_step=4).tolist() == \
                    fringe_counts(large, second_bs, n, seed=seed, mode=mode, stream_base=2,
                                  stream_step=4).tolist()[:SCALAR_ROWS]


def _cli_rows(tmp_path, experiment, name, *args):
    out = tmp_path / f"{experiment}-{name}.json"
    assert cli.main([experiment, "--seed", "3", "--out", str(out), *args]) == 0
    result = json.loads(out.read_text())
    return result["rows" if experiment == "nosignal" else
                  "fringe_rows" if experiment == "mzi" else "sweep_rows"]


def test_a_cli_row_is_the_same_on_either_side_of_scalar_rows(tmp_path):
    degrees = [math.degrees(t) % 360.0 for t in _sweep_angles(SCALAR_ROWS + 1)]
    for experiment, key, extra in (("nosignal", "bases_a_deg", []),
                                   ("mzi", "phases_deg", ["--set", "timing=null"])):
        small, large = (_cli_rows(tmp_path, experiment, name,
                                  "--set", f"{key}={json.dumps(degrees[:points])}", *extra)
                        for name, points in (("small", SCALAR_ROWS), ("large", SCALAR_ROWS + 1)))
        assert small == large[:SCALAR_ROWS]
    small, large = (_cli_rows(tmp_path, "bell", name, "--set",
                              f'sweep={{"start_deg": 0, "stop_deg": {stop}, "step_deg": 7.5}}')
                    for name, stop in (("small", 7.5 * (SCALAR_ROWS - 1)),
                                       ("large", 7.5 * SCALAR_ROWS)))
    assert len(small) == SCALAR_ROWS and small == large[:SCALAR_ROWS]


# --- the open interferometer ------------------------------------------------------


@pytest.mark.parametrize("points", [40, SCALAR_ROWS + 1])
def test_the_open_arm_gives_half_the_photons_at_every_phase(points):
    phis = [math.radians(k * 7.3) for k in range(points)]
    for n in (7, 8, 2**32 - 1):
        got = fringe_counts(phis, False, n, mode="analytic").tolist()
        assert got == [round(n / 2)] * points
    assert detector_probability_array(phis, False).tolist() == [[0.5, 0.5]] * points


# numpy's AVX-512 kernels round some complex magnitudes apart from its
# baseline ones, so a result drawn from them could depend on the CPU
_BASELINE_ONLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _mzi_bytes(tmp_path, name, points, env):
    out = tmp_path / f"{name}.json"
    phases_deg = json.dumps([k * 7.3 for k in range(points)])
    proc = subprocess.run(
        [sys.executable, "-m", "photonlab.cli", "mzi", "--seed", "3", "--set", "timing=null",
         "--set", f"phases_deg={phases_deg}", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env})
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("points", [40, 2 * SCALAR_ROWS])
def test_mzi_results_do_not_depend_on_numpys_cpu_kernels(tmp_path, points):
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           env={**os.environ, **_BASELINE_ONLY})
    if probe.returncode:
        pytest.skip("this numpy cannot switch off those CPU features")
    assert _mzi_bytes(tmp_path, "native", points, {}) == \
        _mzi_bytes(tmp_path, "baseline", points, _BASELINE_ONLY)
