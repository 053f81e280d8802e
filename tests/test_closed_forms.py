"""The closed forms that malus and entropy runs compute in Python floats
(0.18.0), against 50-digit values and the density-operator cascade."""

import itertools
import math
import operator

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import cli
from photonlab.entropy import binary_entropy, eigenbasis_entropy
from photonlab.optics import (
    cascade_analytic,
    cascade_mc,
    linear_light,
    malus_law,
    natural_light,
    stage_pass_probabilities,
)
from photonlab.scalars import PROB_SNAP, canonical_angle, snap_probability

EPS = 2.0**-52
degrees = st.floats(-360.0, 360.0)


def ref_binary_entropy(p):
    """H(p, 1 - p) at 50 digits, 1 - p exact, where neither outcome snaps to
    certain; 0 where one does."""
    q = 1.0 - p
    if min(p, q) <= PROB_SNAP or max(p, q) >= 1.0 - PROB_SNAP:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))


@given(st.floats(0.0, 1.0))
@example(0.5)
@example(PROB_SNAP)
@example(1.0 - PROB_SNAP)
@example(1e-300)
def test_binary_entropy_is_within_4e_16_of_50_digits(p):
    got = binary_entropy(p)
    assert abs(got - ref_binary_entropy(p)) <= 4e-16
    assert 0.0 <= got <= 1.0


def test_binary_entropy_of_a_half_is_exactly_one_bit():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0


@given(degrees)
def test_an_eigenvector_has_no_outcome_entropy_in_its_own_basis(theta_deg):
    assert eigenbasis_entropy(math.radians(theta_deg)) == 0.0


def test_an_entropy_run_reports_binary_entropy_of_each_weight():
    grid = [0.0, 1e-16, 0.25, 0.5, 0.7, 1.0]
    payload, _, summary, _ = cli._run_entropy({"grid": grid}, 0)
    rows = payload["rows"].columns
    assert list(rows["before_bits"]) == [binary_entropy(p) for p in grid]
    assert list(rows["after_bits"]) == [0.0] * len(grid)
    assert list(rows["delta_bits"]) == [-binary_entropy(p) for p in grid]
    assert summary == {"max_after_bits": 0.0}


def cli_stages(axes_deg, source, source_deg):
    """The stage fractions of an analytic CLI cascade."""
    params = {**cli.defaults(cli.EXPERIMENTS["malus"].fields), "axes_deg": axes_deg,
              "source": source, "source_angle_deg": source_deg}
    payload, _, _, _ = cli._run_malus(params, 0)
    return payload["stages"].columns["fraction"]


def ref_stages(axes_deg, source, source_deg):
    """The snapped stage pass probabilities, at 50 digits from the same
    radians, multiplied in stage order."""
    axes = [math.radians(a) for a in axes_deg]
    with mpmath.workdps(50):
        pairs = zip([math.radians(source_deg)] + axes, axes)
        passes = [mpmath.cos(mpmath.mpf(b) - mpmath.mpf(a)) ** 2 for a, b in pairs]
        if source == "natural":
            passes[0] = mpmath.mpf(0.5)
        passes = [mpmath.mpf(0) if p <= PROB_SNAP else mpmath.mpf(1) if p >= 1 - PROB_SNAP
                  else p for p in passes]
        return [float(v) for v in itertools.accumulate(passes, operator.mul)]


# Each stage multiplies in one pass probability. From axes within 360
# degrees, the closed form computes it within about 6.5 ulp of 1 (half an ulp
# of the axis difference, the rounding of cos and of its square), and so does
# the density-operator cascade (its eigenvectors' cos and sin), so stage k's
# intensity lies within 8 (k + 1) ulp of 1 of the 50-digit value and within
# 16 (k + 1) of the cascade's. (An ulp of the intensity itself is no bound:
# near a crossed pair both forms lose the intensity's leading digits to the
# rounding of the axis difference.)
@settings(deadline=None)
@given(st.lists(degrees, min_size=1, max_size=8), st.sampled_from(["natural", "linear"]),
       degrees)
@example([90.0, 45.0, 0.0], "natural", 0.0)
@example([90.0, 0.0], "natural", 0.0)
@example([0.0, 90.0], "linear", 90.0)
def test_a_cli_cascade_stage_is_the_density_operator_cascade(axes_deg, source, source_deg):
    got = cli_stages(axes_deg, source, source_deg)
    beam = natural_light() if source == "natural" else linear_light(math.radians(source_deg))
    want = cascade_analytic(beam, [math.radians(a) for a in axes_deg]).per_stage_intensity
    exact = ref_stages(axes_deg, source, source_deg)
    for k, (g, w, x) in enumerate(zip(got, want, exact)):
        assert abs(g - w) <= 16 * (k + 1) * EPS
        assert abs(g - x) <= 8 * (k + 1) * EPS


def test_crossed_polarizers_extinguish_and_a_diagonal_restores_an_eighth():
    assert cli_stages([90.0, 0.0], "natural", 0.0) == [0.5, 0.0]
    assert cli_stages([0.0], "linear", 90.0) == [0.0]
    assert cli_stages([90.0, 45.0, 0.0], "natural", 0.0) == pytest.approx([0.5, 0.25, 0.125],
                                                                         abs=1e-15)


@given(st.lists(degrees, min_size=1, max_size=6), st.sampled_from(["natural", "linear"]),
       degrees)
def test_cascade_mc_draws_with_the_stage_pass_probabilities(axes_deg, source, source_deg):
    axes = [math.radians(a) for a in axes_deg]
    source_angle = math.radians(source_deg)
    passes = stage_pass_probabilities(axes, source, source_angle)
    first = 0.5 if source == "natural" else malus_law(canonical_angle(source_angle), axes[0])
    assert passes == [first] + [math.cos(b - a) ** 2 for a, b in zip(axes, axes[1:])]
    # a stage whose pass probability snaps to 0 absorbs every photon, and one
    # that snaps to 1 passes them all
    counts = cascade_mc(1000, axes, source, source_angle, seed=3).per_stage_counts
    alive = 1000
    for p, count in zip(map(snap_probability, passes), counts):
        if p in (0.0, 1.0):
            assert count == p * alive
        alive = count


@settings(max_examples=25, deadline=None)
@given(st.floats(-180.0, 180.0), st.floats(0.01, 5.0))
def test_a_sweep_row_is_the_cli_cascade_at_its_angle(start, step):
    sweep = {"start_deg": start, "stop_deg": start + 10 * step, "step_deg": step}
    params = {**cli.defaults(cli.EXPERIMENTS["malus"].fields), "sweep": sweep}
    payload, _, summary, _ = cli._run_malus(params, 0)
    rows = payload["sweep_rows"].columns
    finals = list(rows["final_intensity"])
    for theta, final in zip(rows["theta_deg"], finals):
        assert final == cli_stages([90.0, theta, 0.0], "natural", 0.0)[-1]
    assert summary["max_final_intensity"] == max(finals)
    assert summary["argmax_deg"] == rows["theta_deg"][finals.index(max(finals))]
