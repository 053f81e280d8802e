import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import photonlab.draw
from photonlab.core import MeasurementBasis, canonical_angle
from photonlab.optics import (
    SOURCE_KINDS,
    CascadeResult,
    LightBeam,
    cascade_analytic,
    cascade_mc,
    linear_light,
    natural_light,
)
from photonlab.rng import stream_from_seed

DEG = math.pi / 180.0


def test_polarizer_axis_is_canonical():
    assert MeasurementBasis(math.pi + 0.4).theta == pytest.approx(0.4, abs=1e-12)
    # a beam polarized at 0.4 passes a polarizer at pi + 0.4 entirely
    result = cascade_analytic(linear_light(0.4), [math.pi + 0.4])
    assert result.final_intensity() == pytest.approx(1.0, abs=1e-12)


def test_light_beam_validation():
    with pytest.raises(ValueError):
        LightBeam(rho=natural_light().rho, intensity=-0.1)
    with pytest.raises(ValueError):
        LightBeam(rho=natural_light().rho, intensity=float("inf"))


def test_natural_light_is_maximally_mixed():
    beam = natural_light()
    np.testing.assert_allclose(beam.rho.matrix, np.eye(2) / 2)
    assert beam.intensity == 1.0


def test_single_polarizer_follows_malus_law():
    rng = stream_from_seed(41, 0)
    for _ in range(200):
        phi, theta = rng.random(2) * math.pi
        result = cascade_analytic(linear_light(phi), [theta, theta, theta + math.pi / 2])
        first, parallel, crossed = result.per_stage_intensity
        assert abs(first - math.cos(theta - phi) ** 2) < 1e-12
        # transmitted beam is repolarized along the axis: a parallel polarizer
        # passes all of it and a crossed one none
        assert abs(parallel - first) < 1e-12 and abs(crossed) < 1e-12


def test_natural_light_halves_through_any_polarizer():
    for theta in (0.0, 0.3, 1.0, 2.9):
        out = cascade_analytic(natural_light(), [theta])
        assert abs(out.final_intensity() - 0.5) < 1e-12


def test_crossed_pair_extinguishes_exactly():
    result = cascade_analytic(natural_light(), [90 * DEG, 0.0])
    assert abs(result.per_stage_intensity[0] - 0.5) < 1e-12
    assert result.per_stage_intensity[1] == 0.0
    assert result.final_intensity() == 0.0


def test_inserting_a_diagonal_stage_restores_light():
    result = cascade_analytic(natural_light(), [90 * DEG, 45 * DEG, 0.0])
    np.testing.assert_allclose(result.fractions(), [0.5, 0.25, 0.125], atol=1e-12)


def test_cascade_intensities_never_increase():
    rng = stream_from_seed(42, 0)
    for _ in range(50):
        axes = rng.random(4) * math.pi
        fr = cascade_analytic(natural_light(), axes).fractions()
        assert all(b <= a + 1e-15 for a, b in zip(fr, fr[1:]))


def test_cascade_requires_at_least_one_axis():
    with pytest.raises(ValueError):
        cascade_analytic(natural_light(), [])
    with pytest.raises(ValueError):
        cascade_mc(100, [])
    with pytest.raises(ValueError):
        cascade_analytic(natural_light(), [float("nan")])


def test_photon_mc_pass_rate_matches_malus():
    theta = math.pi / 3
    p_pass = math.cos(theta) ** 2
    n = 20_000
    result = cascade_mc(n, [theta], source="linear", source_angle=0.0, seed=44)
    alive = result.per_stage_counts[0]
    assert abs(alive / n - p_pass) < 4 * math.sqrt(p_pass * (1 - p_pass) / n)


def test_cascade_mc_is_deterministic():
    a = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=7, workers=2)
    b = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=7, workers=2)
    assert a.per_stage_counts == b.per_stage_counts
    c = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=8, workers=2)
    assert a.per_stage_counts != c.per_stage_counts


def test_cascade_mc_worker_counts_stay_consistent():
    # workers is accepted and ignored: any worker count gives the same counts
    n = 600_000
    one = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], seed=3, workers=1)
    four = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], seed=3, workers=4)
    assert one.per_stage_counts == four.per_stage_counts
    for f1, truth in zip(one.fractions(), (0.5, 0.25, 0.125)):
        sigma = math.sqrt(truth * (1 - truth) / n)
        assert abs(f1 - truth) < 4 * sigma


def test_cascade_mc_work_does_not_grow_with_workers(monkeypatch):
    streams = []
    stream_key = photonlab.draw.stream_key

    def counting_stream_key(*key):
        streams.append(key)
        return stream_key(*key)

    def no_thread(self):
        raise AssertionError("cascade_mc must not start a thread")

    axes = [90 * DEG, 45 * DEG, 0.0]
    one = cascade_mc(1000, axes, seed=9, workers=1)
    # cascade_mc keys its stream with draw.stream_key when it runs
    monkeypatch.setattr(photonlab.draw, "stream_key", counting_stream_key)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    many = cascade_mc(1000, axes, seed=9, workers=100_000)
    assert many.per_stage_counts == one.per_stage_counts
    assert streams == [(9, 0)]


def test_cascade_mc_natural_source_halves():
    result = cascade_mc(100_000, [0.3], source="natural", seed=5)
    frac = result.fractions()[0]
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 100_000)


def test_cascade_mc_exact_extremes():
    crossed = cascade_mc(10_000, [0.0, 90 * DEG], source="linear", source_angle=0.0, seed=1)
    assert crossed.per_stage_counts[0] == 10_000
    assert crossed.per_stage_counts[1] == 0
    aligned = cascade_mc(10_000, [45 * DEG], source="linear", source_angle=45 * DEG, seed=1)
    assert aligned.per_stage_counts == (10_000,)
    # at the largest count the CLI accepts
    capped = cascade_mc(2**32, [0.0, 90 * DEG], source="natural", seed=1, workers=2)
    assert capped.per_stage_counts[1] == 0
    assert abs(capped.fractions()[0] - 0.5) < 5 * math.sqrt(0.25 / 2**32)


def test_cascade_mc_draws_are_reconstructible():
    # linear source, more photons than the 2^18 of a former block: each stage's
    # count, in stage order, is one binomial over the survivors from stream (seed, 0)
    n, theta, axes, seed = 2**18 + 30_000, 0.2, [1.0, 1.5, 0.1], 9
    result = cascade_mc(n, axes, source="linear", source_angle=theta, seed=seed, workers=2)
    key = photonlab.draw.stream_key(seed, 0)
    expected = []
    alive, previous = n, theta
    for d, axis in enumerate(axes):
        alive = photonlab.draw.binomial(alive, math.cos(axis - previous) ** 2, key, d)
        expected.append(alive)
        previous = axis
    assert result.per_stage_counts == tuple(expected)


def test_cascade_mc_stage_counts_follow_their_law_at_the_count_cap():
    # stage k's count is binomial over all n source photons with the product
    # of the pass probabilities up to k: 1/2, 1/4, 1/8 here
    n = 2**32
    result = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], source="natural", seed=31)
    for count, q in zip(result.per_stage_counts, (0.5, 0.25, 0.125)):
        assert abs(count - n * q) < 5 * math.sqrt(n * q * (1 - q))


def test_cascade_mc_natural_source_passes_half_at_the_first_stage():
    # a uniformly random polarization passes the first stage with probability
    # 1/2; later stages depend only on the axes
    n, axes, seed = 20_000, [0.6, 1.3], 13
    result = cascade_mc(n, axes, source="natural", seed=seed)
    key = photonlab.draw.stream_key(seed, 0)
    first = photonlab.draw.binomial(n, 0.5, key, 0)
    second = photonlab.draw.binomial(first, math.cos(axes[1] - axes[0]) ** 2, key, 1)
    assert result.per_stage_counts == (first, second)


def cascade_mc_0_12_0(n, axes, source, source_angle, seed):
    """photonlab 0.12.0's cascade: one two-outcome chain per stage on stream
    (seed, 0), each numbered on from the draws before it, as its
    core.sample_counts calls drew them."""
    p_first = 0.5 if source == "natural" else math.cos(axes[0] - canonical_angle(source_angle)) ** 2
    p_pass = [p_first] + [math.cos(b - a) ** 2 for a, b in zip(axes, axes[1:])]
    key = photonlab.draw.stream_key(seed, 0)
    counts, alive, drawn = [], n, 0
    for p in p_pass:
        (alive, _), made = photonlab.draw.counts((p, 1.0 - p), alive, key, drawn)
        drawn += made
        counts.append(alive)
    return tuple(counts)


# near-parallel and crossed axes put pass probabilities at the snap edges
_axes = st.lists(st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1e-9, 90 * DEG, 90 * DEG + 1e-9]),
                 min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**32), _axes, st.sampled_from(SOURCE_KINDS), st.floats(-4.0, 4.0),
       st.integers(0, 2**64 - 1))
def test_cascade_mc_draws_what_sample_counts_drew(n, axes, source, source_angle, seed):
    result = cascade_mc(n, axes, source=source, source_angle=source_angle, seed=seed)
    assert result.per_stage_counts == cascade_mc_0_12_0(n, axes, source, source_angle, seed)


def test_a_certain_stage_makes_no_draw(monkeypatch):
    draws = []
    block = photonlab.draw.philox_block

    def recording(key, counter):
        if counter[0] == 0:  # round 0 of each draw
            draws.append(counter[1])
        return block(key, counter)

    monkeypatch.setattr(photonlab.draw, "philox_block", recording)
    # natural light passes half the first stage; the crossed second stage
    # passes none, and nothing is left to draw for after it
    result = cascade_mc(10**6, [0.0, 90 * DEG] * 500, seed=4)
    assert result.per_stage_counts[1:] == (0,) * 999
    assert draws == [0]
    # an aligned stage passes every survivor without a draw
    draws.clear()
    result = cascade_mc(10**6, [0.3] * 1000, source="linear", source_angle=0.3, seed=4)
    assert result.per_stage_counts == (10**6,) * 1000 and draws == []


def test_cascade_mc_validation():
    with pytest.raises(ValueError):
        cascade_mc(0, [0.0])
    with pytest.raises(ValueError):
        cascade_mc(100, [0.0], source="laser")


def test_cascade_result_fraction_helpers():
    r = CascadeResult(axes=(0.0,), per_stage_counts=(250,), n_source=1000, seed=0)
    assert r.fractions() == (0.25,)
    assert r.final_intensity() == 0.25
