import math

import numpy as np
import pytest

from photonlab.core import InvalidStateError, ket_from_angle
from photonlab import optics, rng
from photonlab.optics import (
    CascadeResult,
    LightBeam,
    PhotonRecord,
    Polarizer,
    cascade_analytic,
    cascade_mc,
    linear_light,
    natural_light,
    transmit_analytic,
    transmit_photon_mc,
)
from photonlab.rng import stream_from_seed

DEG = math.pi / 180.0


def test_polarizer_axis_is_canonical():
    p = Polarizer.at_angle(math.pi + 0.4)
    assert p.axis.theta == pytest.approx(0.4, abs=1e-12)


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
        out = transmit_analytic(linear_light(phi), Polarizer.at_angle(theta))
        assert abs(out.intensity - math.cos(theta - phi) ** 2) < 1e-12
        # transmitted beam is repolarized along the axis
        expected = np.outer(
            ket_from_angle(theta).amplitudes, ket_from_angle(theta).amplitudes.conj()
        )
        np.testing.assert_allclose(out.rho.matrix, expected, atol=1e-12)


def test_natural_light_halves_through_any_polarizer():
    for theta in (0.0, 0.3, 1.0, 2.9):
        out = transmit_analytic(natural_light(), Polarizer.at_angle(theta))
        assert abs(out.intensity - 0.5) < 1e-12


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


def test_photon_mc_transmission():
    rng = stream_from_seed(43, 0)
    photon = PhotonRecord(state=ket_from_angle(0.0))
    out = transmit_photon_mc(photon, Polarizer.at_angle(0.0), rng)
    assert out.alive
    assert out.collapse_history == ((0.0, 0),)
    blocked = transmit_photon_mc(out, Polarizer.at_angle(math.pi / 2), rng)
    assert not blocked.alive
    assert blocked.collapse_history[-1][1] == 1
    with pytest.raises(InvalidStateError):
        transmit_photon_mc(blocked, Polarizer.at_angle(0.0), rng)


def test_photon_mc_pass_rate_matches_malus():
    rng = stream_from_seed(44, 0)
    theta = math.pi / 3
    p_pass = math.cos(theta) ** 2
    n = 20_000
    alive = 0
    for _ in range(n):
        photon = PhotonRecord(state=ket_from_angle(0.0))
        alive += transmit_photon_mc(photon, Polarizer.at_angle(theta), rng).alive
    assert abs(alive / n - p_pass) < 4 * math.sqrt(p_pass * (1 - p_pass) / n)


def test_cascade_mc_is_deterministic():
    a = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=7, workers=2)
    b = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=7, workers=2)
    assert a.per_stage_counts == b.per_stage_counts
    c = cascade_mc(50_000, [90 * DEG, 45 * DEG, 0.0], seed=8, workers=2)
    assert a.per_stage_counts != c.per_stage_counts


def test_cascade_mc_worker_counts_stay_consistent():
    # three blocks: any worker count draws the same blocks and sums them in order
    n = 600_000
    one = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], seed=3, workers=1)
    four = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], seed=3, workers=4)
    assert one.per_stage_counts == four.per_stage_counts
    for f1, truth in zip(one.fractions(), (0.5, 0.25, 0.125)):
        sigma = math.sqrt(truth * (1 - truth) / n)
        assert abs(f1 - truth) < 4 * sigma


def test_cascade_mc_work_does_not_grow_with_workers(monkeypatch):
    calls = []

    def counting_map_partitions(n, workers, worker_fn):
        def block_fn(block, size):
            calls.append((block, size))
            return worker_fn(block, size)

        return rng.map_partitions(n, workers, block_fn)

    def no_pool(*args, **kwargs):
        raise AssertionError("one block must not start a thread pool")

    axes = [90 * DEG, 45 * DEG, 0.0]
    one = cascade_mc(1000, axes, seed=9, workers=1)
    monkeypatch.setattr(optics, "map_partitions", counting_map_partitions)
    monkeypatch.setattr(rng, "ThreadPoolExecutor", no_pool)
    many = cascade_mc(1000, axes, seed=9, workers=100_000)
    assert many.per_stage_counts == one.per_stage_counts
    assert calls == [(0, 1000)]


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
    # at the largest count the CLI accepts, 16,384 blocks
    capped = cascade_mc(2**32, [0.0, 90 * DEG], source="natural", seed=1, workers=2)
    assert capped.per_stage_counts[1] == 0
    assert abs(capped.fractions()[0] - 0.5) < 5 * math.sqrt(0.25 / 2**32)


def test_cascade_mc_draws_are_reconstructible():
    # linear source over two blocks: block b draws each stage's count, in stage
    # order, as one binomial over the survivors from stream (seed, 0, b)
    n, theta, axes, seed = rng.BLOCK + 30_000, 0.2, [1.0, 1.5, 0.1], 9
    result = cascade_mc(n, axes, source="linear", source_angle=theta, seed=seed, workers=2)
    expected = [0, 0, 0]
    for block, size in enumerate((rng.BLOCK, 30_000)):
        stream = stream_from_seed(seed, 0, block)
        alive, previous = size, theta
        for i, axis in enumerate(axes):
            alive = int(stream.binomial(alive, math.cos(axis - previous) ** 2))
            expected[i] += alive
            previous = axis
    assert result.per_stage_counts == tuple(expected)


def test_cascade_mc_natural_source_passes_half_at_the_first_stage():
    # a uniformly random polarization passes the first stage with probability
    # 1/2; later stages depend only on the axes
    n, axes, seed = 20_000, [0.6, 1.3], 13
    result = cascade_mc(n, axes, source="natural", seed=seed)
    stream = stream_from_seed(seed, 0)
    first = int(stream.binomial(n, 0.5))
    second = int(stream.binomial(first, math.cos(axes[1] - axes[0]) ** 2))
    assert result.per_stage_counts == (first, second)


def test_cascade_mc_validation():
    with pytest.raises(ValueError):
        cascade_mc(0, [0.0])
    with pytest.raises(ValueError):
        cascade_mc(100, [0.0], source="laser")


def test_cascade_result_fraction_helpers():
    r = CascadeResult(axes=(0.0,), per_stage_counts=(250,), n_source=1000, seed=0)
    assert r.fractions() == (0.25,)
    assert r.final_intensity() == 0.25
