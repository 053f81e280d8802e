"""End-to-end checks for the headline behaviors, one test per claim."""

import json
import math
from pathlib import Path

import numpy as np

from photonlab.cli import main as cli_main
from photonlab.core import MeasurementBasis, StateVector
from photonlab.entangle import chsh, correlation, no_signaling_check
from photonlab.entropy import collapse_entropy_report, shannon_entropy
from photonlab.mzi import MziConfig, choice_timing_invariance, run_mzi
from photonlab.optics import cascade_analytic, cascade_mc, natural_light
from photonlab.protocol import BasisOracle, FixedBasisML, Repetition, run_protocol
from photonlab.rng import stream_from_seed

DEG = math.pi / 180.0
# standard-physics receivers, no oracle
STANDARD_STRATEGIES = (
    FixedBasisML(0.0),
    FixedBasisML(math.pi / 8),
    Repetition(11, FixedBasisML(math.pi / 8)),
)


def test_crossed_polarizers_extinguish_natural_light():
    analytic = cascade_analytic(natural_light(), [90 * DEG, 0.0])
    assert analytic.per_stage_intensity[0] == 0.5
    assert analytic.per_stage_intensity[1] == 0.0
    n = 1_000_000
    mc = cascade_mc(n, [90 * DEG, 0.0], seed=101)
    assert abs(mc.per_stage_counts[0] / n - 0.5) < 3 * math.sqrt(0.25 / n)
    assert mc.per_stage_counts[1] == 0


def test_inserted_diagonal_polarizer_restores_one_eighth():
    analytic = cascade_analytic(natural_light(), [90 * DEG, 45 * DEG, 0.0])
    np.testing.assert_allclose(analytic.fractions(), [0.5, 0.25, 0.125], atol=1e-12)
    n = 1_000_000
    mc = cascade_mc(n, [90 * DEG, 45 * DEG, 0.0], seed=102)
    sigma = math.sqrt(0.125 * 0.875 / n)
    assert abs(mc.final_intensity() - 0.125) < 3 * sigma


def test_middle_axis_sweep_peaks_at_45_degrees():
    finals = {}
    for theta_deg in range(1, 90):
        theta = theta_deg * DEG
        result = cascade_analytic(natural_light(), [90 * DEG, theta, 0.0])
        expected = 0.5 * math.cos(math.pi / 2 - theta) ** 2 * math.cos(theta) ** 2
        assert abs(result.final_intensity() - expected) < 1e-12
        finals[theta_deg] = result.final_intensity()
    assert max(finals, key=finals.get) == 45


def test_collapse_always_lands_in_a_zero_entropy_state():
    assert abs(shannon_entropy([0.5, 0.5]) - 1.0) <= 1e-12
    assert shannon_entropy([1.0, 0.0]) == 0.0
    rng = stream_from_seed(103, 0)
    for _ in range(1000):
        p0 = float(rng.random())
        state = StateVector.normalize([math.sqrt(p0), math.sqrt(1.0 - p0)])
        basis = MeasurementBasis(float(rng.random()) * math.pi)
        report = collapse_entropy_report(state, basis)
        assert report.after_bits == 0.0


def test_singlet_anticorrelation_and_chsh_violation():
    angle_rng = stream_from_seed(104, 0)
    for i, theta in enumerate(angle_rng.random(20) * math.pi):
        stats = correlation(theta, theta, 5000, seed=105 + i)
        assert stats.e_value == -1.0
    n = 1_000_000
    e = correlation(0.0, 22.5 * DEG, n, seed=106).e_value
    truth = -math.cos(math.pi / 4)
    assert abs(e - truth) < 3 * math.sqrt((1 - truth**2) / n)
    s = chsh(n_per_setting=n, seed=110)
    sigma_s = math.sqrt(4 * 0.5 / n)
    assert abs(s - 2 * math.sqrt(2)) < 3 * sigma_s


def test_standard_receivers_extract_no_information():
    assert no_signaling_check([0.0, 45 * DEG]) < 1e-12
    for strategy in STANDARD_STRATEGIES:
        report = run_protocol(100_000, strategy=strategy, seed=108)
        assert report.mutual_info_bits < 0.001, strategy.label
        lo, hi = report.mi_confidence_interval
        assert lo == 0.0, strategy.label
        assert hi >= 0.0


def test_basis_oracle_receiver_reads_bits_perfectly():
    report = run_protocol(
        100_000, strategy=BasisOracle(), seed=109, bit_source="balanced"
    )
    assert report.ber == 0.0
    assert report.mutual_info_bits == 1.0


def test_delayed_choice_leaves_no_statistical_signature():
    n = 100_000
    for k in range(16):
        phase = 22.5 * k * DEG
        closed = run_mzi(MziConfig(phase), n, seed=110 + k)
        p = math.cos(phase / 2) ** 2
        assert abs(closed.fraction_d0() - p) <= 4 * math.sqrt(p * (1 - p) / n)
        opened = run_mzi(MziConfig(phase, second_bs=False), n, seed=130 + k)
        assert abs(opened.fraction_d0() - 0.5) <= 4 * math.sqrt(0.25 / n)
    report = choice_timing_invariance(
        MziConfig(60 * DEG, choice_policy="delayed-random"),
        MziConfig(60 * DEG),
        200_000,
        seed=111,
    )
    assert report.within_4_sigma


# malus and the mzi timing run draw more than 2^18 trials per point, the block
# size up to 0.7.1, when more workers than one ran blocks on threads
CLI_CASES = {
    "malus": ["--set", "mode=mc", "--set", "n_photons=600000"],
    "entropy": [],
    "bell": [
        "--set", 'sweep={"start_deg": 0, "stop_deg": 90, "step_deg": 45}',
        "--set", "n_per_point=2000", "--set", "n_per_setting=2000",
    ],
    "nosignal": ["--set", "n_per_basis=4000"],
    "protocol": ["--set", "n_bits=2000"],
    "mzi": [
        "--set", "phases_deg=[0, 90]", "--set", "n_per_phase=2000",
        "--set", 'timing={"phase_deg": 60, "p_present": 0.5, "n": 600000}',
    ],
}


def test_cli_runs_are_byte_identical_for_fixed_seed(tmp_path):
    # repeat runs, and runs at any worker count, write the same result bytes
    for experiment, extra in CLI_CASES.items():
        outputs = []
        for workers, attempt in ((1, "a"), (1, "b"), (3, "a"), (4, "a")):
            out = tmp_path / f"{experiment}_w{workers}_{attempt}.json"
            argv = [experiment, "--seed", "42", "--workers", str(workers),
                    "--out", str(out)] + extra
            assert cli_main(argv) == 0, (experiment, workers)
            outputs.append(out.read_bytes())
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["workers"] == workers
        assert all(o == outputs[0] for o in outputs), experiment
        doc = json.loads(outputs[0])
        assert doc["seed"] == 42
        assert "workers" not in doc
