import math

import numpy as np
import pytest

from photonlab.core import MeasurementBasis, ket_from_angle
from photonlab.entropy import (
    collapse_entropy_report,
    qubit_superposition_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from photonlab.core import DensityOperator
from photonlab.rng import stream_from_seed


def test_shannon_entropy_known_values():
    assert shannon_entropy([0.5, 0.5]) == 1.0
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.0, 1.0]) == 0.0
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-12
    assert abs(shannon_entropy([0.9, 0.1]) - 0.4689955935892812) < 1e-12


def test_shannon_entropy_tolerates_tiny_negative_noise():
    assert shannon_entropy([1.0, -1e-13]) == 0.0


def test_shannon_entropy_validation():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, -0.1, 0.6])
    with pytest.raises(ValueError):
        shannon_entropy([0.4, 0.4])  # sums to 0.8
    with pytest.raises(ValueError):
        shannon_entropy([])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, float("nan")])


def test_superposition_entropy_peaks_between_eigenstates():
    assert qubit_superposition_entropy(ket_from_angle(0.0), 0.0) == 0.0
    mid = qubit_superposition_entropy(ket_from_angle(math.pi / 4), 0.0)
    assert mid == 1.0
    rng = stream_from_seed(31, 0)
    for _ in range(200):
        phi, theta = rng.random(2) * math.pi
        h = qubit_superposition_entropy(ket_from_angle(phi), theta)
        p = math.cos(theta - phi) ** 2
        assert abs(h - shannon_entropy([p, 1 - p])) < 1e-12


def test_collapse_always_ends_in_a_pure_basis_state():
    rng = stream_from_seed(32, 0)
    for _ in range(200):
        phi, theta = rng.random(2) * math.pi
        report = collapse_entropy_report(ket_from_angle(phi), MeasurementBasis(theta))
        assert report.after_bits == 0.0
        assert report.delta_bits == -report.before_bits
        assert 0.0 <= report.before_bits <= 1.0


def test_von_neumann_entropy():
    pure = DensityOperator.from_pure(ket_from_angle(0.6))
    assert von_neumann_entropy(pure) <= 1e-12
    mixed = DensityOperator.maximally_mixed(2)
    assert abs(von_neumann_entropy(mixed) - 1.0) < 1e-12
    rho = DensityOperator(np.diag([0.9, 0.1]))
    assert abs(von_neumann_entropy(rho) - shannon_entropy([0.9, 0.1])) < 1e-12
