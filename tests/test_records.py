"""The library's value classes as records: their repr text, read-only fields,
value or identity equality, and constructor checks.

Since 0.12.0 every value class is a namedtuple subclass, where 0.11 had frozen
dataclasses. The reprs, the equality of each class and the constructor error
messages below are those of 0.11.1.
"""

import math
import re

import numpy as np
import pytest

from photonlab.core import DensityOperator, InvalidStateError, MeasurementBasis, StateVector
from photonlab.entangle import CorrelationStats, PairState, make_pair
from photonlab.entropy import EntropyReport
from photonlab.mzi import ChoiceStats, MziConfig, MziStats, TimingInvarianceReport
from photonlab.optics import CascadeResult, LightBeam, Polarizer
from photonlab.protocol import (
    BasisOracle,
    EncodingRule,
    FixedBasisML,
    Repetition,
    TransmissionReport,
    run_protocol,
)

_BEAM_RHO = DensityOperator.maximally_mixed(2)
_MIXED = "DensityOperator(matrix=array([[0.5+0.j, 0. +0.j],\n       [0. +0.j, 0.5+0.j]]))"

# (builder, its repr at 0.11.1, field names); a builder makes a new instance
# on every call, equal in value to the last
VALUE_RECORDS = [
    (lambda: MeasurementBasis(theta=0.5), "MeasurementBasis(theta=0.5)", ("theta",)),
    (lambda: CorrelationStats(e_value=-0.5, n=8, std_err=0.25),
     "CorrelationStats(e_value=-0.5, n=8, std_err=0.25)", ("e_value", "n", "std_err")),
    (lambda: EntropyReport(1.0, 0.0, delta_bits=-1.0),
     "EntropyReport(before_bits=1.0, after_bits=0.0, delta_bits=-1.0)",
     ("before_bits", "after_bits", "delta_bits")),
    (lambda: MziConfig(0.5),
     "MziConfig(phase=0.5, second_bs=True, choice_policy='fixed', p_present=0.5)",
     ("phase", "second_bs", "choice_policy", "p_present")),
    (lambda: MziConfig(1, second_bs=False, choice_policy="delayed-random", p_present=1),
     "MziConfig(phase=1.0, second_bs=False, choice_policy='delayed-random', p_present=1.0)",
     ("phase", "second_bs", "choice_policy", "p_present")),
    (lambda: ChoiceStats(n=2, count_d0=1, count_d1=1), "ChoiceStats(n=2, count_d0=1, count_d1=1)",
     ("n", "count_d0", "count_d1")),
    (lambda: TimingInvarianceReport(0.5, "present", 10, 0.5, 10, 0.25, 1.5, True),
     "TimingInvarianceReport(phase=0.5, choice='present', n_conditional=10, "
     "conditional_fraction_d0=0.5, fixed_n=10, fixed_fraction_d0=0.25, z_value=1.5, "
     "within_4_sigma=True)",
     ("phase", "choice", "n_conditional", "conditional_fraction_d0", "fixed_n",
      "fixed_fraction_d0", "z_value", "within_4_sigma")),
    (lambda: Polarizer.at_angle(0.5), "Polarizer(axis=MeasurementBasis(theta=0.5))", ("axis",)),
    # a beam compares its operator by identity, so equal beams share one
    (lambda: LightBeam(rho=_BEAM_RHO, intensity=1),
     f"LightBeam(rho={_MIXED}, intensity=1.0)", ("rho", "intensity")),
    (lambda: CascadeResult(axes=(0.0, 0.5), per_stage_intensity=(0.5, 0.25)),
     "CascadeResult(axes=(0.0, 0.5), per_stage_intensity=(0.5, 0.25), per_stage_counts=None, "
     "n_source=None, seed=None)",
     ("axes", "per_stage_intensity", "per_stage_counts", "n_source", "seed")),
    (lambda: CascadeResult((0.0,), None, (3,), 6, seed=2),
     "CascadeResult(axes=(0.0,), per_stage_intensity=None, per_stage_counts=(3,), n_source=6, "
     "seed=2)",
     ("axes", "per_stage_intensity", "per_stage_counts", "n_source", "seed")),
    (lambda: EncodingRule(), "EncodingRule(basis_for_one=0.0, basis_for_zero=0.7853981633974483)",
     ("basis_for_one", "basis_for_zero")),
    (lambda: EncodingRule(basis_for_one=1.0, basis_for_zero=-1.0),
     "EncodingRule(basis_for_one=1.0, basis_for_zero=2.141592653589793)",
     ("basis_for_one", "basis_for_zero")),
    (lambda: FixedBasisML(0.25), "FixedBasisML(basis=MeasurementBasis(theta=0.25))", ("basis",)),
    (lambda: FixedBasisML(basis=MeasurementBasis(4.0)),
     "FixedBasisML(basis=MeasurementBasis(theta=0.8584073464102069))", ("basis",)),
    (lambda: BasisOracle(), "BasisOracle()", ()),
    (lambda: Repetition(3, BasisOracle()), "Repetition(k=3, inner=BasisOracle())",
     ("k", "inner")),
    (lambda: Repetition(k=2, inner=FixedBasisML(0.0)),
     "Repetition(k=2, inner=FixedBasisML(basis=MeasurementBasis(theta=0.0)))", ("k", "inner")),
    (lambda: run_protocol(10, seed=1),
     "TransmissionReport(n_bits=10, ber=0.5, mutual_info_bits=0.0, "
     "mi_confidence_interval=(0.0, 0.0), seed=1, "
     "strategy=FixedBasisML(basis=MeasurementBasis(theta=0.0)), "
     "rule=EncodingRule(basis_for_one=0.0, basis_for_zero=0.7853981633974483), "
     "decode_ties=10, bit_source='iid', rng_algorithm='numpy-philox-4x64/btrd')",
     ("n_bits", "ber", "mutual_info_bits", "mi_confidence_interval", "seed", "strategy", "rule",
      "decode_ties", "bit_source", "rng_algorithm")),
    (lambda: run_protocol(10, strategy=BasisOracle(), bit_source="balanced"),
     "TransmissionReport(n_bits=10, ber=0.0, mutual_info_bits=1.0, "
     "mi_confidence_interval=(0.7219280948873623, 1.0), seed=0, strategy=BasisOracle(), "
     "rule=EncodingRule(basis_for_one=0.0, basis_for_zero=0.7853981633974483), "
     "decode_ties=0, bit_source='balanced', rng_algorithm='numpy-philox-4x64')",
     ("n_bits", "ber", "mutual_info_bits", "mi_confidence_interval", "seed", "strategy", "rule",
      "decode_ties", "bit_source", "rng_algorithm")),
]

# the four classes declared eq=False at 0.11: equal only to themselves
IDENTITY_RECORDS = [
    (lambda: StateVector([1, 0]), "StateVector(amplitudes=array([1.+0.j, 0.+0.j]))",
     ("amplitudes",)),
    (lambda: DensityOperator.maximally_mixed(2), _MIXED, ("matrix",)),
    (lambda: PairState(joint=make_pair().joint),
     "PairState(joint=StateVector(amplitudes=array([ 0.        +0.j,  0.70710678+0.j, "
     "-0.70710678+0.j,  0.        +0.j])))", ("joint",)),
    (lambda: MziStats(4, 3, 1), "MziStats(n=4, count_d0=3, count_d1=1, by_choice=None)",
     ("n", "count_d0", "count_d1", "by_choice")),
    (lambda: MziStats(n=2, count_d0=1, count_d1=1,
                      by_choice={"present": ChoiceStats(1, 1, 0), "absent": ChoiceStats(1, 0, 1)}),
     "MziStats(n=2, count_d0=1, count_d1=1, by_choice={'present': ChoiceStats(n=1, count_d0=1, "
     "count_d1=0), 'absent': ChoiceStats(n=1, count_d0=0, count_d1=1)})",
     ("n", "count_d0", "count_d1", "by_choice")),
]

RECORDS = VALUE_RECORDS + IDENTITY_RECORDS
_IDS = [text.partition("(")[0] + str(i) for i, (_, text, _) in enumerate(RECORDS)]


def test_every_value_class_of_the_library_is_covered():
    covered = {type(build()).__name__ for build, _, _ in RECORDS}
    assert covered == {
        "StateVector", "MeasurementBasis", "DensityOperator", "PairState", "CorrelationStats",
        "EntropyReport", "MziConfig", "ChoiceStats", "MziStats", "TimingInvarianceReport",
        "Polarizer", "LightBeam", "CascadeResult", "EncodingRule", "FixedBasisML", "BasisOracle",
        "Repetition", "TransmissionReport",
    }


@pytest.mark.parametrize("build, text, fields", RECORDS, ids=_IDS)
def test_repr_keeps_its_text(build, text, fields):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text, fields", RECORDS, ids=_IDS)
def test_fields_are_read_only_and_no_attribute_can_be_added(build, text, fields):
    record = build()
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build, text, fields", RECORDS, ids=_IDS)
def test_records_are_tuples_of_their_fields(build, text, fields):
    record = build()
    assert isinstance(record, tuple)
    assert record._fields == fields
    assert all(a is b for a, b in zip(record, (getattr(record, name) for name in fields)))


@pytest.mark.parametrize("build, text, fields", VALUE_RECORDS, ids=_IDS[:len(VALUE_RECORDS)])
def test_value_records_compare_and_hash_by_value(build, text, fields):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_value_records_with_a_different_field_differ():
    assert MeasurementBasis(0.5) != MeasurementBasis(0.25)
    assert MeasurementBasis(0.5) == MeasurementBasis(0.5 + math.pi)
    assert EncodingRule() != EncodingRule(0.0, 0.5)
    assert Repetition(3, BasisOracle()) != Repetition(3, FixedBasisML(0.0))
    assert ChoiceStats(2, 1, 1) != ChoiceStats(2, 2, 0)
    assert hash(MziConfig(0.5)) != hash(MziConfig(0.5, second_bs=False))


@pytest.mark.parametrize("build, text, fields", IDENTITY_RECORDS,
                         ids=_IDS[len(VALUE_RECORDS):])
def test_identity_records_equal_only_themselves(build, text, fields):
    a, b = build(), build()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def _message(text):
    return "^" + re.escape(text) + "$"


@pytest.mark.parametrize("build, error, text", [
    (lambda: StateVector([1, 0, 0]), ValueError,
     "amplitudes must be a length-2 or length-4 vector, got shape (3,)"),
    (lambda: StateVector([math.nan, 0]), ValueError, "amplitudes must have finite entries"),
    (lambda: StateVector([2, 0]), InvalidStateError,
     "state norm 2.0 deviates from 1 by more than 1e-09"),
    (lambda: MeasurementBasis(math.inf), ValueError, "angle must be finite, got inf"),
    (lambda: DensityOperator(np.eye(3) / 3), ValueError,
     "matrix must be 2x2 or 4x4, got shape (3, 3)"),
    (lambda: DensityOperator([[math.nan, 0], [0, 1]]), ValueError,
     "matrix must have finite entries"),
    (lambda: DensityOperator([[1, 1], [0, 0]]), InvalidStateError,
     "matrix is not Hermitian within 1e-12"),
    (lambda: DensityOperator(np.eye(2)), InvalidStateError,
     "trace must be 1 within 1e-12, got (2+0j)"),
    (lambda: DensityOperator(np.diag([1.5, -0.5])), InvalidStateError,
     "matrix has an eigenvalue below -1e-12"),
    (lambda: PairState(StateVector([1, 0])), ValueError,
     "pair state must have dimension 4, got 2"),
    (lambda: MziConfig(math.inf), ValueError, "phase must be finite, got inf"),
    (lambda: MziConfig("0"), ValueError, "phase must be finite, got '0'"),
    (lambda: MziConfig(0.0, choice_policy="later"), ValueError,
     "choice_policy must be one of ('fixed', 'delayed-random'), got 'later'"),
    (lambda: MziConfig(0.0, p_present=2), ValueError, "p_present must be in [0, 1], got 2"),
    (lambda: LightBeam(_BEAM_RHO, math.inf), ValueError, "intensity must be finite, got inf"),
    (lambda: LightBeam(_BEAM_RHO, -1), ValueError, "intensity must be >= 0, got -1"),
    (lambda: EncodingRule(math.inf), ValueError, "angle must be finite, got inf"),
    (lambda: EncodingRule(0.0, math.nan), ValueError, "angle must be finite, got nan"),
    (lambda: FixedBasisML(math.nan), ValueError, "angle must be finite, got nan"),
    (lambda: Repetition(0, BasisOracle()), ValueError, "repetition factor must be >= 1, got 0"),
], ids=lambda value: None)
def test_constructor_checks_keep_their_messages(build, error, text):
    with pytest.raises(error, match=_message(text)):
        build()


def test_constructors_keep_their_signatures():
    assert MziConfig(phase=0.5) == MziConfig(0.5, True, "fixed", 0.5)
    assert EncodingRule(basis_for_zero=0.5) == EncodingRule(0.0, 0.5)
    assert CascadeResult(axes=(0.0,)) == CascadeResult((0.0,), None, None, None, None)
    assert MziStats(1, 1, 0).by_choice is None
    report = TransmissionReport(1, 0.0, 0.0, (0.0, 0.0), 0, BasisOracle(), EncodingRule(), 0,
                                "balanced")
    assert report.rng_algorithm == "numpy-philox-4x64/btrd"
    for build in (lambda: MziConfig(), lambda: Repetition(2), lambda: ChoiceStats(1, 1),
                  lambda: MeasurementBasis(0.0, 1.0), lambda: EncodingRule(0.0, 0.0, 0.0)):
        with pytest.raises(TypeError):
            build()


def test_states_and_operators_keep_read_only_arrays():
    state = StateVector([3 / 5, 4j / 5])
    rho = DensityOperator.from_pure(state)
    for array in (state.amplitudes, rho.matrix, StateVector.normalize([3, 4]).amplitudes):
        with pytest.raises(ValueError):
            array[0] = 0
