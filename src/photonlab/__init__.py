"""Seeded simulations of polarization collapse, entangled pairs, the
entanglement bit-transmission scheme, and delayed-choice interferometry.

The public names below resolve on first access (PEP 562), so `import photonlab`
loads none of the modules that define them, and a process that runs one
experiment imports only that experiment's modules.
"""

import importlib

__version__ = "0.17.0"

# public names by the module that defines them
_EXPORTS = {
    "core": (
        "ALGEBRA_ATOL",
        "DensityOperator",
        "InvalidStateError",
        "StateVector",
        "born_probabilities",
        "born_probabilities_array",
        "eigenvector_array",
        "ket_from_angle",
        "partial_trace",
        "projection_probability",
        "projection_probability_array",
        "states_equal",
        "tensor_product",
        "trace_distance",
        "unit_state_array",
    ),
    "entangle": (
        "CorrelationStats",
        "PairState",
        "bob_marginal_count_array",
        "bob_marginal_counts",
        "bob_reduced_state",
        "chsh",
        "conditional_state",
        "correlation",
        "correlation_array",
        "joint_probabilities",
        "joint_probability_array",
        "make_pair",
        "no_signaling_check",
    ),
    "entropy": (
        "EntropyReport",
        "collapse_entropy_report",
        "qubit_superposition_entropy",
        "shannon_entropy",
        "von_neumann_entropy",
    ),
    "mzi": (
        "ChoiceStats",
        "MziConfig",
        "MziStats",
        "TimingInvarianceReport",
        "choice_timing_invariance",
        "detector_probabilities",
        "detector_probability_array",
        "fringe_counts",
        "run_mzi",
    ),
    "optics": (
        "CascadeResult",
        "LightBeam",
        "Polarizer",
        "cascade_analytic",
        "cascade_mc",
        "linear_light",
        "natural_light",
        "transmit_analytic",
    ),
    "protocol": (
        "BasisOracle",
        "EncodingRule",
        "FixedBasisML",
        "Repetition",
        "TransmissionReport",
        "mutual_information",
        "parse_strategy",
        "receiver_law",
        "run_protocol",
        "standard_strategies",
    ),
    # the module is public; the benchmark-only stream it keeps is not
    "rng": (),
    # core re-exports these; they live where a run loads them without numpy
    "scalars": ("ALGORITHM_ID", "MeasurementBasis", "PROB_SNAP", "WORDS_ID", "canonical_angle"),
    "stats": (
        "as_bit_array",
        "bit_table",
        "mi_standard_error",
        "permutation_independence_test",
        "permutation_null_quantile",
        "plugin_mi_bits",
        "wilson_interval",
        "wilson_interval_array",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the nine modules are public names too, so `from photonlab import *` binds them
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
