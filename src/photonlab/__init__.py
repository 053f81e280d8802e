"""Seeded simulations of polarization collapse, entangled pairs, the
entanglement bit-transmission scheme, and delayed-choice interferometry.

The public names below resolve on first access (PEP 562), so `import photonlab`
loads none of the modules that define them, and a process that runs one
experiment imports only that experiment's modules.
"""

__version__ = "0.20.0"

# public names by the module that defines them
_EXPORTS = {
    "core": (
        "DensityOperator",
        "InvalidStateError",
        "StateVector",
        "born_probabilities",
        "ket_from_angle",
        "partial_trace",
        "projection_probability",
        "states_equal",
        "tensor_product",
        "trace_distance",
    ),
    "entangle": (
        "CorrelationStats",
        "PairState",
        "bob_marginal_counts",
        "bob_reduced_state",
        "chsh",
        "conditional_state",
        "correlation",
        "joint_probabilities",
        "make_pair",
        "no_signaling_check",
    ),
    "entropy": (
        "EntropyReport",
        "binary_entropy",
        "collapse_entropy_report",
        "eigenbasis_entropy",
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
        "run_mzi",
    ),
    "optics": (
        "CascadeResult",
        "LightBeam",
        "cascade_analytic",
        "cascade_mc",
        "linear_light",
        "malus_law",
        "natural_light",
        "stage_pass_probabilities",
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
    ),
    # the module is public; the benchmark-only stream it keeps is not
    "rng": (),
    # core re-exports these; they live where a run loads them without numpy
    "scalars": ("ALGEBRA_ATOL", "ALGORITHM_ID", "MeasurementBasis", "PROB_SNAP", "WORDS_ID",
                "canonical_angle"),
    "stats": (
        "bit_table",
        "mi_standard_error",
        "permutation_independence_test",
        "permutation_null_quantile",
        "plugin_mi_bits",
        "wilson_interval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the nine modules are public names too, so `from photonlab import *` binds them
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from photonlab.<module> import <name>`, through __import__ as that
    # statement goes: -X importtime lists its imports, not importlib's
    home = __import__(f"{__name__}.{module}", fromlist=[name])
    value = globals()[name] = home if module == name else getattr(home, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
