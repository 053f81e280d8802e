"""Seeded simulations of polarization collapse, entangled pairs, the
entanglement bit-transmission scheme, and delayed-choice interferometry."""

__version__ = "0.6.0"

from .core import (
    ALGEBRA_ATOL,
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    OutcomeRecord,
    PROB_SNAP,
    StateVector,
    born_probabilities,
    born_probabilities_array,
    canonical_angle,
    collapse,
    eigenvector_array,
    ket_from_angle,
    partial_trace,
    projection_probability,
    projection_probability_array,
    states_equal,
    tensor_product,
    trace_distance,
    unit_state_array,
)
from .entangle import (
    CorrelationStats,
    JointOutcome,
    PairState,
    bob_marginal_counts,
    bob_reduced_state,
    chsh,
    conditional_state,
    correlation,
    joint_probabilities,
    make_pair,
    measure_A,
    measure_pair,
    no_signaling_check,
)
from .entropy import (
    EntropyReport,
    collapse_entropy_report,
    qubit_superposition_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .mzi import (
    ChoiceStats,
    MziConfig,
    MziStats,
    TimingInvarianceReport,
    choice_timing_invariance,
    detector_probabilities,
    run_mzi,
)
from .optics import (
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
from .protocol import (
    BasisOracle,
    EncodingRule,
    FixedBasisML,
    PhotonStream,
    Repetition,
    TransmissionReport,
    encode,
    mutual_information,
    receive,
    run_protocol,
    standard_strategies,
)
from .rng import ALGORITHM_ID, RngStream, map_partitions, stream_from_seed
from .stats import (
    as_bit_array,
    bit_table,
    mi_standard_error,
    null_quantile,
    permutation_independence_test,
    permutation_null_mis,
    plugin_mi_bits,
    wilson_interval,
)
