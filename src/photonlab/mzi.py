"""Wheeler delayed-choice Mach-Zehnder interferometer.

The model is the minimal two-mode one: a balanced beamsplitter, a phase shift
on one arm, and an optional second beamsplitter. With the second beamsplitter
in place the detectors see the interference fringe cos^2(phi/2); without it
they see the arms directly, flat at 1/2. The delayed-random policy decides
presence or absence of the second beamsplitter per photon, after the arm
superposition is formed in the simulated event sequence; the testable content
is that per-choice conditional statistics match the fixed configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import sample_counts, snap_probability
from .rng import map_partitions, stream_from_seed

_BEAMSPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)

CHOICE_POLICIES = ("fixed", "delayed-random")


def detector_probabilities(phase: float, second_bs: bool) -> tuple[float, float]:
    """Detection probabilities (D0, D1) from the two-mode amplitude algebra.

    D1 is computed as the exact complement so the pair always sums to 1.
    """
    if not (isinstance(phase, (int, float)) and math.isfinite(phase)):
        raise ValueError(f"phase must be finite, got {phase!r}")
    psi = _BEAMSPLITTER @ np.array([1.0, 0.0], dtype=np.complex128)
    psi[0] *= np.exp(1j * phase)
    if second_bs:
        psi = _BEAMSPLITTER @ psi
    p0 = snap_probability(float(np.abs(psi[0]) ** 2))
    return p0, 1.0 - p0


@dataclass(frozen=True)
class MziConfig:
    """One interferometer setup; p_present only matters for delayed-random."""

    phase: float
    second_bs: bool = True
    choice_policy: str = "fixed"
    p_present: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.phase, (int, float)) and math.isfinite(self.phase)):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        if self.choice_policy not in CHOICE_POLICIES:
            raise ValueError(
                f"choice_policy must be one of {CHOICE_POLICIES}, got {self.choice_policy!r}"
            )
        if not 0.0 <= self.p_present <= 1.0:
            raise ValueError(f"p_present must be in [0, 1], got {self.p_present!r}")
        object.__setattr__(self, "phase", float(self.phase))
        object.__setattr__(self, "p_present", float(self.p_present))


@dataclass(frozen=True)
class ChoiceStats:
    """Counts conditioned on one realized choice of the second beamsplitter."""

    n: int
    count_d0: int
    count_d1: int


@dataclass(frozen=True, eq=False)
class MziStats:
    n: int
    count_d0: int
    count_d1: int
    by_choice: dict | None = None

    def fraction_d0(self) -> float:
        return self.count_d0 / self.n


def run_mzi(
    config: MziConfig,
    n: int,
    seed: int = 0,
    workers: int = 1,
    mode: str = "mc",
    stream_base: int = 0,
) -> MziStats:
    """Send n photons through the interferometer.

    Analytic mode (fixed policy only) reports deterministic expected counts,
    count_d0 = round(n * P(D0)). Monte Carlo mode draws counts per block of
    photons with core.sample_counts, never one draw per photon. A fixed run
    draws block b's D0 count from stream_from_seed(seed, stream_base, b). A
    delayed-random run first draws how many of the block's photons find the
    second beamsplitter present from the separate stream stream_base + 1,
    then the D0 counts of the present and of the absent photons, in that
    order, from the detection stream. An empty branch draws nothing, so a
    degenerate policy (p_present 0 or 1) reproduces the corresponding fixed
    run exactly. The choice is applied only at the second beamsplitter, never
    to the arm superposition, which is the delayed-choice ordering.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("mc", "analytic"):
        raise ValueError(f"mode must be 'mc' or 'analytic', got {mode!r}")
    delayed = config.choice_policy == "delayed-random"
    if mode == "analytic":
        if delayed:
            raise ValueError("analytic mode supports fixed configurations only")
        p0, _ = detector_probabilities(config.phase, config.second_bs)
        count_d0 = int(round(n * p0))
        return MziStats(n=n, count_d0=count_d0, count_d1=n - count_d0)

    p_closed = detector_probabilities(config.phase, True)
    p_open = detector_probabilities(config.phase, False)
    p_fixed = detector_probabilities(config.phase, config.second_bs)

    def run_block(block: int, size: int) -> np.ndarray:
        detect = stream_from_seed(seed, stream_base, block)
        if not delayed:
            d0 = int(sample_counts(p_fixed, size, detect)[0])
            return np.array([size, d0, 0, 0, 0, 0], dtype=np.int64)
        choice = stream_from_seed(seed, stream_base + 1, block)
        p = config.p_present
        n_present = int(sample_counts((p, 1.0 - p), size, choice)[0])
        d0_present = int(sample_counts(p_closed, n_present, detect)[0])
        d0_absent = int(sample_counts(p_open, size - n_present, detect)[0])
        return np.array(
            [size, d0_present + d0_absent, n_present, d0_present, size - n_present, d0_absent],
            dtype=np.int64,
        )

    totals = sum(map_partitions(n, workers, run_block))
    by_choice = None
    if delayed:
        by_choice = {
            "present": ChoiceStats(
                n=int(totals[2]), count_d0=int(totals[3]), count_d1=int(totals[2] - totals[3])
            ),
            "absent": ChoiceStats(
                n=int(totals[4]), count_d0=int(totals[5]), count_d1=int(totals[4] - totals[5])
            ),
        }
    return MziStats(
        n=int(totals[0]),
        count_d0=int(totals[1]),
        count_d1=int(totals[0] - totals[1]),
        by_choice=by_choice,
    )


def _two_proportion_z(x1: int, n1: int, x2: int, n2: int) -> float:
    """Pooled two-proportion z statistic; 0.0 when the pooled variance vanishes."""
    p1 = x1 / n1
    p2 = x2 / n2
    pooled = (x1 + x2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var <= 0.0:
        return 0.0
    return (p1 - p2) / math.sqrt(var)


@dataclass(frozen=True)
class TimingInvarianceReport:
    """Delayed-choice conditional statistics against the fixed configuration."""

    phase: float
    choice: str
    n_conditional: int
    conditional_fraction_d0: float
    fixed_n: int
    fixed_fraction_d0: float
    z_value: float
    within_4_sigma: bool


def choice_timing_invariance(
    delayed_config: MziConfig,
    fixed_config: MziConfig,
    n: int,
    seed: int = 0,
    workers: int = 1,
    stream_base: int = 0,
) -> TimingInvarianceReport:
    """Compare delayed-random statistics, conditioned on the fixed config's
    choice, against an independent fixed-config run of the same size.

    The delayed run draws from stream indices stream_base and stream_base + 1,
    the fixed run from stream_base + 2, all under the same seed. Agreement
    within 4 sigma is the operational statement that the timing of the choice
    leaves no statistical signature.
    """
    if delayed_config.choice_policy != "delayed-random":
        raise ValueError("first config must use the delayed-random policy")
    if fixed_config.choice_policy != "fixed":
        raise ValueError("second config must use the fixed policy")
    if delayed_config.phase != fixed_config.phase:
        raise ValueError(
            f"configs must share a phase, got {delayed_config.phase} and {fixed_config.phase}"
        )
    delayed_stats = run_mzi(
        delayed_config, n, seed=seed, workers=workers, stream_base=stream_base
    )
    fixed_stats = run_mzi(
        fixed_config, n, seed=seed, workers=workers, stream_base=stream_base + 2
    )
    branch = "present" if fixed_config.second_bs else "absent"
    cond = delayed_stats.by_choice[branch]
    if cond.n == 0:
        raise ValueError(
            f"delayed run produced no {branch!r} samples; "
            f"p_present={delayed_config.p_present} cannot exercise this comparison"
        )
    z = _two_proportion_z(cond.count_d0, cond.n, fixed_stats.count_d0, fixed_stats.n)
    return TimingInvarianceReport(
        phase=delayed_config.phase,
        choice=branch,
        n_conditional=cond.n,
        conditional_fraction_d0=cond.count_d0 / cond.n,
        fixed_n=fixed_stats.n,
        fixed_fraction_d0=fixed_stats.fraction_d0(),
        z_value=z,
        within_4_sigma=abs(z) <= 4.0,
    )
