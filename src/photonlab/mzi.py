"""Wheeler delayed-choice Mach-Zehnder interferometer.

The model is the minimal two-mode one: a balanced beamsplitter, a phase shift
on one arm, and an optional second beamsplitter. With the second beamsplitter
in place the detectors see the interference fringe (1 + cos phi)/2 =
cos^2(phi/2); without it they see the arms directly, flat at exactly 1/2. The
delayed-random policy decides presence or absence of the second beamsplitter
per photon, after the arm superposition is formed in the simulated event
sequence; the testable content is that per-choice conditional statistics match
the fixed configurations.

The detector probabilities are those closed forms, evaluated with math for one
phase and with numpy for arrays by the same IEEE steps, so the two agree bit
for bit and a phase's counts do not depend on which path drew them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

# numpy and core load only for a sweep of more than SCALAR_ROWS phases
from .scalars import point_list, snap_probability

if TYPE_CHECKING:
    import numpy as np

CHOICE_POLICIES = ("fixed", "delayed-random")


def _check_phase(phase) -> float:
    if not (isinstance(phase, (int, float)) and math.isfinite(phase)):
        raise ValueError(f"phase must be finite, got {phase!r}")
    return float(phase)


def _d0_probability(phase: float, second_bs: bool) -> float:
    """P(D0) at one phase: (1 + cos phase)/2, snapped, with the second
    beamsplitter, and exactly 1/2 without it."""
    return snap_probability((1.0 + math.cos(phase)) / 2.0) if second_bs else 0.5


def detector_probabilities(phase: float, second_bs: bool) -> tuple[float, float]:
    """Detection probabilities (D0, D1) from their closed forms.

    D1 is computed as the exact complement so the pair always sums to 1.
    """
    p0 = _d0_probability(_check_phase(phase), second_bs)
    return p0, 1.0 - p0


def detector_probability_array(phases, second_bs: bool) -> np.ndarray:
    """(P, 2) rows of detector_probabilities, one per phase (radians), with
    numpy's cos in place of math's: the same IEEE steps, so each row equals
    detector_probabilities of its phase bit for bit."""
    import numpy as np

    from .core import snap_probability_array

    phases = np.asarray(phases, dtype=np.float64).reshape(-1)
    if not np.isfinite(phases).all():
        raise ValueError(f"phase must be finite, got {float(phases[~np.isfinite(phases)][0])!r}")
    if second_bs:
        p0 = snap_probability_array((1.0 + np.cos(phases)) / 2.0)
    else:
        p0 = np.full(phases.shape, 0.5)
    return np.stack([p0, 1.0 - p0], axis=1)


class MziConfig(namedtuple("MziConfig", "phase second_bs choice_policy p_present")):
    """One interferometer setup; p_present only matters for delayed-random."""

    __slots__ = ()

    def __new__(cls, phase: float, second_bs: bool = True, choice_policy: str = "fixed",
                p_present: float = 0.5):
        phase = _check_phase(phase)
        if choice_policy not in CHOICE_POLICIES:
            raise ValueError(
                f"choice_policy must be one of {CHOICE_POLICIES}, got {choice_policy!r}"
            )
        if not 0.0 <= p_present <= 1.0:
            raise ValueError(f"p_present must be in [0, 1], got {p_present!r}")
        return tuple.__new__(cls, (phase, second_bs, choice_policy, float(p_present)))


class ChoiceStats(namedtuple("ChoiceStats", "n count_d0 count_d1")):
    """Counts conditioned on one realized choice of the second beamsplitter."""

    __slots__ = ()


class MziStats(namedtuple("MziStats", "n count_d0 count_d1 by_choice", defaults=(None,))):
    """Detector counts of one run; a delayed-random run also keeps its
    ChoiceStats by choice ("present", "absent"). Runs compare and hash by
    identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def fraction_d0(self) -> float:
        return self.count_d0 / self.n


def run_mzi(
    config: MziConfig,
    n: int,
    seed: int = 0,
    mode: str = "mc",
    stream_base: int = 0,
) -> MziStats:
    """Send n photons through the interferometer.

    Analytic mode (fixed policy only) reports deterministic expected counts,
    count_d0 = round(n * P(D0)). Monte Carlo mode draws counts with
    draw.counts, never one draw per photon. A fixed run draws its D0 count
    from the stream (seed, stream_base). A delayed-random run first draws how
    many of the photons find the second beamsplitter present from the
    separate stream (seed, stream_base + 1), then the D0 counts of the present
    and of the absent photons, in that order, from the detection stream, the
    absent count's draws numbered on after the present count's. An empty
    branch draws nothing, so a degenerate policy (p_present 0 or 1) reproduces
    the corresponding fixed run exactly. The choice is applied only at the
    second beamsplitter, never to the arm superposition, which is the
    delayed-choice ordering.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("mc", "analytic"):
        raise ValueError(f"mode must be 'mc' or 'analytic', got {mode!r}")
    delayed = config.choice_policy == "delayed-random"
    if mode == "analytic" and delayed:
        raise ValueError("analytic mode supports fixed configurations only")
    if not delayed:
        count_d0 = _d0_counts([config.phase], config.second_bs, n, seed, mode, stream_base, 1)[0]
        return MziStats(n=n, count_d0=count_d0, count_d1=n - count_d0)
    from . import draw

    detect = draw.stream_key(seed, stream_base)
    p = config.p_present
    (n_present, _), _ = draw.counts((p, 1.0 - p), n, draw.stream_key(seed, stream_base + 1), 0)
    n_absent = n - n_present
    (d0_present, _), drawn = draw.counts(detector_probabilities(config.phase, True), n_present,
                                         detect, 0)
    (d0_absent, _), _ = draw.counts(detector_probabilities(config.phase, False), n_absent,
                                    detect, drawn)
    by_choice = {
        "present": ChoiceStats(n=n_present, count_d0=d0_present, count_d1=n_present - d0_present),
        "absent": ChoiceStats(n=n_absent, count_d0=d0_absent, count_d1=n_absent - d0_absent),
    }
    count_d0 = d0_present + d0_absent
    return MziStats(n=n, count_d0=count_d0, count_d1=n - count_d0, by_choice=by_choice)


def _d0_counts(phases, second_bs, n, seed, mode, stream_base, stream_step):
    """The D0 counts of a fixed-configuration run_mzi of n photons at each
    phase: phase i draws from stream (seed, stream_base + stream_step * i),
    exactly as run_mzi(MziConfig(phase, second_bs), n, seed, mode,
    stream_base=stream_base + stream_step * i) does. For at most SCALAR_ROWS
    phases they are a list of ints, from math's closed form and one
    draw.counts chain per phase; for more an int64 array, from numpy's and
    core.sample_count_array. The two paths give the same counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("mc", "analytic"):
        raise ValueError(f"mode must be 'mc' or 'analytic', got {mode!r}")
    points = point_list(phases)
    if points is None:
        import numpy as np

        from .core import sample_count_array

        probs = detector_probability_array(phases, second_bs)
        if mode == "analytic":
            # round half to even, as Python's round does
            return np.rint(n * probs[:, 0]).astype(np.int64)
        indices = range(stream_base, stream_base + stream_step * probs.shape[0], stream_step)
        return sample_count_array(probs, n, seed, indices)[:, 0]
    p0 = [_d0_probability(_check_phase(phase), second_bs) for phase in points]
    if mode == "analytic":
        return [round(n * p) for p in p0]
    from . import draw

    return [draw.counts((p, 1.0 - p), n, draw.stream_key(seed, stream_base + stream_step * i),
                        0)[0][0] for i, p in enumerate(p0)]


def _two_proportion_z(x1: int, n1: int, x2: int, n2: int) -> float:
    """Pooled two-proportion z statistic; 0.0 when the pooled variance vanishes."""
    p1 = x1 / n1
    p2 = x2 / n2
    pooled = (x1 + x2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var <= 0.0:
        return 0.0
    return (p1 - p2) / math.sqrt(var)


class TimingInvarianceReport(namedtuple("TimingInvarianceReport",
                                        "phase choice n_conditional conditional_fraction_d0 "
                                        "fixed_n fixed_fraction_d0 z_value within_4_sigma")):
    """Delayed-choice conditional statistics against the fixed configuration."""

    __slots__ = ()


def choice_timing_invariance(
    delayed_config: MziConfig,
    fixed_config: MziConfig,
    n: int,
    seed: int = 0,
    stream_base: int = 0,
) -> TimingInvarianceReport:
    """Compare delayed-random statistics, conditioned on the fixed config's
    choice, against an independent fixed-config run of the same size.

    The delayed run draws from stream indices stream_base and stream_base + 1,
    the fixed run from stream_base + 2, all under the same seed. Agreement
    within 4 sigma is the operational statement that the timing of the choice
    leaves no statistical signature. A draw that leaves the compared branch
    empty makes no comparison: the report then has n_conditional 0 and None
    for conditional_fraction_d0, z_value and within_4_sigma. A policy that can
    never take the branch raises ValueError.
    """
    if delayed_config.choice_policy != "delayed-random":
        raise ValueError("first config must use the delayed-random policy")
    if fixed_config.choice_policy != "fixed":
        raise ValueError("second config must use the fixed policy")
    if delayed_config.phase != fixed_config.phase:
        raise ValueError(
            f"configs must share a phase, got {delayed_config.phase} and {fixed_config.phase}"
        )
    branch = "present" if fixed_config.second_bs else "absent"
    if delayed_config.p_present == (0.0 if fixed_config.second_bs else 1.0):
        raise ValueError(
            f"p_present={delayed_config.p_present} never gives the {branch!r} branch a "
            "sample, so it cannot exercise this comparison"
        )
    delayed_stats = run_mzi(delayed_config, n, seed=seed, stream_base=stream_base)
    fixed_stats = run_mzi(fixed_config, n, seed=seed, stream_base=stream_base + 2)
    cond = delayed_stats.by_choice[branch]
    z = None
    if cond.n:
        z = _two_proportion_z(cond.count_d0, cond.n, fixed_stats.count_d0, fixed_stats.n)
    return TimingInvarianceReport(
        phase=delayed_config.phase,
        choice=branch,
        n_conditional=cond.n,
        conditional_fraction_d0=cond.count_d0 / cond.n if cond.n else None,
        fixed_n=fixed_stats.n,
        fixed_fraction_d0=fixed_stats.fraction_d0(),
        z_value=z,
        within_4_sigma=abs(z) <= 4.0 if cond.n else None,
    )
