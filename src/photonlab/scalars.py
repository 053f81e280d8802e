"""The scalar pieces of the package that need no arrays: angles reduced to
the polarization range, measurement bases, probability snapping, the names
of the random words and of the sampler on them, and the sampler's constants.

This module loads no numpy, so a run that works on a few scalars (the
protocol) imports it without core. core re-exports the model's names, and
rng and draw, the array and the one-count forms of the sampler, take its
constants from here.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Probabilities within PROB_SNAP of exact 0 or 1 are snapped to the exact value.
# cos(pi/2) in doubles is ~6.1e-17, so crossed-polarizer extinction, eigenstate
# measurement, and equal-basis pair anti-correlation would otherwise miss their
# exact branch; every genuine probability in scope is many orders larger.
PROB_SNAP = 1e-15

# Algebraic identities hold to ALGEBRA_ATOL; core's precondition checks are looser.
ALGEBRA_ATOL = 1e-12

# The count chain of a long Monte Carlo sweep (core.sample_count_array), the
# one array path left, works through at most this many points at a time, so
# its temporaries (a few hundred bytes per point) stay bounded whatever the
# number of points. It is the binomial sampler's slice too (rng.SLICE_BLOCKS),
# so the chain holds no more rows at once than the sampler draws for.
SLICE_POINTS = 2**14

# A Monte Carlo sweep of at most this many points computes its probabilities
# with math and draws its counts row by row with draw.counts, without numpy;
# a larger one computes and draws them as arrays. Both give the same counts.
# A four-outcome row costs about 40 us in Python floats, and the arrays about
# 2 ms plus 3 us a row once numpy is loaded, so the two break even near here
# even before the row path's saving of numpy's import (about 0.1 s on a
# 2-vCPU x86-64 VM with OPENBLAS_NUM_THREADS=1, a median of 10 processes).
SCALAR_ROWS = 64

# the uniform words, numpy's Philox-4x64 sequence (rng); a result that draws
# no count depends on nothing else and keeps the name of 0.9
WORDS_ID = "numpy-philox-4x64"
# the words and the binomial sampler on them; every Monte Carlo result carries it
ALGORITHM_ID = "numpy-philox-4x64/btrd"

# Philox-4x64-10: the two round multipliers and the two key increments, one
# per multiplied word
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10

# the sampler computes in float64, so its law is exact to rounding up to
# 2^53 trials; beyond 2^62 a count would not fit int64 on the way back
MAX_BINOMIAL_TRIALS = 2**62
# a draw of mean n * min(p, 1 - p) below this inverts the cdf; BTRD needs 10
INVERSION_MEAN = 10.0
# log k! minus its Stirling form (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2,
# for k = 0..9; above 9, a series (Hoermann 1993)
STIRLING_TAIL = (
    0.08106146679532726, 0.04134069595540929, 0.02767792568499834, 0.02079067210376509,
    0.01664469118982119, 0.01387612882307075, 0.01189670994589177, 0.01041126526197209,
    0.009255462182712733, 0.008330563433362871,
)


def check_u64(value, name: str) -> int:
    """value as an int, which must be an unsigned 64-bit integer (a seed or a
    stream index)."""
    value = int(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return value


def point_list(values):
    """values (one number, a flat sequence of numbers or a 1-D array) as a list
    of floats when it holds at most SCALAR_ROWS numbers, else None: the
    points a sweep draws row by row."""
    if isinstance(values, (int, float)):
        return [float(values)]
    return [float(v) for v in values] if len(values) <= SCALAR_ROWS else None


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the polarization range [0, pi)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    # fmod is exact at any size; + 0.0 turns its -0.0 into 0.0
    reduced = math.fmod(theta, math.pi) + 0.0
    if reduced < 0.0:
        reduced += math.pi
    # a tiny negative remainder rounds up to pi
    return 0.0 if reduced == math.pi else reduced


def snap_probability(p: float) -> float:
    """Clamp to [0, 1] and snap double-precision noise onto exact 0 and 1."""
    p = float(p)
    if p <= PROB_SNAP:
        return 0.0
    if p >= 1.0 - PROB_SNAP:
        return 1.0
    return p


class MeasurementBasis(namedtuple("MeasurementBasis", "theta")):
    """A polarization measurement axis; angles are directions mod pi, so theta
    is the canonical angle in [0, pi)."""

    __slots__ = ()

    def __new__(cls, theta: float):
        return tuple.__new__(cls, (canonical_angle(theta),))

    def aligned(self):
        """Eigenvector for outcome 0, |theta>, a core.StateVector."""
        return self.eigenvector(0)

    def orthogonal(self):
        """Eigenvector for outcome 1, |theta + pi/2>, a core.StateVector."""
        return self.eigenvector(1)

    def eigenvector(self, outcome: int):
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        from .core import _eigenvector

        return _eigenvector(self.theta, outcome)


def _coerce_basis(basis) -> MeasurementBasis:
    """basis itself if it is a MeasurementBasis, else the basis at that angle."""
    return basis if isinstance(basis, MeasurementBasis) else MeasurementBasis(basis)
