"""Polarizer cascades in analytic (density-operator) and Monte Carlo modes,
and the closed-form stage pass probabilities of a natural or linear source.

A polarizer is a projective measurement in its axis basis: the aligned outcome
is transmitted and re-polarized along the axis, the orthogonal outcome is
absorbed. Intensity is the dimensionless fraction of source photons, so an
unpolarized source halves through a single polarizer and a crossed pair
extinguishes the beam, while inserting an intermediate diagonal axis restores
one eighth of the source.

The analytic mode folds one beam through one cascade, a stage at a time;
every CLI cascade and sweep reports the closed-form stage pass probabilities
instead.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

# numpy and core load with the first density-operator call, so a Monte Carlo
# cascade, which draws each stage's count with draw, and the closed-form
# stages import neither
from .scalars import canonical_angle

if TYPE_CHECKING:
    import numpy as np

    from .core import DensityOperator

SOURCE_KINDS = ("natural", "linear")


class LightBeam(namedtuple("LightBeam", "rho intensity")):
    """A beam with a polarization DensityOperator rho and a photon-fraction intensity."""

    __slots__ = ()

    def __new__(cls, rho: DensityOperator, intensity: float):
        if not (isinstance(intensity, (int, float)) and math.isfinite(intensity)):
            raise ValueError(f"intensity must be finite, got {intensity!r}")
        if intensity < 0.0:
            raise ValueError(f"intensity must be >= 0, got {intensity!r}")
        return tuple.__new__(cls, (rho, float(intensity)))


class CascadeResult(namedtuple("CascadeResult", "axes per_stage_intensity per_stage_counts "
                                                "n_source seed", defaults=(None,) * 4)):
    """Stagewise output of a polarizer cascade, analytic or Monte Carlo.

    An analytic cascade gives per_stage_intensity, a Monte Carlo one
    per_stage_counts out of n_source photons, drawn under seed.
    """

    __slots__ = ()

    def fractions(self) -> tuple[float, ...]:
        """Per-stage intensity, with MC counts normalized by the source size."""
        if self.per_stage_intensity is not None:
            return self.per_stage_intensity
        return tuple(c / self.n_source for c in self.per_stage_counts)

    def final_intensity(self) -> float:
        """Intensity after the last stage."""
        return self.fractions()[-1]


def natural_light() -> LightBeam:
    """Unpolarized unit-intensity source: rho = identity/2."""
    from .core import DensityOperator

    return LightBeam(rho=DensityOperator.maximally_mixed(2), intensity=1.0)


def linear_light(theta: float, intensity: float = 1.0) -> LightBeam:
    """Fully polarized beam at the given angle."""
    from .core import DensityOperator, ket_from_angle

    return LightBeam(rho=DensityOperator.from_pure(ket_from_angle(theta)), intensity=intensity)


def _transmit(rho: np.ndarray, intensity: float, theta: float) -> tuple[float, np.ndarray]:
    """One polarizer stage at the canonical axis angle theta: (intensity *
    <theta|rho|theta>, |theta><theta|) for a 2x2 operator rho. The transmitted
    beam is pure along the axis regardless of its input."""
    from .core import _eigenvector, _expectation

    v = _eigenvector(theta, 0).amplitudes
    return intensity * _expectation(rho, v), v[:, None] * v.conj()


def _validate_axes(axes) -> tuple[float, ...]:
    axes = tuple(float(a) for a in axes)
    if len(axes) == 0:
        raise ValueError("axes must be a non-empty list of angles")
    for a in axes:
        if not math.isfinite(a):
            raise ValueError(f"axis angle must be finite, got {a!r}")
    return axes


def cascade_analytic(beam: LightBeam, axes) -> CascadeResult:
    """Fold the polarizer stages over the axes, a sequence of angles, recording
    the intensity after each stage."""
    axes = _validate_axes(axes)
    rho, intensity = beam.rho.matrix, beam.intensity
    stages = []
    for axis in axes:
        intensity, rho = _transmit(rho, intensity, canonical_angle(axis))
        stages.append(intensity)
    return CascadeResult(axes=axes, per_stage_intensity=tuple(stages))


def malus_law(a: float, b: float) -> float:
    """cos^2(b - a): the probability that a photon polarized along a passes an
    ideal polarizer at b (Malus's law), unsnapped."""
    return math.cos(b - a) ** 2


def stage_pass_probabilities(axes, source: str = "natural",
                             source_angle: float = 0.0) -> list[float]:
    """The probability that a photon entering each stage of the cascade passes
    it, unsnapped: 1/2 for stage 0 under the natural source (a uniformly
    random linear polarization, averaged) and malus_law(source_angle, axis_0)
    under the linear one; malus_law(axis_{i-1}, axis_i) for stage i > 0, since
    a survivor leaves polarized along its stage's axis.

    cascade_mc draws with exactly these values; their snapped running products
    are the cascade's analytic stage intensities, which the CLI reports for a
    natural or linear source.
    """
    axes = _validate_axes(axes)
    if source not in SOURCE_KINDS:
        raise ValueError(f"source must be one of {SOURCE_KINDS}, got {source!r}")
    first = 0.5 if source == "natural" else malus_law(canonical_angle(source_angle), axes[0])
    return [first] + [malus_law(a, b) for a, b in zip(axes, axes[1:])]


def cascade_mc(
    n_photons: int,
    axes,
    source: str = "natural",
    source_angle: float = 0.0,
    seed: int = 0,
    workers: int = 1,
) -> CascadeResult:
    """Monte Carlo cascade: count the photons that survive each stage.

    A photon passes a stage with the Born weight of the aligned outcome,
    stage_pass_probabilities, and a survivor leaves polarized along the stage
    axis. So each stage count is one two-outcome draw.counts chain over
    (pass, absorb) and the previous stage's survivors, never a draw per
    photon, its binomial draws numbered on in stage order on the stream
    (seed, 0). A stage whose count is certain (no survivor left, or a snapped
    pass probability of 0 or 1) makes no draw.

    workers is accepted and ignored: since 0.8.0 a run is a handful of draws
    on one thread, and callers written for earlier versions still pass it.
    """
    axes = _validate_axes(axes)
    if n_photons < 1:
        raise ValueError(f"n_photons must be >= 1, got {n_photons}")
    p_pass = stage_pass_probabilities(axes, source, source_angle)
    # loaded here, so an analytic run never imports it
    from . import draw

    key = draw.stream_key(seed, 0)
    draws = 0
    counts = []
    alive = n_photons
    for p in p_pass:
        (alive, _), made = draw.counts((p, 1.0 - p), alive, key, draws)
        draws += made
        counts.append(alive)
    return CascadeResult(
        axes=axes,
        per_stage_counts=tuple(counts),
        n_source=n_photons,
        seed=seed,
    )
