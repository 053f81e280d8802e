"""Polarizer cascades in analytic (density-operator) and Monte Carlo modes.

A polarizer is a projective measurement in its axis basis: the aligned outcome
is transmitted and re-polarized along the axis, the orthogonal outcome is
absorbed. Intensity is the dimensionless fraction of source photons, so an
unpolarized source halves through a single polarizer and a crossed pair
extinguishes the beam, while inserting an intermediate diagonal axis restores
one eighth of the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    InvalidStateError,
    MeasurementBasis,
    StateVector,
    _eigenvectors,
    _expectation,
    canonical_angle,
    canonical_angle_array,
    collapse,
    ket_from_angle,
    point_slices,
    sample_counts,
)
from .rng import RngStream, map_partitions, stream_from_seed

SOURCE_KINDS = ("natural", "linear")


@dataclass(frozen=True)
class Polarizer:
    """An ideal linear polarizer; axis is the transmission direction."""

    axis: MeasurementBasis

    @classmethod
    def at_angle(cls, theta: float) -> "Polarizer":
        return cls(MeasurementBasis(theta))


@dataclass(frozen=True)
class LightBeam:
    """A beam with a polarization density operator and a photon-fraction intensity."""

    rho: DensityOperator
    intensity: float

    def __post_init__(self):
        if not (isinstance(self.intensity, (int, float)) and math.isfinite(self.intensity)):
            raise ValueError(f"intensity must be finite, got {self.intensity!r}")
        if self.intensity < 0.0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity!r}")
        object.__setattr__(self, "intensity", float(self.intensity))


@dataclass(frozen=True)
class PhotonRecord:
    """One tracked photon; collapse_history holds (axis angle, outcome) pairs."""

    state: StateVector
    alive: bool = True
    collapse_history: tuple = ()


@dataclass(frozen=True)
class CascadeResult:
    """Stagewise output of a polarizer cascade, analytic or Monte Carlo.

    A batched cascade_analytic call holds (P, S) arrays of axes and
    intensities, one row per cascade, instead of tuples.
    """

    axes: tuple[float, ...] | np.ndarray
    per_stage_intensity: tuple[float, ...] | np.ndarray | None = None
    per_stage_counts: tuple[int, ...] | None = None
    n_source: int | None = None
    seed: int | None = None

    def fractions(self) -> tuple[float, ...] | np.ndarray:
        """Per-stage intensity, with MC counts normalized by the source size."""
        if self.per_stage_intensity is not None:
            return self.per_stage_intensity
        return tuple(c / self.n_source for c in self.per_stage_counts)

    def final_intensity(self) -> float | np.ndarray:
        """Intensity after the last stage: one float, or one per cascade of a batch."""
        fractions = self.fractions()
        return fractions[:, -1] if isinstance(fractions, np.ndarray) else fractions[-1]


def natural_light() -> LightBeam:
    """Unpolarized unit-intensity source: rho = identity/2."""
    return LightBeam(rho=DensityOperator.maximally_mixed(2), intensity=1.0)


def linear_light(theta: float, intensity: float = 1.0) -> LightBeam:
    """Fully polarized beam at the given angle."""
    return LightBeam(rho=DensityOperator.from_pure(ket_from_angle(theta)), intensity=intensity)


def _transmit(rho: np.ndarray, intensity, theta: np.ndarray):
    """One polarizer stage for P points: (intensity * <theta|rho|theta>,
    |theta><theta|) per point, for canonical axis angles theta and a (P, 2, 2)
    stack (or one 2x2 operator) rho. The transmitted beam is pure along the
    axis regardless of its input."""
    v = _eigenvectors(theta, 0)
    return intensity * _expectation(rho, v), v[:, :, None] * v.conj()[:, None, :]


def transmit_analytic(beam: LightBeam, p: Polarizer) -> LightBeam:
    """Malus-law transmission: output intensity is input times <theta|rho|theta>.

    The transmitted beam is pure along the polarizer axis regardless of input.
    """
    intensity, rho = _transmit(beam.rho.matrix, beam.intensity, np.array([p.axis.theta]))
    return LightBeam(rho=DensityOperator(rho[0]), intensity=float(intensity[0]))


def _validate_axes(axes) -> tuple[float, ...]:
    axes = tuple(float(a) for a in axes)
    if len(axes) == 0:
        raise ValueError("axes must be a non-empty list of angles")
    for a in axes:
        if not math.isfinite(a):
            raise ValueError(f"axis angle must be finite, got {a!r}")
    return axes


def cascade_analytic(beam: LightBeam, axes) -> CascadeResult:
    """Fold the polarizer stages over the axes, recording intensity after each stage.

    axes is one cascade, a sequence of S angles, or a (P, S) array of P
    cascades of the same beam. One cascade gives tuples, as cascade_mc does;
    P cascades give (P, S) arrays of axes and intensities, computed one stage
    over up to SLICE_POINTS cascades at a time. A cascade's intensities do not
    depend on which others share its call.
    """
    grid = np.asarray(axes, dtype=np.float64)
    single = grid.ndim == 1
    if single:
        grid = grid[None]
    if grid.ndim != 2 or grid.shape[1] == 0:
        raise ValueError("axes must be a non-empty list of angles or a (points, stages) array")
    theta = canonical_angle_array(grid)
    intensities = np.empty(theta.shape)
    for rows in point_slices(theta.shape[0]):
        rho, intensity = beam.rho.matrix, beam.intensity
        for stage in range(theta.shape[1]):
            intensity, rho = _transmit(rho, intensity, theta[rows, stage])
            intensities[rows, stage] = intensity
    if single:
        return CascadeResult(axes=tuple(grid[0].tolist()),
                             per_stage_intensity=tuple(intensities[0].tolist()))
    return CascadeResult(axes=grid, per_stage_intensity=intensities)


def transmit_photon_mc(photon: PhotonRecord, p: Polarizer, rng: RngStream) -> PhotonRecord:
    """Collapse one photon in the polarizer basis; aligned passes, orthogonal is absorbed."""
    if not photon.alive:
        raise InvalidStateError("photon was already absorbed")
    record = collapse(photon.state, p.axis, rng)
    history = photon.collapse_history + ((p.axis.theta, record.outcome),)
    return PhotonRecord(state=record.post_state, alive=record.outcome == 0, collapse_history=history)


def cascade_mc(
    n_photons: int,
    axes,
    source: str = "natural",
    source_angle: float = 0.0,
    seed: int = 0,
    workers: int = 1,
) -> CascadeResult:
    """Monte Carlo cascade: count the photons that survive each stage.

    A photon passes a stage with the Born weight transmit_photon_mc would use,
    and a survivor leaves polarized along the stage axis. Stage 0 passes with
    probability 1/2 for the natural source (a uniformly random linear
    polarization, averaged) and cos^2(axis - source_angle) for the linear one;
    stage i > 0 passes with cos^2(axis_i - axis_{i-1}). So each stage count is
    one binomial draw (core.sample_counts) over the previous stage's
    survivors, never a draw per photon. Block b of the photons draws its
    stage counts, in stage order, from stream_from_seed(seed, 0, b), and the
    counts are summed over blocks, so results depend on the seed and not on
    workers.
    """
    axes = _validate_axes(axes)
    if n_photons < 1:
        raise ValueError(f"n_photons must be >= 1, got {n_photons}")
    if source not in SOURCE_KINDS:
        raise ValueError(f"source must be one of {SOURCE_KINDS}, got {source!r}")
    if source == "natural":
        p_first = 0.5
    else:
        p_first = math.cos(axes[0] - canonical_angle(source_angle)) ** 2
    p_pass = [p_first] + [math.cos(b - a) ** 2 for a, b in zip(axes, axes[1:])]

    def run_block(block: int, size: int) -> np.ndarray:
        stream = stream_from_seed(seed, 0, block)
        counts = np.zeros(len(axes), dtype=np.int64)
        alive = size
        for i, p in enumerate(p_pass):
            alive = int(sample_counts((p, 1.0 - p), alive, stream)[0])
            counts[i] = alive
        return counts

    totals = sum(map_partitions(n_photons, workers, run_block))
    return CascadeResult(
        axes=axes,
        per_stage_counts=tuple(int(c) for c in totals),
        n_source=n_photons,
        seed=seed,
    )
