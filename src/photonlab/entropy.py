"""Entropy accounting for superposition and collapse.

Outcome entropy is Shannon entropy over Born-rule probabilities in an explicit
measurement basis: a pure state carries positive entropy in any basis where
both outcomes are possible and exactly zero in its own eigenbasis. Collapse
drives the outcome entropy to zero; the report tracks that drop.

Each function takes one state, one basis or one probability vector.
binary_entropy and eigenbasis_entropy, the closed forms an entropy run
reports, run in Python floats with math; numpy and core load with the first
call that takes states or density operators.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .scalars import PROB_SNAP, _coerce_basis

_SUM_ATOL = 1e-9
_NEG_ATOL = 1e-12
# a probability at or above this snaps to 1: its outcome is certain
_CERTAIN = 1.0 - PROB_SNAP


class EntropyReport(namedtuple("EntropyReport", "before_bits after_bits delta_bits")):
    """Outcome entropy before and after one collapse, in bits."""

    __slots__ = ()


def shannon_entropy(probs) -> float:
    """H(p) = -sum p_i log2 p_i in bits, with the convention 0 log2 0 = 0.

    probs must be a probability vector: entries nonnegative up to 1e-12 noise
    and summing to 1 within 1e-9.
    """
    import numpy as np

    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a non-empty 1-d vector")
    if not np.isfinite(p).all():
        raise ValueError("probs must be finite")
    if float(p.min()) < -_NEG_ATOL:
        raise ValueError(f"negative probability {float(p.min())!r}")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    p = np.clip(p, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def _law_bits(p0: float, p1: float) -> float:
    """Shannon entropy in bits of the two-outcome law (p0, p1) once snapped
    (scalars.snap_probability), a certain outcome leaving the other
    impossible as core's Born law has it, in math: summed as
    shannon_entropy sums two outcomes, with 0 log2 0 = 0."""
    if p0 >= _CERTAIN or p1 >= _CERTAIN:
        return 0.0
    return -((p0 * math.log2(p0) if p0 > PROB_SNAP else 0.0)
             + (p1 * math.log2(p1) if p1 > PROB_SNAP else 0.0)) + 0.0


def binary_entropy(p: float) -> float:
    """H(p, 1 - p) in bits, the outcome entropy of a qubit measured in a basis
    whose aligned outcome it shows with probability p, computed from p itself:
    both probabilities snapped, 0 log2 0 = 0, and H(1/2) exactly 1."""
    return _law_bits(p, 1.0 - p)


def eigenbasis_entropy(basis) -> float:
    """The larger outcome entropy, in bits, of the basis's two eigenvectors
    |theta> = (cos theta, sin theta) and |theta_perp> = (-sin theta, cos theta),
    each measured in that basis by the Born law: what collapse in the basis
    leaves, whichever outcome occurs. It is 0, since each eigenvector's law
    is one-hot up to rounding that the snap removes."""
    theta = _coerce_basis(basis).theta
    c, s = math.cos(theta), math.sin(theta)
    return max(_law_bits((c * a0 + s * a1) ** 2, (-s * a0 + c * a1) ** 2)
               for a0, a1 in ((c, s), (-s, c)))


def qubit_superposition_entropy(state, basis) -> float:
    """Outcome entropy of a pure state measured at the given axis."""
    from .core import born_probabilities

    return shannon_entropy(born_probabilities(state, basis))


def collapse_entropy_report(state, basis) -> EntropyReport:
    """Report the outcome entropy drop of collapsing the state in the basis.

    after_bits is the larger outcome entropy of the two possible post-collapse
    states, the basis eigenvectors, so it holds whichever outcome occurs and
    needs no draw. Both are exactly 0: an eigenvector's outcome distribution
    in its own basis is one-hot.
    """
    basis = _coerce_basis(basis)
    before = qubit_superposition_entropy(state, basis)
    after = max(qubit_superposition_entropy(basis.eigenvector(o), basis) for o in (0, 1))
    return EntropyReport(before_bits=before, after_bits=after, delta_bits=after - before)


def von_neumann_entropy(rho) -> float:
    """Entropy of the eigenvalue spectrum of a density operator, in bits."""
    import numpy as np

    from .core import _coerce_density

    rho = _coerce_density(rho)
    lam = np.clip(rho.eigenvalues(), 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0
