"""Entropy accounting for superposition and collapse.

Outcome entropy is Shannon entropy over Born-rule probabilities in an explicit
measurement basis: a pure state carries positive entropy in any basis where
both outcomes are possible and exactly zero in its own eigenbasis. Collapse
drives the outcome entropy to zero; the report tracks that drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _coerce_basis, _coerce_density, born_probabilities

_SUM_ATOL = 1e-9
_NEG_ATOL = 1e-12


@dataclass(frozen=True)
class EntropyReport:
    """Outcome entropy before and after one collapse, in bits."""

    before_bits: float
    after_bits: float
    delta_bits: float


def shannon_entropy(probs) -> float:
    """H(p) = -sum p_i log2 p_i in bits, with the convention 0 log2 0 = 0.

    probs must be a probability vector: entries nonnegative up to 1e-12 noise
    and summing to 1 within 1e-9.
    """
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


def qubit_superposition_entropy(state, basis) -> float:
    """Outcome entropy of a pure state measured at the given axis."""
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
    rho = _coerce_density(rho)
    lam = np.clip(rho.eigenvalues(), 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0
