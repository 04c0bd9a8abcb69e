"""Two-level working substance: states, stroke Hamiltonians, stroke unitaries.

All matrices are written in the instantaneous energy-label basis
(|ground>, |excited>) of the relevant stroke Hamiltonian; the change of frame
between the compressed and expanded configurations is carried entirely by the
work-stroke unitaries, never by explicit basis objects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-12


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 2x2 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -POSITIVITY_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


@dataclass(frozen=True)
class StrokeHamiltonian:
    """Half-gap ``epsilon`` Hamiltonian diag(-epsilon, +epsilon)."""

    epsilon: float
    label: str = "cold"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.label not in ("cold", "hot"):
            raise ValueError("label must be 'cold' or 'hot'")

    @property
    def matrix(self) -> np.ndarray:
        return np.diag([-self.epsilon, self.epsilon]).astype(complex)

    @property
    def energies(self) -> np.ndarray:
        return np.array([-self.epsilon, self.epsilon])


@dataclass(frozen=True)
class WorkStrokeParams:
    """Transition probability ``alpha`` and phase ``phi`` of a work stroke."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def projector(level: int) -> np.ndarray:
    """Rank-1 projector onto energy level 0 (ground) or 1 (excited)."""
    if level not in (0, 1):
        raise ValueError("level must be 0 (ground) or 1 (excited)")
    p = np.zeros((2, 2), dtype=complex)
    p[level, level] = 1.0
    return p


def build_forward_unitary(params: WorkStrokeParams) -> np.ndarray:
    """Compression-stroke unitary mapping cold labels to hot labels.

    Rows index the expanded (hot) energy labels, columns the compressed
    (cold) ones; alpha is the probability of a transition between the ground
    and excited labels.
    """
    root_stay = np.sqrt(1.0 - params.alpha)
    root_flip = np.sqrt(params.alpha)
    phase = np.exp(1j * params.phi)
    return np.array(
        [
            [root_stay * phase, root_flip],
            [-root_flip, root_stay * np.conj(phase)],
        ],
        dtype=complex,
    )


def build_reverse_unitary(params: WorkStrokeParams) -> np.ndarray:
    """Expansion-stroke unitary of the time-reversed protocol.

    Equals the entrywise complex conjugate of the adjoint of the forward
    unitary (conjugation by the antiunitary time-reversal operation, taken
    as plain complex conjugation).
    """
    root_stay = np.sqrt(1.0 - params.alpha)
    root_flip = np.sqrt(params.alpha)
    phase = np.exp(1j * params.phi)
    return np.array(
        [
            [root_stay * phase, -root_flip],
            [root_flip, root_stay * np.conj(phase)],
        ],
        dtype=complex,
    )


def landau_zener_params(eps_c: float, eps_h: float, t1: float) -> WorkStrokeParams:
    """Stroke parameters of a linear sweep of duration ``t1/2`` per stroke.

    The adiabaticity exponent is delta = eps_c*t1 / (4*sqrt((eps_h/eps_c)^2-1));
    the transition probability is exp(-2*pi*delta) and the phase follows the
    standard asymptotic connection formula involving arg Gamma(1 - i*delta).
    """
    if not eps_h > eps_c > 0:
        raise ValueError("need eps_h > eps_c > 0")
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    delta = eps_c * t1 / (4.0 * np.sqrt((eps_h / eps_c) ** 2 - 1.0))
    alpha = np.exp(-2.0 * np.pi * delta)
    phi = (
        np.pi / 4.0
        - delta * (np.log(delta) - 1.0)
        - np.imag(loggamma(1.0 - 1j * delta))
    )
    return WorkStrokeParams(alpha=float(alpha), phi=float(phi))


def gibbs_population(beta: float, epsilon: float) -> float:
    """Excited-level population of the Gibbs state at inverse temperature beta.

    Past |beta epsilon| = 700, near the overflow of cosh, it is the exact
    double limit: 0 for beta epsilon > 0 and 1 below.
    """
    exponent = beta * epsilon
    if abs(exponent) > 700.0:
        return 0.0 if exponent > 0 else 1.0
    return float(np.exp(-exponent) / (2.0 * np.cosh(exponent)))
