"""Two-level working substance: states, stroke parameters, stroke unitaries.

All matrices are written in the instantaneous energy-label basis
(|ground>, |excited>) of the relevant stroke Hamiltonian; the change of frame
between the compressed and expanded configurations is carried entirely by the
work-stroke unitaries, never by explicit basis objects.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-12
# Stirling series B_2k / (2k (2k - 1)) for k = 8 down to 1 (Horner order).
_STIRLING = (
    -3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12
)
_SHIFTS = np.arange(12.0)


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
    as plain complex conjugation), which is its transpose.
    """
    return build_forward_unitary(params).T


def landau_zener_params(eps_c: float, eps_h: float, t1: float) -> WorkStrokeParams:
    """Stroke parameters of a linear sweep of duration ``t1/2`` per stroke.

    The adiabaticity exponent is delta = eps_c*t1 / (4*sqrt((eps_h/eps_c)^2-1));
    the transition probability is exp(-2*pi*delta) and the phase follows the
    standard asymptotic connection formula

        phi = pi/4 - delta*(ln delta - 1) - Im ln Gamma(1 - i*delta),

    with ln Gamma on its continuous branch (past delta ~ 4.6 it differs from
    the principal arg Gamma by 2*pi).  The recurrence
    ln Gamma(z) = ln Gamma(z + 12) - sum_k ln(z + k) moves the argument to
    w = 13 - i*delta, where the 8-term Stirling series is accurate to about
    1e-20, and each ln(z + k) has positive real part, so the sum of principal
    arguments stays on the continuous branch.  The terms of order
    delta*ln(delta) cancel analytically, leaving delta*(ln|w| - ln delta),
    so phi keeps full precision at large delta: it is within 1e-14 of
    40-digit mpmath for delta in [1e-12, 1e6].
    """
    if not eps_h > eps_c > 0:
        raise ValueError("need eps_h > eps_c > 0")
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    delta = float(eps_c * t1 / (4.0 * np.sqrt((eps_h / eps_c) ** 2 - 1.0)))
    if not 0.0 < delta < np.inf:
        raise ValueError(f"sweep exponent delta must be positive and finite (got {delta:g})")
    alpha = np.exp(-2.0 * np.pi * delta)
    z = complex(1.0, -delta)
    w = z + 12.0
    inverse = 1.0 / w
    series = 0.0
    for coefficient in _STIRLING:
        series = series * inverse * inverse + coefficient
    # ln|w| - ln delta: log1p keeps it exact at large delta, where it is tiny.
    if delta > 1.0:
        log_ratio = 0.5 * np.log1p((13.0 / delta) ** 2)
    else:
        log_ratio = np.log(abs(w)) - np.log(delta)
    phi = (
        np.pi / 4.0
        + delta * log_ratio
        - 12.5 * cmath.phase(w)
        - (series * inverse).imag
        + np.angle(z + _SHIFTS).sum()
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
