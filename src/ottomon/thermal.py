"""Thermalization strokes and the finite-coupling equilibrium state.

Two channel families are provided: ``PerfectMap`` projects any input onto a
fixed target state, and ``LindbladMap`` is the exact finite-time solution of
the damped two-level master equation in the energy basis.  Both are linear,
so they can be applied to non-Hermitian branch operators as well as states.

``generalized_gibbs`` computes the second-order finite-coupling correction to
the bare Gibbs state for an Ohmic bath with a squared-Drude cutoff, coupled
through an operator with both diagonal and off-diagonal components.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .qubit import StrokeHamiltonian, gibbs_population, validate_density_matrix
from .superop import TRACE_VEC, sector_coupling, unvec, vec

QUADRATURE_REL_TOL = 1e-9
DECOUPLING_TOL = 1e-12


@dataclass(frozen=True)
class BathSpec:
    """Inverse temperature, coupling rate and spectral cutoff of one bath."""

    beta: float
    gamma: float
    omega_d: float = 0.2
    label: str = "cold"

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.omega_d <= 0:
            raise ValueError("omega_d must be positive")
        if self.label not in ("cold", "hot"):
            raise ValueError("label must be 'cold' or 'hot'")


@dataclass(frozen=True)
class ThermalState:
    """Excited population ``d`` and coherence ``q`` of a qubit state."""

    d: float
    q: complex = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("population must lie in [0, 1]")

    @property
    def matrix(self) -> np.ndarray:
        rho = np.array(
            [[1.0 - self.d, np.conj(self.q)], [self.q, self.d]], dtype=complex
        )
        return validate_density_matrix(rho)


class PerfectMap:
    """Thermalization that replaces any unit-trace input by the target state."""

    def __init__(self, target: ThermalState):
        self.target = target
        self._target_matrix = target.matrix

    def apply(self, rho: np.ndarray) -> np.ndarray:
        validate_density_matrix(rho)
        return self._target_matrix.copy()

    def apply_unnormalized(self, op: np.ndarray) -> np.ndarray:
        """Linear extension target * Tr[op]; annihilates traceless inputs."""
        return self._target_matrix * np.trace(np.asarray(op, dtype=complex))

    def superoperator(self) -> np.ndarray:
        return np.outer(vec(self._target_matrix), TRACE_VEC)


class LindbladMap:
    """Exact finite-time solution of the damped qubit master equation.

    In the energy basis of ``h`` the populations relax toward the Gibbs
    values at the bath temperature with rate factor exp(-2*gamma*theta) and
    the coherences decay as exp(-gamma*theta) while rotating with the phase
    factor exp(-2i*theta) on the excited-ground element, where
    theta = epsilon * stroke duration.  The excitation and decay rates are
    fixed so that their sum is gamma*epsilon and the stationary state is the
    Gibbs state, which resolves the dissipator index convention.
    """

    def __init__(self, bath: BathSpec, h: StrokeHamiltonian, theta: float):
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.bath = bath
        self.h = h
        self.theta = theta
        self.equilibrium_population = gibbs_population(bath.beta, h.epsilon)
        self._population_decay = np.exp(-2.0 * bath.gamma * theta)
        self._coherence_factor = np.exp(-(bath.gamma + 2.0j) * theta)

    def apply_unnormalized(self, op: np.ndarray) -> np.ndarray:
        op = np.asarray(op, dtype=complex)
        total = op[0, 0] + op[1, 1]
        excited = self.equilibrium_population * total + (
            op[1, 1] - self.equilibrium_population * total
        ) * self._population_decay
        out = np.empty((2, 2), dtype=complex)
        out[0, 0] = total - excited
        out[1, 1] = excited
        out[1, 0] = op[1, 0] * self._coherence_factor
        out[0, 1] = op[0, 1] * np.conj(self._coherence_factor)
        return out

    def apply(self, rho: np.ndarray) -> np.ndarray:
        validate_density_matrix(rho)
        return self.apply_unnormalized(rho)

    def superoperator(self) -> np.ndarray:
        basis = np.eye(4, dtype=complex)
        columns = [vec(self.apply_unnormalized(unvec(b))) for b in basis]
        return np.column_stack(columns)


def decoupling_violation(channel) -> float:
    """Largest population/coherence mixing element of a channel.

    Zero (within numerical noise) exactly when the channel never converts
    populations into coherences, coherences into populations, or one
    coherence into its transpose partner.
    """
    return sector_coupling(channel.superoperator())


def _spectral_density(omega: np.ndarray, gamma: float, omega_d: float) -> np.ndarray:
    """Ohmic spectral density with squared-Drude cutoff, strength gamma*omega_d/2."""
    return 0.5 * gamma * omega_d * omega / (1.0 + (omega / omega_d) ** 2) ** 2


def bath_correlation_imaginary_time(lam: float, bath: BathSpec) -> float:
    """Imaginary-time bath correlation function at time ``lam`` in [0, beta].

    C(lam) = (1/2pi) * Int_0^inf dw J(w) cosh(w(beta/2 - lam))/sinh(beta w/2),
    evaluated in a form that is numerically stable for large w.
    """
    beta = bath.beta

    def integrand(omega: float) -> float:
        y = 0.5 * beta * omega
        a = omega * (0.5 * beta - lam)
        if y < 1e-8:
            ratio = np.cosh(a) / y
        elif y > 40.0:
            ratio = (np.exp(a - y) + np.exp(-a - y)) / (1.0 - np.exp(-2.0 * y))
        else:
            ratio = np.cosh(a) / np.sinh(y)
        return _spectral_density(omega, bath.gamma, bath.omega_d) * ratio

    split = max(5.0, 10.0 * bath.omega_d)
    head, head_err = quad(
        integrand, 0.0, split, limit=400, epsabs=0.0, epsrel=QUADRATURE_REL_TOL
    )
    tail, tail_err = quad(
        integrand, split, np.inf, limit=400, epsabs=0.0, epsrel=QUADRATURE_REL_TOL
    )
    value = head + tail
    if value != 0.0 and (head_err + tail_err) > 1e-6 * abs(value):
        raise RuntimeError("bath correlation quadrature did not converge")
    return (head + tail) / (2.0 * np.pi)


def generalized_gibbs(bath: BathSpec, h: StrokeHamiltonian) -> ThermalState:
    """Second-order finite-coupling equilibrium state of the qubit.

    Returns the population and coherence of the reduced equilibrium state for
    a coupling operator with unit diagonal and off-diagonal components.  The
    coherence carries a bath-dependent orientation (positive for the cold
    bath, negative for the hot one), reflecting the phase convention of the
    local energy eigenbasis on each side of the cycle.
    """
    beta = bath.beta
    eps = h.epsilon
    d_bare = gibbs_population(beta, eps)
    if bath.gamma == 0.0:
        return ThermalState(d=d_bare, q=0.0)

    def population_integrand(lam: float) -> float:
        return (beta - lam) * np.sinh(2.0 * eps * lam) * bath_correlation_imaginary_time(lam, bath)

    def coherence_integrand(lam: float) -> float:
        bracket = np.exp(2.0 * beta * eps) * (np.exp(-2.0 * eps * lam) - 1.0) + (
            np.exp(2.0 * eps * lam) - 1.0
        )
        return bracket * bath_correlation_imaginary_time(lam, bath)

    pop_integral, pop_err = quad(
        population_integrand, 0.0, beta, limit=200, epsabs=0.0, epsrel=QUADRATURE_REL_TOL
    )
    coh_integral, coh_err = quad(
        coherence_integrand, 0.0, beta, limit=200, epsabs=0.0, epsrel=QUADRATURE_REL_TOL
    )
    if pop_integral != 0.0 and pop_err > 1e-6 * abs(pop_integral):
        raise RuntimeError("population-shift quadrature did not converge")
    if coh_integral != 0.0 and coh_err > 1e-6 * abs(coh_integral):
        raise RuntimeError("coherence quadrature did not converge")

    d = d_bare * (1.0 + 4.0 * pop_integral / (1.0 + np.exp(-2.0 * beta * eps)))
    coherence_magnitude = abs(d_bare * coh_integral / eps)
    orientation = 1.0 if bath.label == "cold" else -1.0
    return ThermalState(d=float(d), q=orientation * coherence_magnitude)
