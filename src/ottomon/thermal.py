"""Thermalization strokes and the finite-coupling equilibrium state.

Two channel families are provided: ``PerfectMap`` projects any input onto a
fixed target state, and ``LindbladMap`` is the exact finite-time solution of
the damped two-level master equation in the energy basis.  Both are linear,
so they can be applied to non-Hermitian branch operators as well as states.

``generalized_gibbs`` computes the second-order finite-coupling correction to
the bare Gibbs state for an Ohmic bath with a squared-Drude cutoff, coupled
through an operator with both diagonal and off-diagonal components.  Its
double integral is one fixed numpy quadrature: Gauss-Legendre panels in
imaginary time, halving toward the boundary layers, times a trapezoid rule in
log frequency.  The population correction and the coherence are within
1e-12 relative of a refined rule over the bath range stated in its docstring,
and every exponent is non-positive, so the state is finite at any beta*eps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .qubit import StrokeHamiltonian, gibbs_population, validate_density_matrix
from .superop import TRACE_VEC, sector_coupling, unvec, vec

DECOUPLING_TOL = 1e-12
# Quadrature of the generalized-Gibbs state (see ``generalized_gibbs``).
PANEL_NODES = 16
INNER_PANEL_FRACTION = 1.0 / 16.0
LOG_OMEGA_STEP = 0.25
LOG_OMEGA_WINDOW = (-38.0, 20.0)


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


@cache
def _quadrature_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], and the log-frequency grid.

    Built on the first call rather than at import, then kept for the process.
    The frequency grid is omega / omega_d = exp(x) on the x window with step
    ``LOG_OMEGA_STEP``; the second pair holds exp(x) and its trapezoid weight.
    """
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    low, high = LOG_OMEGA_WINDOW
    offsets = np.arange(low, high + 0.5 * LOG_OMEGA_STEP, LOG_OMEGA_STEP)
    scaled = np.exp(offsets)
    rules = (0.5 * (nodes + 1.0), 0.5 * weights, scaled, LOG_OMEGA_STEP * scaled)
    for array in rules:  # shared by every caller
        array.flags.writeable = False
    return rules


def bath_correlation_imaginary_time(lam: np.ndarray, bath: BathSpec) -> np.ndarray:
    """Imaginary-time bath correlation function at times ``lam`` in [0, beta].

    C(lam) = (1/2pi) * Int_0^inf dw J(w) cosh(w(beta/2 - lam))/sinh(beta w/2),
    with the ratio written as (e^{-w lam} + e^{-w(beta - lam)}) / (1 - e^{-beta w})
    so that no exponent is positive.  The integral runs over log w: the
    trapezoid rule on the fixed grid of ``_quadrature_rules`` converges
    geometrically, since the integrand is analytic in a strip of half-width
    pi/2 about the real log-frequency axis and decays at least as e^{-|x|}
    beyond the window.  All times are evaluated at once.
    """
    _, _, scaled, scaled_weights = _quadrature_rules()
    beta = bath.beta
    omega = bath.omega_d * scaled
    # J(w) dw / (1 - e^{-beta w}) stays finite where 1/(1 - e^{-beta w}) alone overflows.
    weights = (
        bath.omega_d
        * scaled_weights
        * _spectral_density(omega, bath.gamma, bath.omega_d)
        / -np.expm1(-beta * omega)
    )
    lam = np.asarray(lam, dtype=float)[..., None]
    return (np.exp(-lam * omega) + np.exp((lam - beta) * omega)) @ weights / (2.0 * np.pi)


def generalized_gibbs(bath: BathSpec, h: StrokeHamiltonian) -> ThermalState:
    """Second-order finite-coupling equilibrium state of the qubit.

    Returns the population and coherence of the reduced equilibrium state for
    a coupling operator with unit diagonal and off-diagonal components.  The
    coherence carries a bath-dependent orientation (positive for the cold
    bath, negative for the hot one), reflecting the phase convention of the
    local energy eigenbasis on each side of the cycle.

    With d_bare the bare Gibbs population and C the bath correlation,

        d = d_bare (1 + 4 P / (1 + e^{-2 beta eps})),
        P = Int_0^beta (beta - lam) sinh(2 eps lam) C(lam) dlam,
        |q| = |d_bare Q| / eps,
        Q = Int_0^beta [e^{2 beta eps}(e^{-2 eps lam} - 1) + e^{2 eps lam} - 1] C(lam) dlam.

    Folding [0, beta] onto u in [0, beta/2] by C(lam) = C(beta - lam), with
    v = beta - u and s = d_bare e^{2 beta eps} = 1 / (1 + e^{-2 beta eps}),

        d = d_bare + 2 s^2 Int_0^{beta/2} [v e^{-2 eps v} (1 - e^{-4 eps u})
                                          + u e^{-2 eps u} (1 - e^{-4 eps v})] C(u) du,
        |q| = (2 s / eps) Int_0^{beta/2} (1 - e^{-2 eps u}) (1 - e^{-2 eps v}) C(u) du,

    where no exponent is positive, so the state is finite at any beta*eps.
    [0, beta/2] is cut into Gauss-Legendre panels of ``PANEL_NODES`` nodes,
    [beta/4, beta/2], [beta/8, beta/4], ..., halving toward u = 0 until the
    innermost panel is shorter than ``INNER_PANEL_FRACTION`` times
    min(1/(2 eps), 1/omega_d), the widths of the boundary layers at u = 0.
    C is evaluated at all nodes at once (``bath_correlation_imaginary_time``).

    Accuracy: over 900 baths drawn log-uniformly from beta in [1e-4, 1e4],
    omega_d in [1e-4, 1e3] and eps in [1e-3, 1e4], the state agrees with a
    refined rule (64 nodes a panel, an innermost panel 16 times shorter,
    log-frequency step 0.07 on the window (-50, 30)) within 1e-12 relative in
    q and within 1e-12 * |d - d_bare| + 2e-16 in d; the largest deviations
    seen were 6.5e-14 in q and 4.7e-14 of d - d_bare.  Both corrections are
    linear in gamma, so these bounds hold at every gamma.  At the default
    cold and hot baths and at (beta, gamma, omega_d, eps) = (10, 1, 5, 10)
    and (360, 0.025, 0.2, 1), the state agrees with 20-digit mpmath
    quadrature of P and Q within 6e-17 in d and 3e-16 relative in q.
    """
    beta = bath.beta
    eps = h.epsilon
    d_bare = gibbs_population(beta, eps)
    if bath.gamma == 0.0:
        return ThermalState(d=d_bare, q=0.0)

    nodes, weights, _, _ = _quadrature_rules()
    half = 0.5 * beta
    innermost = INNER_PANEL_FRACTION * min(0.5 / eps, 1.0 / bath.omega_d)
    halvings = max(0, int(np.ceil(np.log2(half) - np.log2(innermost))))
    right = half * 0.5 ** np.arange(halvings + 1)
    width = right - np.append(right[1:], 0.0)
    u = ((right - width)[:, None] + width[:, None] * nodes).ravel()
    panel_weights = (width[:, None] * weights).ravel()
    weighted_correlation = panel_weights * bath_correlation_imaginary_time(u, bath)

    v = beta - u
    scale = 1.0 / (1.0 + np.exp(-2.0 * beta * eps))
    decay_u, decay_v = np.exp(-2.0 * eps * u), np.exp(-2.0 * eps * v)
    rise_u, rise_v = -np.expm1(-2.0 * eps * u), -np.expm1(-2.0 * eps * v)
    # 1 - e^{-4 eps x} = (1 - e^{-2 eps x}) (1 + e^{-2 eps x})
    population = v * decay_v * rise_u * (1.0 + decay_u) + u * decay_u * rise_v * (1.0 + decay_v)
    d = d_bare + 2.0 * scale * scale * (weighted_correlation @ population)
    coherence_magnitude = 2.0 * scale * (weighted_correlation @ (rise_u * rise_v)) / eps
    orientation = 1.0 if bath.label == "cold" else -1.0
    return ThermalState(d=float(d), q=orientation * float(coherence_magnitude))
