"""Cycle superoperators, invariant states, spectral gaps and asymptotic rates.

The accumulated effect of one full cycle on the working substance is a 4x4
superoperator; with monitoring it additionally carries partial dephasing at
every contact.  Its fixed point is the engine's periodic asymptotic state and
its second-largest eigenvalue modulus sets the geometric convergence rate of
all per-cycle averages.  Every route also takes its starting state from here
(:func:`initial_state`), with the first-contact fold that the accumulated
pointers apply to it (:func:`prepare_initial_state`).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import (
    EngineConfig,
    EngineModel,
    LandauZenerStroke,
    LindbladThermo,
    build_model,
    contact_suppression,
    tilted_sums,
)
from .qubit import gibbs_population, validate_density_matrix
from .superop import TRACE_VEC, trace_of_vec, hermitize, vec, unvec
from .thermal import BathSpec, generalized_gibbs

FIXED_POINT_TOL = 1e-10
DEGENERACY_TOL = 1e-9

class DegenerateFixedPointError(ValueError):
    """The cycle map has more than one eigenvalue at 1."""


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a cycle superoperator sorted by decreasing modulus."""

    eigenvalues: np.ndarray
    lambda2: float


def build_cycle_superoperator(
    engine: EngineConfig | EngineModel, scheme: str
) -> np.ndarray:
    """The four strokes composed, with contact dephasing for per-stroke readout.

    The accumulated-pointer schemes share the unmonitored cycle channel: the
    pointers leave the reduced dynamics untouched.  Per-stroke readout (RM)
    damps off-diagonals by the pointer overlap factor at each of the four
    contacts.  Both are the tilted cycle map at unit counting variables,
    K(1, 1), a 4x4 matrix acting on column-stacked states.
    """
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    return tilted_sums(model, scheme)[0]


def spectrum(matrix: np.ndarray) -> SpectrumReport:
    """All four eigenvalues of a cycle map and the second-largest modulus."""
    eigvals = np.linalg.eigvals(matrix)
    order = np.argsort(-np.abs(eigvals))
    eigvals = eigvals[order]
    return SpectrumReport(eigenvalues=eigvals, lambda2=float(abs(eigvals[1])))


def invariant_state(matrix: np.ndarray) -> np.ndarray:
    """Unit-trace fixed point of the cycle channel.

    Solves the bordered system [M - I; Tr] x = [0; 1], which pins the trace
    instead of normalizing an eigenvector.  Raises
    :class:`DegenerateFixedPointError` when the eigenvalue 1 is not simple
    (this happens exactly when the cycle contains no dissipation).
    """
    eigvals = np.linalg.eigvals(matrix)
    distance = np.abs(eigvals - 1.0)
    if (distance <= DEGENERACY_TOL).sum() > 1:
        raise DegenerateFixedPointError(
            "cycle map has a degenerate eigenvalue 1; no unique invariant state"
        )
    closest = int(np.argmin(distance))
    if distance[closest] > FIXED_POINT_TOL:
        raise RuntimeError(
            f"no eigenvalue at 1 (closest: {eigvals[closest]}); "
            "channel is not trace-preserving"
        )
    system = np.vstack([matrix - np.eye(4), TRACE_VEC])
    rhs = np.zeros(5, dtype=complex)
    rhs[4] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    rho = hermitize(unvec(solution))
    rho /= np.trace(rho).real
    residual = np.abs(unvec(matrix @ vec(rho)) - rho).max()
    if residual > 1e-12:
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds 1e-12")
    validate_density_matrix(rho)
    return rho


def initial_state(
    engine: EngineConfig | EngineModel, *, initial: np.ndarray | None = None
) -> np.ndarray:
    """The given initial density matrix, or else the configured one.

    ``invariant`` refers to the fixed point of the unmonitored cycle channel,
    the state the engine relaxes to when run without any readout.
    """
    if initial is not None:
        return np.asarray(initial, dtype=complex)
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    config = model.config
    if config.init == "invariant":
        return invariant_state(build_cycle_superoperator(model, "RC2"))
    if config.init == "custom":
        return config.init_custom.matrix
    thermo = config.thermo
    if config.init == "gibbs_cold":
        d = gibbs_population(thermo.beta_c, config.eps_c)
        return np.array([[1.0 - d, 0.0], [0.0, d]], dtype=complex)
    bath = BathSpec(thermo.beta_c, thermo.gamma, thermo.omega_d, "cold")
    return generalized_gibbs(bath, model.h_cold).matrix


def prepare_initial_state(
    model: EngineModel, scheme: str, observable: str, initial: np.ndarray | None = None
) -> np.ndarray:
    """The initial state of one readout, with the first-contact fold it needs.

    The accumulated-pointer record differences telescope across the chain,
    leaving only the overlap factor of the very first contact; it acts on the
    initial state as a partial dephasing in the cold energy basis.  Both
    accumulated-pointer work marginals carry this imprint; the heat marginal
    carries it only when the work pointer exists and is traced out (two
    pointers).  Per-stroke readout needs no fold: its suppression factors are
    all per-contact and live in the branch weights.
    """
    rho = initial_state(model, initial=initial)
    if scheme == "RM" or (scheme == "RC1" and observable == "heat"):
        return rho
    overlap = contact_suppression(model.h_cold.epsilon, model.sigma)
    return rho * np.array([[1.0, overlap], [overlap, 1.0]])


def asymptotic_work_heat(
    engine: EngineConfig | EngineModel, scheme: str
) -> tuple[float, float]:
    """Mean work and hot-bath heat per cycle once the invariant state is reached.

    Tr[K_w rho] and Tr[K_q rho] at the fixed point rho of K(1, 1), from
    :func:`tilted_sums`; per-stroke readout carries its suppression in them.
    """
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    k0, k_w, k_q = tilted_sums(model, scheme)[:3]
    rho = vec(invariant_state(k0))
    work, heat = (complex(trace_of_vec(k @ rho)) for k in (k_w, k_q))
    for name, total in (("work", work), ("heat", heat)):
        if abs(total.imag) > 1e-12:
            raise RuntimeError(
                f"asymptotic {name} has imaginary residue {total.imag:.3e}"
            )
    return work.real, heat.real


def theta_from_thermal_duration(t2: float, eps_c: float, eps_h: float) -> float:
    """Invert T2 = theta * (1/eps_h + 1/eps_c) for the dimensionless theta."""
    if t2 <= 0:
        raise ValueError("thermal stroke duration must be positive")
    return t2 * eps_c * eps_h / (eps_c + eps_h)


def thermal_duration_from_theta(theta: float, eps_c: float, eps_h: float) -> float:
    """Total duration of both thermalization strokes for a given theta."""
    return theta * (1.0 / eps_h + 1.0 / eps_c)


def derive_timed_config(config: EngineConfig, t1: float, t2: float) -> EngineConfig:
    """Rebuild a config with stroke durations (t1, t2) driving its parameters.

    A linear-sweep stroke takes its transition probability and phase from t1;
    finite-time thermalization takes its dimensionless duration from t2.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("durations must be positive")
    updates: dict = {}
    if isinstance(config.stroke, LandauZenerStroke):
        updates["stroke"] = LandauZenerStroke(t1=t1)
    if isinstance(config.thermo, LindbladThermo):
        theta = theta_from_thermal_duration(t2, config.eps_c, config.eps_h)
        updates["thermo"] = dataclasses.replace(config.thermo, theta=theta)
    return dataclasses.replace(config, **updates) if updates else config


def fit_geometric_ratio(
    deviations: np.ndarray, order: int = 3, noise_floor: float | None = None
) -> float:
    """Dominant decay ratio of a (possibly oscillating) geometric tail.

    Fits a linear recurrence of the given order to the sequence and returns
    the largest root modulus, which for a mixture of modes c_i * z_i^n is the
    modulus of the slowest-decaying mode even when it is a complex pair.

    Entries whose magnitude has fallen to the numeric noise floor carry no
    information about the decay and would bias the fit, so the sequence is
    truncated at the first entry below the floor. By default the floor is
    max(1e-12, 1e-9 * max|deviation|).
    """
    d = np.asarray(deviations, dtype=float)
    if noise_floor is None:
        noise_floor = max(1e-12, 1e-9 * float(np.abs(d).max(initial=0.0)))
    below = np.nonzero(np.abs(d) < noise_floor)[0]
    if below.size:
        d = d[: below[0]]
    if d.shape[0] < 3:
        raise ValueError("need at least 3 points above the noise floor")

    # A sequence with fewer active modes than the requested order makes the
    # least-squares system rank-deficient and its minimum-norm recurrence
    # grows spurious roots, so accept the smallest order that already fits.
    best: float | None = None
    best_residual = np.inf
    for k in range(1, order + 1):
        if d.shape[0] < 2 * k + 1:
            break
        rows = np.stack([d[j : j + d.shape[0] - k] for j in range(k)], axis=1)
        target = d[k:]
        coeffs, *_ = np.linalg.lstsq(rows, target, rcond=None)
        residual = np.linalg.norm(target - rows @ coeffs)
        relative = residual / max(np.linalg.norm(target), np.finfo(float).tiny)
        poly = np.concatenate(([1.0], -coeffs[::-1]))
        ratio = float(np.abs(np.roots(poly)).max())
        if relative < 1e-8:
            return ratio
        if relative < best_residual:
            best_residual = relative
            best = ratio
    if best is None:
        raise ValueError("not enough points above the noise floor to fit")
    return best
