"""Engine configuration and the tilted single-cycle map.

A cycle consists of four projective energy contacts interleaved with the two
work strokes and the two thermalization strokes.  Tilting every contact by a
counting variable of the energy it records turns the cycle into a 4x4
superoperator whose entries are Laurent polynomials in the two work-lattice
variables (full counting statistics); its coefficients are the per-cycle
transfer operators grouped by integer lattice increment.  The lattice applies
the four contacts (:func:`cycle_contacts`) directly; :func:`tilted_sums`
reduces the coefficients to the cycle map, the moment step and the rates.
The pointers add Gaussian noise to every record (:func:`pointer_covariance`);
the accumulated ones reach the state only through a fold of the initial
state (``asymptotics.prepare_initial_state``), valid on thermal channels
that keep the population and coherence sectors apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit import (
    WorkStrokeParams,
    build_forward_unitary,
    build_reverse_unitary,
    gibbs_population,
    landau_zener_params,
)
from .superop import conjugation, sector_coupling
from .thermal import (
    DECOUPLING_TOL,
    BathSpec,
    LindbladMap,
    PerfectMap,
    ThermalState,
    generalized_gibbs,
)

SCHEMES = ("RM", "RC1", "RC2")
# Output label of each readout paired with the scheme whose cycle map it
# shows: one and two accumulated pointers share one map.
READOUTS = (("RM", "RM"), ("RC", "RC2"))
# Schemes with a joint (work, heat) record: a lone accumulated pointer records
# only one observable.
JOINT_SCHEMES = ("RM", "RC2")
OBSERVABLES = ("work", "heat")
INIT_KINDS = ("invariant", "gibbs_cold", "generalized_gibbs_cold", "custom")
# Largest per-cycle work-lattice increment on either axis.
MAX_SHIFT = 2


@dataclass(frozen=True)
class DirectStroke:
    """Work stroke specified directly by transition probability and phase."""

    alpha: float
    phi: float = 0.0


@dataclass(frozen=True)
class LandauZenerStroke:
    """Work stroke of a linear sweep with total work-stroke duration ``t1``."""

    t1: float


@dataclass(frozen=True)
class PerfectThermo:
    """Perfect thermalization onto fixed target states.

    ``targets`` selects bare Gibbs states, the finite-coupling generalized
    Gibbs states, or explicitly supplied custom states.
    """

    beta_c: float
    beta_h: float
    gamma: float = 0.0
    omega_d: float = 0.2
    targets: str = "gibbs"
    custom_cold: ThermalState | None = None
    custom_hot: ThermalState | None = None

    def __post_init__(self) -> None:
        if self.targets not in ("gibbs", "generalized_gibbs", "custom"):
            raise ValueError("targets must be gibbs, generalized_gibbs or custom")
        if self.targets == "custom" and (
            self.custom_cold is None or self.custom_hot is None
        ):
            raise ValueError("custom targets require custom_cold and custom_hot")


@dataclass(frozen=True)
class LindbladThermo:
    """Imperfect thermalization of dimensionless duration ``theta`` per stroke.

    ``omega_d`` is the bath cutoff of the generalized-Gibbs initial state.
    """

    beta_c: float
    beta_h: float
    gamma: float
    theta: float
    omega_d: float = 0.2

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be non-negative")


@dataclass(frozen=True)
class EngineConfig:
    """Complete set of engine parameters consumed by every computational front end."""

    eps_c: float = 1.0
    eps_h: float = 3.7
    stroke: DirectStroke | LandauZenerStroke = DirectStroke(alpha=0.05, phi=0.0)
    thermo: PerfectThermo | LindbladThermo = LindbladThermo(
        beta_c=0.25, beta_h=0.025, gamma=0.025, theta=8.0
    )
    sigma: float = 0.2
    cycles: int = 1
    scheme: str = "RM"
    init: str = "invariant"
    init_custom: ThermalState | None = None

    def __post_init__(self) -> None:
        if not self.eps_h > self.eps_c > 0:
            raise ValueError("need eps_h > eps_c > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        # The pointer overlaps and the sweep exponent square these values.
        squared = {"eps_c": self.eps_c, "eps_h": self.eps_h, "sigma": self.sigma}
        squared["eps_h / eps_c"] = self.eps_h / self.eps_c
        for key, value in squared.items():
            if value != 0.0 and not 0.0 < value * value < np.inf:
                raise ValueError(f"{key} squared overflows or underflows ({value:g})")
        if self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.init not in INIT_KINDS:
            raise ValueError(f"init must be one of {INIT_KINDS}")
        if self.init == "custom" and self.init_custom is None:
            raise ValueError("custom init requires init_custom")


@dataclass
class EngineModel:
    """Numeric objects derived from an :class:`EngineConfig`.

    It holds derived objects only: the half-gaps, the pointer width and every
    other engine value are read from ``config``, their one home.
    """

    config: EngineConfig
    stroke_params: WorkStrokeParams
    forward_unitary: np.ndarray
    reverse_unitary: np.ndarray
    cold_channel: PerfectMap | LindbladMap
    hot_channel: PerfectMap | LindbladMap


def resolve_stroke_params(config: EngineConfig) -> WorkStrokeParams:
    if isinstance(config.stroke, DirectStroke):
        return WorkStrokeParams(alpha=config.stroke.alpha, phi=config.stroke.phi)
    return landau_zener_params(config.eps_c, config.eps_h, config.stroke.t1)


def perfect_targets(
    thermo: PerfectThermo, eps_c: float, eps_h: float
) -> tuple[ThermalState, ThermalState]:
    if thermo.targets == "custom":
        return thermo.custom_cold, thermo.custom_hot
    if thermo.targets == "gibbs":
        return (
            ThermalState(d=gibbs_population(thermo.beta_c, eps_c)),
            ThermalState(d=gibbs_population(thermo.beta_h, eps_h)),
        )
    cold_bath = BathSpec(thermo.beta_c, thermo.gamma, thermo.omega_d, "cold")
    hot_bath = BathSpec(thermo.beta_h, thermo.gamma, thermo.omega_d, "hot")
    return generalized_gibbs(cold_bath, eps_c), generalized_gibbs(hot_bath, eps_h)


def build_model(config: EngineConfig) -> EngineModel:
    """Resolve stroke parameters, unitaries and thermal channels."""
    params = resolve_stroke_params(config)
    if isinstance(config.thermo, PerfectThermo):
        target_cold, target_hot = perfect_targets(config.thermo, config.eps_c, config.eps_h)
        cold_channel = PerfectMap(target_cold)
        hot_channel = PerfectMap(target_hot)
    else:
        t = config.thermo
        cold_bath = BathSpec(t.beta_c, t.gamma, label="cold")
        hot_bath = BathSpec(t.beta_h, t.gamma, label="hot")
        cold_channel = LindbladMap(cold_bath, config.eps_c, t.theta)
        hot_channel = LindbladMap(hot_bath, config.eps_h, t.theta)
    return EngineModel(
        config=config,
        stroke_params=params,
        forward_unitary=build_forward_unitary(params),
        reverse_unitary=build_reverse_unitary(params),
        cold_channel=cold_channel,
        hot_channel=hot_channel,
    )


def contact_suppression(epsilon: float, sigma: float) -> float:
    """Pointer overlap factor of one mismatched contact at half-gap epsilon."""
    if sigma == 0.0:
        return 0.0
    return float(np.exp(-(epsilon**2) / (2.0 * sigma**2)))


def require_sector_separation(model: EngineModel, scheme: str) -> None:
    """Refuse accumulated-pointer schemes on channels that mix sectors.

    The accumulated pointers reduce to the initial-state fold only when no
    thermal channel converts populations into coherences or back; both the
    lattice and the moment recursion rest on that reduction.  Per-stroke
    readout does not, so RM always passes.
    """
    if scheme == "RM":
        return
    for channel in (model.cold_channel, model.hot_channel):
        violation = sector_coupling(channel.superoperator())
        if violation > DECOUPLING_TOL:
            raise ValueError(
                "thermal channel mixes population and coherence sectors "
                f"(violation {violation:.3e}); the accumulated-pointer "
                "lattice reduction does not apply"
            )


def apply_contact(
    values: np.ndarray, axis: int, power: int, overlap: float
) -> np.ndarray:
    """Multiply by the contact factor diag(z^-power, w, w, z^power).

    ``values`` holds four operator components on its first axis, the two
    populations first and last and the coherence sector between them (vec
    order [rho00, rho10, rho01, rho11], or its real Hermitian counterpart),
    and lattice axes after; ``z`` is the counting variable of array ``axis``.
    The lattice box grows by one step on each side of that axis: the ground
    population moves ``power`` steps down, the excited one ``power`` steps
    up, and the coherences stay in place scaled by the overlap ``w``.
    """
    shape = list(values.shape)
    length = shape[axis]
    shape[axis] += 2
    out = np.zeros(shape, dtype=values.dtype)

    def at(component, start: int) -> tuple:
        index = [component] + [slice(None)] * (len(shape) - 1)
        index[axis] = slice(start, start + length)
        return tuple(index)

    out[at(0, 1 - power)] = values[0]
    out[at(3, 1 + power)] = values[3]
    np.multiply(values[1:3], overlap, out=out[at(slice(1, 3), 1)])
    return out


def cycle_contacts(
    model: EngineModel, scheme: str
) -> tuple[tuple[int, int, float, np.ndarray], ...]:
    """The four tilted contacts of one cycle, in order, each with its stroke.

    Each entry is (lattice axis, exponent sign, overlap, stroke): the contact
    factor C(z) = diag(1/z, w, w, z) on vec(rho) = [rho00, rho10, rho01, rho11]
    raised to the exponent sign, with z the counting variable of the lattice
    axis (0 for the cold contacts, 1 for the hot ones) and w the overlap,
    followed by the superoperator of the stroke after the contact.  ``w`` is
    the pointer overlap of a mismatched contact for per-stroke readout and 1
    for the accumulated pointers, whose suppression reduces to the
    initial-state fold.  Together they make up the tilted cycle map
    K(x, y) = Cold C(x) Rev C(1/y) Hot C(y) Fwd C(1/x).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "RM":
        config = model.config
        w_cold = contact_suppression(config.eps_c, config.sigma)
        w_hot = contact_suppression(config.eps_h, config.sigma)
    else:
        w_cold = w_hot = 1.0
    return (
        (0, -1, w_cold, conjugation(model.forward_unitary)),
        (1, 1, w_hot, model.hot_channel.superoperator()),
        (1, -1, w_hot, conjugation(model.reverse_unitary)),
        (0, 1, w_cold, model.cold_channel.superoperator()),
    )


def tilted_cycle_coefficients(model: EngineModel, scheme: str) -> np.ndarray:
    """Coefficients of the tilted single-cycle map of a monitoring scheme.

    K(x, y) = Cold C(x) Rev C(1/y) Hot C(y) Fwd C(1/x) (see
    :func:`cycle_contacts`) is a Laurent polynomial in the work-lattice
    counting variables: the coefficient of x^a y^b sums every contact-outcome
    branch whose work center moves by a*eps_c + b*eps_h (and heat center by
    -b*eps_h) per cycle.  Returns G with G[a + MAX_SHIFT, b + MAX_SHIFT] the
    4x4 coefficient of x^a y^b; G.sum(axis=(0, 1)) is K(1, 1), the cycle map
    itself.
    """
    # Rows, columns, then the x and y lattice axes, each growing to
    # 2 MAX_SHIFT + 1 points.
    coeffs = np.eye(4, dtype=complex).reshape(4, 4, 1, 1)
    for axis, power, overlap, stroke in cycle_contacts(model, scheme):
        moved = apply_contact(coeffs, 2 + axis, power, overlap)
        coeffs = np.tensordot(stroke, moved, axes=1)
    return coeffs.transpose(2, 3, 0, 1)


def cycle_increments(model: EngineModel) -> tuple[np.ndarray, np.ndarray]:
    """Work and heat increments of the tilted-map coefficients G[a, b].

    Returns the 5x5 arrays a*eps_c + b*eps_h and -b*eps_h, indexed like the
    first two axes of :func:`tilted_cycle_coefficients`.
    """
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1)
    eps_c, eps_h = model.config.eps_c, model.config.eps_h
    work = steps[:, None] * eps_c + steps[None, :] * eps_h
    heat = np.broadcast_to(-steps[None, :] * eps_h, work.shape)
    return work, heat


def tilted_sums(model: EngineModel, scheme: str) -> np.ndarray:
    """Zero-field sums of the tilted-map coefficients G, as one (6, 4, 4) array.

    K0 = sum G, the cycle map K(1, 1), then sum x G, q G, x^2 G, q^2 G and
    x q G, with x and q the work and heat increments (:func:`cycle_increments`).
    """
    coeffs = tilted_cycle_coefficients(model, scheme)
    x, q = cycle_increments(model)
    weighted = np.einsum("kab,abij->kij", np.array([x, q, x * x, q * q, x * q]), coeffs)
    return np.concatenate([coeffs.sum(axis=(0, 1))[None], weighted])


def pointer_covariance(scheme: str, cycles: int, sigma: float) -> np.ndarray:
    """(work, heat) covariance the pointers add to every mixture component.

    Per-stroke readout adds pointer noise at each of the four contacts of
    every cycle, 2 N sigma^2 [[2, -1], [-1, 1]] after N cycles; the
    accumulated pointers are read once at the end, sigma^2 on each record.
    """
    if scheme == "RM":
        return 2.0 * cycles * sigma**2 * np.array([[2.0, -1.0], [-1.0, 1.0]])
    return sigma**2 * np.eye(2)
