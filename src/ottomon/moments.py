"""Moments of work and heat: the moment recursion, closed forms and metrics.

The moment recursion differentiates the tilted cycle map at zero counting
field and gives the mixture moments after any number of cycles without a
lattice.  For one cycle, the population dynamics is a four-step Markov chain
over the energy sign at each contact, which gives every first and second
moment of work and heat in closed form for a diagonal initial state.  Pointer
readout adds scheme-dependent constants (the mixture widths) and, for
accumulating pointers, an interference term from coherences that survive the
hot stroke.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .asymptotics import prepare_initial_state, resolve_initial_state
from .engine import (
    MAX_SHIFT,
    OBSERVABLES,
    SCHEMES,
    EngineConfig,
    EngineModel,
    LindbladThermo,
    PerfectThermo,
    build_model,
    fold_required,
    heat_variance,
    joint_covariance,
    perfect_targets,
    require_sector_separation,
    tilted_cycle_coefficients,
    work_variance,
)
from .superop import trace_of_vec, vec
from .thermal import ThermalState


class MomentSet(NamedTuple):
    """First and second moments (<W>, <Q>, <W^2>, <Q^2>, <WQ>)."""

    mean_work: float
    mean_heat: float
    second_work: float
    second_heat: float
    cross: float

    @property
    def work_variance(self) -> float:
        return self.second_work - self.mean_work**2

    @property
    def heat_variance(self) -> float:
        return self.second_heat - self.mean_heat**2


def _chain_moments(
    eps_c: float, eps_h: float, alpha: float, d_init: float, t_hot: float, decay: float
) -> MomentSet:
    """Moments of the four-contact sign chain at zero pointer width.

    ``t_hot`` is the equilibrium sign bias of the hot bath (1 - 2 p_eq) and
    ``decay`` the population relaxation factor across one hot stroke; perfect
    thermalization corresponds to decay = 0.
    """
    abar = 1.0 - 2.0 * alpha
    d0 = 2.0 * d_init - 1.0
    c = np.array([-eps_c, eps_h, -eps_h, eps_c])

    s1 = d0
    s2 = abar * d0
    s3 = -t_hot * (1.0 - decay) + decay * s2
    s4 = abar * s3
    s = np.array([s1, s2, s3, s4])

    s12 = abar
    s13 = -t_hot * (1.0 - decay) * s1 + decay * s12
    s14 = abar * s13
    s23 = -t_hot * (1.0 - decay) * s2 + decay
    s24 = abar * s23
    s34 = abar

    mean_work = float(c @ s)
    mean_heat = eps_h * (s3 - s2)
    pair_sum = (
        c[0] * c[1] * s12
        + c[0] * c[2] * s13
        + c[0] * c[3] * s14
        + c[1] * c[2] * s23
        + c[1] * c[3] * s24
        + c[2] * c[3] * s34
    )
    second_work = float((c**2).sum() + 2.0 * pair_sum)
    second_heat = 2.0 * eps_h**2 * (1.0 - s23)
    cross = eps_h * (
        c[0] * (s13 - s12)
        + c[1] * (s23 - 1.0)
        + c[2] * (1.0 - s23)
        + c[3] * (s34 - s24)
    )
    return MomentSet(mean_work, mean_heat, second_work, second_heat, float(cross))


def analytic_moments_perfect(engine: EngineConfig | EngineModel) -> MomentSet:
    """Single-cycle moments for perfect thermalization at zero pointer width.

    The cycle starts in the cold target state, which is also the invariant
    state of the perfectly thermalized cycle.
    """
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    config = model.config
    if not isinstance(config.thermo, PerfectThermo):
        raise ValueError("closed form requires perfect thermalization")
    target_cold, target_hot = perfect_targets(
        config.thermo, model.h_cold, model.h_hot
    )
    return _chain_moments(
        eps_c=config.eps_c,
        eps_h=config.eps_h,
        alpha=model.stroke_params.alpha,
        d_init=target_cold.d,
        t_hot=1.0 - 2.0 * target_hot.d,
        decay=0.0,
    )


def perfect_readout_moments(
    engine: EngineConfig | EngineModel,
) -> dict[str, MomentSet] | None:
    """Single-cycle RM and RC moments for perfect thermalization.

    The zero-width closed form plus the pointer terms of each readout: the
    per-stroke pointers add 4 sigma^2 to <W^2>, 2 sigma^2 to <Q^2> and
    -2 sigma^2 to <WQ>; the accumulated pointers add sigma^2 to each second
    moment.  None when a target state carries coherence, which the closed
    form does not describe.
    """
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    config = model.config
    if not isinstance(config.thermo, PerfectThermo):
        raise ValueError("closed form requires perfect thermalization")
    target_cold, target_hot = perfect_targets(
        config.thermo, model.h_cold, model.h_hot
    )
    if abs(target_cold.q) > 0 or abs(target_hot.q) > 0:
        return None
    base = analytic_moments_perfect(model)
    sig2 = config.sigma**2
    return {
        "RM": MomentSet(
            base.mean_work,
            base.mean_heat,
            base.second_work + 4.0 * sig2,
            base.second_heat + 2.0 * sig2,
            base.cross - 2.0 * sig2,
        ),
        "RC": MomentSet(
            base.mean_work,
            base.mean_heat,
            base.second_work + sig2,
            base.second_heat + sig2,
            base.cross,
        ),
    }


def analytic_moments_lindblad(
    engine: EngineConfig | EngineModel, initial: ThermalState | np.ndarray
) -> dict[str, MomentSet]:
    """Leading-order single-cycle moments per scheme for finite-time baths.

    Valid through the leading pointer-width corrections for diagonal initial
    states: initial coherences enter only at higher order.  The per-stroke
    readout scheme keeps the sign-chain values plus its mixture widths, while
    accumulating pointers retain the coherence interference term generated at
    the first contact, which oscillates with the hot-stroke phase.
    """
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    config = model.config
    if not isinstance(config.thermo, LindbladThermo):
        raise ValueError("this closed form requires finite-time thermalization")
    thermo = config.thermo
    if isinstance(initial, ThermalState):
        d_init = initial.d
    else:
        d_init = float(np.asarray(initial)[1, 1].real)
    alpha = model.stroke_params.alpha
    phi = model.stroke_params.phi
    sigma = config.sigma
    theta = thermo.theta
    base = _chain_moments(
        eps_c=config.eps_c,
        eps_h=config.eps_h,
        alpha=alpha,
        d_init=d_init,
        t_hot=float(np.tanh(thermo.beta_h * config.eps_h)),
        decay=float(np.exp(-2.0 * thermo.gamma * theta)),
    )
    coherence = float(np.exp(-thermo.gamma * theta) * np.cos(2.0 * (theta + phi)))
    osc_mean = -4.0 * config.eps_c * alpha * (1.0 - alpha) * (1.0 - 2.0 * d_init)
    osc_second = -8.0 * config.eps_c**2 * alpha * (1.0 - alpha)
    rm = MomentSet(
        mean_work=base.mean_work,
        mean_heat=base.mean_heat,
        second_work=base.second_work + 4.0 * sigma**2,
        second_heat=base.second_heat + 2.0 * sigma**2,
        cross=base.cross - 2.0 * sigma**2,
    )
    rc = MomentSet(
        mean_work=base.mean_work + osc_mean * coherence,
        mean_heat=base.mean_heat,
        second_work=base.second_work + osc_second * coherence + sigma**2,
        second_heat=base.second_heat + sigma**2,
        cross=base.cross,
    )
    return {"RM": rm, "RC": rc}


def efficiency(moments: MomentSet) -> float | None:
    """Work output over heat input, None when no heat flows."""
    if moments.mean_heat == 0.0:
        return None
    return -moments.mean_work / moments.mean_heat


def reliability(moments: MomentSet) -> float:
    """Negated mean work over its standard deviation."""
    variance = moments.work_variance
    if variance <= 0.0:
        return np.inf if moments.mean_work < 0 else -np.inf
    return -moments.mean_work / float(np.sqrt(variance))


def power_output(mean_work: float, t1: float, t2: float) -> float:
    """Work output per unit total cycle duration."""
    if t1 <= 0 or t2 <= 0:
        raise ValueError("durations must be positive")
    return -mean_work / (t1 + t2)


def moment_series(
    engine: EngineConfig | EngineModel,
    scheme: str,
    n_max: int,
    initial: np.ndarray | None = None,
) -> list[MomentSet]:
    """Mixture moments after 1..n_max cycles, read off the tilted cycle map.

    With K(l, m) = sum_ab exp(l x_ab + m q_b) G[a, b], where x_ab = a eps_c +
    b eps_h and q_b = -b eps_h are the work and heat increments of the
    coefficient G[a, b], the moments after N cycles are the derivatives of
    Tr K(l, m)^N rho at zero counting field (full counting statistics).  The
    Taylor coefficients of K(l, m)^N rho to second order obey

        v <- K0 v
        d <- K0 d + K1 v                      (per observable)
        s <- K0 s + K1 d + K2 v / 2           (per observable)
        c <- K0 c + K_w d_q + K_q d_w + K_wq v

    with K0 = sum G, K1 = sum x G, K2 = sum x^2 G, K_wq = sum x q G, and give
    <X> = Tr d, <X^2> = 2 Tr s and <WQ> = Tr c; the pointer terms are added
    as in the assembled mixtures.  Work and heat start from their own
    prepared initial states; RC1 folds only the work one and has no joint
    record, so its cross moment is nan.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    require_sector_separation(model, scheme)
    coeffs = tilted_cycle_coefficients(model, scheme)
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1)
    x = steps[:, None] * model.h_cold.epsilon + steps[None, :] * model.h_hot.epsilon
    q = np.broadcast_to(-steps[None, :] * model.h_hot.epsilon, x.shape)

    def weighted(increment: np.ndarray) -> np.ndarray:
        return np.einsum("ab,abij->ij", increment, coeffs)

    k0 = coeffs.sum(axis=(0, 1))
    k_w, k_q = weighted(x), weighted(q)
    zero = np.zeros((4, 4), dtype=complex)
    # Block lower-triangular step of the coefficient stack (v, d_w, d_q, s_w,
    # s_q, c).
    step = np.block(
        [
            [k0, zero, zero, zero, zero, zero],
            [k_w, k0, zero, zero, zero, zero],
            [k_q, zero, k0, zero, zero, zero],
            [0.5 * weighted(x * x), k_w, zero, k0, zero, zero],
            [0.5 * weighted(q * q), zero, k_q, zero, k0, zero],
            [weighted(x * q), k_q, k_w, zero, zero, k0],
        ]
    )
    rho = resolve_initial_state(model, initial)
    stack = np.zeros((24, 2), dtype=complex)
    for column, observable in enumerate(OBSERVABLES):
        stack[:4, column] = vec(prepare_initial_state(model, scheme, observable, rho))
    joint = fold_required(scheme, "work") == fold_required(scheme, "heat")
    sigma = model.sigma
    out = []
    for n in range(1, n_max + 1):
        stack = step @ stack
        # Block traces; column 0 starts from the work state, 1 from the heat one.
        tr = trace_of_vec(stack.reshape(6, 4, 2).transpose(0, 2, 1)).real
        cross = tr[5, 0] + joint_covariance(scheme, n, sigma)[0, 1] if joint else np.nan
        out.append(
            MomentSet(
                float(tr[1, 0]),
                float(tr[2, 1]),
                float(2.0 * tr[3, 0] + work_variance(scheme, n, sigma)),
                float(2.0 * tr[4, 1] + heat_variance(scheme, n, sigma)),
                float(cross),
            )
        )
    return out


def work_per_cycle_series(
    engine: EngineConfig | EngineModel,
    scheme: str,
    n_max: int,
    initial: np.ndarray | None = None,
) -> list[tuple[int, float, float]]:
    """Cumulative work statistics per cycle count.

    Returns one row (N, <W>_N / N, R_N) per cycle, where R is the negated
    mean over the standard deviation of the accumulated work record.
    """
    rows = []
    for n, moments in enumerate(moment_series(engine, scheme, n_max, initial), 1):
        variance = moments.work_variance
        mean = moments.mean_work
        rel = -mean / np.sqrt(variance) if variance > 0 else np.inf
        rows.append((n, mean / n, float(rel)))
    return rows
