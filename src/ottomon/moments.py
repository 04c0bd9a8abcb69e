"""Moments of work and heat: the moment recursion, closed forms and metrics.

The moment recursion differentiates the tilted cycle map at zero counting
field and gives the mixture moments after any number of cycles without a
lattice.  For one cycle from a diagonal initial state, the population
dynamics is a four-step Markov chain over the energy sign at each contact,
which gives every first and second moment of work and heat in closed form,
exactly.  The readouts differ in two ways only: pointer widths add
scheme-dependent constants, and the interference from the coherence that
the forward stroke creates reaches per-stroke readout scaled by w_h^2 (the
squared hot-contact overlap) and accumulating pointers in full.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .asymptotics import (
    asymptotic_work_heat,
    derive_timed_config,
    initial_state,
    prepare_initial_state,
)
from .engine import (
    JOINT_SCHEMES,
    OBSERVABLES,
    READOUTS,
    SCHEMES,
    EngineConfig,
    EngineModel,
    LindbladThermo,
    build_model,
    contact_suppression,
    pointer_covariance,
    require_sector_separation,
    tilted_sums,
)
from .superop import trace_of_vec, vec


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


def closed_form_moments(
    model: EngineModel, rho0: np.ndarray
) -> tuple[dict[str, MomentSet] | None, np.ndarray]:
    """Single-cycle moments per readout label and the state they start from.

    Exact at one cycle from a diagonal start.  Finite-time baths start from
    the diagonal of ``rho0``; perfect thermalization starts from the cold
    target, the invariant state of its cycle, and erases the interference.
    The forward stroke creates a coherence whose interference survives both
    hot contacts, so per-stroke readout carries it times w_h^2 (the squared
    hot-contact overlap) and accumulating pointers carry it in full.  Each
    readout then adds its mixture widths: the per-stroke pointers 4 sigma^2
    to <W^2>, 2 sigma^2 to <Q^2> and -2 sigma^2 to <WQ>, the accumulated ones
    sigma^2 to each second moment.  The forms are None when a perfect target
    carries coherence.
    """
    config = model.config
    thermo = config.thermo
    alpha = model.stroke_params.alpha
    if isinstance(thermo, LindbladThermo):
        initial = np.diag(np.diag(rho0))
        d_init = float(initial[1, 1].real)
        t_hot = float(np.tanh(thermo.beta_h * config.eps_h))
        decay = float(np.exp(-2.0 * thermo.gamma * thermo.theta))
        coherence = float(
            np.exp(-thermo.gamma * thermo.theta)
            * np.cos(2.0 * (thermo.theta + model.stroke_params.phi))
        )
    else:
        cold, hot = model.cold_channel.target, model.hot_channel.target
        initial = cold.matrix
        if abs(cold.q) > 0 or abs(hot.q) > 0:
            return None, initial
        d_init, t_hot, decay, coherence = cold.d, 1.0 - 2.0 * hot.d, 0.0, 0.0
    base = _chain_moments(config.eps_c, config.eps_h, alpha, d_init, t_hot, decay)
    osc_mean = -4.0 * config.eps_c * alpha * (1.0 - alpha) * (1.0 - 2.0 * d_init)
    osc_second = -8.0 * config.eps_c**2 * alpha * (1.0 - alpha)
    sigma = config.sigma
    w_h = contact_suppression(config.eps_h, sigma)
    forms = {}
    for label, scheme in READOUTS:
        scale = w_h**2 if scheme == "RM" else 1.0
        pointers = pointer_covariance(scheme, 1, sigma)
        forms[label] = MomentSet(
            base.mean_work + scale * (osc_mean * coherence),
            base.mean_heat,
            base.second_work + scale * (osc_second * coherence) + pointers[0, 0],
            base.second_heat + pointers[1, 1],
            base.cross + float(pointers[0, 1]),
        )
    return forms, initial


def efficiency(mean_work: float, mean_heat: float) -> float | None:
    """Work output over heat input, None when no heat flows."""
    if mean_heat == 0.0:
        return None
    return -mean_work / mean_heat


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


def asymptotic_power(engine: EngineConfig, scheme: str, t1: float, t2: float) -> float:
    """Asymptotic output power at durations (t1, t2); negative values mark a dud."""
    work, _ = asymptotic_work_heat(derive_timed_config(engine, t1, t2), scheme)
    return power_output(work, t1, t2)


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

    with K0 = sum G, K1 = sum x G, K2 = sum x^2 G and K_wq = sum x q G (the
    sums of :func:`engine.tilted_sums`), and give <X> = Tr d, <X^2> = 2 Tr s
    and <WQ> = Tr c; the pointer terms are added as in the assembled mixtures.
    Work and heat start from their own prepared initial states; RC1 folds only
    the work one and has no joint record, so its cross moment is nan.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    model = engine if isinstance(engine, EngineModel) else build_model(engine)
    require_sector_separation(model, scheme)
    k0, k_w, k_q, k_ww, k_qq, k_wq = tilted_sums(model, scheme)
    zero = np.zeros((4, 4), dtype=complex)
    # Block lower-triangular step of the coefficient stack (v, d_w, d_q, s_w,
    # s_q, c).
    step = np.block(
        [
            [k0, zero, zero, zero, zero, zero],
            [k_w, k0, zero, zero, zero, zero],
            [k_q, zero, k0, zero, zero, zero],
            [0.5 * k_ww, k_w, zero, k0, zero, zero],
            [0.5 * k_qq, zero, k_q, zero, k0, zero],
            [k_wq, k_q, k_w, zero, zero, k0],
        ]
    )
    rho = initial_state(model, initial=initial)
    stack = np.zeros((24, 2), dtype=complex)
    for column, observable in enumerate(OBSERVABLES):
        stack[:4, column] = vec(prepare_initial_state(model, scheme, observable, rho))
    joint = scheme in JOINT_SCHEMES
    sigma = model.sigma
    out = []
    for n in range(1, n_max + 1):
        stack = step @ stack
        # Block traces; column 0 starts from the work state, 1 from the heat one.
        tr = trace_of_vec(stack.reshape(6, 4, 2).transpose(0, 2, 1)).real
        pointers = pointer_covariance(scheme, n, sigma)
        cross = tr[5, 0] + pointers[0, 1] if joint else np.nan
        out.append(
            MomentSet(
                float(tr[1, 0]),
                float(tr[2, 1]),
                float(2.0 * tr[3, 0] + pointers[0, 0]),
                float(2.0 * tr[4, 1] + pointers[1, 1]),
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

    Returns one row (N, <W>_N / N, R_N) per cycle, where R_N is the
    :func:`reliability` of the accumulated work record.
    """
    series = moment_series(engine, scheme, n_max, initial)
    return [(n, m.mean_work / n, reliability(m)) for n, m in enumerate(series, 1)]
