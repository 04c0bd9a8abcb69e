"""Closed-form single-cycle moments and engine performance metrics.

The population dynamics of one cycle is a four-step Markov chain over the
energy sign at each contact, which gives every first and second moment of
work and heat in closed form for a diagonal initial state.  Pointer readout
adds scheme-dependent constants (the mixture widths) and, for accumulating
pointers, an interference term from coherences that survive the hot stroke.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .engine import (
    EngineConfig,
    EngineModel,
    LindbladThermo,
    PerfectThermo,
    perfect_targets,
    build_model,
)
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


def moments_from_tuple(values: tuple[float, float, float, float, float]) -> MomentSet:
    """Wrap a raw (<W>, <Q>, <W^2>, <Q^2>, <WQ>) tuple."""
    return MomentSet(*values)
