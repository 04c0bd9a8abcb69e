"""Closed-form moments against enumeration, plus performance metrics."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import enumerated_mixture
from ottomon import (
    DirectStroke,
    EngineConfig,
    LindbladThermo,
    PerfectThermo,
    ThermalState,
)
from ottomon.engine import build_model
from ottomon.moments import (
    MomentSet,
    analytic_moments_lindblad,
    analytic_moments_perfect,
    closed_form_moments,
    efficiency,
    perfect_readout_moments,
    power_output,
    reliability,
)


def _oracle_moments(config: EngineConfig, initial: np.ndarray) -> dict[str, np.ndarray]:
    moments = {}
    for kind, scheme in (("RM", "RM"), ("RC", "RC2")):
        mix = enumerated_mixture(config, scheme, "joint", 1, initial)
        moments[kind] = np.array(mix.moments())
    return moments


def _as_array(moments: MomentSet) -> np.ndarray:
    return np.array(moments)


def test_perfect_chain_matches_enumeration_at_zero_width() -> None:
    config = EngineConfig(
        sigma=0.0,
        stroke=DirectStroke(alpha=0.05, phi=0.0),
        thermo=PerfectThermo(beta_c=0.25, beta_h=0.025),
        init="gibbs_cold",
    )
    chain = _as_array(analytic_moments_perfect(config))
    model = build_model(config)
    initial = model.cold_channel.target.matrix
    for kind, numeric in _oracle_moments(config, initial).items():
        assert_allclose(chain, numeric, atol=1e-13, err_msg=kind)


def test_perfect_chain_plus_widths_matches_enumeration_at_finite_width() -> None:
    config = EngineConfig(
        sigma=0.2,
        stroke=DirectStroke(alpha=0.05, phi=0.0),
        thermo=PerfectThermo(beta_c=0.25, beta_h=0.025),
        init="gibbs_cold",
    )
    chain = _as_array(analytic_moments_perfect(config))
    model = build_model(config)
    initial = model.cold_channel.target.matrix
    numeric = _oracle_moments(config, initial)
    widths = {
        "RM": np.array([0.0, 0.0, 4.0, 2.0, -2.0]) * config.sigma**2,
        "RC": np.array([0.0, 0.0, 1.0, 1.0, 0.0]) * config.sigma**2,
    }
    for kind in ("RM", "RC"):
        assert_allclose(chain + widths[kind], numeric[kind], atol=1e-12, err_msg=kind)


def test_perfect_readout_moments_add_the_pointer_terms(
    adiabatic_perfect_config,
) -> None:
    config = EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025), sigma=0.3)
    chain = _as_array(analytic_moments_perfect(config))
    sig2 = config.sigma**2
    readout = perfect_readout_moments(config)
    assert set(readout) == {"RM", "RC"}
    assert_allclose(
        _as_array(readout["RM"]), chain + np.array([0, 0, 4, 2, -2]) * sig2, rtol=1e-15
    )
    assert_allclose(
        _as_array(readout["RC"]), chain + np.array([0, 0, 1, 1, 0]) * sig2, rtol=1e-15
    )
    # Coherent targets have no closed form; finite-time baths are refused.
    assert perfect_readout_moments(adiabatic_perfect_config) is None
    with pytest.raises(ValueError, match="perfect thermalization"):
        perfect_readout_moments(EngineConfig())


def test_analytic_perfect_requires_perfect_thermalization(default_config) -> None:
    with pytest.raises(ValueError):
        analytic_moments_perfect(default_config)


@pytest.mark.parametrize(
    "config,d_init",
    [
        (EngineConfig(), 0.4394304102881754),
        (
            EngineConfig(
                stroke=DirectStroke(alpha=0.3, phi=0.4),
                thermo=LindbladThermo(beta_c=0.25, beta_h=0.025, gamma=0.1, theta=2.0),
            ),
            0.3,
        ),
    ],
    ids=["reference-point", "strong-stroke"],
)
def test_lindblad_closed_forms_match_enumeration(config, d_init) -> None:
    initial = np.diag([1.0 - d_init, d_init]).astype(complex)
    analytic = analytic_moments_lindblad(config, initial)
    numeric = _oracle_moments(config, initial)
    for kind in ("RM", "RC"):
        got = _as_array(analytic[kind])
        want = numeric[kind]
        assert_allclose(got, want, rtol=1e-12, atol=1e-13, err_msg=kind)


def test_scheme_differences_have_exact_closed_forms() -> None:
    config = EngineConfig()
    thermo = config.thermo
    alpha, phi = config.stroke.alpha, config.stroke.phi
    d_init = 0.41
    initial = np.diag([1.0 - d_init, d_init]).astype(complex)
    numeric = _oracle_moments(config, initial)
    rm, rc = numeric["RM"], numeric["RC"]
    coherence = np.exp(-thermo.gamma * thermo.theta) * np.cos(
        2.0 * (thermo.theta + phi)
    )
    osc_mean = -4.0 * config.eps_c * alpha * (1.0 - alpha) * (1.0 - 2.0 * d_init)
    osc_second = -8.0 * config.eps_c**2 * alpha * (1.0 - alpha)
    sigma2 = config.sigma**2
    # mean work: the accumulated pointers keep the interference contribution
    assert rc[0] - rm[0] == pytest.approx(osc_mean * coherence, abs=1e-12)
    # second work moment: same interference plus the exact -3 sigma^2 offset
    assert rc[2] - rm[2] == pytest.approx(
        osc_second * coherence - 3.0 * sigma2, abs=1e-12
    )
    # work-heat cross moment: exact -2 sigma^2 offset, no interference term
    assert rm[4] - rc[4] == pytest.approx(-2.0 * sigma2, abs=1e-12)
    # mean heat is scheme independent; the second moment differs only by the
    # pointer-width gap (2 sigma^2 for per-stroke readout, sigma^2 accumulated)
    assert rm[1] == pytest.approx(rc[1], abs=1e-12)
    assert rm[3] - rc[3] == pytest.approx(sigma2, abs=1e-12)


def test_closed_form_moments_pick_the_form_and_its_initial_state(
    default_config,
) -> None:
    rho0 = ThermalState(d=0.3, q=0.2 + 0.1j).matrix
    lindblad = build_model(default_config)
    forms, initial = closed_form_moments(lindblad, rho0)
    assert_allclose(initial, np.diag(np.diag(rho0)), atol=0)
    assert forms == analytic_moments_lindblad(lindblad, initial)
    perfect = build_model(
        EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025))
    )
    forms, initial = closed_form_moments(perfect, rho0)
    assert forms == perfect_readout_moments(perfect)
    assert_allclose(initial, perfect.cold_channel.target.matrix, atol=0)
    coherent = build_model(
        EngineConfig(
            thermo=PerfectThermo(
                beta_c=0.25,
                beta_h=0.025,
                targets="custom",
                custom_cold=ThermalState(d=0.3, q=0.1),
                custom_hot=ThermalState(d=0.4),
            )
        )
    )
    assert closed_form_moments(coherent, rho0)[0] is None


def test_adiabatic_perfect_efficiency_is_the_gap_ratio() -> None:
    config = EngineConfig(
        sigma=0.0,
        stroke=DirectStroke(alpha=0.0, phi=0.0),
        thermo=PerfectThermo(beta_c=0.25, beta_h=0.025),
        init="gibbs_cold",
    )
    moments = analytic_moments_perfect(config)
    assert efficiency(moments.mean_work, moments.mean_heat) == pytest.approx(
        1.0 - 1.0 / 3.7, abs=1e-12
    )


def test_efficiency_signs_and_degenerate_case() -> None:
    assert efficiency(-0.5, 1.0) == pytest.approx(0.5)
    assert efficiency(0.5, 1.0) == pytest.approx(-0.5)
    assert efficiency(-0.5, 0.0) is None


def test_reliability_is_signed_work_over_spread() -> None:
    moments = MomentSet(-0.5, 1.0, 1.25, 2.0, 0.0)
    assert moments.work_variance == pytest.approx(1.0)
    assert reliability(moments) == pytest.approx(0.5)
    dud = MomentSet(0.5, 1.0, 1.25, 2.0, 0.0)
    assert reliability(dud) == pytest.approx(-0.5)


def test_power_output_sign_convention() -> None:
    assert power_output(-0.3, 2.0, 4.0) == pytest.approx(0.05)
    assert power_output(0.3, 2.0, 4.0) == pytest.approx(-0.05)


def test_moment_set_round_trip() -> None:
    values = (-0.1, 0.2, 0.3, 0.4, -0.05)
    moments = MomentSet(*values)
    assert _as_array(moments).tolist() == list(values)
    assert moments.heat_variance == pytest.approx(0.4 - 0.04)
