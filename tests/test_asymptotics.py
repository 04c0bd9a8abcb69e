"""Cycle superoperators, spectra, invariant states and long-run behavior."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottomon import (
    DegenerateFixedPointError,
    DirectStroke,
    EngineConfig,
    LandauZenerStroke,
    LindbladThermo,
    PerfectThermo,
    READOUTS,
    ThermalState,
    asymptotic_power,
    asymptotic_work_heat,
    build_cycle_superoperator,
    derive_timed_config,
    fit_geometric_ratio,
    initial_state,
    invariant_state,
    spectrum,
    thermal_duration_from_theta,
    theta_from_thermal_duration,
    work_per_cycle_series,
)
from ottomon.engine import build_model, contact_suppression
from ottomon.moments import closed_form_moments
from ottomon.qubit import gibbs_population, landau_zener_params
from ottomon.superop import TRACE_VEC, conjugation, dephasing, unvec, vec
from ottomon.thermal import BathSpec, generalized_gibbs

# Values frozen from this implementation at the default parameter point and
# cross-checked against the brute-force enumeration for small cycle numbers.
LAMBDA2_RM = 0.36395646093356243
LAMBDA2_RC = 0.5957860899821491
WORK_INF_RM = -0.014685580754082828
WORK_INF_RC = 0.06335801543518332
HEAT_INF_RM = 0.058520666107113706
HEAT_INF_RC = -0.002480208644320969

# One case per readout label, run on the scheme whose map it shows.
over_readouts = pytest.mark.parametrize(
    "scheme", [scheme for _, scheme in READOUTS], ids=[label for label, _ in READOUTS]
)


@over_readouts
def test_cycle_superoperator_is_trace_preserving_and_contractive(
    default_config, scheme
) -> None:
    sop = build_cycle_superoperator(default_config, scheme)
    assert_allclose(TRACE_VEC @ sop, TRACE_VEC, atol=1e-12)
    eigenvalues = np.linalg.eigvals(sop)
    assert np.abs(eigenvalues).max() <= 1.0 + 1e-10


@over_readouts
def test_invariant_state_agrees_with_power_iteration(default_config, scheme) -> None:
    sop = build_cycle_superoperator(default_config, scheme)
    rho = invariant_state(sop)
    assert_allclose(unvec(sop @ vec(rho)), rho, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    iterated = vec(np.eye(2, dtype=complex) / 2.0)
    for _ in range(10_000):
        iterated = sop @ iterated
    assert_allclose(unvec(iterated), rho, atol=1e-10)


def test_perfect_thermalization_collapses_in_one_cycle() -> None:
    config = EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025))
    sop = build_cycle_superoperator(config, "RC2")
    assert spectrum(sop).lambda2 < 1e-12
    model = build_model(config)
    assert_allclose(
        invariant_state(sop), model.cold_channel.target.matrix, atol=1e-12
    )


@pytest.mark.parametrize("gamma", [0.025, 0.5])
@over_readouts
def test_invariant_state_is_exact_for_coherent_perfect_targets(gamma, scheme) -> None:
    # Perfect thermalization ends every cycle in the cold target, whose
    # finite-coupling coherence an eigenvector normalization got wrong.
    config = EngineConfig(
        thermo=PerfectThermo(
            beta_c=0.25, beta_h=0.025, gamma=gamma, targets="generalized_gibbs"
        )
    )
    model = build_model(config)
    rho = invariant_state(build_cycle_superoperator(model, scheme))
    assert_allclose(rho, model.cold_channel.target.matrix, atol=1e-12)


def test_zero_thermal_contact_is_degenerate_only_without_readout() -> None:
    config = EngineConfig(
        thermo=LindbladThermo(beta_c=0.25, beta_h=0.025, gamma=0.025, theta=0.0)
    )
    with pytest.raises(DegenerateFixedPointError):
        invariant_state(build_cycle_superoperator(config, "RC2"))
    # per-stroke readout dephases the state, which is dissipation enough to
    # single out a fixed point even without any thermal contact
    invariant_state(build_cycle_superoperator(config, "RM"))


def test_wide_pointers_remove_the_readout_backaction(default_config) -> None:
    config = EngineConfig(sigma=1e8)
    rm = build_cycle_superoperator(config, "RM")
    rc = build_cycle_superoperator(config, "RC2")
    assert_allclose(rm, rc, atol=1e-12)


def test_zero_width_pointers_project_out_all_coherences() -> None:
    matrix = build_cycle_superoperator(EngineConfig(sigma=0.0), "RM")
    assert np.abs(matrix[1, :]).max() == 0.0
    assert np.abs(matrix[2, :]).max() == 0.0
    assert np.abs(matrix[:, 1]).max() == 0.0
    assert np.abs(matrix[:, 2]).max() == 0.0


def test_spectrum_reference_values_and_ordering(default_config) -> None:
    rm = spectrum(build_cycle_superoperator(default_config, "RM"))
    rc = spectrum(build_cycle_superoperator(default_config, "RC2"))
    for report in (rm, rc):
        assert report.eigenvalues.shape == (4,)
        assert abs(report.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)
        moduli = np.abs(report.eigenvalues)
        assert np.all(moduli[:-1] >= moduli[1:] - 1e-12)
    assert rm.lambda2 == pytest.approx(LAMBDA2_RM, abs=1e-9)
    assert rc.lambda2 == pytest.approx(LAMBDA2_RC, abs=1e-9)
    assert rm.lambda2 <= rc.lambda2
    long_contact = EngineConfig(
        thermo=LindbladThermo(beta_c=0.25, beta_h=0.025, gamma=0.025, theta=400.0)
    )
    assert spectrum(build_cycle_superoperator(long_contact, "RC2")).lambda2 < 1e-3


def test_rc1_and_rc2_share_one_map_and_unknown_schemes_are_refused(
    default_config,
) -> None:
    reference = build_cycle_superoperator(default_config, "RC2")
    assert_allclose(
        build_cycle_superoperator(default_config, "RC1"), reference, atol=0.0
    )
    for label in ("RC", "rc2", "RX"):
        with pytest.raises(ValueError):
            build_cycle_superoperator(default_config, label)


def test_asymptotic_work_reference_values(default_config) -> None:
    assert asymptotic_work_heat(default_config, "RM")[0] == pytest.approx(
        WORK_INF_RM, abs=1e-12
    )
    assert asymptotic_work_heat(default_config, "RC2")[0] == pytest.approx(
        WORK_INF_RC, abs=1e-12
    )
    assert asymptotic_work_heat(default_config, "RM")[1] == pytest.approx(
        HEAT_INF_RM, abs=1e-12
    )
    assert asymptotic_work_heat(default_config, "RC2")[1] == pytest.approx(
        HEAT_INF_RC, abs=1e-12
    )


def _contact_energy_bookkeeping(config: EngineConfig, scheme: str) -> tuple[float, float]:
    """Mean work and hot heat from the level signs at the four contacts."""
    model = build_model(config)
    sop = build_cycle_superoperator(model, scheme)
    rho = vec(invariant_state(sop))
    w_cold = contact_suppression(config.eps_c, config.sigma) if scheme == "RM" else 1.0
    w_hot = contact_suppression(config.eps_h, config.sigma) if scheme == "RM" else 1.0
    strokes = (
        (w_cold, conjugation(model.forward_unitary)),
        (w_hot, model.hot_channel.superoperator()),
        (w_hot, conjugation(model.reverse_unitary)),
        (w_cold, model.cold_channel.superoperator()),
    )
    level = []
    for overlap, stroke in strokes:
        level.append((rho[3] - rho[0]).real)
        rho = stroke @ dephasing(overlap) @ rho
    work = config.eps_c * (level[3] - level[0]) + config.eps_h * (level[1] - level[2])
    heat = config.eps_h * (level[2] - level[1])
    return work, heat


@over_readouts
@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(),
        EngineConfig(stroke=LandauZenerStroke(t1=5.0), sigma=2.0),
        EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025)),
    ],
    ids=["direct", "landau_zener", "perfect_gibbs"],
)
def test_asymptotic_work_heat_match_contact_energy_bookkeeping(config, scheme) -> None:
    work, heat = asymptotic_work_heat(config, scheme)
    expected_work, expected_heat = _contact_energy_bookkeeping(config, scheme)
    assert work == pytest.approx(expected_work, abs=1e-12)
    assert heat == pytest.approx(expected_heat, abs=1e-12)


def test_asymptotic_work_perfect_zero_width_equals_chain_mean() -> None:
    config = EngineConfig(
        sigma=0.0,
        stroke=DirectStroke(alpha=0.05, phi=0.0),
        thermo=PerfectThermo(beta_c=0.25, beta_h=0.025),
    )
    model = build_model(config)
    forms, _ = closed_form_moments(model, initial_state(model))
    for label, scheme in READOUTS:
        assert asymptotic_work_heat(config, scheme)[0] == pytest.approx(
            forms[label].mean_work, abs=1e-12
        )


def test_per_cycle_work_increments_converge_to_the_asymptote(default_config) -> None:
    # the per-cycle increment converges geometrically at rate lambda2, so 45
    # cycles push the slower accumulated-pointer mode below 1e-9
    for scheme, target in (("RM", WORK_INF_RM), ("RC2", WORK_INF_RC)):
        rows = work_per_cycle_series(default_config, scheme, 45)
        totals = [n * mean for n, mean, _ in rows]
        increments = np.diff([0.0] + totals)
        assert increments[-1] == pytest.approx(target, abs=1e-9)


def test_signed_long_run_regression(default_config) -> None:
    # The unobserved-asymptote engine extracts work under per-stroke readout
    # but turns dud under accumulated pointers at this parameter point; the
    # reliability signs follow the work signs.
    assert WORK_INF_RM < 0.0 < WORK_INF_RC
    rows_rm = work_per_cycle_series(default_config, "RM", 50)
    rows_rc = work_per_cycle_series(default_config, "RC2", 50)
    _, mean_rm, rel_rm = rows_rm[-1]
    _, mean_rc, rel_rc = rows_rc[-1]
    assert mean_rm == pytest.approx(-0.013987361540869204, abs=1e-12)
    assert mean_rc == pytest.approx(0.06477634692331552, abs=1e-12)
    assert rel_rm == pytest.approx(0.045048505173597805, abs=1e-11)
    assert rel_rc == pytest.approx(-0.17420238925774956, abs=1e-11)
    assert rel_rm > 0.0 > rel_rc
    assert abs(rel_rc) > abs(rel_rm)


def test_fit_geometric_ratio_recovers_synthetic_modes() -> None:
    n = np.arange(24, dtype=float)
    single = 0.7 * 0.45**n
    assert fit_geometric_ratio(single) == pytest.approx(0.45, abs=1e-10)
    double = 0.6 * 0.8**n + 0.4 * 0.3**n
    assert fit_geometric_ratio(double) == pytest.approx(0.8, abs=1e-8)
    alternating = 0.5 * (-0.6) ** n
    assert fit_geometric_ratio(alternating) == pytest.approx(0.6, abs=1e-10)


def test_fit_geometric_ratio_respects_the_noise_floor() -> None:
    n = np.arange(40, dtype=float)
    clean = 0.9 * 0.2**n
    noisy = clean + 1e-13 * (-1.0) ** n
    assert fit_geometric_ratio(noisy, noise_floor=1e-11) == pytest.approx(
        0.2, abs=1e-6
    )
    with pytest.raises(ValueError):
        fit_geometric_ratio(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        fit_geometric_ratio(np.array([1e-15, 1e-16, 1e-17]), noise_floor=1e-12)


def test_theta_duration_conversions_round_trip() -> None:
    theta = theta_from_thermal_duration(8.0, 1.0, 3.7)
    assert theta == pytest.approx(8.0 * 3.7 / 4.7, rel=1e-14)
    assert thermal_duration_from_theta(theta, 1.0, 3.7) == pytest.approx(8.0, rel=1e-14)


def test_derive_timed_config_resolves_both_strokes(default_config) -> None:
    swept = EngineConfig(stroke=LandauZenerStroke(t1=2.0))
    timed = derive_timed_config(swept, t1=5.0, t2=10.16216216216216)
    params = landau_zener_params(1.0, 3.7, 5.0)
    assert timed.stroke.t1 == pytest.approx(5.0)
    model = build_model(timed)
    assert model.stroke_params.alpha == pytest.approx(params.alpha)
    assert timed.thermo.theta == pytest.approx(
        theta_from_thermal_duration(10.16216216216216, 1.0, 3.7)
    )
    # a directly parameterized stroke is left untouched
    fixed = derive_timed_config(default_config, t1=5.0, t2=10.0)
    assert fixed.stroke == default_config.stroke
    with pytest.raises(ValueError):
        derive_timed_config(default_config, t1=0.0, t2=1.0)


def test_asymptotic_power_is_work_rate(default_config) -> None:
    t1, t2 = 5.0, 10.0
    timed = derive_timed_config(default_config, t1, t2)
    for _, scheme in READOUTS:
        expected = -asymptotic_work_heat(timed, scheme)[0] / (t1 + t2)
        assert asymptotic_power(default_config, scheme, t1, t2) == pytest.approx(
            expected, abs=1e-14
        )


def test_initial_state_kinds(default_config) -> None:
    invariant = initial_state(default_config)
    rc = build_cycle_superoperator(default_config, "RC2")
    assert_allclose(unvec(rc @ vec(invariant)), invariant, atol=1e-12)
    gibbs = initial_state(EngineConfig(init="gibbs_cold"))
    assert gibbs[1, 1].real == pytest.approx(gibbs_population(0.25, 1.0))
    assert abs(gibbs[0, 1]) == 0.0
    generalized = initial_state(EngineConfig(init="generalized_gibbs_cold"))
    assert generalized[1, 0].real > 0.0
    # Finite-time baths read the bath cutoff of the generalized-Gibbs start.
    thermo = LindbladThermo(
        beta_c=0.25, beta_h=0.025, gamma=0.025, theta=8.0, omega_d=2.0
    )
    wide_cutoff = EngineConfig(thermo=thermo, init="generalized_gibbs_cold")
    expected = generalized_gibbs(
        BathSpec(0.25, 0.025, 2.0, "cold"), build_model(wide_cutoff).h_cold
    )
    assert_allclose(initial_state(wide_cutoff), expected.matrix, atol=0)
    custom = initial_state(
        EngineConfig(init="custom", init_custom=ThermalState(d=0.27, q=0.01))
    )
    assert custom[1, 1].real == pytest.approx(0.27)
    assert custom[1, 0] == pytest.approx(0.01)


def test_initial_state_takes_a_config_or_a_model(default_config) -> None:
    model = build_model(default_config)
    assert_allclose(initial_state(model), initial_state(default_config), atol=0)
    given = np.array([[0.7, 0.1], [0.1, 0.3]])
    assert_allclose(initial_state(model, initial=given), given, atol=0)
    assert initial_state(default_config, initial=given).dtype == complex
    # The given state is keyword-only, so a model in its place is refused.
    with pytest.raises(TypeError):
        initial_state(default_config, model)

