"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Every test pits at least two independent routes against each other or against
values frozen from this implementation after the routes agreed.  Criteria
with a time budget measure their own runtime.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import enumerated_mixture, joint_density_on_grid, random_density_matrices
from ottomon.asymptotics import (
    asymptotic_work_heat,
    build_cycle_superoperator,
    derive_timed_config,
    fit_geometric_ratio,
    initial_state,
    invariant_state,
    spectrum,
)
from ottomon.engine import (
    OBSERVABLES,
    READOUTS,
    SCHEMES,
    DirectStroke,
    EngineConfig,
    EngineModel,
    LandauZenerStroke,
    PerfectThermo,
    build_model,
)
from ottomon.lattice import (
    as_weight_table,
    joint_via_lattice,
    lattice_points,
    marginal_via_lattice,
)
from ottomon.moments import (
    MomentSet,
    closed_form_moments,
    efficiency,
    work_per_cycle_series,
)
from ottomon.oracle import enumerate_branches, point_weights
from ottomon.superop import conjugation, unvec, vec
from ottomon.thermal import BathSpec, generalized_gibbs
from ottomon.validation import compare_weight_tables

# Work-lattice weights of the adiabatic perfectly-thermalized engine, frozen
# from the exhaustive enumeration (identical for per-stroke and accumulated
# readout; every other lattice point carries exactly zero weight).
ADIABATIC_WORK_WEIGHTS = {
    (2, -2): 0.28250144051264,
    (0, 0): 0.5112902503668157,
    (-2, 2): 0.20620830912054422,
}


@pytest.fixture(scope="module")
def cumulative_series(default_config):
    """Two hundred cycles of accumulated work statistics for both schemes."""
    start = time.perf_counter()
    series = {
        scheme: work_per_cycle_series(default_config, scheme, 200)
        for scheme in ("RM", "RC2")
    }
    return series, time.perf_counter() - start


def _lattice_weights(model, scheme, observable, cycles, rho0):
    return as_weight_table(*lattice_points(model, scheme, observable, cycles, rho0))


def test_criterion_01_finite_coupling_equilibrium_state():
    start = time.perf_counter()
    cold = generalized_gibbs(
        BathSpec(beta=0.25, gamma=0.5, omega_d=0.2, label="cold"),
        1.0,
    )
    hot = generalized_gibbs(
        BathSpec(beta=0.025, gamma=0.5, omega_d=0.2, label="hot"),
        3.7,
    )
    assert cold.d == pytest.approx(0.37759, abs=1e-4)
    assert hot.d == pytest.approx(0.45388, abs=1e-4)
    assert cold.q == pytest.approx(5.0813e-5, rel=1e-2)
    assert hot.q == pytest.approx(-1.9205e-6, rel=1e-2)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_adiabatic_engine_efficiency(adiabatic_perfect_config):
    start = time.perf_counter()
    model = build_model(adiabatic_perfect_config)
    rho0 = initial_state(model)
    for name, scheme in (("RM", "RM"), ("RC", "RC2")):
        mix = enumerated_mixture(model, scheme, "joint", 1, initial=rho0)
        moments = MomentSet(*mix.moments())
        eta = efficiency(moments.mean_work, moments.mean_heat)
        assert eta == pytest.approx(1.0 - 1.0 / 3.7, abs=1e-9), name
        assert eta == pytest.approx(0.729730, abs=5e-7), name
    assert time.perf_counter() - start < 1.0


def test_criterion_03_lattice_recursion_matches_enumeration(default_config):
    start = time.perf_counter()
    model = build_model(default_config)
    rho0 = initial_state(model)
    for cycles in (1, 2):
        table = enumerate_branches(model, cycles, initial=rho0)
        for scheme in SCHEMES:
            for observable in OBSERVABLES:
                reference = as_weight_table(*point_weights(table, scheme, observable))
                candidate = _lattice_weights(
                    model, scheme, observable, cycles, rho0
                )
                deviation, detail = compare_weight_tables(reference, candidate)
                tag = f"{scheme}/{observable}/N={cycles}"
                assert deviation <= 1e-10, tag
                assert detail == "", tag
                for key in candidate:
                    coords = key if isinstance(key, tuple) else (key,)
                    assert all(float(c).is_integer() for c in coords), tag
    assert time.perf_counter() - start < 30.0


def test_criterion_04_closed_form_moment_regression(default_config):
    # Diagonal-target perfect engine at zero pointer width: the product-chain
    # closed forms must match the enumeration exactly for both readouts.
    config = EngineConfig(
        sigma=0.0,
        stroke=DirectStroke(alpha=0.05, phi=0.0),
        thermo=PerfectThermo(beta_c=0.25, beta_h=0.025),
        init="gibbs_cold",
    )
    model = build_model(config)
    forms, target_cold = closed_form_moments(model, initial_state(model))
    for name, scheme in (("RM", "RM"), ("RC", "RC2")):
        mix = enumerated_mixture(model, scheme, "joint", 1, initial=target_cold)
        numeric = np.array(mix.moments())
        assert_allclose(numeric, np.array(forms[name]), atol=1e-10, err_msg=name)

    # Dissipative engine at finite pointer width, diagonal initial state: the
    # closed forms carry the interference and width corrections exactly.
    model_l = build_model(default_config)
    analytic, rho_diag = closed_form_moments(
        model_l, initial_state(model_l)
    )
    for name, scheme in (("RM", "RM"), ("RC", "RC2")):
        mix = enumerated_mixture(model_l, scheme, "joint", 1, initial=rho_diag)
        numeric = np.array(mix.moments())
        assert_allclose(
            numeric, np.array(analytic[name]), rtol=1e-8, atol=1e-12, err_msg=name
        )

    # Scheme differences at a generic diagonal initial state: exact pointer
    # width offsets on top of a single damped interference term.
    thermo = default_config.thermo
    alpha, phi = default_config.stroke.alpha, default_config.stroke.phi
    d_init = 0.41
    initial = np.diag([1.0 - d_init, d_init]).astype(complex)
    rm = np.array(enumerated_mixture(model_l, "RM", "joint", 1, initial).moments())
    rc = np.array(enumerated_mixture(model_l, "RC2", "joint", 1, initial).moments())
    coherence = np.exp(-thermo.gamma * thermo.theta) * np.cos(
        2.0 * (thermo.theta + phi)
    )
    osc_second = -8.0 * default_config.eps_c**2 * alpha * (1.0 - alpha)
    sigma2 = default_config.sigma**2
    assert rc[2] - rm[2] - osc_second * coherence == pytest.approx(
        -3.0 * sigma2, abs=1e-12
    )
    assert rm[4] - rc[4] == pytest.approx(-2.0 * sigma2, abs=1e-12)
    assert rm[1] == pytest.approx(rc[1], abs=1e-12)


def test_criterion_05_adiabatic_work_peak_structure(adiabatic_perfect_config):
    model = build_model(adiabatic_perfect_config)
    rho0 = initial_state(model)
    enumeration = enumerate_branches(model, 1, initial=rho0)
    eps_c = adiabatic_perfect_config.eps_c
    eps_h = adiabatic_perfect_config.eps_h
    allowed_values = {0.0, 2.0 * (eps_h - eps_c), -2.0 * (eps_h - eps_c)}
    for scheme in ("RM", "RC2"):
        table = as_weight_table(*point_weights(enumeration, scheme, "work"))
        for (a, b), weight in table.items():
            if (a, b) not in ADIABATIC_WORK_WEIGHTS:
                assert abs(weight) < 1e-14, (scheme, a, b)
        for coords, expected in ADIABATIC_WORK_WEIGHTS.items():
            assert table[coords] == pytest.approx(expected, abs=1e-12), scheme
            a, b = coords
            assert any(
                abs(a * eps_c + b * eps_h - value) < 1e-12
                for value in allowed_values
            )
        total = sum(ADIABATIC_WORK_WEIGHTS.values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_criterion_06_characteristic_function_envelope(default_config):
    cycles = 1
    sigma2 = default_config.sigma**2
    mix = enumerated_mixture(default_config, "RM", "joint", cycles)
    assert_allclose(
        mix.covariance,
        2.0 * cycles * sigma2 * np.array([[2.0, -1.0], [-1.0, 1.0]]),
        atol=1e-15,
    )
    pad_w = 8.0 * np.sqrt(4.0 * cycles * sigma2)
    pad_q = 8.0 * np.sqrt(2.0 * cycles * sigma2)
    w_grid = np.linspace(
        mix.centers[:, 0].min() - pad_w, mix.centers[:, 0].max() + pad_w, 2048
    )
    q_grid = np.linspace(
        mix.centers[:, 1].min() - pad_q, mix.centers[:, 1].max() + pad_q, 2048
    )
    density = joint_density_on_grid(mix, w_grid, q_grid)
    rng = np.random.default_rng(20260815)
    points = rng.uniform(-0.5, 0.5, size=(20, 2))
    for u, v in points:
        phase = np.exp(1j * (u * w_grid[:, None] + v * q_grid[None, :]))
        transform = np.trapezoid(
            np.trapezoid(density * phase, q_grid, axis=1), w_grid
        )
        envelope = np.exp(-cycles * sigma2 * (2.0 * u * u - 2.0 * u * v + v * v))
        reference = envelope * np.sum(
            mix.weights
            * np.exp(1j * (u * mix.centers[:, 0] + v * mix.centers[:, 1]))
        )
        assert abs(transform - reference) <= 1e-8 * abs(reference), (u, v)


def _pointer_scheme_work_gap(model: EngineModel, rho0, cycles: int = 1) -> float:
    table = enumerate_branches(model, cycles, initial=rho0)
    one = as_weight_table(*point_weights(table, "RC1", "work"))
    two = as_weight_table(*point_weights(table, "RC2", "work"))
    deviation, detail = compare_weight_tables(one, two)
    assert detail == ""
    return deviation


def test_criterion_07_pointer_scheme_equivalence(
    default_config, adiabatic_perfect_config
):
    # (a) Adiabatic strokes with perfect thermalization.  The coherent
    # targets violate the sector-decoupling requirement of the lattice
    # kernel, which refuses to build; the enumeration route carries the
    # comparison instead.
    model_a = build_model(adiabatic_perfect_config)
    rho_a = initial_state(model_a)
    assert _pointer_scheme_work_gap(model_a, rho_a) <= 1e-12
    with pytest.raises(ValueError, match="mixes population and coherence"):
        lattice_points(model_a, "RC1", "work", 1)

    # (b) Dissipative thermalization at two stroke transition probabilities,
    # via the enumeration and via the lattice recursion.
    for alpha in (0.05, 0.3):
        config = EngineConfig(stroke=DirectStroke(alpha=alpha, phi=0.0))
        model = build_model(config)
        rho0 = initial_state(model)
        assert _pointer_scheme_work_gap(model, rho0) <= 1e-12, alpha
        one = _lattice_weights(model, "RC1", "work", 2, rho0)
        two = _lattice_weights(model, "RC2", "work", 2, rho0)
        deviation, detail = compare_weight_tables(one, two)
        assert deviation <= 1e-12 and detail == "", alpha

    # Negative control: a synthetic thermal channel that couples the
    # population and coherence sectors breaks the equivalence, and the
    # lattice kernel fails closed on it.
    control = EngineConfig(sigma=2.0)
    corrupted = build_model(control)
    rho_c = initial_state(corrupted)
    angle = 0.4
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
        dtype=complex,
    )

    class SectorMixingChannel:
        def superoperator(self) -> np.ndarray:
            return conjugation(rotation)

    corrupted.hot_channel = SectorMixingChannel()
    assert _pointer_scheme_work_gap(corrupted, rho_c) > 1e-3
    for scheme in ("RC1", "RC2"):
        with pytest.raises(ValueError, match="mixes population and coherence"):
            lattice_points(corrupted, scheme, "work", 1)


def test_criterion_08_geometric_convergence_to_fixed_point(
    default_config, cumulative_series
):
    series, elapsed = cumulative_series
    assert elapsed < 120.0
    for _, scheme in READOUTS:
        rows = series[scheme]
        totals = np.array([n * mean for n, mean, _ in rows])
        # The cumulative mean carries an O(1/N) transient from the early
        # cycles, so the geometric approach to the per-cycle limit shows in
        # the increments of the accumulated record.
        increments = np.diff(np.concatenate(([0.0], totals)))
        w_inf = asymptotic_work_heat(default_config, scheme)[0]
        lam2 = spectrum(build_cycle_superoperator(default_config, scheme)).lambda2
        ratio = fit_geometric_ratio(increments - w_inf)
        assert ratio == pytest.approx(lam2, rel=0.05), scheme
        assert abs(increments[-1] - w_inf) <= 1e-6, scheme


def test_criterion_09_scheme_ordering_and_reliability_growth(cumulative_series):
    series, _ = cumulative_series
    means_rm = np.array([mean for _, mean, _ in series["RM"]])
    means_rc = np.array([mean for _, mean, _ in series["RC2"]])
    rel_rm = np.array([rel for _, _, rel in series["RM"]])
    rel_rc = np.array([rel for _, _, rel in series["RC2"]])
    # Per-cycle work means compared as signed values.
    assert np.all(means_rc[1:] >= means_rm[1:])
    # At this operating point the accumulated scheme absorbs work (positive
    # mean), so its reliability is negative while the per-stroke one is
    # positive; the magnitude compares how sharply each record resolves its
    # own mean against the pointer spread.
    assert np.all(np.abs(rel_rc[1:]) >= np.abs(rel_rm[1:]))
    for name, rel in (("RM", rel_rm), ("RC2", rel_rc)):
        scaled_100 = rel[99] / np.sqrt(100.0)
        scaled_200 = rel[199] / np.sqrt(200.0)
        drift = abs(scaled_200 - scaled_100) / abs(scaled_100)
        assert drift <= 0.02, name


def test_criterion_10_distribution_and_channel_properties(
    default_config, adiabatic_perfect_config
):
    start = time.perf_counter()
    # Mixture normalization and pointwise density floor.
    for scheme in SCHEMES:
        for observable in OBSERVABLES:
            mix = marginal_via_lattice(default_config, scheme, observable, 5)
            assert abs(mix.weights.sum() - 1.0) <= 1e-9, (scheme, observable)
            pad = 8.0 * np.sqrt(mix.variance)
            grid = np.linspace(
                mix.centers.min() - pad, mix.centers.max() + pad, 2001
            )
            assert mix.density(grid).min() >= -1e-9, (scheme, observable)
    for scheme in ("RM", "RC2"):
        joint = joint_via_lattice(default_config, scheme, 2)
        assert abs(joint.weights.sum() - 1.0) <= 1e-9, scheme
    for scheme in ("RM", "RC2"):
        joint = enumerated_mixture(default_config, scheme, "joint", 1)
        assert abs(joint.weights.sum() - 1.0) <= 1e-9

    # Trace and positivity preservation on random states for every channel.
    states = random_density_matrices(np.random.default_rng(20260815), 1000)
    models = (build_model(default_config), build_model(adiabatic_perfect_config))
    channels = [m.cold_channel for m in models] + [m.hot_channel for m in models]
    for channel in channels:
        for rho in states:
            out = unvec(channel.superoperator() @ vec(rho))
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert abs(np.trace(out).imag) <= 1e-12
            eigs = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
            assert eigs.min() >= -1e-12

    # Unique fixed point across a coarse grid of stroke and thermalization
    # durations, for both the monitored and unmonitored cycle maps.
    base = EngineConfig(stroke=LandauZenerStroke(t1=5.0))
    for t1 in np.linspace(0.5, 20.0, 10):
        for t2 in np.linspace(0.5, 100.0, 10):
            point = derive_timed_config(base, float(t1), float(t2))
            for _, scheme in READOUTS:
                sop = build_cycle_superoperator(point, scheme)
                report = spectrum(sop)
                assert abs(report.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)
                assert abs(report.eigenvalues[1]) < 1.0 - 1e-6
                invariant_state(sop)
    assert time.perf_counter() - start < 60.0
