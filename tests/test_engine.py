"""Model construction and the tilted single-cycle map."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottomon import (
    DirectStroke,
    EngineConfig,
    LandauZenerStroke,
    LindbladThermo,
    PerfectThermo,
    build_cycle_superoperator,
)
from ottomon.asymptotics import asymptotic_work_heat, invariant_state
from ottomon.engine import (
    MAX_SHIFT,
    build_model,
    contact_suppression,
    cycle_increments,
    perfect_targets,
    pointer_covariance,
    resolve_stroke_params,
    tilted_cycle_coefficients,
    tilted_sums,
)
from ottomon.lattice import mixture_from_points
from ottomon.moments import moment_series
from ottomon.oracle import tabulate_cycle_branches
from ottomon.qubit import StrokeHamiltonian, landau_zener_params
from ottomon.superop import conjugation
from ottomon.thermal import ThermalState


@pytest.fixture(scope="module")
def model(default_config):
    return build_model(default_config)


@pytest.fixture(scope="module")
def branches(model):
    return tabulate_cycle_branches(model)


def rm_weight(model, branch) -> float:
    """Per-cycle pointer overlap of a branch under per-stroke readout."""
    if branch.mismatch_cold == 0 and branch.mismatch_hot == 0:
        return 1.0
    return float(
        np.exp(
            -(
                branch.mismatch_cold * model.h_cold.epsilon**2
                + branch.mismatch_hot * model.h_hot.epsilon**2
            )
            / (2.0 * model.sigma**2)
        )
    )


def grouped_branches(model, branches, scheme, observable) -> dict:
    """Weighted branch superoperators summed by their lattice increment."""
    groups: dict = {}
    for branch in branches:
        weight = rm_weight(model, branch) if scheme == "RM" else 1.0
        key = (branch.da, branch.db) if observable == "work" else branch.dq
        groups[key] = groups.get(key, 0.0) + weight * branch.superoperator
    return groups


def coefficient_groups(model, scheme, observable) -> dict:
    """Tilted-map coefficients keyed by lattice shift: (a, b) for work, and
    dq = -b for heat, summed over a."""
    coeffs = tilted_cycle_coefficients(model, scheme)
    steps = range(-MAX_SHIFT, MAX_SHIFT + 1)
    if observable == "work":
        return {
            (a, b): coeffs[a + MAX_SHIFT, b + MAX_SHIFT] for a in steps for b in steps
        }
    heat = coeffs.sum(axis=0)
    return {-b: heat[b + MAX_SHIFT] for b in steps}


def test_tabulation_yields_256_branches(branches) -> None:
    assert len(branches) == 256
    for branch in branches:
        assert branch.superoperator.shape == (4, 4)
        assert branch.dq == -branch.db


def test_unweighted_branch_sum_is_the_unmonitored_cycle_map(model, branches) -> None:
    # Summing over every contact outcome on both sides removes the readout,
    # leaving the plain four-stroke composition.
    total = sum(branch.superoperator for branch in branches)
    unmonitored = (
        model.cold_channel.superoperator()
        @ conjugation(model.reverse_unitary)
        @ model.hot_channel.superoperator()
        @ conjugation(model.forward_unitary)
    )
    assert_allclose(total, unmonitored, atol=1e-13)


def test_weighted_branch_sums_reproduce_cycle_superoperators(
    default_config, model, branches
) -> None:
    rm_total = sum(rm_weight(model, b) * b.superoperator for b in branches)
    assert_allclose(
        rm_total, build_cycle_superoperator(default_config, "RM"), atol=1e-13
    )
    rc_total = sum(b.superoperator for b in branches)
    assert_allclose(
        rc_total, build_cycle_superoperator(default_config, "RC2"), atol=1e-13
    )


@pytest.mark.parametrize("scheme", ["RM", "RC2"])
def test_group_sums_recover_the_weighted_total(model, branches, scheme) -> None:
    work = coefficient_groups(model, scheme, "work")
    heat = coefficient_groups(model, scheme, "heat")
    if scheme == "RM":
        expected = sum(rm_weight(model, b) * b.superoperator for b in branches)
    else:
        expected = sum(b.superoperator for b in branches)
    assert_allclose(sum(work.values()), expected, atol=1e-13)
    assert_allclose(sum(heat.values()), expected, atol=1e-13)
    for da, db in work:
        assert -2 <= da <= 2 and -2 <= db <= 2
    for dq in heat:
        assert -2 <= dq <= 2


def test_group_keys_aggregate_consistently(model) -> None:
    work = coefficient_groups(model, "RC2", "work")
    heat = coefficient_groups(model, "RC2", "heat")
    for dq, matrix in heat.items():
        from_work = sum(m for (da, db), m in work.items() if -db == dq)
        assert_allclose(from_work, matrix, atol=1e-13)


# The Landau-Zener engine has wide pointers so that hot-contact mismatches
# carry weights well above the tolerance.
CROSS_ROUTE_ENGINES = {
    "direct": EngineConfig(),
    "landau_zener": EngineConfig(stroke=LandauZenerStroke(t1=5.0), sigma=2.0),
    "perfect_gibbs": EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025)),
}


@pytest.mark.parametrize("engine", sorted(CROSS_ROUTE_ENGINES))
def test_kernel_matches_grouped_branch_enumeration(engine) -> None:
    # The tilted-map coefficients against the 256 enumerated branches, each
    # weighted by the overlap of its mismatched contacts and grouped by
    # lattice shift; and their zero-field sums against the branch sums
    # weighted by the powers 1, x, q, x^2, q^2 and x q of the branch increments.
    model = build_model(CROSS_ROUTE_ENGINES[engine])
    branches = tabulate_cycle_branches(model)
    eps_c, eps_h = model.h_cold.epsilon, model.h_hot.epsilon
    for scheme in ("RM", "RC1", "RC2"):
        expected = np.zeros((6, 4, 4), dtype=complex)
        for branch in branches:
            weight = rm_weight(model, branch) if scheme == "RM" else 1.0
            x, q = branch.da * eps_c + branch.db * eps_h, branch.dq * eps_h
            powers = np.array([1.0, x, q, x * x, q * q, x * q])
            expected += weight * powers[:, None, None] * branch.superoperator
        sums = tilted_sums(model, scheme)
        assert sums.shape == (6, 4, 4)
        for k, name in enumerate(("1", "x", "q", "x^2", "q^2", "x q")):
            assert_allclose(
                sums[k], expected[k], rtol=0,
                atol=1e-13 * np.abs(expected[k]).max(), err_msg=f"{scheme} {name}",
            )
        for observable in ("work", "heat"):
            groups = grouped_branches(model, branches, scheme, observable)
            got = coefficient_groups(model, scheme, observable)
            assert set(got) <= set(groups), (scheme, observable)
            for key, expected in groups.items():
                actual = got.get(key, np.zeros((4, 4)))
                assert_allclose(
                    actual, expected, rtol=0, atol=1e-13,
                    err_msg=f"{scheme} {observable} {key}",
                )


@pytest.mark.parametrize("engine", sorted(CROSS_ROUTE_ENGINES))
def test_fixed_point_moment_series_grows_by_the_asymptotic_rates(engine) -> None:
    # Both readers of tilted_sums: started at the fixed point of the scheme's
    # own cycle map, the N-cycle means are N times the per-cycle rates.  The
    # folded accumulated-pointer records (RC1 work, RC2) start elsewhere.
    model = build_model(CROSS_ROUTE_ENGINES[engine])
    for scheme, observables in (("RM", ("work", "heat")), ("RC1", ("heat",))):
        rho = invariant_state(tilted_sums(model, scheme)[0])
        series = moment_series(model, scheme, 3, initial=rho)
        rates = dict(zip(("work", "heat"), asymptotic_work_heat(model, scheme)))
        for n, moments in enumerate(series, 1):
            means = {"work": moments.mean_work, "heat": moments.mean_heat}
            for observable in observables:
                assert abs(means[observable] - n * rates[observable]) <= 1e-13, (
                    scheme, observable, n,
                )


def test_contact_suppression_values() -> None:
    assert contact_suppression(1.0, 0.2) == pytest.approx(np.exp(-12.5), rel=1e-14)
    assert contact_suppression(0.0, 0.2) == 1.0
    assert contact_suppression(1.0, 0.0) == 0.0


def test_variance_helpers_scale_with_scheme_and_cycles() -> None:
    sigma = 0.2
    for cycles in (1, 7):
        rm = pointer_covariance("RM", cycles, sigma)
        assert rm[0, 0] == 4.0 * cycles * sigma**2
        assert rm[1, 1] == 2.0 * cycles * sigma**2
        assert_allclose(
            rm, 2.0 * cycles * sigma**2 * np.array([[2.0, -1.0], [-1.0, 1.0]])
        )
        for scheme in ("RC1", "RC2"):
            assert_allclose(pointer_covariance(scheme, cycles, sigma), sigma**2 * np.eye(2))


def test_resolve_stroke_params_direct_and_sweep() -> None:
    direct = resolve_stroke_params(EngineConfig(stroke=DirectStroke(alpha=0.3, phi=0.1)))
    assert direct.alpha == 0.3 and direct.phi == 0.1
    swept = resolve_stroke_params(EngineConfig(stroke=LandauZenerStroke(t1=5.0)))
    reference = landau_zener_params(1.0, 3.7, 5.0)
    assert swept.alpha == pytest.approx(reference.alpha)
    assert swept.phi == pytest.approx(reference.phi)


def test_perfect_targets_routing() -> None:
    h_cold = StrokeHamiltonian(1.0, "cold")
    h_hot = StrokeHamiltonian(3.7, "hot")
    gibbs_cold, gibbs_hot = perfect_targets(
        PerfectThermo(beta_c=0.25, beta_h=0.025), h_cold, h_hot
    )
    assert gibbs_cold.q == 0.0 and gibbs_hot.q == 0.0
    gen_cold, gen_hot = perfect_targets(
        PerfectThermo(beta_c=0.25, beta_h=0.025, gamma=0.5, targets="generalized_gibbs"),
        h_cold,
        h_hot,
    )
    assert gen_cold.q > 0.0 > gen_hot.q
    custom = ThermalState(d=0.42, q=0.003)
    got_cold, got_hot = perfect_targets(
        PerfectThermo(
            beta_c=0.25,
            beta_h=0.025,
            targets="custom",
            custom_cold=custom,
            custom_hot=custom,
        ),
        h_cold,
        h_hot,
    )
    assert got_cold is custom and got_hot is custom


def test_lindblad_model_channels_use_their_own_half_gaps(default_config) -> None:
    model = build_model(default_config)
    assert model.cold_channel.h.epsilon == 1.0
    assert model.hot_channel.h.epsilon == 3.7
    assert model.cold_channel.bath.beta == 0.25
    assert model.hot_channel.bath.beta == 0.025


def test_engine_config_validation() -> None:
    with pytest.raises(ValueError):
        EngineConfig(eps_c=3.7, eps_h=1.0)
    with pytest.raises(ValueError):
        EngineConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        EngineConfig(cycles=0)
    with pytest.raises(ValueError):
        EngineConfig(scheme="RC3")
    with pytest.raises(ValueError):
        EngineConfig(init="vacuum")
    with pytest.raises(ValueError):
        EngineConfig(init="custom")
    with pytest.raises(ValueError):
        PerfectThermo(beta_c=0.25, beta_h=0.025, targets="custom")
    with pytest.raises(ValueError):
        PerfectThermo(beta_c=0.25, beta_h=0.025, targets="boltzmann")
    with pytest.raises(ValueError):
        LindbladThermo(beta_c=0.25, beta_h=0.025, gamma=0.025, theta=-1.0)


def test_cycle_increments_match_the_mixture_centers_of_the_lattice_steps(model) -> None:
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1)
    a, b = np.meshgrid(steps, steps, indexing="ij")
    points = np.stack([a.ravel(), b.ravel()], axis=1)
    weights = np.full(len(points), 1.0 / len(points))
    eps = (model.h_cold.epsilon, model.h_hot.epsilon)
    work, heat = cycle_increments(model)
    assert work.shape == heat.shape == (5, 5)
    work_mix = mixture_from_points(points, weights, "RM", "work", 1, 0.2, *eps)
    joint_mix = mixture_from_points(points, weights, "RM", "joint", 1, 0.2, *eps)
    assert_allclose(work.ravel(), work_mix.centers, atol=0.0)
    assert_allclose(heat.ravel(), joint_mix.centers[:, 1], atol=0.0)
