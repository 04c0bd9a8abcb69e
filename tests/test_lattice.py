"""Polynomial-cost lattice runs versus the brute-force enumeration."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import enumerated_mixture
from ottomon import EngineConfig, LandauZenerStroke, PerfectThermo
from ottomon.asymptotics import prepare_initial_state
from ottomon.engine import (
    MAX_SHIFT,
    build_model,
    tilted_cycle_coefficients,
)
from ottomon.lattice import (
    LATTICE_MEMORY_BUDGET,
    as_weight_table,
    check_lattice_budget,
    joint_via_lattice,
    lattice_points,
    marginal_via_lattice,
)
from ottomon.mixtures import collapse_duplicates
from ottomon.moments import work_per_cycle_series
from ottomon.superop import conjugation, trace_of_vec, vec


def _assert_same_mixture(lhs, rhs, atol: float = 1e-12) -> None:
    lc, lw = collapse_duplicates(lhs.centers, lhs.weights)
    rc, rw = collapse_duplicates(rhs.centers, rhs.weights)
    keep_l = np.abs(lw) > 1e-15
    keep_r = np.abs(rw) > 1e-15
    assert_allclose(lc[keep_l], rc[keep_r], atol=1e-12)
    assert_allclose(lw[keep_l], rw[keep_r], atol=atol)
    assert lhs.variance == pytest.approx(rhs.variance, abs=1e-14)


@pytest.mark.parametrize("scheme", ["RM", "RC1", "RC2"])
@pytest.mark.parametrize("observable", ["work", "heat"])
def test_lattice_matches_enumeration_for_one_cycle(
    default_config, scheme, observable
) -> None:
    lattice = marginal_via_lattice(default_config, scheme, observable, 1)
    reference = enumerated_mixture(default_config, scheme, observable, 1)
    _assert_same_mixture(lattice, reference)


def test_lattice_matches_enumeration_for_two_cycles(default_config) -> None:
    for scheme in ("RM", "RC2"):
        lattice = marginal_via_lattice(default_config, scheme, "work", 2)
        reference = enumerated_mixture(default_config, scheme, "work", 2)
        _assert_same_mixture(lattice, reference)


def test_fold_scales_only_the_coherences() -> None:
    model = build_model(EngineConfig(sigma=1.0))
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
    folded = prepare_initial_state(model, "RC2", "work", rho)
    factor = np.exp(-0.5)
    assert folded[0, 0] == 0.6
    assert folded[1, 1] == 0.4
    assert folded[1, 0] == pytest.approx(factor * (0.2 - 0.1j))
    assert folded[0, 1] == pytest.approx(factor * (0.2 + 0.1j))
    assert_allclose(rho[0, 1], 0.2 + 0.1j, atol=0)


def test_fold_requirement_table() -> None:
    model = build_model(EngineConfig(sigma=1.0))
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
    folds = {
        ("RM", "work"): False,
        ("RM", "heat"): False,
        ("RC1", "work"): True,
        ("RC1", "heat"): False,
        ("RC2", "work"): True,
        ("RC2", "heat"): True,
    }
    for (scheme, observable), folded in folds.items():
        prepared = prepare_initial_state(model, scheme, observable, rho)
        assert (prepared[0, 1] != rho[0, 1]) == folded, (scheme, observable)


def test_accumulated_pointer_kernel_fails_closed_on_sector_mixing(default_config) -> None:
    model = build_model(default_config)
    angle = 0.4
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
        dtype=complex,
    )

    class SectorMixingChannel:
        def superoperator(self) -> np.ndarray:
            return conjugation(rot)

    model.hot_channel = SectorMixingChannel()
    for scheme in ("RC1", "RC2"):
        with pytest.raises(ValueError, match="mixes population and coherence"):
            lattice_points(model, scheme, "work", 1)
    # the per-stroke readout scheme does not rely on the decoupling structure
    lattice_points(model, "RM", "work", 1)


def test_accumulator_refuses_lattices_over_the_memory_budget(default_config) -> None:
    model = build_model(default_config)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ottomon moments"):
            lattice_points(model, "RM", "work", 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Refused from the estimate, before any grid is allocated.
    assert peak < 2**20
    # Every lattice size in use (at most 200 cycles) fits the budget.
    assert LATTICE_MEMORY_BUDGET == 2**30
    for observable in ("work", "heat"):
        check_lattice_budget(200, observable)


def test_accumulator_refuses_runs_over_the_point_budget(default_config) -> None:
    model = build_model(default_config)
    tracemalloc.start()
    try:
        # A heat lattice this long fits the memory budget but not the time one.
        with pytest.raises(ValueError, match="ottomon moments"):
            lattice_points(model, "RM", "heat", 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The largest work lattice admitted under the earlier memory-only guard
    # stays admitted, and the next one is refused.
    check_lattice_budget(457, "work")
    with pytest.raises(ValueError, match="points"):
        check_lattice_budget(458, "work")


def test_accumulator_refuses_a_non_hermitian_state(default_config) -> None:
    rho = np.array([[0.6, 0.2], [0.1, 0.4]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        lattice_points(default_config, "RM", "work", 1, initial=rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        lattice_points(default_config, "RM", "heat", 2, initial=rho)


def test_kernel_refuses_a_stroke_that_breaks_hermiticity(default_config) -> None:
    model = build_model(default_config)

    class PhaseChannel:
        # X -> exp(0.3i) X keeps the sectors apart but not Hermiticity.
        def superoperator(self) -> np.ndarray:
            return np.exp(0.3j) * np.eye(4)

    model.hot_channel = PhaseChannel()
    for scheme in ("RM", "RC2"):
        for observable in ("work", "heat"):
            with pytest.raises(ValueError, match="Hermiticity"):
                lattice_points(model, scheme, observable, 1)


def grouped_convolution(model, scheme, observable, cycles) -> dict:
    """Weight table of the earlier lattice advance: the tilted-map
    coefficients grouped by lattice shift (all-zero groups dropped), each
    scattering the whole complex grid once per cycle."""
    coeffs = tilted_cycle_coefficients(model, scheme)
    steps = np.arange(-MAX_SHIFT, MAX_SHIFT + 1)
    if observable == "work":
        grid_axes = np.meshgrid(steps, steps, indexing="ij")
        shifts = np.stack(grid_axes, axis=-1).reshape(-1, 2)
        operators = coeffs.reshape(-1, 4, 4)
    else:
        shifts = steps[:, None]
        operators = coeffs.sum(axis=0)[::-1]
    live = np.abs(operators).max(axis=(1, 2)) > 1e-60
    dims = shifts.shape[1]
    offset = MAX_SHIFT * cycles
    grid = np.zeros((2 * offset + 1,) * dims + (4,), dtype=complex)
    grid[(offset,) * dims] = vec(prepare_initial_state(model, scheme, observable))
    axes = tuple(range(dims))
    for _ in range(cycles):
        # The grid spans every reachable point, so the rolls never wrap
        # anything but zeros.
        grid = sum(
            np.roll(grid @ op.T, tuple(shift), axis=axes)
            for shift, op in zip(shifts[live], operators[live])
        )
    traces = trace_of_vec(grid).real
    table = {}
    for index in zip(*np.nonzero(np.abs(grid).max(axis=-1) > 0.0)):
        key = tuple(int(i) - offset for i in index)
        table[key if dims == 2 else key[0]] = float(traces[index])
    return table


# The engines of the kernel-versus-enumeration check of the tilted map.
ADVANCE_ENGINES = {
    "direct": EngineConfig(),
    "landau_zener": EngineConfig(stroke=LandauZenerStroke(t1=5.0), sigma=2.0),
    "perfect_gibbs": EngineConfig(thermo=PerfectThermo(beta_c=0.25, beta_h=0.025)),
}


@pytest.mark.parametrize("engine", sorted(ADVANCE_ENGINES))
def test_contact_advance_matches_the_grouped_convolution(engine) -> None:
    model = build_model(ADVANCE_ENGINES[engine])
    for scheme in ("RM", "RC1", "RC2"):
        for observable in ("work", "heat"):
            got = as_weight_table(*lattice_points(model, scheme, observable, 20))
            expected = grouped_convolution(model, scheme, observable, 20)
            assert set(got) == set(expected), (scheme, observable)
            deviation = max(abs(got[key] - value) for key, value in expected.items())
            assert deviation <= 1e-14, (scheme, observable, deviation)


def test_trace_is_conserved_across_cycles(default_config) -> None:
    model = build_model(default_config)
    for cycles in range(1, 7):
        _, weights = lattice_points(model, "RM", "work", cycles)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cycles", [1, 2])
def test_joint_via_lattice_matches_enumeration(default_config, cycles) -> None:
    for scheme in ("RM", "RC2"):
        lattice = joint_via_lattice(default_config, scheme, cycles)
        reference = enumerated_mixture(default_config, scheme, "joint", cycles)
        assert_allclose(
            np.array(lattice.moments()),
            np.array(reference.moments()),
            atol=1e-12,
        )
        assert_allclose(lattice.covariance, reference.covariance, atol=1e-14)


def test_joint_via_lattice_rejects_single_pointer(default_config) -> None:
    with pytest.raises(ValueError, match="two pointers"):
        joint_via_lattice(default_config, "RC1", 1)


def test_one_and_two_pointer_work_lattices_are_identical(default_config) -> None:
    # The CLI reads both accumulated-pointer work marginals off one lattice.
    one = marginal_via_lattice(default_config, "RC1", "work", 12)
    two = marginal_via_lattice(default_config, "RC2", "work", 12)
    np.testing.assert_array_equal(one.centers, two.centers)
    np.testing.assert_array_equal(one.weights, two.weights)
    assert one.variance == two.variance


def test_work_series_first_cycle_matches_enumeration(default_config) -> None:
    rows = work_per_cycle_series(default_config, "RM", 3)
    assert [row[0] for row in rows] == [1, 2, 3]
    mean, second = enumerated_mixture(default_config, "RM", "work", 1).moments()
    variance = second - mean * mean
    assert rows[0][1] == pytest.approx(mean, abs=1e-13)
    assert rows[0][2] == pytest.approx(-mean / np.sqrt(variance), abs=1e-12)


def test_zero_width_lattice_marginal_is_a_point_mass_mixture() -> None:
    config = EngineConfig(sigma=0.0)
    mix = marginal_via_lattice(config, "RM", "work", 2)
    assert mix.variance == 0.0
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_unknown_scheme_and_observable_are_rejected(default_config) -> None:
    with pytest.raises(ValueError):
        marginal_via_lattice(default_config, "RC3", "work", 1)
    with pytest.raises(ValueError):
        marginal_via_lattice(default_config, "RM", "entropy", 1)
