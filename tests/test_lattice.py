"""Polynomial-cost lattice accumulation versus the brute-force enumeration."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottomon import EngineConfig
from ottomon.engine import build_model
from ottomon.lattice import (
    advance_cycle,
    build_cycle_kernel,
    fold_initial_state_rc,
    fold_required,
    initialize_accumulator,
    joint_via_lattice,
    marginal_via_lattice,
    prepare_initial_state,
    total_trace,
    weight_table,
    work_per_cycle_series,
)
from ottomon.mixtures import collapse_duplicates
from ottomon.oracle import (
    joint_pdf_rc,
    joint_pdf_rm,
    marginal_rc_heat,
    marginal_rc_work,
    marginal_rm_heat,
    marginal_rm_work,
    mixture_moments,
)
from ottomon.superop import conjugation

ORACLE_MARGINALS = {
    ("RM", "work"): marginal_rm_work,
    ("RM", "heat"): marginal_rm_heat,
    ("RC1", "work"): lambda cfg, n: marginal_rc_work(cfg, n, pointers=1),
    ("RC1", "heat"): lambda cfg, n: marginal_rc_heat(cfg, n, pointers=1),
    ("RC2", "work"): lambda cfg, n: marginal_rc_work(cfg, n, pointers=2),
    ("RC2", "heat"): lambda cfg, n: marginal_rc_heat(cfg, n, pointers=2),
}


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
    reference = ORACLE_MARGINALS[(scheme, observable)](default_config, 1)
    _assert_same_mixture(lattice, reference)


def test_lattice_matches_enumeration_for_two_cycles(default_config) -> None:
    for scheme in ("RM", "RC2"):
        lattice = marginal_via_lattice(default_config, scheme, "work", 2)
        reference = ORACLE_MARGINALS[(scheme, "work")](default_config, 2)
        _assert_same_mixture(lattice, reference)


def test_fold_scales_only_the_coherences() -> None:
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
    folded = fold_initial_state_rc(rho, sigma=1.0, eps_c=1.0)
    factor = np.exp(-0.5)
    assert folded[0, 0] == pytest.approx(0.6)
    assert folded[1, 1] == pytest.approx(0.4)
    assert folded[1, 0] == pytest.approx(factor * (0.2 - 0.1j))
    assert folded[0, 1] == pytest.approx(factor * (0.2 + 0.1j))


def test_fold_requirement_table() -> None:
    assert not fold_required("RM", "work")
    assert not fold_required("RM", "heat")
    assert fold_required("RC1", "work")
    assert not fold_required("RC1", "heat")
    assert fold_required("RC2", "work")
    assert fold_required("RC2", "heat")


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
            build_cycle_kernel(model, scheme, "work")
    # the per-stroke readout scheme does not rely on the decoupling structure
    build_cycle_kernel(model, "RM", "work")


def test_accumulator_capacity_is_enforced(default_config) -> None:
    kernel = build_cycle_kernel(default_config, "RM", "work")
    rho = prepare_initial_state(kernel.model, "RM", "work")
    acc = initialize_accumulator(rho, 1, "work", 1.0, 3.7)
    acc = advance_cycle(acc, kernel)
    with pytest.raises(ValueError, match="capacity"):
        advance_cycle(acc, kernel)


def test_trace_is_conserved_across_cycles(default_config) -> None:
    kernel = build_cycle_kernel(default_config, "RM", "work")
    rho = prepare_initial_state(kernel.model, "RM", "work")
    acc = initialize_accumulator(rho, 6, "work", 1.0, 3.7)
    for _ in range(6):
        acc = advance_cycle(acc, kernel)
        assert total_trace(acc).real == pytest.approx(1.0, abs=1e-12)
        assert abs(total_trace(acc).imag) < 1e-13


def test_weight_table_tolerance_prunes_entries(default_config) -> None:
    kernel = build_cycle_kernel(default_config, "RM", "work")
    rho = prepare_initial_state(kernel.model, "RM", "work")
    acc = initialize_accumulator(rho, 2, "work", 1.0, 3.7)
    for _ in range(2):
        acc = advance_cycle(acc, kernel)
    full = weight_table(acc)
    pruned = weight_table(acc, tol=1e-6)
    assert len(pruned) < len(full)
    assert sum(full.values()) == pytest.approx(1.0, abs=1e-12)
    for key, value in pruned.items():
        assert value == pytest.approx(full[key])


@pytest.mark.parametrize("cycles", [1, 2])
def test_joint_via_lattice_matches_enumeration(default_config, cycles) -> None:
    for scheme, reference_fn in (("RM", joint_pdf_rm), ("RC2", joint_pdf_rc)):
        lattice = joint_via_lattice(default_config, scheme, cycles)
        reference = reference_fn(default_config, cycles)
        assert_allclose(
            np.array(mixture_moments(lattice)),
            np.array(mixture_moments(reference)),
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
    mean, second = mixture_moments(marginal_rm_work(default_config, 1))
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
