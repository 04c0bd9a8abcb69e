"""Brute-force path enumeration: the reference route for small cycle counts."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import enumerated_mixture, enumerated_weights, merge_equal_centers
from ottomon import EngineConfig
from ottomon.lattice import mixture_from_points
from ottomon.mixtures import GaussianMixture1D
from ottomon.oracle import ORACLE_CYCLE_LIMIT, enumerate_branches, point_weights


@pytest.mark.parametrize("cycles", [1, 2])
def test_all_weight_tables_normalize(default_config, cycles) -> None:
    # Individual component weights may be slightly negative: branches pairing
    # different outcome records on the two sides of the state are interference
    # components, positive only in aggregate.  The density check below
    # confirms the assembled distribution is a genuine one.
    for scheme in ("RM", "RC1", "RC2"):
        work = enumerated_weights(default_config, scheme, "work", cycles)
        heat = enumerated_weights(default_config, scheme, "heat", cycles)
        assert sum(work.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(heat.values()) == pytest.approx(1.0, abs=1e-12)


def test_marginal_densities_are_nonnegative(default_config) -> None:
    for scheme, observable in (
        ("RM", "work"),
        ("RC2", "work"),
        ("RM", "heat"),
        ("RC2", "heat"),
    ):
        mix = enumerated_mixture(default_config, scheme, observable, 1)
        spread = 8.0 * np.sqrt(mix.variance)
        grid = np.linspace(mix.centers.min() - spread, mix.centers.max() + spread, 4001)
        density = mix.density(grid)
        assert density.min() >= -1e-9
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-9)


def test_branch_fields_are_consistent(default_config) -> None:
    eps_c, eps_h = default_config.eps_c, default_config.eps_h
    table = enumerate_branches(default_config, 2)
    points, weights = point_weights(table, "RC2", "joint")
    mix = mixture_from_points(points, weights, "RC2", "joint", 2, default_config)
    for (a, b), (work, heat) in zip(points, mix.centers):
        assert work == pytest.approx(a * eps_c + b * eps_h, abs=1e-12)
        assert heat == pytest.approx(-b * eps_h, abs=1e-12)
    # The two-pointer weight of a point is the sum over its branch pairs of
    # the trace times the product of the work and heat overlap factors.
    expected: dict = {}
    rows = zip(
        table.a,
        table.b,
        table.values,
        table.suppression_rc_work,
        table.suppression_rc_heat,
    )
    for a, b, value, supp_w, supp_q in rows:
        key = (int(a), int(b))
        expected[key] = expected.get(key, 0.0) + (value * supp_w * supp_q).real
    for (a, b), weight in zip(points, weights):
        assert weight == pytest.approx(expected[(int(a), int(b))], abs=1e-14)
    assert np.all((0.0 <= table.suppression_rm) & (table.suppression_rm <= 1.0))


@pytest.mark.parametrize("cycles", [1, 2])
def test_joint_marginalizes_onto_the_marginal_mixtures(default_config, cycles) -> None:
    for scheme in ("RM", "RC2"):
        joint = enumerated_mixture(default_config, scheme, "joint", cycles)
        for axis, observable in ((0, "work"), (1, "heat")):
            projected = GaussianMixture1D(
                joint.centers[:, axis], joint.weights, joint.covariance[axis, axis]
            )
            direct = enumerated_mixture(default_config, scheme, observable, cycles)
            pc, pw = merge_equal_centers(projected.centers, projected.weights)
            dc, dw = merge_equal_centers(direct.centers, direct.weights)
            assert_allclose(pc, dc, atol=1e-12)
            assert_allclose(pw, dw, atol=1e-12)
            assert projected.variance == pytest.approx(direct.variance, abs=1e-14)


def test_joint_moments_agree_with_marginal_moments(default_config) -> None:
    joint = enumerated_mixture(default_config, "RM", "joint", 2)
    mean_w, mean_q, second_w, second_q, cross = joint.moments()
    work_mean, work_second = enumerated_mixture(
        default_config, "RM", "work", 2
    ).moments()
    heat_mean, heat_second = enumerated_mixture(
        default_config, "RM", "heat", 2
    ).moments()
    assert mean_w == pytest.approx(work_mean, abs=1e-13)
    assert second_w == pytest.approx(work_second, abs=1e-13)
    assert mean_q == pytest.approx(heat_mean, abs=1e-13)
    assert second_q == pytest.approx(heat_second, abs=1e-13)
    assert abs(cross) < abs(mean_w) + abs(mean_q) + second_w + second_q


@pytest.mark.parametrize("cycles", [1, 2])
def test_one_and_two_pointer_work_statistics_coincide(default_config, cycles) -> None:
    one = enumerated_weights(default_config, "RC1", "work", cycles)
    two = enumerated_weights(default_config, "RC2", "work", cycles)
    assert set(one) == set(two)
    for key, weight in one.items():
        assert weight == pytest.approx(two[key], abs=1e-14)
    mix_one = enumerated_mixture(default_config, "RC1", "work", cycles)
    mix_two = enumerated_mixture(default_config, "RC2", "work", cycles)
    assert mix_one.variance == pytest.approx(mix_two.variance)


def test_zero_width_pointers_give_point_masses(default_config) -> None:
    config = EngineConfig(sigma=0.0)
    work = enumerated_weights(config, "RM", "work", 1)
    assert sum(work.values()) == pytest.approx(1.0, abs=1e-12)
    mix = enumerated_mixture(config, "RM", "work", 1)
    assert mix.variance == 0.0
    # with indicator suppression only mismatch-free branches survive, so the
    # weights coincide with the fully dephased channel statistics
    wide = enumerated_weights(EngineConfig(sigma=1e-9), "RM", "work", 1)
    for key, weight in wide.items():
        assert weight == pytest.approx(work.get(key, 0.0), abs=1e-12)


def test_enumeration_is_cycle_limited_and_validates_pointers(default_config) -> None:
    assert ORACLE_CYCLE_LIMIT == 3
    with pytest.raises(ValueError):
        enumerate_branches(default_config, ORACLE_CYCLE_LIMIT + 1)
    with pytest.raises(ValueError):
        point_weights(enumerate_branches(default_config, 1), "RC3", "work")


def test_weighting_refuses_a_one_pointer_joint_and_unknown_observables(
    default_config,
) -> None:
    table = enumerate_branches(default_config, 1)
    with pytest.raises(ValueError, match="two pointers"):
        point_weights(table, "RC1", "joint")
    with pytest.raises(ValueError, match="observable"):
        point_weights(table, "RM", "entropy")
    points, weights = point_weights(table, "RM", "work")
    with pytest.raises(ValueError, match="observable"):
        mixture_from_points(points, weights, "RM", "entropy", 1, EngineConfig())


def test_initial_state_override_shifts_the_distribution(default_config) -> None:
    ground = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    mean_ground = enumerated_mixture(
        default_config, "RM", "work", 1, initial=ground
    ).moments()[0]
    mean_excited = enumerated_mixture(
        default_config, "RM", "work", 1, initial=excited
    ).moments()[0]
    assert mean_ground != pytest.approx(mean_excited, abs=1e-6)
