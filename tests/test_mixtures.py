"""Gaussian mixture containers: densities, moments, characteristic functions."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import joint_density_on_grid
from ottomon.mixtures import GaussianMixture1D, GaussianMixture2D, prune_components

CENTERS = np.array([-2.0, 0.0, 1.5])
WEIGHTS = np.array([0.3, 0.5, 0.2])


def _quadrature_grid(mix: GaussianMixture1D, points: int = 8192) -> np.ndarray:
    spread = 10.0 * np.sqrt(mix.variance)
    return np.linspace(mix.centers.min() - spread, mix.centers.max() + spread, points)


def test_density_normalizes_and_is_nonnegative() -> None:
    mix = GaussianMixture1D(CENTERS, WEIGHTS, variance=0.09)
    grid = _quadrature_grid(mix)
    density = mix.density(grid)
    assert density.min() >= 0.0
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-12)


def test_moments_match_quadrature() -> None:
    mix = GaussianMixture1D(CENTERS, WEIGHTS, variance=0.04)
    grid = _quadrature_grid(mix)
    density = mix.density(grid)
    mean, second = mix.moments()
    assert mean == pytest.approx(np.trapezoid(grid * density, grid), abs=1e-10)
    assert second == pytest.approx(np.trapezoid(grid**2 * density, grid), abs=1e-10)
    # closed form: sum_k w_k c_k and sum_k w_k (c_k^2 + variance)
    assert mean == pytest.approx(WEIGHTS @ CENTERS, abs=1e-14)
    assert second == pytest.approx(WEIGHTS @ (CENTERS**2) + 0.04, abs=1e-14)


def test_characteristic_function_matches_quadrature() -> None:
    mix = GaussianMixture1D(CENTERS, WEIGHTS, variance=0.04)
    grid = _quadrature_grid(mix)
    density = mix.density(grid)
    for u in (0.0, 0.3, -1.2):
        direct = np.trapezoid(density * np.exp(1j * u * grid), grid)
        assert mix.characteristic_function(np.array([u]))[0] == pytest.approx(
            direct, abs=1e-10
        )


def test_zero_variance_moments_work_but_density_raises() -> None:
    mix = GaussianMixture1D(CENTERS, WEIGHTS, variance=0.0)
    mean, second = mix.moments()
    assert mean == pytest.approx(WEIGHTS @ CENTERS)
    assert second == pytest.approx(WEIGHTS @ (CENTERS**2))
    with pytest.raises(ValueError):
        mix.density(np.array([0.0]))


def test_prune_components_drops_negligible_weights() -> None:
    centers = np.array([0.0, 1.0, 2.0])
    weights = np.array([0.5, 1e-30, 0.5])
    kept_centers, kept_weights = prune_components(centers, weights, rel_tol=1e-18)
    assert kept_centers.tolist() == [0.0, 2.0]
    assert kept_weights.sum() == pytest.approx(1.0)


def test_mixture_validation_errors() -> None:
    with pytest.raises(ValueError):
        GaussianMixture1D(np.array([0.0, 1.0]), np.array([1.0]), variance=0.1)
    with pytest.raises(ValueError):
        GaussianMixture1D(np.array([0.0]), np.array([1.0]), variance=-0.1)


JOINT_CENTERS = np.array([[0.0, 0.0], [1.0, -0.5], [-1.5, 0.5]])
JOINT_WEIGHTS = np.array([0.5, 0.3, 0.2])
JOINT_COV = np.array([[0.08, -0.04], [-0.04, 0.04]])


def _joint_grids(points: int = 1200) -> tuple[np.ndarray, np.ndarray]:
    w = np.linspace(-4.5, 4.0, points)
    q = np.linspace(-3.5, 3.5, points)
    return w, q


def test_joint_density_grid_normalizes() -> None:
    mix = GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS, JOINT_COV)
    w, q = _joint_grids()
    density = joint_density_on_grid(mix, w, q)
    assert density.min() >= 0.0
    total = np.trapezoid(np.trapezoid(density, q, axis=-1), w)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_moments_match_quadrature_and_closed_form() -> None:
    mix = GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS, JOINT_COV)
    w, q = _joint_grids()
    density = joint_density_on_grid(mix, w, q)
    mean_w, mean_q, second_w, second_q, cross = mix.moments()
    grid_w = w[:, None]
    grid_q = q[None, :]
    assert mean_w == pytest.approx(
        np.trapezoid(np.trapezoid(density * grid_w, q, axis=-1), w), abs=1e-9
    )
    assert cross == pytest.approx(
        np.trapezoid(np.trapezoid(density * grid_w * grid_q, q, axis=-1), w), abs=1e-9
    )
    assert mean_w == pytest.approx(JOINT_WEIGHTS @ JOINT_CENTERS[:, 0], abs=1e-14)
    assert mean_q == pytest.approx(JOINT_WEIGHTS @ JOINT_CENTERS[:, 1], abs=1e-14)
    assert second_w == pytest.approx(
        JOINT_WEIGHTS @ (JOINT_CENTERS[:, 0] ** 2) + JOINT_COV[0, 0], abs=1e-14
    )
    assert second_q == pytest.approx(
        JOINT_WEIGHTS @ (JOINT_CENTERS[:, 1] ** 2) + JOINT_COV[1, 1], abs=1e-14
    )
    assert cross == pytest.approx(
        JOINT_WEIGHTS @ (JOINT_CENTERS[:, 0] * JOINT_CENTERS[:, 1]) + JOINT_COV[0, 1],
        abs=1e-14,
    )


def test_joint_marginal_matches_integrated_density() -> None:
    mix = GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS, JOINT_COV)
    w, q = _joint_grids()
    density = joint_density_on_grid(mix, w, q)
    for axis, grid in ((0, w), (1, q)):
        marginal = GaussianMixture1D(JOINT_CENTERS[:, axis], JOINT_WEIGHTS, JOINT_COV[axis, axis])
        integrated = np.trapezoid(density, q if axis == 0 else w, axis=1 - axis)
        assert_allclose(marginal.density(grid), integrated, atol=1e-9)


def test_joint_characteristic_function_closed_form() -> None:
    mix = GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS, JOINT_COV)
    u, v = 0.4, -0.7
    uv = np.array([u, v])
    expected = np.exp(-0.5 * uv @ JOINT_COV @ uv) * (
        JOINT_WEIGHTS @ np.exp(1j * (JOINT_CENTERS @ uv))
    )
    value = mix.characteristic_function(np.array([u]), np.array([v]))[0]
    assert value == pytest.approx(expected, abs=1e-14)


def test_joint_shape_validation() -> None:
    with pytest.raises(ValueError):
        GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS[:2], JOINT_COV)
    with pytest.raises(ValueError):
        GaussianMixture2D(JOINT_CENTERS, JOINT_WEIGHTS, np.eye(3))
