"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from ottomon import DirectStroke, EngineConfig, PerfectThermo
from ottomon.lattice import as_weight_table, mixture_from_points
from ottomon.oracle import enumerate_branches, point_weights


@pytest.fixture(scope="session")
def default_config() -> EngineConfig:
    """Imperfect-thermalization reference point used across the suite."""
    return EngineConfig()


@pytest.fixture(scope="session")
def adiabatic_perfect_config() -> EngineConfig:
    """Adiabatic strokes, perfect thermalization onto finite-coupling targets."""
    return EngineConfig(
        stroke=DirectStroke(alpha=0.0, phi=0.0),
        thermo=PerfectThermo(
            beta_c=0.25,
            beta_h=0.025,
            gamma=0.5,
            omega_d=0.2,
            targets="generalized_gibbs",
        ),
        init="generalized_gibbs_cold",
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


def random_density_matrices(rng: np.random.Generator, count: int) -> np.ndarray:
    """Batch of random qubit density matrices (Hermitian, unit trace, psd)."""
    a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    rho = a @ a.conj().transpose(0, 2, 1)
    trace = np.trace(rho, axis1=1, axis2=2).real
    return rho / trace[:, None, None]


def enumerated_weights(engine, scheme, observable, cycles, initial=None) -> dict:
    """Point -> weight table of one readout of the exhaustive enumeration."""
    table = enumerate_branches(engine, cycles, initial)
    return as_weight_table(*point_weights(table, scheme, observable))


def enumerated_mixture(engine, scheme, observable, cycles, initial=None):
    """Mixture of one readout (work, heat or joint) of the enumeration."""
    table = enumerate_branches(engine, cycles, initial)
    points, weights = point_weights(table, scheme, observable)
    return mixture_from_points(points, weights, scheme, observable, cycles, table.model.config)


def merge_equal_centers(
    centers: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted 1-D centers equal to 9 decimals, each with its summed weight."""
    keys = np.round(np.asarray(centers, dtype=float), 9)
    merged_centers, inverse = np.unique(keys, return_inverse=True)
    merged_weights = np.zeros(merged_centers.shape[0])
    np.add.at(merged_weights, inverse, np.asarray(weights, dtype=float))
    return merged_centers, merged_weights


def joint_density_on_grid(mix, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A joint mixture's density on the outer grid of w and q, as (len(w), len(q))."""
    ww, qq = np.meshgrid(w, q, indexing="ij")
    return mix.density(ww.ravel(), qq.ravel()).reshape(ww.shape)
