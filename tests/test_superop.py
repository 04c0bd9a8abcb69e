"""Vectorization helpers: round trips, channel matrices, sector coupling."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density_matrices
from ottomon.superop import (
    TRACE_VEC,
    conjugation,
    hermitize,
    sandwich,
    sector_coupling,
    trace_of_vec,
    unvec,
    vec,
)


def test_vec_unvec_round_trip(rng: np.random.Generator) -> None:
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert_allclose(unvec(vec(x)), x, atol=0.0)
    assert vec(x)[1] == x[1, 0]
    assert vec(x)[2] == x[0, 1]


def test_trace_vec_implements_trace(rng: np.random.Generator) -> None:
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert trace_of_vec(vec(x)) == pytest.approx(np.trace(x))
    assert TRACE_VEC @ vec(x) == pytest.approx(np.trace(x))


def test_sandwich_matches_direct_product(rng: np.random.Generator) -> None:
    left = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    right = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert_allclose(
        unvec(sandwich(left, right) @ vec(x)), left @ x @ right.conj().T, atol=1e-14
    )


def test_conjugation_preserves_trace_and_state(rng: np.random.Generator) -> None:
    angle = 0.9
    u = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
        dtype=complex,
    )
    sop = conjugation(u)
    assert_allclose(TRACE_VEC @ sop, TRACE_VEC, atol=1e-14)
    rho = random_density_matrices(rng, 1)[0]
    assert_allclose(unvec(sop @ vec(rho)), u @ rho @ u.conj().T, atol=1e-14)


def test_hermitize_projects_onto_hermitian_part(rng: np.random.Generator) -> None:
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = hermitize(x)
    assert_allclose(h, h.conj().T, atol=0.0)
    assert_allclose(hermitize(h), h, atol=0.0)


def test_sector_coupling_detects_population_coherence_mixing() -> None:
    assert sector_coupling(np.diag([1, 0.5, 0.5, 1])) == 0.0
    diag_channel = np.diag([1.0, 0.3 + 0.2j, 0.3 - 0.2j, 1.0])
    assert sector_coupling(diag_channel) == 0.0
    angle = 0.4
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
        dtype=complex,
    )
    assert sector_coupling(conjugation(rot)) > 0.1
    flip = np.eye(4, dtype=complex)
    flip[1, 2] = flip[2, 1] = 0.7
    assert sector_coupling(flip) == pytest.approx(0.7)
