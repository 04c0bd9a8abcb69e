"""Two-level building blocks: stroke unitaries, sweep parameters, populations."""
from __future__ import annotations

import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottomon.qubit import (
    StrokeHamiltonian,
    WorkStrokeParams,
    build_forward_unitary,
    build_reverse_unitary,
    gibbs_population,
    landau_zener_params,
    projector,
    validate_density_matrix,
)


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("phi", [0.0, 0.4, -1.1])
def test_stroke_unitaries_are_unitary(alpha: float, phi: float) -> None:
    params = WorkStrokeParams(alpha=alpha, phi=phi)
    for u in (build_forward_unitary(params), build_reverse_unitary(params)):
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_reverse_unitary_is_transpose_of_forward() -> None:
    params = WorkStrokeParams(alpha=0.3, phi=0.7)
    forward = build_forward_unitary(params)
    assert_allclose(build_reverse_unitary(params), forward.T, atol=0.0)


def test_transition_probability_equals_alpha() -> None:
    params = WorkStrokeParams(alpha=0.17, phi=0.9)
    u = build_forward_unitary(params)
    assert abs(u[1, 0]) ** 2 == pytest.approx(0.17, abs=1e-15)
    assert abs(u[0, 0]) ** 2 == pytest.approx(0.83, abs=1e-15)


def test_adiabatic_stroke_is_diagonal_and_swap_is_antidiagonal() -> None:
    diag = build_forward_unitary(WorkStrokeParams(alpha=0.0, phi=0.25))
    assert abs(diag[0, 1]) == 0.0 and abs(diag[1, 0]) == 0.0
    assert diag[0, 0] == pytest.approx(np.exp(0.25j))
    swap = build_forward_unitary(WorkStrokeParams(alpha=1.0, phi=0.25))
    assert abs(swap[0, 0]) == 0.0 and abs(swap[1, 1]) == 0.0


def test_stroke_params_reject_alpha_outside_unit_interval() -> None:
    with pytest.raises(ValueError):
        WorkStrokeParams(alpha=-0.1)
    with pytest.raises(ValueError):
        WorkStrokeParams(alpha=1.1)


def _landau_zener_oracle(eps_c: float, eps_h: float, t1: float) -> tuple[float, float]:
    """Independent high-precision evaluation via mpmath."""
    delta = mpmath.mpf(eps_c) * t1 / (4 * mpmath.sqrt((mpmath.mpf(eps_h) / eps_c) ** 2 - 1))
    alpha = mpmath.e ** (-2 * mpmath.pi * delta)
    phi = (
        mpmath.pi / 4
        - delta * (mpmath.log(delta) - 1)
        - mpmath.arg(mpmath.gamma(1 - 1j * delta))
    )
    return float(alpha), float(phi)


@pytest.mark.parametrize("t1", [0.5, 2.0, 5.0, 12.0])
def test_landau_zener_params_match_mpmath_oracle(t1: float) -> None:
    params = landau_zener_params(1.0, 3.7, t1)
    alpha_ref, phi_ref = _landau_zener_oracle(1.0, 3.7, t1)
    assert params.alpha == pytest.approx(alpha_ref, rel=1e-13)
    assert params.phi == pytest.approx(phi_ref, rel=1e-13)


@pytest.mark.parametrize("delta", [1e-12, 1e-3, 1.0, 4.5, 5.0, 20.0, 1e3, 1e6])
def test_landau_zener_phase_follows_the_continuous_log_gamma_branch(delta: float) -> None:
    # mpmath.loggamma is the continuous branch; from delta ~ 4.6 on it parts
    # from the principal arg Gamma by 2*pi, which the oracle above cannot see.
    t1 = 4.0 * delta * np.sqrt(3.7**2 - 1.0)
    with mpmath.workdps(40):
        exact = mpmath.mpf(t1) / (4 * mpmath.sqrt(mpmath.mpf(3.7) ** 2 - 1))
        reference = float(
            mpmath.pi / 4
            - exact * (mpmath.log(exact) - 1)
            - mpmath.im(mpmath.loggamma(1 - 1j * exact))
        )
    phi = landau_zener_params(1.0, 3.7, t1).phi
    assert abs(phi - reference) <= 1e-13 * max(1.0, abs(reference))


def test_landau_zener_frozen_reference_values() -> None:
    params = landau_zener_params(1.0, 3.7, 5.0)
    assert params.alpha == pytest.approx(0.110278248672182, rel=1e-12)
    assert params.phi == pytest.approx(1.3175277408509, rel=1e-12)


def test_landau_zener_limits() -> None:
    sudden = landau_zener_params(1.0, 3.7, 1e-9)
    assert sudden.alpha == pytest.approx(1.0, abs=1e-8)
    adiabatic = landau_zener_params(1.0, 3.7, 60.0)
    assert adiabatic.alpha < 1e-10
    # The phase tends to pi/4 for a sudden sweep and to pi/2 for a slow one.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert landau_zener_params(1.0, 3.7, 1e-300).phi == pytest.approx(np.pi / 4, abs=1e-14)
        assert landau_zener_params(1.0, 3.7, 1e300).phi == pytest.approx(np.pi / 2, abs=1e-14)


def test_landau_zener_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        landau_zener_params(3.7, 1.0, 5.0)
    with pytest.raises(ValueError):
        landau_zener_params(1.0, 3.7, 0.0)
    # eps_c * t1 underflows, so the sweep exponent would be exactly 0.
    with pytest.raises(ValueError, match="sweep exponent"):
        landau_zener_params(1e-150, 2e-150, 1e-300)


def test_gibbs_population_values_and_limits() -> None:
    assert gibbs_population(0.25, 3.7) == pytest.approx(0.13587289700909425, rel=1e-14)
    assert gibbs_population(0.0, 2.0) == pytest.approx(0.5)
    beta, eps = 0.7, 1.3
    expected = np.exp(-beta * eps) / (np.exp(beta * eps) + np.exp(-beta * eps))
    assert gibbs_population(beta, eps) == pytest.approx(expected, rel=1e-14)
    assert gibbs_population(50.0, 3.0) < 1e-60
    # Past the overflow of cosh the exact double limits come back, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gibbs_population(1e4, 1.0) == 0.0
        assert gibbs_population(-1e4, 1.0) == 1.0
        assert gibbs_population(1.0, 1e4) == 0.0
        assert gibbs_population(700.0, 1.0) == 0.0
        assert gibbs_population(-700.0, 1.0) == 1.0


def test_stroke_hamiltonian_energies_and_validation() -> None:
    h = StrokeHamiltonian(2.5, "hot")
    assert_allclose(h.energies, [-2.5, 2.5])
    assert_allclose(h.matrix, np.diag([-2.5, 2.5]))
    with pytest.raises(ValueError):
        StrokeHamiltonian(-1.0, "cold")
    with pytest.raises(ValueError):
        StrokeHamiltonian(1.0, "lukewarm")


def test_projector_levels() -> None:
    assert_allclose(projector(0), np.diag([1.0, 0.0]))
    assert_allclose(projector(1), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        projector(2)


def test_validate_density_matrix_accepts_and_rejects() -> None:
    good = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    validate_density_matrix(good)
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.6, 0.3], [0.1, 0.4]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.8, 0.0], [0.0, 0.4]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3) / 3.0)
