"""Thermalization channels and the finite-coupling equilibrium state."""
from __future__ import annotations

import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density_matrices
from ottomon import thermal
from ottomon.qubit import StrokeHamiltonian, gibbs_population
from ottomon.superop import TRACE_VEC, conjugation, unvec, vec
from ottomon.thermal import (
    BathSpec,
    LindbladMap,
    PerfectMap,
    ThermalState,
    decoupling_violation,
    generalized_gibbs,
)

COLD_BATH = BathSpec(beta=0.25, gamma=0.5, omega_d=0.2, label="cold")
HOT_BATH = BathSpec(beta=0.025, gamma=0.5, omega_d=0.2, label="hot")


def _liouvillian(gamma: float, equilibrium: float) -> np.ndarray:
    """Independent dissipator construction in dimensionless stroke time.

    Jump operators raise and lower the energy label with rates chosen so the
    total relaxation rate is 2*gamma and the stationary excited population is
    ``equilibrium``; the Hamiltonian part contributes the -2i phase on the
    excited-ground coherence.
    """
    h = np.diag([-1.0, 1.0]).astype(complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise_ = lower.conj().T
    rates = {2.0 * gamma * (1.0 - equilibrium): lower, 2.0 * gamma * equilibrium: raise_}
    eye = np.eye(2, dtype=complex)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, c in rates.items():
        cdc = c.conj().T @ c
        liou += rate * (
            np.kron(c.conj(), c)
            - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
        )
    return liou


@pytest.mark.parametrize("theta", [0.0, 0.6, 3.0])
@pytest.mark.parametrize("beta,gamma", [(0.25, 0.025), (0.8, 0.3)])
def test_lindblad_channel_matches_integrated_master_equation(
    theta: float, beta: float, gamma: float, rng: np.random.Generator
) -> None:
    h = StrokeHamiltonian(1.0, "cold")
    bath = BathSpec(beta=beta, gamma=gamma, label="cold")
    channel = LindbladMap(bath, h, theta)
    liou = _liouvillian(gamma, gibbs_population(beta, 1.0))
    # The Liouvillian is constant, so the master equation integrates to its
    # exponential, taken here at 30 digits.
    with mpmath.workdps(30):
        propagator = mpmath.expm(mpmath.matrix(liou.tolist()) * theta)
        propagator = np.array(propagator.tolist(), dtype=complex)
    for rho in random_density_matrices(rng, 4):
        assert_allclose(channel.apply(rho), unvec(propagator @ vec(rho)), atol=1e-10)


def test_lindblad_channel_scales_phase_with_half_gap(rng: np.random.Generator) -> None:
    # theta is dimensionless, so the same theta must give the same channel
    # regardless of the half-gap entering through the Hamiltonian.
    rho = random_density_matrices(rng, 1)[0]
    a = LindbladMap(BathSpec(beta=0.5, gamma=0.1, label="cold"), StrokeHamiltonian(1.0), 2.0)
    b = LindbladMap(BathSpec(beta=0.5 / 3.7, gamma=0.1, label="cold"), StrokeHamiltonian(3.7), 2.0)
    assert_allclose(a.apply(rho), b.apply(rho), atol=1e-14)


def test_lindblad_limits_identity_and_gibbs(rng: np.random.Generator) -> None:
    h = StrokeHamiltonian(1.0, "cold")
    bath = BathSpec(beta=0.25, gamma=0.025, label="cold")
    rho = random_density_matrices(rng, 1)[0]
    frozen = LindbladMap(BathSpec(beta=0.25, gamma=0.0, label="cold"), h, 0.0)
    assert_allclose(frozen.apply(rho), rho, atol=0.0)
    relaxed = LindbladMap(bath, h, 1e5).apply(rho)
    gibbs = ThermalState(d=gibbs_population(0.25, 1.0)).matrix
    assert_allclose(relaxed, gibbs, atol=1e-12)


def test_channels_preserve_trace_and_positivity(rng: np.random.Generator) -> None:
    h = StrokeHamiltonian(1.0, "cold")
    channels = [
        LindbladMap(BathSpec(beta=0.25, gamma=0.025, label="cold"), h, 8.0),
        PerfectMap(ThermalState(d=0.3, q=0.01 + 0.02j)),
    ]
    for channel in channels:
        sop = channel.superoperator()
        assert_allclose(TRACE_VEC @ sop, TRACE_VEC, atol=1e-14)
        for rho in random_density_matrices(rng, 30):
            out = channel.apply(rho)
            assert abs(np.trace(out) - 1.0) < 1e-13
            assert np.linalg.eigvalsh(out).min() > -1e-13


def test_perfect_map_is_rank_one_projection(rng: np.random.Generator) -> None:
    target = ThermalState(d=0.3775, q=5.08e-5)
    channel = PerfectMap(target)
    for rho in random_density_matrices(rng, 5):
        assert_allclose(channel.apply(rho), target.matrix, atol=0.0)
    singulars = np.linalg.svd(channel.superoperator(), compute_uv=False)
    assert singulars[1] < 1e-15
    traceless = np.array([[0.5, 0.2], [0.1, -0.5]], dtype=complex)
    assert_allclose(channel.apply_unnormalized(traceless), 0.0, atol=0.0)


def test_decoupling_violation_flags_only_sector_mixing_channels() -> None:
    h = StrokeHamiltonian(1.0, "cold")
    lind = LindbladMap(BathSpec(beta=0.25, gamma=0.025, label="cold"), h, 8.0)
    assert decoupling_violation(lind) < 1e-15
    assert decoupling_violation(PerfectMap(ThermalState(d=0.4))) < 1e-15
    # A projection onto a coherent target turns populations into coherences,
    # so it must be flagged even though it is a perfectly valid channel.
    assert decoupling_violation(PerfectMap(ThermalState(d=0.4, q=0.05))) == pytest.approx(0.05)

    class Rotation:
        def superoperator(self) -> np.ndarray:
            angle = 0.4
            rot = np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
                dtype=complex,
            )
            return conjugation(rot)

    assert decoupling_violation(Rotation()) > 0.1


def test_generalized_gibbs_frozen_reference_values() -> None:
    cold = generalized_gibbs(COLD_BATH, StrokeHamiltonian(1.0, "cold"))
    hot = generalized_gibbs(HOT_BATH, StrokeHamiltonian(3.7, "hot"))
    assert cold.d == pytest.approx(0.37759, abs=1e-4)
    assert hot.d == pytest.approx(0.45388, abs=1e-4)
    assert cold.q == pytest.approx(5.0813e-5, rel=1e-2)
    assert hot.q == pytest.approx(-1.9205e-6, rel=1e-2)


# (beta, gamma, omega_d, eps) -> (d, |q|) from 20-digit mpmath quadrature.
GENERALIZED_GIBBS_REFERENCE = {
    (0.25, 0.5, 0.2, 1.0): ("0.3775902415219860602763", "0.00005081129435506855511184"),
    (0.025, 0.5, 0.2, 3.7): ("0.4538833729140818643607", "0.000001920509854530188363441"),
    (10.0, 1.0, 5.0, 10.0): ("0.01528661036579033694979", "0.274144492395165476686"),
    (360.0, 0.025, 0.2, 1.0): ("0.000003143418483072976717097", "0.0001179648267857264213932"),
}


@pytest.mark.parametrize(
    "bath", list(GENERALIZED_GIBBS_REFERENCE), ids=["cold", "hot", "wide-cutoff", "beta-eps-360"]
)
def test_generalized_gibbs_matches_high_precision_values(bath) -> None:
    """d within 1e-13 absolute and q within 1e-12 relative of frozen values.

    The baths are the default cold and hot baths, a hard one (wide cutoff at
    high beta*eps) and one whose e^{2 beta eps} overflows a double.  The values
    come from the defining double integrals, folded by C(lam) = C(beta - lam),
    with ``reference(*bath)`` at ``mp.mp.dps = 20`` (4 s to 7 min a bath)::

        import mpmath as mp

        def reference(beta, gamma, omega_d, eps):
            beta, gamma, omega_d, eps = (mp.mpf(x) for x in (beta, gamma, omega_d, eps))
            J = lambda w: gamma * omega_d * w / (2 * (1 + (w / omega_d) ** 2) ** 2)

            @mp.memoize
            def C(lam):  # imaginary-time bath correlation; C(lam) = C(beta - lam)
                f = lambda w: J(w) * mp.cosh(w * (beta / 2 - lam)) / mp.sinh(beta * w / 2)
                cuts = [0] + sorted({1 / beta, omega_d, 1 / lam}) + [mp.inf]
                return mp.quad(f, cuts) / (2 * mp.pi)

            # Fold [0, beta] onto [0, beta/2]; halve the panels toward the layer at 0.
            cuts = [beta / 2]
            while cuts[-1] > min(1 / (2 * eps), 1 / omega_d) / 8:
                cuts.append(cuts[-1] / 2)
            cuts = [mp.mpf(0)] + cuts[::-1]
            pop = lambda l: (beta - l) * mp.sinh(2 * eps * l)
            coh = lambda l: (
                mp.exp(2 * beta * eps) * (mp.exp(-2 * eps * l) - 1) + mp.exp(2 * eps * l) - 1
            )
            P = mp.quad(lambda u: (pop(u) + pop(beta - u)) * C(u), cuts)
            Q = mp.quad(lambda u: (coh(u) + coh(beta - u)) * C(u), cuts)
            d_bare = 1 / (1 + mp.exp(2 * beta * eps))
            return d_bare * (1 + 4 * P / (1 + mp.exp(-2 * beta * eps))), abs(d_bare * Q / eps)
    """
    beta, gamma, omega_d, eps = bath
    d_ref, q_ref = (float(value) for value in GENERALIZED_GIBBS_REFERENCE[bath])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = generalized_gibbs(BathSpec(beta, gamma, omega_d, "cold"), StrokeHamiltonian(eps))
    assert state.d == pytest.approx(d_ref, rel=0.0, abs=1e-13)
    assert state.q == pytest.approx(q_ref, rel=1e-12, abs=0.0)


def test_generalized_gibbs_holds_its_bound_against_a_refined_rule(monkeypatch) -> None:
    # The bound stated in the generalized_gibbs docstring, on 40 baths drawn
    # log-uniformly from the range it names.
    rng = np.random.default_rng(27)
    draws = np.exp(rng.uniform(np.log([1e-4, 1e-4, 1e-3]), np.log([1e4, 1e3, 1e4]), (40, 3)))
    baths = [
        (BathSpec(beta, 1e-6, omega_d), StrokeHamiltonian(eps)) for beta, omega_d, eps in draws
    ]
    states = [generalized_gibbs(*bath) for bath in baths]
    with monkeypatch.context() as patch:
        patch.setattr(thermal, "PANEL_NODES", 64)
        patch.setattr(thermal, "INNER_PANEL_FRACTION", thermal.INNER_PANEL_FRACTION / 16.0)
        patch.setattr(thermal, "LOG_OMEGA_STEP", 0.07)
        patch.setattr(thermal, "LOG_OMEGA_WINDOW", (-50.0, 30.0))
        thermal._quadrature_rules.cache_clear()
        refined = [generalized_gibbs(*bath) for bath in baths]
    thermal._quadrature_rules.cache_clear()
    for (bath, h), state, fine in zip(baths, states, refined):
        correction = abs(fine.d - gibbs_population(bath.beta, h.epsilon))
        assert abs(state.d - fine.d) <= 1e-12 * correction + 2e-16, (bath, h)
        assert state.q == pytest.approx(fine.q, rel=1e-12, abs=0.0), (bath, h)


def test_generalized_gibbs_zero_coupling_is_bare_gibbs() -> None:
    h = StrokeHamiltonian(1.0, "cold")
    state = generalized_gibbs(BathSpec(beta=0.25, gamma=0.0, label="cold"), h)
    assert state.d == pytest.approx(gibbs_population(0.25, 1.0), abs=0.0)
    assert state.q == 0.0


def test_generalized_gibbs_corrections_are_linear_in_coupling() -> None:
    h = StrokeHamiltonian(1.0, "cold")
    bare = gibbs_population(0.25, 1.0)
    shifts = []
    coherences = []
    for gamma in (1e-3, 0.25, 0.5):
        state = generalized_gibbs(BathSpec(beta=0.25, gamma=gamma, label="cold"), h)
        shifts.append((state.d - bare) / gamma)
        coherences.append(state.q / gamma)
    assert_allclose(shifts, shifts[0], rtol=1e-7)
    assert_allclose(coherences, coherences[0], rtol=1e-7)


def test_generalized_gibbs_orientation_follows_bath_label() -> None:
    h = StrokeHamiltonian(1.0, "cold")
    cold = generalized_gibbs(BathSpec(beta=0.25, gamma=0.5, label="cold"), h)
    hot = generalized_gibbs(BathSpec(beta=0.25, gamma=0.5, label="hot"), h)
    assert cold.q > 0.0 > hot.q
    assert cold.q == pytest.approx(-hot.q, rel=1e-12)
    assert cold.d == pytest.approx(hot.d, rel=1e-12)


def test_thermal_state_matrix_layout_and_validation() -> None:
    state = ThermalState(d=0.3, q=0.1 + 0.05j)
    rho = state.matrix
    assert rho[1, 1] == pytest.approx(0.3)
    assert rho[0, 0] == pytest.approx(0.7)
    assert rho[1, 0] == pytest.approx(0.1 + 0.05j)
    assert rho[0, 1] == pytest.approx(0.1 - 0.05j)
    with pytest.raises(ValueError):
        ThermalState(d=1.2)
    with pytest.raises(ValueError):
        ThermalState(d=0.5, q=0.9).matrix


def test_bath_spec_validation() -> None:
    with pytest.raises(ValueError):
        BathSpec(beta=0.0, gamma=0.1)
    with pytest.raises(ValueError):
        BathSpec(beta=0.1, gamma=-0.1)
    with pytest.raises(ValueError):
        BathSpec(beta=0.1, gamma=0.1, omega_d=0.0)
    with pytest.raises(ValueError):
        BathSpec(beta=0.1, gamma=0.1, label="tepid")
