"""Randomized cross-route checks of the moment recursion.

Engines are drawn from a fixed-seed generator, so every run checks the same
configurations; the recursion must agree with the lattice mixtures and with
the single-cycle closed forms at the tolerances ``validate`` uses.
"""
from __future__ import annotations

import numpy as np
import pytest

from ottomon import DirectStroke, EngineConfig, LindbladThermo, PerfectThermo
from ottomon.engine import SCHEMES, build_model
from ottomon.lattice import (
    OBSERVABLES,
    build_cycle_kernel,
    joint_via_lattice,
    marginal_via_lattice,
    moment_series,
)
from ottomon.moments import perfect_readout_moments
from ottomon.validation import MOMENT_TOL

INITS = ("invariant", "gibbs_cold", "generalized_gibbs_cold")


def _relative_deviation(values, reference) -> float:
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, reference))


def _draw_levels(rng: np.random.Generator) -> dict:
    eps_c = float(rng.uniform(0.5, 1.5))
    return {
        "eps_c": eps_c,
        "eps_h": eps_c + float(rng.uniform(0.3, 3.0)),
        "sigma": float(rng.uniform(0.05, 1.2)),
        "stroke": DirectStroke(
            alpha=float(rng.uniform(0.0, 0.5)), phi=float(rng.uniform(0.0, 2 * np.pi))
        ),
    }


def _draw_lindblad_engines(count: int, seed: int) -> list[tuple[EngineConfig, int]]:
    rng = np.random.default_rng(seed)
    engines = []
    for _ in range(count):
        beta_c = float(rng.uniform(0.1, 1.0))
        thermo = LindbladThermo(
            beta_c=beta_c,
            beta_h=float(rng.uniform(0.01, beta_c)),
            gamma=float(rng.uniform(0.01, 0.5)),
            theta=float(rng.uniform(0.5, 10.0)),
        )
        init = INITS[int(rng.integers(len(INITS)))]
        config = EngineConfig(**_draw_levels(rng), thermo=thermo, init=init)
        engines.append((config, int(rng.integers(1, 11))))
    return engines


RANDOM_ENGINES = _draw_lindblad_engines(20, seed=20261018)


@pytest.mark.parametrize("config,cycles", RANDOM_ENGINES)
def test_recursion_matches_lattice_mixture_moments(config, cycles) -> None:
    model = build_model(config)
    for scheme in SCHEMES:
        final = moment_series(model, scheme, cycles)[-1]
        for observable in OBSERVABLES:
            mix = marginal_via_lattice(model, scheme, observable, cycles)
            if observable == "work":
                recursion = (final.mean_work, final.second_work)
            else:
                recursion = (final.mean_heat, final.second_heat)
            deviation = _relative_deviation(recursion, mix.moments())
            assert deviation <= MOMENT_TOL, (scheme, observable, deviation)
        if scheme == "RC1":
            assert np.isnan(final.cross)
            continue
        joint = joint_via_lattice(model, scheme, cycles).moments()
        assert _relative_deviation(final, joint) <= MOMENT_TOL, scheme


@pytest.mark.parametrize("seed", range(5))
def test_single_cycle_recursion_matches_perfect_closed_forms(seed) -> None:
    rng = np.random.default_rng([20261018, seed])
    beta_c = float(rng.uniform(0.1, 1.0))
    thermo = PerfectThermo(beta_c=beta_c, beta_h=float(rng.uniform(0.01, beta_c)))
    model = build_model(EngineConfig(**_draw_levels(rng), thermo=thermo))
    expected = perfect_readout_moments(model)
    rho0 = model.cold_channel.target.matrix
    rm, rc1, rc2 = (moment_series(model, s, 1, rho0)[0] for s in SCHEMES)
    assert _relative_deviation(rm, expected["RM"]) <= MOMENT_TOL
    assert _relative_deviation(rc2, expected["RC"]) <= MOMENT_TOL
    # A lone heat pointer keeps extra interference; only its work record has
    # the accumulated-pointer closed form.
    rc1_work = (rc1.mean_work, rc1.second_work)
    rc_work = (expected["RC"].mean_work, expected["RC"].second_work)
    assert _relative_deviation(rc1_work, rc_work) <= MOMENT_TOL


def test_recursion_refuses_sector_mixing_with_the_kernel_message(
    adiabatic_perfect_config,
) -> None:
    model = build_model(adiabatic_perfect_config)
    with pytest.raises(ValueError, match="mixes population and coherence") as kernel:
        build_cycle_kernel(model, "RC2", "work")
    for scheme in ("RC1", "RC2"):
        with pytest.raises(ValueError) as recursion:
            moment_series(model, scheme, 3)
        assert str(recursion.value) == str(kernel.value)
    # Per-stroke readout does not rely on the sector structure.
    assert len(moment_series(model, "RM", 3)) == 3
