"""Randomized cross-route checks of the moment recursion and the lattice.

Engines are drawn from a fixed-seed generator, so every run checks the same
configurations; the recursion must agree with the lattice mixtures and with
the single-cycle closed forms, and the lattice point weights with the
exhaustive enumeration, at the tolerances ``validate`` uses.
"""
from __future__ import annotations

import numpy as np
import pytest

from ottomon import DirectStroke, EngineConfig, LindbladThermo, PerfectThermo
from ottomon.asymptotics import initial_state
from ottomon.engine import OBSERVABLES, READOUTS, SCHEMES, build_model
from ottomon.lattice import (
    as_weight_table,
    joint_via_lattice,
    lattice_points,
    marginal_via_lattice,
)
from ottomon.moments import closed_form_moments, moment_series
from ottomon.oracle import enumerate_branches, point_weights
from ottomon.validation import MOMENT_TOL, WEIGHT_TOL, compare_weight_tables

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
    expected, rho0 = closed_form_moments(model, initial_state(model))
    rm, rc1, rc2 = (moment_series(model, s, 1, rho0)[0] for s in SCHEMES)
    assert _relative_deviation(rm, expected["RM"]) <= MOMENT_TOL
    assert _relative_deviation(rc2, expected["RC"]) <= MOMENT_TOL
    # A lone heat pointer keeps extra interference; only its work record has
    # the accumulated-pointer closed form.
    rc1_work = (rc1.mean_work, rc1.second_work)
    rc_work = (expected["RC"].mean_work, expected["RC"].second_work)
    assert _relative_deviation(rc1_work, rc_work) <= MOMENT_TOL


@pytest.mark.parametrize("config,cycles", RANDOM_ENGINES)
def test_single_cycle_recursion_matches_finite_time_closed_forms(
    config, cycles
) -> None:
    # The forms are exact at one cycle from the diagonal of the initial state,
    # whatever the pointer overlap; the cycle count of the draw is not used.
    model = build_model(config)
    forms, initial = closed_form_moments(model, initial_state(model))
    for label, scheme in READOUTS:
        final = moment_series(model, scheme, 1, initial)[0]
        deviation = _relative_deviation(final, forms[label])
        assert deviation <= MOMENT_TOL, (label, deviation)


def test_recursion_refuses_sector_mixing_with_the_kernel_message(
    adiabatic_perfect_config,
) -> None:
    model = build_model(adiabatic_perfect_config)
    with pytest.raises(ValueError, match="mixes population and coherence") as kernel:
        lattice_points(model, "RC2", "work", 1)
    for scheme in ("RC1", "RC2"):
        with pytest.raises(ValueError) as recursion:
            moment_series(model, scheme, 3)
        assert str(recursion.value) == str(kernel.value)
    # Per-stroke readout does not rely on the sector structure.
    assert len(moment_series(model, "RM", 3)) == 3


@pytest.mark.parametrize("config", [config for config, _ in RANDOM_ENGINES])
def test_enumeration_matches_lattice_weights(config) -> None:
    # Lindblad channels keep the population and coherence sectors apart, so
    # the sector check admits every scheme.
    model = build_model(config)
    rho0 = initial_state(model)
    for cycles in (1, 2):
        table = enumerate_branches(model, cycles, initial=rho0)
        for scheme in SCHEMES:
            for observable in OBSERVABLES:
                reference = as_weight_table(*point_weights(table, scheme, observable))
                candidate = as_weight_table(
                    *lattice_points(model, scheme, observable, cycles, rho0)
                )
                deviation, detail = compare_weight_tables(reference, candidate)
                tag = (scheme, observable, cycles, deviation, detail)
                assert deviation <= WEIGHT_TOL and detail == "", tag
