"""Tests for the cross-route self-checking suite."""
from __future__ import annotations

import numpy as np
import pytest

from ottomon import lattice, validation
from ottomon.config import load_engine_config
from ottomon.engine import EngineConfig, LindbladThermo
from ottomon.validation import (
    CheckResult,
    ValidationReport,
    compare_weight_tables,
    run_validation,
)


@pytest.fixture(scope="module")
def default_report():
    return run_validation(EngineConfig())


def test_default_configuration_passes(default_report):
    assert default_report.passed
    assert len(default_report.results) >= 20
    assert all(r.status in ("pass", "skip") for r in default_report.results)


def test_report_covers_every_check_family(default_report):
    names = [r.name for r in default_report.results]
    for fragment in (
        "trace_preservation_rm",
        "positivity_preservation_rc",
        "enumeration_vs_lattice_rm_work_n1",
        "enumeration_vs_lattice_rc1_heat_n1",
        "enumeration_vs_lattice_rc2_work_n1",
        "analytic_moments_rm",
        "analytic_moments_rc",
        "density_normalization_rm_work_n1",
        "density_positivity_rc2_heat_n1",
        "spectral_radius_rm",
        "fixed_point_unique_rc",
    ):
        assert fragment in names, fragment


def test_recursion_legs_check_the_lattice_marginals(default_report):
    by_name = {r.name: r for r in default_report.results}
    for scheme in ("rm", "rc1", "rc2"):
        for observable in ("work", "heat"):
            result = by_name[f"moment_recursion_vs_lattice_{scheme}_{observable}_n1"]
            assert result.status == "pass"
            assert result.deviation <= 1e-13


def test_report_lines_and_dict(default_report):
    lines = default_report.lines()
    assert len(lines) == len(default_report.results) + 1
    assert lines[-1].startswith("PASSED:")
    assert all(line.startswith(("PASS", "FAIL", "SKIP")) for line in lines[:-1])
    payload = default_report.as_dict()
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(default_report.results)
    first = payload["checks"][0]
    assert set(first) == {"name", "status", "deviation", "tolerance", "detail"}


@pytest.mark.parametrize("scale", [0.5, 1.05, np.nan])
def test_corrupted_suppression_fails(scale):
    report = run_validation(EngineConfig(cycles=2), suppression_scale=scale)
    assert not report.passed
    failed = [r.name for r in report.results if r.failed]
    # The exponent corrupts the enumeration weights only, and it reaches
    # every readout: per-stroke and two-pointer work at both cycle counts.
    assert all(name.startswith("enumeration_vs_lattice_") for name in failed)
    for scheme in ("rm", "rc2"):
        for n in (1, 2):
            assert f"enumeration_vs_lattice_{scheme}_work_n{n}" in failed
    assert report.lines()[-1].startswith("FAILED:")


def test_zero_width_skips_density_checks():
    report = run_validation(EngineConfig(sigma=0.0))
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["density_normalization"].status == "skip"
    assert not any(name.startswith("density_positivity") for name in by_name)


@pytest.mark.parametrize("sigma", [0.01, 0.001])
def test_narrow_pointers_pass_the_density_legs(sigma):
    # Pointers far narrower than the spacing of the centers: the integration
    # grid has to resolve every component, not span them at a fixed count.
    report = run_validation(EngineConfig(sigma=sigma, cycles=5))
    density = [r for r in report.results if r.name.startswith("density_")]
    assert len(density) == 12
    assert all(r.status == "pass" for r in density), [r.line() for r in density]
    assert report.passed


@pytest.mark.parametrize(
    "overrides",
    [
        {"sigma": 5.0, "cycles": 1},
        {"sigma": 1.0},
        {"eps_h": 1.01, "sigma": 0.7},
        {"sigma": 3.0, "init": "gibbs_cold", "gamma": 0.0},
    ],
    ids=["sigma5-one-cycle", "sigma1", "narrow-gap", "sigma3-dissipationless"],
)
def test_wide_pointers_pass_the_analytic_moment_legs(overrides):
    # The hot-contact overlap is far from negligible here, so the per-stroke
    # closed form has to carry the interference scaled by its square.
    config, _ = load_engine_config(None, overrides)
    report = run_validation(config)
    by_name = {r.name: r for r in report.results}
    for label in ("rm", "rc"):
        assert by_name[f"analytic_moments_{label}"].status == "pass", label
    assert report.passed, [r.line() for r in report.results if r.failed]


def test_dissipationless_configuration_skips_state_legs():
    config = EngineConfig(
        thermo=LindbladThermo(beta_c=0.25, beta_h=0.025, gamma=0.0, theta=8.0)
    )
    report = run_validation(config)
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert by_name["initial_state"].status == "skip"
    # The unmonitored cycle map is unitary here, so its fixed point is
    # degenerate by design and the check asserts exactly that.
    assert by_name["fixed_point_degeneracy_rc"].status == "pass"
    assert not any(name.startswith("enumeration_vs_lattice") for name in by_name)


@pytest.mark.parametrize(
    "overrides",
    [
        {"gamma": 1e-11},
        {"theta": 1e-9},
        {"gamma": 1e-14},
        {"gamma": 1e-14, "init": "gibbs_cold"},
        {"gamma": 1e-14, "sigma": 0.0},
        {"theta": 1e-12},
    ],
)
def test_unresolved_spectral_gap_passes_the_fixed_point_leg(overrides):
    # The dissipation strength gamma * theta is positive but under
    # DEGENERACY_TOL, so the fixed point cannot be resolved; the RC gap
    # 1 - |lambda2| reads 2.1e-10 and 5.1e-11 for the first two, and at
    # round-off (2.1e-13 and 5.2e-14) for gamma = 1e-14 and theta = 1e-12.
    config, _ = load_engine_config(None, overrides)
    report = run_validation(config)
    assert report.passed, [r.line() for r in report.results if r.failed]
    leg = {r.name: r for r in report.results}["fixed_point_unique_rc"]
    assert leg.status == "pass"
    assert "cannot be resolved" in leg.detail


def test_dissipative_map_without_a_gap_fails_the_fixed_point_leg(monkeypatch):
    # An identity cycle map under the default dissipation has no gap at all.
    monkeypatch.setattr(
        validation,
        "build_cycle_superoperator",
        lambda model, scheme: np.eye(4, dtype=complex),
    )
    report = run_validation(EngineConfig())
    failed = {r.name for r in report.results if r.failed}
    assert failed == {"fixed_point_unique_rm", "fixed_point_unique_rc"}


@pytest.mark.parametrize("cycles, runs", [(1, 5), (2, 10), (5, 15)])
def test_each_route_is_built_once_per_run(monkeypatch, cycles, runs):
    # Enumeration legs run at n = 1 and min(cycles, 2), density and recursion
    # legs at n = cycles; legs at the same n share a lattice, and the RC2
    # work lattice serves RC1 work too.
    built, maps = [], []
    real_points = lattice.lattice_points
    real_map = validation.build_cycle_superoperator

    def count_points(engine, scheme, observable, n, initial=None):
        built.append((scheme, observable, n))
        return real_points(engine, scheme, observable, n, initial)

    def count_maps(engine, scheme):
        maps.append(scheme)
        return real_map(engine, scheme)

    monkeypatch.setattr(lattice, "lattice_points", count_points)
    monkeypatch.setattr(validation, "lattice_points", count_points)
    monkeypatch.setattr(validation, "build_cycle_superoperator", count_maps)
    assert run_validation(EngineConfig(cycles=cycles)).passed
    assert len(built) == len(set(built)) == runs
    assert not [run for run in built if run[:2] == ("RC1", "work")]
    assert sorted(maps) == ["RC2", "RM"]


def test_sector_mixing_skips_only_the_accumulated_pointer_legs(
    adiabatic_perfect_config,
):
    report = run_validation(adiabatic_perfect_config)
    assert report.passed
    skipped = {r.name: r.detail for r in report.results if r.status == "skip"}
    rc_legs = [name for name in skipped if "_rc1_" in name or "_rc2_" in name]
    # One cycle: four enumeration legs, then two density legs and one
    # recursion leg per accumulated-pointer marginal.
    assert len(rc_legs) == 4 + 4 * 3
    for name in rc_legs:
        assert "mixes population and coherence sectors" in skipped[name]
    ran = {r.name for r in report.results if r.status == "pass"}
    assert {"enumeration_vs_lattice_rm_work_n1", "density_normalization_rm_heat_n1",
            "moment_recursion_vs_lattice_rm_work_n1", "spectral_radius_rc"} <= ran


def test_check_result_validation_and_line():
    with pytest.raises(ValueError, match="status"):
        CheckResult("bad", "maybe")
    result = CheckResult("example", "pass", 1.5e-12, 1e-10, "note")
    line = result.line()
    assert line.startswith("PASS example")
    assert "deviation=1.500e-12" in line
    assert "tolerance=1.0e-10" in line
    assert "(note)" in line
    assert not result.failed
    assert CheckResult("example", "fail").failed


def test_compare_weight_tables_flags_unmatched_centers():
    deviation, detail = compare_weight_tables({(0, 0): 0.5}, {(0, 0): 0.5})
    assert deviation == 0.0
    assert detail == ""
    deviation, detail = compare_weight_tables(
        {(0, 0): 0.5, (2, -2): 0.25}, {(0, 0): 0.5}
    )
    assert deviation == 0.25
    assert "1 significant centers unmatched" in detail
    # Centers that only carry numerical dust on one side are not flagged.
    deviation, detail = compare_weight_tables({(0, 0): 0.5, (4, -4): 1e-15}, {(0, 0): 0.5})
    assert detail == ""


def test_compare_weight_tables_reads_a_nan_weight_as_a_nan_deviation():
    reference = {(0, 0): 0.5, (1, 0): 0.25}
    deviation, _ = compare_weight_tables(reference, {(0, 0): 0.5, (1, 0): np.nan})
    assert np.isnan(deviation)
    deviation, _ = compare_weight_tables({(0, 0): np.nan}, reference)
    assert np.isnan(deviation)


def test_report_passed_ignores_skips():
    report = ValidationReport(
        (CheckResult("a", "pass"), CheckResult("b", "skip"))
    )
    assert report.passed
    report = ValidationReport(
        (CheckResult("a", "pass"), CheckResult("b", "fail", 1.0, 0.5))
    )
    assert not report.passed
