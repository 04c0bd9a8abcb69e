"""End-to-end tests that drive the command-line interface in process."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottomon.asymptotics import (
    asymptotic_work_heat,
    build_cycle_superoperator,
    derive_timed_config,
    spectrum,
    thermal_duration_from_theta,
)
from ottomon.cli import SWEEP_POINT_BUDGET, main
from ottomon.config import KEY_SPECS
from ottomon.engine import (
    JOINT_SCHEMES,
    READOUTS,
    SCHEMES,
    EngineConfig,
    LandauZenerStroke,
)
from ottomon.lattice import DENSITY_POINT_BUDGET, joint_via_lattice
from ottomon.mixtures import GaussianMixture1D
from ottomon.moments import moment_series, power_output, work_per_cycle_series
from ottomon.qubit import landau_zener_params


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def column(header: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    idx = header.index(name)
    return np.array([float(row[idx]) for row in rows])


def test_pdf_work_csv_is_a_normalized_density(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--cycles", "1", "--points", "4097")
    assert code == 0
    header, rows = parse_csv(out)
    # The accumulated-readout schemes coincide for work, so one column serves
    # both and no rc1 column is emitted.
    assert header == ["value", "density_rm", "density_rc"]
    assert len(rows) == 4097
    grid = column(header, rows, "value")
    for name in ("density_rm", "density_rc"):
        density = column(header, rows, name)
        assert density.min() >= -1e-9
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-5


def test_pdf_heat_splits_the_single_pointer_column(capsys):
    code, out, _ = run_cli(
        capsys, "pdf", "--observable", "heat", "--cycles", "1", "--points", "4097"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["value", "density_rm", "density_rc", "density_rc1"]
    grid = column(header, rows, "value")
    rc2 = column(header, rows, "density_rc")
    rc1 = column(header, rows, "density_rc1")
    assert np.abs(rc1 - rc2).max() > 1e-6
    assert abs(np.trapezoid(rc1, grid) - 1.0) < 1e-5
    assert abs(np.trapezoid(rc2, grid) - 1.0) < 1e-5


def test_pdf_header_does_not_depend_on_the_data(capsys):
    # From a diagonal start the single- and two-pointer heat densities
    # coincide; heat still prints both columns, and work never prints rc1.
    argv = ("--init", "gibbs_cold", "--cycles", "1", "--points", "257")
    code, out, _ = run_cli(capsys, "pdf", "--observable", "heat", *argv)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["value", "density_rm", "density_rc", "density_rc1"]
    rc1 = column(header, rows, "density_rc1")
    assert_allclose(rc1, column(header, rows, "density_rc"), rtol=1e-12)
    code, out, _ = run_cli(capsys, "pdf", "--observable", "work", *argv)
    assert code == 0
    assert parse_csv(out)[0] == ["value", "density_rm", "density_rc"]


def test_pdf_json_mirrors_the_component_mixture(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--cycles", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["observable"] == "work"
    assert payload["cycles"] == 1
    assert set(payload["schemes"]) == {"rm", "rc1", "rc2"}
    for scheme in payload["schemes"].values():
        # Floats are serialized as shortest round-trip strings.
        assert isinstance(scheme["variance"], str)
        weights = [float(c["weight"]) for c in scheme["components"]]
        centers = [float(c["center"]) for c in scheme["components"]]
        assert abs(sum(weights) - 1.0) < 1e-12
        assert centers == sorted(centers)


def test_pdf_rejects_bad_grids(capsys):
    code, _, err = run_cli(
        capsys, "pdf", "--cycles", "1", "--grid-min", "1", "--grid-max", "0"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "pdf", "--cycles", "1", "--points", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "grid_args, message",
    [
        (("--points", "1"), "density grid needs at least 2 points"),
        (
            ("--grid-min", "5", "--grid-max", "1"),
            "grid upper bound must exceed the lower bound",
        ),
    ],
)
def test_pdf_refuses_a_bad_grid_before_any_lattice(
    capsys, monkeypatch, grid_args, message
):
    runs = []

    def recorded(*args, **kwargs):
        runs.append(args)
        raise AssertionError("a lattice ran before the grid was checked")

    monkeypatch.setattr("ottomon.cli.marginal_via_lattice", recorded)
    code, out, err = run_cli(capsys, "pdf", "--cycles", "200", *grid_args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert runs == []


def test_pdf_default_grid_resolves_long_records(capsys):
    # The default window follows the components the densities evaluate, so
    # the narrow accumulated-pointer components stay resolved on 200 cycles.
    code, out, _ = run_cli(capsys, "pdf", "--observable", "heat", "--cycles", "200")
    assert code == 0
    header, rows = parse_csv(out)
    grid = column(header, rows, "value")
    for name in header[1:]:
        density = column(header, rows, name)
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-6, name


def test_pdf_refuses_a_lattice_over_the_memory_budget(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pdf", "--cycles", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "GiB" in err and "ottomon moments" in err


def test_pdf_heat_refuses_a_lattice_over_the_point_budget(capsys):
    # A heat lattice of this length fits in memory but would run for hours.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "pdf", "--observable", "heat", "--cycles", "100000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "points" in err and "ottomon moments" in err


def _refuse_building_models(monkeypatch) -> None:
    def refused(config):
        raise AssertionError("a model was built before the request was checked")

    monkeypatch.setattr("ottomon.cli.build_model", refused)


def test_pdf_refuses_points_over_the_budget_before_any_allocation(capsys, monkeypatch):
    _refuse_building_models(monkeypatch)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "pdf", "--points", str(DENSITY_POINT_BUDGET + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    assert code == 2
    assert out == ""
    assert err.startswith("error: --points 1,048,577 is over the budget of 1,048,576")


def test_pdf_streams_its_rows_into_the_csv_text():
    # The CSV text is written from the density columns directly, with no list
    # of per-row tuples beside it: under 300 bytes a grid point at the peak.
    points = 2**14
    argv = ["pdf", "--observable", "heat", "--cycles", "5", "--points", str(points)]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out.getvalue().splitlines()) == points + 1
    assert peak / points < 300


@pytest.mark.parametrize("observable, evaluations", [("work", 2), ("heat", 3)])
def test_pdf_evaluates_each_distinct_density_once(
    capsys, monkeypatch, observable, evaluations
):
    # RC1 and RC2 share one work mixture, so its density is evaluated once.
    calls = []
    density = GaussianMixture1D.density

    def counted(self, x):
        calls.append(self)
        return density(self, x)

    monkeypatch.setattr(GaussianMixture1D, "density", counted)
    code, out, _ = run_cli(capsys, "pdf", "--observable", observable, "--cycles", "3")
    assert code == 0
    assert len(calls) == evaluations
    header, _ = parse_csv(out)
    assert ("density_rc1" in header) == (observable == "heat")


def test_joint_csv_matches_the_enumeration(capsys):
    code, out, _ = run_cli(capsys, "joint", "--cycles", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["work", "heat", "weight"]
    work = column(header, rows, "work")
    heat = column(header, rows, "heat")
    weight = column(header, rows, "weight")
    assert abs(weight.sum() - 1.0) < 1e-12
    keys = list(zip(work.tolist(), heat.tolist()))
    assert keys == sorted(keys)
    mix = joint_via_lattice(EngineConfig(), "RM", 1)
    expected_mean = float(mix.weights @ mix.centers[:, 0])
    assert abs(float(weight @ work) - expected_mean) < 1e-10
    expected_heat = float(mix.weights @ mix.centers[:, 1])
    assert abs(float(weight @ heat) - expected_heat) < 1e-10


def test_joint_rejects_unsupported_requests(capsys):
    # The file default is a five-cycle run, beyond the exhaustive-pair cap.
    code, _, err = run_cli(capsys, "joint")
    assert code == 2
    assert "at most 2 cycles" in err
    code, _, err = run_cli(capsys, "joint", "--cycles", "1", "--scheme", "RC1")
    assert code == 2
    assert "two pointers" in err


def test_joint_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "joint", "--cycles", "1", "--scheme", "RC2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "RC2"
    cov = np.array([[float(x) for x in row] for row in payload["covariance"]])
    assert cov.shape == (2, 2)
    assert abs(cov[0, 1] - cov[1, 0]) < 1e-15
    weights = [float(c["weight"]) for c in payload["components"]]
    assert abs(sum(weights) - 1.0) < 1e-12


def test_moments_columns_are_internally_consistent(capsys):
    code, out, _ = run_cli(capsys, "moments", "--cycles", "2")
    assert code == 0
    header, rows = parse_csv(out)
    schemes = [row[header.index("scheme")] for row in rows]
    assert schemes == ["RM", "RC1", "RC2"]
    for row in rows:
        mean_work = float(row[header.index("mean_work")])
        mean_heat = float(row[header.index("mean_heat")])
        var_work = float(row[header.index("var_work")])
        eta = float(row[header.index("efficiency")])
        rel = float(row[header.index("reliability")])
        assert eta == pytest.approx(-mean_work / mean_heat, rel=1e-9)
        assert rel == pytest.approx(-mean_work / np.sqrt(var_work), rel=1e-9)
        # No single-cycle closed form applies to a two-cycle run.
        assert row[header.index("analytic_mean_work")] == ""
    by_scheme = {row[header.index("scheme")]: row for row in rows}
    assert by_scheme["RC1"][header.index("cov_work_heat")] == ""


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_joint_record_follows_joint_schemes(capsys, scheme):
    joint = scheme in JOINT_SCHEMES
    try:
        joint_via_lattice(EngineConfig(), scheme, 1)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == joint
    cross = moment_series(EngineConfig(), scheme, 1)[-1].cross
    assert np.isfinite(cross) == joint
    code, _, _ = run_cli(capsys, "joint", "--cycles", "1", "--scheme", scheme)
    assert code == (0 if joint else 2)
    code, out, _ = run_cli(capsys, "moments", "--cycles", "1")
    assert code == 0
    header, rows = parse_csv(out)
    row = next(row for row in rows if row[header.index("scheme")] == scheme)
    assert (row[header.index("cov_work_heat")] != "") == joint


def test_moments_refuse_sector_mixing_targets(capsys):
    code, out, err = run_cli(
        capsys, "moments", "--thermo", "perfect", "--targets", "generalized_gibbs"
    )
    assert code == 2
    assert out == ""
    assert "mixes population and coherence sectors" in err


def test_moments_reach_long_records_without_a_lattice(capsys):
    code, out, _ = run_cli(capsys, "moments", "--cycles", "500")
    assert code == 0
    header, rows = parse_csv(out)
    assert [row[header.index("scheme")] for row in rows] == ["RM", "RC1", "RC2"]
    for name in ("mean_work", "var_work", "mean_heat", "var_heat", "reliability"):
        assert np.isfinite(column(header, rows, name)).all(), name


def test_moments_from_generalized_gibbs_read_the_bath_cutoff(capsys):
    outputs = {}
    for omega_d in ("0.2", "0.5", "2"):
        code, out, _ = run_cli(
            capsys, "moments", "--init", "generalized_gibbs_cold", "--omega_d", omega_d
        )
        assert code == 0
        outputs[omega_d] = out
    assert len(set(outputs.values())) == 3
    code, out, _ = run_cli(capsys, "moments", "--init", "generalized_gibbs_cold")
    assert out == outputs["0.2"]


def test_moments_single_cycle_reports_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "moments", "--cycles", "1", "--init", "gibbs_cold")
    assert code == 0
    header, rows = parse_csv(out)
    by_scheme = {row[header.index("scheme")]: row for row in rows}
    # Over one cycle the heat record has the same mean under per-stroke and
    # two-pointer accumulated readout; the back-action only separates the
    # running states from the second cycle on.
    rm_heat = float(by_scheme["RM"][header.index("mean_heat")])
    rc2_heat = float(by_scheme["RC2"][header.index("mean_heat")])
    assert rm_heat == pytest.approx(rc2_heat, rel=1e-9)
    for scheme in ("RM", "RC2"):
        row = by_scheme[scheme]
        # A diagonal start is the closed forms' own, so they are exact.
        for name in ("mean_work", "var_work", "mean_heat", "var_heat"):
            numeric = float(row[header.index(name)])
            analytic = float(row[header.index(f"analytic_{name}")])
            assert analytic == pytest.approx(numeric, rel=1e-9), (scheme, name)
        assert row[header.index("analytic_efficiency")] != ""
    rc1 = by_scheme["RC1"]
    assert rc1[header.index("analytic_mean_work")] != ""
    assert rc1[header.index("analytic_reliability")] != ""
    for name in ("analytic_mean_heat", "analytic_var_heat", "analytic_efficiency"):
        assert rc1[header.index(name)] == ""
    # The default invariant start carries coherence that the closed forms
    # drop, so they would describe a different state.
    code, out, _ = run_cli(capsys, "moments", "--cycles", "1")
    assert code == 0
    header, rows = parse_csv(out)
    analytic = [i for i, name in enumerate(header) if name.startswith("analytic_")]
    assert analytic
    for row in rows:
        assert row[header.index("mean_work")] != ""
        assert all(row[i] == "" for i in analytic)


def test_sweep_single_point_matches_library_routes(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--stroke", "landau_zener",
        "--t1-min", "5", "--t1-max", "5", "--t1-steps", "1",
        "--t2-min", "10", "--t2-max", "10", "--t2-steps", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "t1", "t2", "value_rm", "value_rc"]
    kinds = [row[0] for row in rows]
    assert kinds == ["grid", "argmax_rm", "argmax_rc"]
    base = EngineConfig(stroke=LandauZenerStroke(t1=5.0))
    point = derive_timed_config(base, 5.0, 10.0)
    for scheme, name in (("RM", "value_rm"), ("RC2", "value_rc")):
        expected = power_output(asymptotic_work_heat(point, scheme)[0], 5.0, 10.0)
        for row in rows:
            assert float(row[header.index(name)]) == pytest.approx(expected, rel=1e-9)


def test_sweep_finite_cycle_leg(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--stroke", "landau_zener",
        "--t1-min", "5", "--t1-max", "5", "--t1-steps", "1",
        "--t2-min", "10", "--t2-max", "10", "--t2-steps", "1",
        "--at", "2",
    )
    assert code == 0
    header, rows = parse_csv(out)
    base = EngineConfig(stroke=LandauZenerStroke(t1=5.0))
    point = derive_timed_config(base, 5.0, 10.0)
    work = work_per_cycle_series(point, "RM", 2)[-1][1]
    expected = power_output(work, 5.0, 10.0)
    assert float(rows[0][header.index("value_rm")]) == pytest.approx(
        expected, rel=1e-9
    )


def test_sweep_validates_its_inputs(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2
    assert "landau_zener" in err
    code, _, err = run_cli(
        capsys, "sweep", "--stroke", "landau_zener", "--t1-steps", "0"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--stroke", "landau_zener", "--t2-min", "-1"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--stroke", "landau_zener", "--at", "fish"
    )
    assert code == 2


def test_sweep_refuses_a_grid_over_the_budget_before_any_model(capsys, monkeypatch):
    _refuse_building_models(monkeypatch)
    steps = SWEEP_POINT_BUDGET // 10
    code, out, err = run_cli(
        capsys, "sweep", "--stroke", "landau_zener",
        "--t1-steps", str(steps + 1), "--t2-steps", "10",
    )
    assert code == 2
    assert out == ""
    assert "--t1-steps" in err and "--t2-steps" in err
    assert f"{(steps + 1) * 10:,} grid points" in err


def test_sweep_under_the_budget_runs(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--stroke", "landau_zener", "--t1-steps", "3", "--t2-steps", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3 * 2 + 2


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--init", "generalized_gibbs_cold", "--omega_d", "1e300"],
        ["asymptotic", "--thermo", "perfect", "--targets", "generalized_gibbs",
         "--omega_d", "1e300"],
        ["asymptotic", "--thermo", "perfect", "--targets", "generalized_gibbs",
         "--omega_d", "1e140"],
    ],
    ids=["moments-1e300", "asymptotic-1e300", "asymptotic-1e140"],
)
def test_an_overflowing_bath_cutoff_is_refused_without_warnings(capsys, argv):
    # The quadrature's scale gamma * omega_d^3 overflows: the one stderr line
    # is the refusal, which names omega_d.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: omega_d = ")
    assert err.count("\n") == 1


def test_asymptotic_rows_match_library_values(capsys):
    code, out, _ = run_cli(capsys, "asymptotic")
    assert code == 0
    header, rows = parse_csv(out)
    by_kind = {row[header.index("kind")]: row for row in rows}
    assert set(by_kind) == {"RM", "RC"}
    config = EngineConfig(cycles=5)
    for label, scheme in READOUTS:
        row = by_kind[label]
        work = float(row[header.index("work_per_cycle")])
        lam2 = float(row[header.index("lambda2")])
        assert work == pytest.approx(
            asymptotic_work_heat(config, scheme)[0], rel=1e-10
        )
        assert lam2 == pytest.approx(
            spectrum(build_cycle_superoperator(config, scheme)).lambda2, rel=1e-10
        )
        # No stroke duration is configured, so no power is reported.
        assert row[header.index("power")] == ""
    assert by_kind["RM"][header.index("dud")] == "false"
    assert by_kind["RC"][header.index("dud")] == "true"


def test_asymptotic_reports_power_when_timed(capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--stroke", "landau_zener", "--t1", "5")
    assert code == 0
    header, rows = parse_csv(out)
    t2 = thermal_duration_from_theta(8.0, 1.0, 3.7)
    for row in rows:
        work = float(row[header.index("work_per_cycle")])
        power = float(row[header.index("power")])
        assert power == pytest.approx(-work / (5.0 + t2), rel=1e-9)


def test_lz_uses_resolved_duration(capsys):
    code, out, _ = run_cli(capsys, "lz")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t1", "alpha", "phi"]
    params = landau_zener_params(1.0, 3.7, 5.0)
    assert float(rows[0][1]) == pytest.approx(params.alpha, rel=1e-11)
    assert float(rows[0][2]) == pytest.approx(params.phi, rel=1e-11)
    code, out, _ = run_cli(capsys, "lz", "--eps_h", "3.0", "--t1", "4")
    header, rows = parse_csv(out)
    params = landau_zener_params(1.0, 3.0, 4.0)
    assert float(rows[0][1]) == pytest.approx(params.alpha, rel=1e-11)
    code, _, err = run_cli(capsys, "lz", "--t1", "0")
    assert code == 2
    assert "positive stroke duration" in err


def test_asymptotic_with_generalized_gibbs_targets(capsys):
    code, out, err = run_cli(
        capsys, "asymptotic", "--thermo", "perfect", "--targets", "generalized_gibbs"
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    assert [row[header.index("kind")] for row in rows] == ["RM", "RC"]
    assert np.isfinite(column(header, rows, "work_per_cycle")).all()


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--init", "generalized_gibbs_cold", "--beta_c", "360", "--cycles", "1"),
        ("asymptotic", "--thermo", "perfect", "--targets", "generalized_gibbs", "--beta_c", "360"),
    ],
    ids=["moments-init", "asymptotic-targets"],
)
def test_generalized_gibbs_state_of_a_very_cold_bath(capsys, argv):
    # At beta_c * eps_c = 360, e^{2 beta eps} overflows a double; the state
    # must still come out finite, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    header, rows = parse_csv(out)
    name = "mean_work" if argv[0] == "moments" else "work_per_cycle"
    assert np.isfinite(column(header, rows, name)).all()


def test_runtime_errors_exit_with_code_2(capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise RuntimeError("fixed-point residual 1e-08 exceeds 1e-12")

    monkeypatch.setattr("ottomon.cli.asymptotic_work_heat", fail)
    code, out, err = run_cli(capsys, "asymptotic")
    assert code == 2
    assert out == ""
    assert err == "error: fixed-point residual 1e-08 exceeds 1e-12\n"


def test_validate_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--cycles", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASSED:")
    code, out, _ = run_cli(
        capsys, "validate", "--cycles", "1", "--corrupt-suppression", "1.1"
    )
    assert code == 1
    assert out.strip().splitlines()[-1].startswith("FAILED:")


def test_validate_skips_accumulated_pointer_legs_on_sector_mixing(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--thermo", "perfect", "--targets", "generalized_gibbs",
        "--init", "generalized_gibbs_cold",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("PASSED:")
    assert not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("SKIP enumeration_vs_lattice_rc2") for line in lines)


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", "--cycles", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["status"] in ("pass", "skip") for c in payload["checks"])


def test_config_file_with_flag_precedence(capsys, tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("[engine]\neps_h = 3.0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "lz", "--config", str(path))
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(
        landau_zener_params(1.0, 3.0, 5.0).alpha, rel=1e-11
    )
    code, out, _ = run_cli(capsys, "lz", "--config", str(path), "--eps_h", "3.5")
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(
        landau_zener_params(1.0, 3.5, 5.0).alpha, rel=1e-11
    )


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "lz.csv"
    code, out, _ = run_cli(capsys, "lz", "-o", str(path))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(path.read_text(encoding="utf-8"))
    assert header == ["t1", "alpha", "phi"]
    assert len(rows) == 1


def test_identical_invocations_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "moments", "--cycles", "2")
    _, second, _ = run_cli(capsys, "moments", "--cycles", "2")
    assert first == second


def test_json_floats_round_trip_exactly(capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for row in payload["asymptotic"]:
        for key in ("work_per_cycle", "heat_per_cycle", "lambda2"):
            text = row[key]
            assert isinstance(text, str)
            assert repr(float(text)) == text


NON_FINITE_CASES = [
    (key, "nan") for key, spec in KEY_SPECS.items() if spec.parse not in (int, str)
] + [("eps_h", "inf"), ("beta_c", "inf"), ("theta", "inf"), ("sigma", "-inf")]


@pytest.mark.parametrize("key, value", NON_FINITE_CASES)
def test_non_finite_configuration_values_are_refused(capsys, key, value):
    code, out, err = run_cli(capsys, "moments", f"--{key}={value}")
    assert code == 2
    assert out == ""
    assert f"{key} must be finite" in err


OUT_OF_RANGE_CASES = [
    ("sigma", ("validate", "--sigma", "1e-300")),
    ("sigma", ("pdf", "--cycles", "1", "--sigma", "1e-200")),
    ("sigma", ("moments", "--sigma", "1e300")),
    ("eps_h", ("validate", "--eps_h", "1e200")),
    ("eps_h / eps_c", ("lz", "--eps_c", "1e-100", "--eps_h", "1e100", "--t1", "1")),
]


@pytest.mark.parametrize("key, argv", OUT_OF_RANGE_CASES)
def test_values_whose_square_leaves_the_float_range_are_refused(capsys, key, argv):
    # The pointer overlaps and the sweep exponent square these values; an
    # overflow or an underflow to zero used to escape as a traceback.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key} squared")


NON_FINITE_FLAGS = [
    ("pdf", "--grid-min", "-inf"),
    ("pdf", "--grid-max", "inf"),
    ("sweep", "--t1-min", "nan"),
    ("sweep", "--t1-max", "inf"),
    ("sweep", "--t2-min", "-inf"),
    ("sweep", "--t2-max", "nan"),
    ("validate", "--corrupt-suppression", "nan"),
]


@pytest.mark.parametrize("command, flag, value", NON_FINITE_FLAGS)
def test_non_finite_flag_values_are_refused(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be finite (got {value})" in captured.err
