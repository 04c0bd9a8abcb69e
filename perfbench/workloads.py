"""The benchmark's workloads: seeded inputs, operation lists and output checks.

Every operation is one call a user makes: ``ottomon.cli.main(argv)`` with
stdout captured, or the library function ``ottomon.work_per_cycle_series``.
A pass draws fresh engine parameters for each operation from the workload
seed and the pass number, from ranges that keep the amount of work of each
operation fixed (same cycle counts, grid sizes and live kernel shifts), so no
two operations of a run share a configuration.

Each operation carries a checker that compares its output with the
independent tilted-map reference in ``reference.py`` (or with a property the
output must have) and a perturbation used by the self-test, which confirms
that the checker rejects a slightly wrong output.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

RTOL = 1e-9
ATOL = 1e-12
CF_TOL = 1e-10
NORM_TOL = 1e-6
NEGATIVE_TOL = 1e-9
DENSITY_MEAN_TOL = 1e-6
CF_FREQUENCIES = 0.03 * np.arange(1, 17)
GRID_HALF_WIDTH_STDS = 8.0

# Keys the CLI accepts and the order in which they are passed.
_FLAG_KEYS = (
    "eps_c", "eps_h", "sigma", "cycles", "scheme", "init", "stroke", "alpha",
    "phi", "t1", "thermo", "beta_c", "beta_h", "gamma", "theta", "targets",
)


@dataclass
class Outcome:
    """What one operation returned: exit code and stdout, or library rows."""

    code: int | None = None
    text: str = ""
    rows: list | None = None
    error: str | None = None


@dataclass
class Op:
    """One user-facing call with its expected exit code and output check."""

    command: str
    label: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]
    perturb: Callable[[Outcome], Outcome]
    expect: int = 0
    points: int = 0
    outcome: Outcome | None = field(default=None, repr=False)
    elapsed: float = 0.0

    def failed(self) -> bool:
        out = self.outcome
        return out is None or out.error is not None or out.code != self.expect


# ---------------------------------------------------------------- inputs


def draw_engine(rng: np.random.Generator, **fixed: Any) -> dict[str, Any]:
    """Engine parameters from ranges that keep each operation's work fixed.

    eps_h^2 / (2 sigma^2) stays above 146 so that hot-contact mismatch groups
    fall below the lattice's live-shift threshold, and eps_c^2 / sigma^2 stays
    below 28 so that cold-contact groups stay live: 15 work shifts and 3 heat
    shifts at every draw.
    """
    values: dict[str, Any] = {
        "eps_c": 1.0,
        "eps_h": float(rng.uniform(3.6, 3.9)),
        "sigma": float(rng.uniform(0.19, 0.21)),
        "stroke": "direct",
        "alpha": float(rng.uniform(0.03, 0.08)),
        "phi": float(rng.uniform(0.0, 2.0 * np.pi)),
        "thermo": "lindblad",
        "beta_c": float(rng.uniform(0.2, 0.3)),
        "beta_h": float(rng.uniform(0.02, 0.03)),
        "gamma": float(rng.uniform(0.02, 0.03)),
        "theta": float(rng.uniform(6.0, 10.0)),
    }
    if fixed.get("stroke") == "landau_zener":
        values["t1"] = float(rng.uniform(3.0, 7.0))
        del values["alpha"], values["phi"]
    if fixed.get("thermo") == "perfect":
        del values["theta"]
        values["targets"] = "gibbs"
    values.update(fixed)
    return values


def argv_for(command: str, values: dict[str, Any], *extra: str) -> list[str]:
    argv = [command]
    for key in _FLAG_KEYS:
        if key in values:
            value = values[key]
            text = repr(float(value)) if isinstance(value, float) else str(value)
            argv += [f"--{key}", text]
    return argv + list(extra)


def engine_config(ot, values: dict[str, Any]):
    """The EngineConfig a value dict describes, built from the dataclasses."""
    if values.get("stroke", "direct") == "landau_zener":
        stroke = ot.LandauZenerStroke(t1=values["t1"])
    else:
        stroke = ot.DirectStroke(alpha=values["alpha"], phi=values["phi"])
    if values.get("thermo", "lindblad") == "perfect":
        thermo = ot.PerfectThermo(
            beta_c=values["beta_c"], beta_h=values["beta_h"],
            gamma=values["gamma"], targets=values.get("targets", "gibbs"),
        )
    else:
        thermo = ot.LindbladThermo(
            beta_c=values["beta_c"], beta_h=values["beta_h"],
            gamma=values["gamma"], theta=values["theta"],
        )
    return ot.EngineConfig(
        eps_c=values["eps_c"], eps_h=values["eps_h"], stroke=stroke,
        thermo=thermo, sigma=values["sigma"], cycles=values.get("cycles", 1),
        scheme=values.get("scheme", "RM"), init=values.get("init", "invariant"),
    )


def reference_cycle(ot, values: dict[str, Any]) -> ref.Cycle:
    model = ot.build_model(engine_config(ot, values))
    return ref.Cycle(model, values["eps_c"], values["eps_h"], values["sigma"])


def initial_vec(cycle: ref.Cycle, values: dict[str, Any]) -> np.ndarray:
    init = values.get("init", "invariant")
    if init == "invariant":
        return ref.fixed_point(cycle.dephased("RC"))
    if init == "gibbs_cold":
        return ref.gibbs_cold(values["beta_c"], values["eps_c"])
    raise ValueError(f"reference has no initial state {init!r}")


def theta_from_t2(t2: float, eps_c: float, eps_h: float) -> float:
    """Dimensionless thermalization angle of a total thermal duration t2."""
    return t2 * eps_c * eps_h / (eps_c + eps_h)


# ---------------------------------------------------------------- calls


def cli_call(ot, argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ot.cli.main(argv)
        except Exception as exc:  # the operation failed; count it and go on
            return Outcome(text=out.getvalue(), error=f"{type(exc).__name__}: {exc}")
        return Outcome(code=code, text=out.getvalue())

    return run


def series_call(ot, values: dict[str, Any], scheme: str, n_max: int) -> Callable[[], Outcome]:
    config = engine_config(ot, values)

    def run() -> Outcome:
        try:
            rows = ot.work_per_cycle_series(config, scheme, n_max)
        except Exception as exc:  # the operation failed; count it and go on
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(code=0, rows=rows)

    return run


# ---------------------------------------------------------------- helpers


def mismatch(name: str, value: float, expected: float, scale: float = 0.0) -> list[str]:
    """A problem unless value is within RTOL of |expected| + scale.

    ``scale`` is the natural size of the quantity (a standard deviation, an
    energy), so that a mean close to zero is not held to a tighter absolute
    tolerance than the numbers it is summed from allow.
    """
    if abs(value - expected) <= RTOL * (abs(expected) + scale) + ATOL:
        return []
    return [f"{name}: {value!r} != reference {expected!r}"]


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def rows_to_csv(rows: list[dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def number(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def edit_cell(outcome: Outcome, row: int, column: str, change: Callable[[float], float]) -> Outcome:
    """Copy of a CSV outcome with one numeric cell changed."""
    rows = csv_rows(outcome.text)
    rows[row][column] = repr(change(float(rows[row][column])))
    return Outcome(code=outcome.code, text=rows_to_csv(rows))


def scale_largest(outcome: Outcome, column: str, factor: float) -> Outcome:
    """Scale the largest-magnitude value of a CSV column."""
    cells = [number(r[column]) for r in csv_rows(outcome.text)]
    row = max((i for i, v in enumerate(cells) if v is not None), key=lambda i: abs(cells[i]))
    return edit_cell(outcome, row, column, lambda v: v * factor)


# ---------------------------------------------------------------- sweep


def _sweep_axes(spec: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(spec["t1_min"], spec["t1_max"], spec["t1_steps"]),
        np.linspace(spec["t2_min"], spec["t2_max"], spec["t2_steps"]),
    )


def _sweep_reference(ot, values, spec, t1: float, t2: float) -> dict[str, tuple]:
    """(value, scale) per kind; the scale is that of one eps_c of work."""
    point = dict(values, t1=t1, theta=theta_from_t2(t2, values["eps_c"], values["eps_h"]))
    cycle = reference_cycle(ot, point)
    out: dict[str, tuple] = {}
    for kind, scheme in (("rm", "RM"), ("rc", "RC2")):
        if spec["at"] == "asymptotic":
            asym = ref.asymptotic(cycle, kind.upper())
            work, heat = asym["work"], asym["heat"]
        else:
            rho0 = initial_vec(cycle, point)
            n = int(spec["at"])
            work = ref.moment_series(cycle, scheme, "work", rho0, n)[-1][0]
            heat = ref.moment_series(cycle, scheme, "heat", rho0, n)[-1][0]
        if spec["quantity"] == "power":
            out[kind] = (-work / (t1 + t2), values["eps_c"] / (t1 + t2))
        else:
            out[kind] = (None, 0.0) if heat == 0.0 else (-work / heat, values["eps_c"] / abs(heat))
    return out


def sweep_op(ot, values: dict[str, Any], spec: dict[str, Any]) -> Op:
    extra = []
    for key in ("t1_min", "t1_max", "t1_steps", "t2_min", "t2_max", "t2_steps"):
        value = spec[key]
        extra += [f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)]
    extra += ["--quantity", spec["quantity"], "--at", spec["at"]]
    argv = argv_for("sweep", values, *extra)

    def check(outcome: Outcome) -> list[str]:
        rows = csv_rows(outcome.text)
        t1s, t2s = _sweep_axes(spec)
        grid = [r for r in rows if r["kind"] == "grid"]
        if len(grid) != t1s.size * t2s.size:
            return [f"sweep: {len(grid)} grid rows, expected {t1s.size * t2s.size}"]
        problems: list[str] = []
        expected_best: dict[str, tuple[float, int]] = {}
        for i, row in enumerate(grid):
            t1, t2 = float(t1s[i // t2s.size]), float(t2s[i % t2s.size])
            problems += mismatch(f"sweep t1[{i}]", float(row["t1"]), t1)
            problems += mismatch(f"sweep t2[{i}]", float(row["t2"]), t2)
            want = _sweep_reference(ot, values, spec, t1, t2)
            for kind in ("rm", "rc"):
                got = number(row[f"value_{kind}"])
                value, scale = want[kind]
                if value is None or got is None:
                    if value is not got:
                        problems.append(f"sweep value_{kind}[{i}]: {got} vs {value}")
                    continue
                problems += mismatch(f"sweep value_{kind}[{i}]", got, value, scale)
                if kind not in expected_best or value > expected_best[kind][0]:
                    expected_best[kind] = (value, i)
        for kind, (_, index) in expected_best.items():
            best = [r for r in rows if r["kind"] == f"argmax_{kind}"]
            target = {k: v for k, v in grid[index].items() if k != "kind"}
            if len(best) != 1 or {k: v for k, v in best[0].items() if k != "kind"} != target:
                problems.append(f"sweep argmax_{kind} is not the grid maximum (row {index})")
        return problems

    return Op(
        command="sweep",
        label=f"sweep --quantity {spec['quantity']} --at {spec['at']} "
        f"{spec['t1_steps']}x{spec['t2_steps']}",
        call=cli_call(ot, argv),
        check=check,
        perturb=lambda o: scale_largest(o, "value_rm", 1.0 + 1e-6),
        points=spec["t1_steps"] * spec["t2_steps"],
    )


def draw_sweep(rng: np.random.Generator, steps: int, quantity: str, at: str) -> dict[str, Any]:
    return {
        "t1_min": float(rng.uniform(0.8, 1.2)), "t1_max": float(rng.uniform(9.0, 11.0)),
        "t1_steps": steps,
        "t2_min": float(rng.uniform(1.8, 2.2)), "t2_max": float(rng.uniform(18.0, 22.0)),
        "t2_steps": steps, "quantity": quantity, "at": at,
    }


# ---------------------------------------------------------------- asymptotic


def asymptotic_op(ot, values: dict[str, Any]) -> Op:
    def check(outcome: Outcome) -> list[str]:
        rows = {r["kind"]: r for r in csv_rows(outcome.text)}
        cycle = reference_cycle(ot, values)
        problems: list[str] = []
        for kind in ("RM", "RC"):
            row = rows.get(kind)
            if row is None:
                problems.append(f"asymptotic: no {kind} row")
                continue
            want = ref.asymptotic(cycle, kind)
            work, heat = want["work"], want["heat"]
            ec = values["eps_c"]
            problems += mismatch(f"{kind} work_per_cycle", float(row["work_per_cycle"]), work, ec)
            problems += mismatch(f"{kind} heat_per_cycle", float(row["heat_per_cycle"]), heat, ec)
            problems += mismatch(
                f"{kind} efficiency", float(row["efficiency"]), -work / heat, ec / abs(heat)
            )
            problems += mismatch(f"{kind} lambda2", float(row["lambda2"]), want["lambda2"])
            if row["dud"] != ("true" if work > 0.0 else "false"):
                problems.append(f"{kind} dud: {row['dud']} with work {work!r}")
            timed = values["stroke"] == "landau_zener" and values["thermo"] == "lindblad"
            if timed:
                t2 = values["theta"] * (1.0 / values["eps_h"] + 1.0 / values["eps_c"])
                duration = values["t1"] + t2
                problems += mismatch(
                    f"{kind} power", float(row["power"]), -work / duration, ec / duration
                )
            elif row["power"] != "":
                problems.append(f"{kind} power given without stroke durations")
        return problems

    label = f"asymptotic --stroke {values['stroke']} --thermo {values['thermo']}"
    if "targets" in values:
        label += f" --targets {values['targets']}"
    return Op(
        command="asymptotic",
        label=label,
        call=cli_call(ot, argv_for("asymptotic", values)),
        check=check,
        perturb=lambda o: edit_cell(o, 1, "work_per_cycle", lambda v: v + 1e-6 * values["eps_c"]),
    )


# ---------------------------------------------------------------- pdf


def _marginal_reference(ot, values, observable: str) -> dict[str, tuple[float, float]]:
    """(mean, variance) of each scheme's marginal after the configured cycles."""
    cycle = reference_cycle(ot, values)
    rho0 = initial_vec(cycle, values)
    n = values["cycles"]
    return {
        scheme: ref.moment_series(cycle, scheme, observable, rho0, n)[-1]
        for scheme in ("RM", "RC1", "RC2")
    }


def pdf_op(ot, values: dict[str, Any], observable: str) -> Op:
    """Density CSV on the default 4096 points over a window of the bulk.

    The explicit window, +-8 standard deviations around the reference means,
    is a workaround for a fault of the CLI's default grid: it spreads its
    points over every lattice center +-8 pointer widths, which undersamples
    the narrow RC components of long records.  On the default grid
    ``pdf --observable heat --cycles 200`` integrates to about 0.63, and
    ``pdf --cycles 60`` fails the norm or mean check on about two engines in
    five, depending on the seed.  Drop the window once that grid is fixed.
    Each column must integrate to 1 within 1e-6, be non-negative within
    1e-9, and have its mean within 1e-6 reference standard deviations.
    """
    stats = _marginal_reference(ot, values, observable)
    lo = min(m - GRID_HALF_WIDTH_STDS * math.sqrt(v) for m, v in stats.values())
    hi = max(m + GRID_HALF_WIDTH_STDS * math.sqrt(v) for m, v in stats.values())
    argv = argv_for(
        "pdf", values, "--observable", observable,
        "--grid-min", repr(lo), "--grid-max", repr(hi),
    )

    def check(outcome: Outcome) -> list[str]:
        rows = csv_rows(outcome.text)
        if len(rows) != 4096:
            return [f"pdf: {len(rows)} grid rows, expected 4096"]
        x = np.array([float(r["value"]) for r in rows])
        columns = {"RM": "density_rm", "RC2": "density_rc", "RC1": "density_rc1"}
        if "density_rc1" not in rows[0]:
            # The CLI omits density_rc1 when it equals density_rc.
            columns["RC1"] = "density_rc"
        problems = mismatch("pdf grid start", float(x[0]), lo) + mismatch(
            "pdf grid end", float(x[-1]), hi
        )
        for scheme, column in columns.items():
            density = np.array([float(r[column]) for r in rows])
            mass = float(np.trapezoid(density, x))
            if abs(mass - 1.0) > NORM_TOL:
                problems.append(f"pdf {column}: integrates to {mass!r}")
            if density.min() < -NEGATIVE_TOL:
                problems.append(f"pdf {column}: negative value {density.min()!r}")
            mean = float(np.trapezoid(x * density, x))
            want_mean, want_var = stats[scheme]
            if abs(mean - want_mean) > DENSITY_MEAN_TOL * math.sqrt(want_var):
                problems.append(f"pdf {column} mean {mean!r} != reference {want_mean!r}")
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        # Shift the RM column by one grid step.
        rows = csv_rows(outcome.text)
        shifted = [rows[i - 1]["density_rm"] for i in range(len(rows))]
        for row, cell in zip(rows, shifted):
            row["density_rm"] = cell
        return Outcome(code=outcome.code, text=rows_to_csv(rows))

    return Op(
        command="pdf",
        label=f"pdf --observable {observable} --cycles {values['cycles']}",
        call=cli_call(ot, argv),
        check=check,
        perturb=perturb,
    )


def pdf_components_check(ot, values: dict[str, Any]) -> Op:
    """``pdf --format json`` whose components are checked in Fourier space.

    This call runs with the checks, outside the timed pass.
    """
    argv = argv_for("pdf", values, "--format", "json")

    def check(outcome: Outcome) -> list[str]:
        payload = json.loads(outcome.text)
        cycle = reference_cycle(ot, values)
        rho0 = initial_vec(cycle, values)
        problems: list[str] = []
        for scheme in ("RM", "RC1", "RC2"):
            part = payload["schemes"][scheme.lower()]
            centers = np.array([float(c["center"]) for c in part["components"]])
            weights = np.array([float(c["weight"]) for c in part["components"]])
            variance = float(part["variance"])
            got = (np.exp(1j * np.outer(CF_FREQUENCIES, centers)) @ weights) * np.exp(
                -0.5 * variance * CF_FREQUENCIES**2
            )
            want = ref.characteristic_function(
                cycle, scheme, "work", rho0, values["cycles"], CF_FREQUENCIES
            )
            worst = float(np.abs(got - want).max())
            if worst > CF_TOL:
                problems.append(f"pdf json {scheme}: characteristic function off by {worst:.3e}")
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        # Move the weight of the heaviest RC2 component onto the next one.
        payload = json.loads(outcome.text)
        comps = payload["schemes"]["rc2"]["components"]
        i = max(range(len(comps)), key=lambda k: abs(float(comps[k]["weight"])))
        j = i + 1 if i + 1 < len(comps) else i - 1
        moved = float(comps[i]["weight"])
        comps[j]["weight"] = repr(float(comps[j]["weight"]) + moved)
        comps[i]["weight"] = repr(0.0)
        return Outcome(code=outcome.code, text=json.dumps(payload))

    return Op(
        command="pdf",
        label=f"pdf --format json --cycles {values['cycles']}",
        call=cli_call(ot, argv),
        check=check,
        perturb=perturb,
    )


# ---------------------------------------------------------------- moments


def moments_op(ot, values: dict[str, Any]) -> Op:
    def check(outcome: Outcome) -> list[str]:
        rows = {r["scheme"]: r for r in csv_rows(outcome.text)}
        cycle = reference_cycle(ot, values)
        rho0 = initial_vec(cycle, values)
        n = values["cycles"]
        problems: list[str] = []
        for scheme in ("RM", "RC1", "RC2"):
            row = rows.get(scheme)
            if row is None:
                problems.append(f"moments: no {scheme} row")
                continue
            for observable in ("work", "heat"):
                mean, var = ref.moment_series(cycle, scheme, observable, rho0, n)[-1]
                std = math.sqrt(var)
                problems += mismatch(
                    f"{scheme} mean_{observable}", float(row[f"mean_{observable}"]), mean, std
                )
                problems += mismatch(f"{scheme} var_{observable}", float(row[f"var_{observable}"]), var)
                # Perfect-bath closed forms are exact at one cycle, so they
                # must match too; finite-time closed forms are leading order.
                exact_form = n == 1 and values["thermo"] == "perfect"
                cell = row[f"analytic_mean_{observable}"]
                if exact_form and cell != "":
                    problems += mismatch(
                        f"{scheme} analytic_mean_{observable}", float(cell), mean, std
                    )
                    problems += mismatch(
                        f"{scheme} analytic_var_{observable}",
                        float(row[f"analytic_var_{observable}"]), var,
                    )
        return problems

    label = f"moments --cycles {values['cycles']} --stroke {values['stroke']} --thermo {values['thermo']}"
    return Op(
        command="moments",
        label=label,
        call=cli_call(ot, argv_for("moments", values)),
        check=check,
        perturb=lambda o: edit_cell(o, 1, "var_heat", lambda v: v * (1.0 + 1e-6)),
    )


# ---------------------------------------------------------------- series


def series_op(ot, values: dict[str, Any], scheme: str, n_max: int) -> Op:
    def check(outcome: Outcome) -> list[str]:
        rows = outcome.rows
        if rows is None or len(rows) != n_max:
            return [f"series {scheme}: expected {n_max} rows"]
        cycle = reference_cycle(ot, values)
        rho0 = initial_vec(cycle, values)
        stats = ref.moment_series(cycle, scheme, "work", rho0, n_max)
        problems: list[str] = []
        for (n, per_cycle, reliability), (mean, var) in zip(rows, stats):
            std = math.sqrt(var)
            problems += mismatch(f"series {scheme} <W>_{n}/{n}", per_cycle, mean / n, std / n)
            problems += mismatch(f"series {scheme} R_{n}", reliability, -mean / std, 1.0)
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        rows = list(outcome.rows)
        n, per_cycle, reliability = rows[-1]
        rows[-1] = (n, per_cycle, reliability + 1e-6)
        return Outcome(code=0, rows=rows)

    return Op(
        command="series",
        label=f"work_per_cycle_series {scheme} to {n_max}",
        call=series_call(ot, values, scheme, n_max),
        check=check,
        perturb=perturb,
    )


# ---------------------------------------------------------------- selfcheck


def validate_op(ot, values: dict[str, Any], label: str) -> Op:
    def check(outcome: Outcome) -> list[str]:
        lines = outcome.text.strip().splitlines()
        problems = [f"validate: {line}" for line in lines if line.startswith("FAIL ")]
        if not lines or not lines[-1].startswith("PASSED:"):
            problems.append("validate: no PASSED verdict")
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        text = outcome.text.replace("PASS enumeration_vs_lattice", "FAIL enumeration_vs_lattice", 1)
        return Outcome(code=outcome.code, text=text)

    return Op(
        command="validate",
        label=f"validate {label}",
        call=cli_call(ot, argv_for("validate", values)),
        check=check,
        perturb=perturb,
    )


def negative_control_op(ot, values: dict[str, Any]) -> Op:
    """validate with corrupted suppression factors; must exit 1 and say why."""

    def check(outcome: Outcome) -> list[str]:
        lines = outcome.text.strip().splitlines()
        failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
        problems = []
        if not lines or not lines[-1].startswith("FAILED:"):
            problems.append("negative control: no FAILED verdict")
        stray = [name for name in failed if not name.startswith("enumeration_vs_lattice_")]
        if stray:
            problems.append(f"negative control: unrelated checks failed {stray}")
        for n in (1, 2):
            for leg in ("rm_work", "rc2_work"):
                if f"enumeration_vs_lattice_{leg}_n{n}" not in failed:
                    problems.append(f"negative control: {leg}_n{n} did not fail")
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        text = outcome.text.replace("FAIL ", "PASS ").replace("FAILED:", "PASSED:")
        return Outcome(code=outcome.code, text=text)

    return Op(
        command="validate",
        label="validate --corrupt-suppression 0.5",
        call=cli_call(ot, argv_for("validate", values, "--corrupt-suppression", "0.5")),
        check=check,
        perturb=perturb,
        expect=1,
    )


def joint_op(ot, values: dict[str, Any]) -> Op:
    def check(outcome: Outcome) -> list[str]:
        rows = csv_rows(outcome.text)
        work = np.array([float(r["work"]) for r in rows])
        heat = np.array([float(r["heat"]) for r in rows])
        weight = np.array([float(r["weight"]) for r in rows])
        problems = []
        if abs(weight.sum() - 1.0) > 1e-10:
            problems.append(f"joint: weights sum to {weight.sum()!r}")
        cycle = reference_cycle(ot, values)
        rho0 = initial_vec(cycle, values)
        scheme, n = values["scheme"], values["cycles"]
        for name, centers in (("work", work), ("heat", heat)):
            mean, var = ref.moment_series(cycle, scheme, name, rho0, n)[-1]
            got_mean = float(weight @ centers)
            got_var = float(weight @ centers**2) - got_mean**2
            got_var += ref.pointer_variance(scheme, name, n, values["sigma"])
            problems += mismatch(f"joint {scheme} mean {name}", got_mean, mean, math.sqrt(var))
            problems += mismatch(f"joint {scheme} var {name}", got_var, var)
        return problems

    def perturb(outcome: Outcome) -> Outcome:
        # Move the heaviest component's weight onto its neighbour.
        rows = csv_rows(outcome.text)
        i = max(range(len(rows)), key=lambda k: abs(float(rows[k]["weight"])))
        j = i + 1 if i + 1 < len(rows) else i - 1
        rows[j]["weight"] = repr(float(rows[j]["weight"]) + float(rows[i]["weight"]))
        rows[i]["weight"] = "0.0"
        return Outcome(code=outcome.code, text=rows_to_csv(rows))

    return Op(
        command="joint",
        label=f"joint --cycles {values['cycles']} --scheme {values['scheme']}",
        call=cli_call(ot, argv_for("joint", values)),
        check=check,
        perturb=perturb,
    )


def lz_op(ot, values: dict[str, Any]) -> Op:
    def check(outcome: Outcome) -> list[str]:
        row = csv_rows(outcome.text)[0]
        ec, eh, t1 = values["eps_c"], values["eps_h"], values["t1"]
        delta = ec * t1 / (4.0 * math.sqrt((eh / ec) ** 2 - 1.0))
        problems = mismatch("lz t1", float(row["t1"]), t1)
        problems += mismatch("lz alpha", float(row["alpha"]), math.exp(-2.0 * math.pi * delta))
        if not math.isfinite(float(row["phi"])):
            problems.append("lz: phase is not finite")
        return problems

    return Op(
        command="lz",
        label="lz",
        call=cli_call(ot, argv_for("lz", values)),
        check=check,
        perturb=lambda o: edit_cell(o, 0, "alpha", lambda v: v * (1.0 + 1e-6)),
    )


# ---------------------------------------------------------------- workloads


def duration_sweep(ot, rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    lz = {"stroke": "landau_zener"}
    ops = [
        sweep_op(ot, draw_engine(rng, **lz), draw_sweep(rng, 10, "power", "asymptotic")),
        sweep_op(ot, draw_engine(rng, **lz), draw_sweep(rng, 5, "efficiency", "10")),
        asymptotic_op(ot, draw_engine(rng)),
        asymptotic_op(ot, draw_engine(rng, **lz)),
        asymptotic_op(ot, draw_engine(rng, thermo="perfect")),
    ]
    return ops, []


def long_record(ot, rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    first = draw_engine(rng, cycles=60)
    ops = [
        pdf_op(ot, first, "work"),
        pdf_op(ot, draw_engine(rng, cycles=60), "work"),
        pdf_op(ot, draw_engine(rng, cycles=200), "heat"),
        moments_op(ot, draw_engine(rng, cycles=60)),
        moments_op(ot, draw_engine(rng, cycles=40, stroke="landau_zener")),
        series_op(ot, draw_engine(rng), "RM", 80),
        series_op(ot, draw_engine(rng), "RC2", 80),
    ]
    return ops, [pdf_components_check(ot, first)]


def selfcheck(ot, rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    ops = [
        validate_op(ot, draw_engine(rng, cycles=5), "default"),
        validate_op(ot, draw_engine(rng, cycles=5, thermo="perfect"), "--thermo perfect"),
        validate_op(ot, draw_engine(rng, cycles=10, stroke="landau_zener"), "--stroke landau_zener --cycles 10"),
        validate_op(
            ot, draw_engine(rng, cycles=5, init="generalized_gibbs_cold"),
            "--init generalized_gibbs_cold",
        ),
        negative_control_op(ot, draw_engine(rng, cycles=5)),
        joint_op(ot, draw_engine(rng, cycles=2, scheme="RM")),
        joint_op(ot, draw_engine(rng, cycles=2, scheme="RC2")),
        moments_op(ot, draw_engine(rng, cycles=1)),
        moments_op(ot, draw_engine(rng, cycles=1, thermo="perfect")),
        lz_op(ot, draw_engine(rng, stroke="landau_zener")),
        # Fixed inputs: fails on every run while asymptotics.invariant_state
        # takes this fixed point from an eigensolver (residual ~1e-8).
        asymptotic_op(ot, {
            "eps_c": 1.0, "eps_h": 3.7, "sigma": 0.2, "stroke": "direct",
            "alpha": 0.05, "phi": 0.0, "thermo": "perfect", "beta_c": 0.25,
            "beta_h": 0.025, "gamma": 0.025, "targets": "generalized_gibbs",
        }),
    ]
    return ops, []


# Small untimed calls made once before the first pass, so that first-call
# costs (lazy imports, growing the heap to the size of the largest arrays)
# do not land on pass 0 alone.
WARMUP_ARGV: dict[str, list[list[str]]] = {
    "duration_sweep": [
        ["asymptotic", "--stroke", "landau_zener"],
        ["sweep", "--stroke", "landau_zener", "--at", "10", "--t1-steps", "2", "--t2-steps", "2"],
    ],
    "long_record": [["pdf", "--cycles", "20"], ["moments", "--cycles", "10"]],
    "selfcheck": [["validate"], ["joint", "--cycles", "2"]],
}

WORKLOADS: dict[str, Callable] = {
    "duration_sweep": duration_sweep,
    "long_record": long_record,
    "selfcheck": selfcheck,
}
