"""Command-line front end: plot-data emission, metrics and self-checks.

Every configuration key can come from an INI file (``--config``) or from a
flag of the same name; flags win.  Commands write CSV by default and JSON
with ``--format json``.  CSV numbers carry 12 significant digits; JSON mirrors
full binary precision by emitting shortest round-trip decimal strings.

Exit codes: 0 success, 1 self-check failure, 2 bad configuration or a request
the configured engine cannot satisfy.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    asymptotic_work_heat,
    build_cycle_superoperator,
    derive_timed_config,
    initial_state,
    spectrum,
    thermal_duration_from_theta,
)
from .config import KEY_SPECS, ConfigError, load_engine_config
from .engine import (
    JOINT_SCHEMES,
    READOUTS,
    SCHEMES,
    EngineConfig,
    EngineModel,
    LandauZenerStroke,
    LindbladThermo,
    build_model,
)
from .lattice import DENSITY_POINT_BUDGET, marginal_via_lattice, mixture_from_points
from .mixtures import prune_components
from .moments import (
    MomentSet,
    closed_form_moments,
    efficiency,
    moment_series,
    power_output,
    reliability,
)
from .oracle import ORACLE_CYCLE_LIMIT, enumerate_branches, point_weights
from .qubit import landau_zener_params
from .validation import run_validation

DEFAULT_GRID_POINTS = 4096
GRID_PAD_SIGMAS = 8.0
# Largest entry by which the closed forms' initial state may differ from the
# printed run's for the analytic moment cells to be filled.
CLOSED_FORM_START_TOL = 1e-12
# The joint command enumerates branch pairs, one cycle short of the oracle's
# own limit.
JOINT_CYCLE_LIMIT = ORACLE_CYCLE_LIMIT - 1
# Largest sweep grid: at about 1.5 ms a point, 200 x 200 points take a minute.
SWEEP_POINT_BUDGET = 200 * 200


def _fmt(value) -> str:
    """CSV cell: 12 significant digits for floats, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


def _jsonify(value):
    """JSON payload with floats rendered as round-trip decimal strings."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _csv_text(header: list[str], rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return out.getvalue()


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(_jsonify(payload), indent=2) + "\n")


def _emit_rows(args, rows: list[dict], payload) -> None:
    """CSV of the rows, headed by the first row's keys, or the JSON payload."""
    if args.format == "json":
        _emit_json(args, payload)
        return
    header = list(rows[0])
    _emit(args, _csv_text(header, [[row[key] for key in header] for row in rows]))


def _finite_float(text: str) -> float:
    """Float flag value, refusing nan and infinities."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite (got {value!r})")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="INI configuration file")
    for key, spec in KEY_SPECS.items():
        group.add_argument(
            f"--{key}", type=spec.parse, default=None, metavar="V", help=spec.help
        )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--output", "-o", metavar="PATH", help="write output to a file"
    )


def _load_config(args) -> EngineConfig:
    overrides = {key: getattr(args, key) for key in KEY_SPECS}
    config, values = load_engine_config(args.config, overrides)
    args.resolved_values = values
    return config


def _marginal_components(mix) -> list[dict]:
    order = np.argsort(mix.centers)
    return [
        {"center": float(c), "weight": float(w)}
        for c, w in zip(mix.centers[order], mix.weights[order])
    ]


def _check_grid(points: int, lo: float | None, hi: float | None) -> None:
    """Refuse a grid of under 2 points or over budget, or with bounds out of order."""
    if points < 2:
        raise ConfigError("density grid needs at least 2 points")
    if points > DENSITY_POINT_BUDGET:
        raise ConfigError(f"--points {points:,} is over the budget of {DENSITY_POINT_BUDGET:,}")
    if lo is not None and hi is not None and not hi > lo:
        raise ConfigError("grid upper bound must exceed the lower bound")


def cmd_pdf(args) -> int:
    config = _load_config(args)
    if args.format == "csv":
        # Refuse a bad grid before any lattice runs.
        _check_grid(args.points, args.grid_min, args.grid_max)
    model = build_model(config)
    cycles = config.cycles
    if args.observable == "work":
        # One and two accumulated pointers give the same work mixture: the
        # same lattice, the same first-contact fold and the same variance.
        rc_work = marginal_via_lattice(model, "RC2", "work", cycles)
        mixes = {
            "RM": marginal_via_lattice(model, "RM", "work", cycles),
            "RC1": rc_work,
            "RC2": rc_work,
        }
    else:
        mixes = {
            scheme: marginal_via_lattice(model, scheme, "heat", cycles)
            for scheme in ("RM", "RC1", "RC2")
        }
    if args.format == "json":
        payload = {
            "observable": args.observable,
            "cycles": config.cycles,
            "schemes": {
                name.lower(): {
                    "variance": mix.variance,
                    "components": _marginal_components(mix),
                }
                for name, mix in mixes.items()
            },
        }
        _emit_json(args, payload)
        return 0
    pad = GRID_PAD_SIGMAS * max(np.sqrt(m.variance) for m in mixes.values())
    # The default window spans the components the densities evaluate, not
    # every occupied center: negligible far-out weights would stretch it and
    # undersample the narrow accumulated-pointer components.
    kept = [prune_components(m.centers, m.weights)[0] for m in mixes.values()]
    lo = args.grid_min
    hi = args.grid_max
    if lo is None:
        lo = min(c.min() for c in kept) - pad
    if hi is None:
        hi = max(c.max() for c in kept) + pad
    _check_grid(args.points, lo, hi)
    grid = np.linspace(lo, hi, args.points)
    header = ["value", "density_rm", "density_rc"]
    columns = [grid, mixes["RM"].density(grid), mixes["RC2"].density(grid)]
    # A lone heat pointer leaves the initial coherence unfolded, so heat has
    # its own single-pointer column, even where it equals density_rc; for
    # work, RC1 is RC2.
    if args.observable == "heat":
        header.append("density_rc1")
        columns.append(mixes["RC1"].density(grid))
    _emit(args, _csv_text(header, zip(*columns)))
    return 0


def cmd_joint(args) -> int:
    config = _load_config(args)
    if config.scheme not in JOINT_SCHEMES:
        raise ConfigError("joint distribution requires two pointers (RM or RC2)")
    if config.cycles > JOINT_CYCLE_LIMIT:
        raise ConfigError(
            "the joint command enumerates branch pairs exhaustively; "
            f"use at most {JOINT_CYCLE_LIMIT} cycles (got {config.cycles})"
        )
    table = enumerate_branches(config, config.cycles)
    points, weights = point_weights(table, config.scheme, "joint")
    mix = mixture_from_points(points, weights, config.scheme, "joint", config.cycles, config)
    order = np.lexsort((mix.centers[:, 1], mix.centers[:, 0]))
    rows = [
        {"work": mix.centers[i, 0], "heat": mix.centers[i, 1], "weight": mix.weights[i]}
        for i in order
    ]
    payload = {
        "scheme": config.scheme,
        "cycles": config.cycles,
        "covariance": mix.covariance,
        "components": rows,
    }
    _emit_rows(args, rows, payload)
    return 0


def _power(config: EngineConfig, work: float) -> float | None:
    """Power of a per-cycle mean work, when the config sets both durations."""
    if not (
        isinstance(config.stroke, LandauZenerStroke)
        and isinstance(config.thermo, LindbladThermo)
    ):
        return None
    t2 = thermal_duration_from_theta(config.thermo.theta, config.eps_c, config.eps_h)
    return power_output(work, config.stroke.t1, t2)


def _moment_columns(m: MomentSet, joint: bool, heat: bool) -> dict:
    """Moment cells of a row; the covariance needs a joint record and the
    heat cells a heat form, or they stay empty."""
    return {
        "mean_work": m.mean_work,
        "mean_heat": m.mean_heat if heat else None,
        "var_work": m.work_variance,
        "var_heat": m.heat_variance if heat else None,
        "cov_work_heat": m.cross - m.mean_work * m.mean_heat if joint else None,
        "efficiency": efficiency(m.mean_work, m.mean_heat) if heat else None,
        "reliability": reliability(m),
    }


def cmd_moments(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    rho0 = initial_state(model)
    forms = None
    if config.cycles == 1:
        forms, start = closed_form_moments(model, rho0)
        if np.abs(start - rho0).max() > CLOSED_FORM_START_TOL:
            forms = None
    rows = []
    for scheme in SCHEMES:
        numeric = moment_series(model, scheme, config.cycles, rho0)[-1]
        joint = scheme in JOINT_SCHEMES
        cells = _moment_columns(numeric, joint, heat=True)
        row = {"scheme": scheme, "cycles": config.cycles, **cells}
        row["power"] = _power(config, numeric.mean_work / config.cycles)
        # The closed heat forms describe per-stroke readout and the
        # two-pointer accumulation; a lone heat pointer keeps extra
        # interference, so its heat cells stay empty.
        if forms:
            form = forms["RM" if scheme == "RM" else "RC"]
            cells = _moment_columns(form, joint, heat=joint)
            row.update({f"analytic_{key}": value for key, value in cells.items()})
        else:
            row.update(dict.fromkeys(f"analytic_{key}" for key in cells))
        rows.append(row)
    _emit_rows(args, rows, {"moments": rows})
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """Grid over stroke and thermalization durations."""

    t1_min: float
    t1_max: float
    t1_steps: int
    t2_min: float
    t2_max: float
    t2_steps: int
    quantity: str = "power"
    at: str = "asymptotic"

    def __post_init__(self) -> None:
        if self.t1_steps < 1 or self.t2_steps < 1:
            raise ConfigError("sweep step counts must be at least 1")
        if self.t1_steps * self.t2_steps > SWEEP_POINT_BUDGET:
            raise ConfigError(
                f"--t1-steps times --t2-steps is {self.t1_steps * self.t2_steps:,} grid "
                f"points, over the sweep budget of {SWEEP_POINT_BUDGET:,}"
            )
        if not (0 < self.t1_min <= self.t1_max):
            raise ConfigError("need 0 < t1_min <= t1_max")
        if not (0 < self.t2_min <= self.t2_max):
            raise ConfigError("need 0 < t2_min <= t2_max")
        if self.quantity not in ("power", "efficiency", "lambda2"):
            raise ConfigError("quantity must be power, efficiency or lambda2")
        if self.at != "asymptotic":
            try:
                cycles = int(self.at)
            except ValueError as exc:
                raise ConfigError("at must be 'asymptotic' or a cycle count") from exc
            if cycles < 1:
                raise ConfigError("cycle count must be at least 1")

    @property
    def cycles(self) -> int | None:
        return None if self.at == "asymptotic" else int(self.at)

    def t1_values(self) -> np.ndarray:
        return np.linspace(self.t1_min, self.t1_max, self.t1_steps)

    def t2_values(self) -> np.ndarray:
        return np.linspace(self.t2_min, self.t2_max, self.t2_steps)


def _sweep_value(
    model: EngineModel, scheme: str, quantity: str, t1: float, t2: float,
    cycles: int | None,
) -> float | None:
    if quantity == "lambda2":
        return spectrum(build_cycle_superoperator(model, scheme)).lambda2
    if cycles is None:
        work, heat = asymptotic_work_heat(model, scheme)
    else:
        final = moment_series(model, scheme, cycles)[-1]
        work, heat = final.mean_work / cycles, final.mean_heat / cycles
    if quantity == "power":
        return power_output(work, t1, t2)
    return efficiency(work, heat)


def run_sweep(config: EngineConfig, sweep: SweepSpec) -> list[dict]:
    """Evaluate the sweep grid in deterministic row order (t1 outer)."""
    if not isinstance(config.stroke, LandauZenerStroke):
        raise ConfigError(
            "sweeps drive the stroke from its duration; "
            "set stroke = landau_zener"
        )
    if not isinstance(config.thermo, LindbladThermo):
        raise ConfigError(
            "sweeps derive the thermalization angle from its duration; "
            "set thermo = lindblad"
        )
    rows = []
    for t1 in sweep.t1_values():
        for t2 in sweep.t2_values():
            point = build_model(derive_timed_config(config, float(t1), float(t2)))
            row = {"kind": "grid", "t1": float(t1), "t2": float(t2)}
            for label, scheme in READOUTS:
                row[f"value_{label.lower()}"] = _sweep_value(
                    point, scheme, sweep.quantity, float(t1), float(t2), sweep.cycles
                )
            rows.append(row)
    for label, _ in READOUTS:
        key = f"value_{label.lower()}"
        best = max(
            (row for row in rows if row[key] is not None),
            key=lambda row: row[key],
            default=None,
        )
        if best is not None:
            rows.append({**best, "kind": f"argmax_{label.lower()}"})
    return rows


def cmd_sweep(args) -> int:
    config = _load_config(args)
    sweep = SweepSpec(
        t1_min=args.t1_min,
        t1_max=args.t1_max,
        t1_steps=args.t1_steps,
        t2_min=args.t2_min,
        t2_max=args.t2_max,
        t2_steps=args.t2_steps,
        quantity=args.quantity,
        at=args.at,
    )
    rows = run_sweep(config, sweep)
    _emit_rows(args, rows, {"quantity": sweep.quantity, "rows": rows})
    return 0


def cmd_asymptotic(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    rows = []
    for label, scheme in READOUTS:
        work, heat = asymptotic_work_heat(model, scheme)
        rows.append(
            {
                "kind": label,
                "work_per_cycle": work,
                "heat_per_cycle": heat,
                "efficiency": efficiency(work, heat),
                "lambda2": spectrum(build_cycle_superoperator(model, scheme)).lambda2,
                "power": _power(config, work),
                "dud": work > 0.0,
            }
        )
    _emit_rows(args, rows, {"asymptotic": rows})
    return 0


def cmd_lz(args) -> int:
    config = _load_config(args)
    t1 = (
        config.stroke.t1
        if isinstance(config.stroke, LandauZenerStroke)
        else args.resolved_values["t1"]
    )
    if t1 is None or t1 <= 0:
        raise ConfigError("a positive stroke duration is required (--t1)")
    params = landau_zener_params(config.eps_c, config.eps_h, float(t1))
    row = {"t1": float(t1), "alpha": params.alpha, "phi": params.phi}
    _emit_rows(args, [row], row)
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)
    report = run_validation(config, suppression_scale=args.corrupt_suppression)
    if args.format == "json":
        _emit_json(args, report.as_dict())
    else:
        _emit(args, "\n".join(report.lines()) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ottomon",
        description=(
            "Two-level monitored heat-engine simulator: work and heat "
            "statistics under per-stroke or accumulated readout."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    _add_config_flags(common)
    _add_output_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pdf = sub.add_parser(
        "pdf", parents=[common], help="marginal densities on a value grid"
    )
    p_pdf.add_argument(
        "--observable", choices=("work", "heat"), default="work",
        help="which record to tabulate",
    )
    p_pdf.add_argument(
        "--grid-min", type=_finite_float, default=None, help="grid lower bound"
    )
    p_pdf.add_argument(
        "--grid-max", type=_finite_float, default=None, help="grid upper bound"
    )
    p_pdf.add_argument(
        "--points", type=int, default=DEFAULT_GRID_POINTS, help="grid point count"
    )
    p_pdf.set_defaults(func=cmd_pdf)

    p_joint = sub.add_parser(
        "joint",
        parents=[common],
        help="exhaustive joint (work, heat) mixture, up to "
        f"{JOINT_CYCLE_LIMIT} cycles",
    )
    p_joint.set_defaults(func=cmd_joint)

    p_moments = sub.add_parser(
        "moments", parents=[common], help="moments, efficiency, reliability, power"
    )
    p_moments.set_defaults(func=cmd_moments)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="grid sweep over stroke/thermal durations"
    )
    p_sweep.add_argument("--t1-min", type=_finite_float, default=1.0)
    p_sweep.add_argument("--t1-max", type=_finite_float, default=10.0)
    p_sweep.add_argument("--t1-steps", type=int, default=10)
    p_sweep.add_argument("--t2-min", type=_finite_float, default=2.0)
    p_sweep.add_argument("--t2-max", type=_finite_float, default=20.0)
    p_sweep.add_argument("--t2-steps", type=int, default=10)
    p_sweep.add_argument(
        "--quantity", choices=("power", "efficiency", "lambda2"), default="power"
    )
    p_sweep.add_argument(
        "--at", default="asymptotic",
        help="'asymptotic' or a finite cycle count",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_asym = sub.add_parser(
        "asymptotic", parents=[common], help="per-cycle values in the invariant state"
    )
    p_asym.set_defaults(func=cmd_asymptotic)

    p_lz = sub.add_parser(
        "lz", parents=[common],
        help="stroke transition probability and phase for a duration",
    )
    p_lz.set_defaults(func=cmd_lz)

    p_val = sub.add_parser(
        "validate", parents=[common], help="cross-route self-check report"
    )
    p_val.add_argument(
        "--corrupt-suppression", type=_finite_float, default=1.0,
        help="test hook: exponent applied to readout suppression factors "
        "in the reference route (1.0 = honest)",
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
