"""Self-checking suite comparing independent computation routes.

Each check pits two routes that must agree against each other: the exhaustive
branch enumeration against the lattice recursion, assembled mixtures against
closed-form moments, and cycle-map spectra against their defining properties.
Every result records the measured deviation next to its tolerance so the
report stays useful when something drifts.

The ``suppression_scale`` hook deliberately mis-weights the enumeration route
(every readout suppression factor is raised to that power), which lets
callers confirm the cross-route comparisons actually bite.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cache, partial

import numpy as np

from .asymptotics import (
    DEGENERACY_TOL,
    DegenerateFixedPointError,
    build_cycle_superoperator,
    initial_state,
    invariant_state,
    spectrum,
)
from .engine import (
    OBSERVABLES,
    READOUTS,
    SCHEMES,
    EngineConfig,
    LindbladThermo,
    build_model,
    require_sector_separation,
)
from .lattice import as_weight_table, lattice_points, mixture_from_points
from .mixtures import prune_components
from .moments import closed_form_moments, moment_series
from .oracle import enumerate_branches, point_weights
from .superop import unvec, vec

WEIGHT_TOL = 1e-10
MOMENT_TOL = 1e-8
DENSITY_NORM_TOL = 1e-6
POSITIVITY_TOL = 1e-9
TRACE_TOL = 1e-12
CENTER_FLOOR = 1e-13
# Half-width of the density integration window around each kept center.
DENSITY_PAD_STDS = 8.0
DENSITY_CYCLE_CAP = 10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one cross-route comparison."""

    name: str
    status: str
    deviation: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError("status must be pass, fail or skip")

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def line(self) -> str:
        parts = [f"{self.status.upper():<4} {self.name}"]
        if self.deviation is not None:
            parts.append(f"deviation={self.deviation:.3e}")
        if self.tolerance is not None:
            parts.append(f"tolerance={self.tolerance:.1e}")
        if self.detail:
            parts.append(f"({self.detail})")
        return "  ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    """All check results plus the aggregate verdict."""

    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not any(r.failed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        n_fail = sum(r.failed for r in self.results)
        n_skip = sum(r.status == "skip" for r in self.results)
        verdict = "PASSED" if self.passed else "FAILED"
        out.append(
            f"{verdict}: {len(self.results)} checks, {n_fail} failed, {n_skip} skipped"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [asdict(r) for r in self.results],
        }


def _compare(
    name: str, deviation: float, tolerance: float, detail: str = ""
) -> CheckResult:
    status = "pass" if deviation <= tolerance else "fail"
    return CheckResult(name, status, float(deviation), tolerance, detail)


def compare_weight_tables(reference: dict, candidate: dict) -> tuple[float, str]:
    """Largest pointwise weight deviation over the union of lattice points.

    Also reports (in the detail string) any point carrying non-negligible
    weight on one side while absent from the other, which catches center-set
    mismatches separately from weight drift.  A nan weight on either side
    makes the deviation nan, which fails every tolerance.
    """
    keys = set(reference) | set(candidate)
    deviations = []
    missing = 0
    for key in keys:
        a = reference.get(key)
        b = candidate.get(key)
        deviations.append(abs((a or 0.0) - (b or 0.0)))
        present = a if b is None else b
        if (a is None or b is None) and abs(present) > CENTER_FLOOR:
            missing += 1
    detail = f"{missing} significant centers unmatched" if missing else ""
    return float(np.max(deviations, initial=0.0)), detail


class _Routes:
    """The routes of one validation run, each built on first use and kept.

    ``rho0`` is None when the starting state cannot be resolved, and
    ``rc_skip`` says why the accumulated-pointer legs cannot run, or is None.
    """

    def __init__(self, config: EngineConfig, suppression_scale: float) -> None:
        self.model = model = build_model(config)
        self.cycles = config.cycles
        self.scale = suppression_scale
        try:
            rho0 = initial_state(model)
        except DegenerateFixedPointError:
            rho0 = None
        self.rho0 = rho0
        try:
            require_sector_separation(model, "RC2")
            self.rc_skip = None
        except ValueError as exc:
            self.rc_skip = str(exc)
        self.cycle_map = cache(partial(build_cycle_superoperator, model))
        self.table = cache(partial(enumerate_branches, model, initial=rho0))
        self.moments = cache(partial(moment_series, model, initial=rho0))
        self._lattice = cache(partial(lattice_points, model, initial=rho0))

    def lattice(self, scheme: str, observable: str, cycles: int):
        # One and two accumulated pointers fold the work lattice alike.
        rc1_work = (scheme, observable) == ("RC1", "work")
        return self._lattice("RC2" if rc1_work else scheme, observable, cycles)


def _channel_legs(routes: _Routes) -> list[CheckResult]:
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    rhos = raw @ raw.conj().transpose(0, 2, 1)
    rhos /= np.einsum("kii->k", rhos).real[:, None, None]
    results = []
    for label, scheme in READOUTS:
        sop = routes.cycle_map(scheme)
        trace_dev = 0.0
        min_eig = np.inf
        for rho in rhos:
            out = unvec(sop @ vec(rho))
            trace_dev = max(trace_dev, abs(np.trace(out).real - 1.0))
            trace_dev = max(trace_dev, abs(np.trace(out).imag))
            eigs = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
            min_eig = min(min_eig, float(eigs.min()))
        results.append(
            _compare(f"trace_preservation_{label.lower()}", trace_dev, TRACE_TOL)
        )
        results.append(
            _compare(
                f"positivity_preservation_{label.lower()}",
                max(0.0, -min_eig),
                1e-12,
                "smallest output eigenvalue across random inputs",
            )
        )
    return results


def _enumeration_legs(routes: _Routes) -> list[CheckResult]:
    results = []
    for n in sorted({1, min(routes.cycles, 2)}):
        for scheme in SCHEMES:
            for observable in OBSERVABLES:
                name = f"enumeration_vs_lattice_{scheme.lower()}_{observable}_n{n}"
                if scheme != "RM" and routes.rc_skip:
                    results.append(CheckResult(name, "skip", detail=routes.rc_skip))
                    continue
                reference = as_weight_table(
                    *point_weights(routes.table(n), scheme, observable, routes.scale)
                )
                candidate = as_weight_table(*routes.lattice(scheme, observable, n))
                deviation, detail = compare_weight_tables(reference, candidate)
                status = "pass" if deviation <= WEIGHT_TOL and not detail else "fail"
                results.append(CheckResult(name, status, deviation, WEIGHT_TOL, detail))
    return results


def _moment_deviation(numeric: tuple[float, ...], analytic: tuple[float, ...]) -> float:
    """Largest relative moment deviation; nan when either side has a nan."""
    deviations = [abs(a - b) / max(1.0, abs(b)) for a, b in zip(numeric, analytic)]
    return float(np.max(deviations, initial=0.0))


def _analytic_legs(routes: _Routes) -> list[CheckResult]:
    """Single-cycle enumerated joint moments against the closed forms."""
    model = routes.model
    expected, initial = closed_form_moments(model, routes.rho0)
    if expected is None:
        return [
            CheckResult(
                "analytic_moments",
                "skip",
                detail="closed form assumes diagonal thermal targets",
            )
        ]
    if isinstance(model.config.thermo, LindbladThermo):
        tolerance = MOMENT_TOL
        detail = "single cycle, diagonal part of the initial state"
    else:
        tolerance = 1e-10
        detail = "single cycle started from the cold target"
    table = enumerate_branches(model, 1, initial=initial)
    results = []
    for label, scheme in READOUTS:
        points, weights = point_weights(table, scheme, "joint")
        mix = mixture_from_points(points, weights, scheme, "joint", 1, model.config)
        results.append(
            _compare(
                f"analytic_moments_{label.lower()}",
                _moment_deviation(mix.moments(), expected[label]),
                tolerance,
                detail,
            )
        )
    return results


def _density_windows(mix) -> list[tuple[float, np.ndarray]]:
    """Integration grids that resolve every component the density keeps.

    Each kept center gets a window of +- DENSITY_PAD_STDS standard
    deviations; overlapping windows merge, and each grid spaces its points at
    most half a standard deviation apart, so the narrowest component is
    resolved however far apart the centers lie.  Each window is its first
    center x0 and the offsets from it, so the spacing stays above the float
    resolution of the centers however large they are.
    """
    std = float(np.sqrt(mix.variance))
    pad = DENSITY_PAD_STDS * std
    centers = np.sort(prune_components(mix.centers, mix.weights)[0])
    windows = []
    for group in np.split(centers, np.nonzero(np.diff(centers) > 2.0 * pad)[0] + 1):
        span = group[-1] - group[0] + 2.0 * pad
        offsets = np.linspace(-pad, span - pad, int(2.0 * span / std) + 2)
        windows.append((group[0], offsets))
    return windows


def _marginal_legs(routes: _Routes) -> list[CheckResult]:
    """Density legs and recursion-vs-lattice moment legs on the marginals.

    Both read the same lattice mixtures after min(cycles, DENSITY_CYCLE_CAP)
    cycles, so the moment recursion and the lattice check each other at no
    extra lattice cost.
    """
    model = routes.model
    results = []
    densities = model.config.sigma > 0.0
    if not densities:
        results.append(
            CheckResult(
                "density_normalization",
                "skip",
                detail="zero pointer width, point-mass mixtures have no density",
            )
        )
    n = min(routes.cycles, DENSITY_CYCLE_CAP)
    for scheme in SCHEMES:
        for observable in OBSERVABLES:
            tag = f"{scheme.lower()}_{observable}_n{n}"
            if scheme != "RM" and routes.rc_skip:
                legs = []
                if densities:
                    legs += ["density_normalization", "density_positivity"]
                legs.append("moment_recursion_vs_lattice")
                results.extend(
                    CheckResult(f"{leg}_{tag}", "skip", detail=routes.rc_skip)
                    for leg in legs
                )
                continue
            mix = mixture_from_points(
                *routes.lattice(scheme, observable, n),
                scheme, observable, n, model.config,
            )
            if densities:
                integral, parts = 0.0, []
                for x0, offsets in _density_windows(mix):
                    shifted = replace(mix, centers=mix.centers - x0)
                    parts.append(shifted.density(offsets))
                    integral += np.trapezoid(parts[-1], offsets)
                density = np.concatenate(parts)
                results.append(
                    _compare(
                        f"density_normalization_{tag}",
                        abs(integral - 1.0),
                        DENSITY_NORM_TOL,
                    )
                )
                results.append(
                    _compare(
                        f"density_positivity_{tag}",
                        max(0.0, -float(density.min())),
                        POSITIVITY_TOL,
                        "magnitude of the most negative density value",
                    )
                )
            recursion = routes.moments(scheme, n)[-1]
            if observable == "work":
                moments = (recursion.mean_work, recursion.second_work)
            else:
                moments = (recursion.mean_heat, recursion.second_heat)
            results.append(
                _compare(
                    f"moment_recursion_vs_lattice_{tag}",
                    _moment_deviation(moments, mix.moments()),
                    MOMENT_TOL,
                    "mean and second moment",
                )
            )
    return results


def _spectral_legs(routes: _Routes) -> list[CheckResult]:
    thermo = routes.model.config.thermo
    lindblad = isinstance(thermo, LindbladThermo)
    # Dissipation per cycle; perfect thermalization always dissipates.
    strength = thermo.gamma * thermo.theta if lindblad else np.inf
    results = []
    for label, scheme in READOUTS:
        sop = routes.cycle_map(scheme)
        report = spectrum(sop)
        suffix = label.lower()
        results.append(
            _compare(
                f"spectral_radius_{suffix}",
                max(0.0, float(np.abs(report.eigenvalues).max()) - 1.0),
                1e-12,
                "largest eigenvalue modulus above 1",
            )
        )
        try:
            invariant_state(sop)
            degenerate = False
        except DegenerateFixedPointError:
            degenerate = True
        if strength == 0.0 and scheme != "RM":
            status = "pass" if degenerate else "fail"
            results.append(
                CheckResult(
                    f"fixed_point_degeneracy_{suffix}",
                    status,
                    detail="no dissipation, a degenerate fixed point is expected",
                )
            )
        elif strength == 0.0:
            # Contact dephasing still contracts at positive pointer width, so
            # either outcome is legitimate for per-stroke readout here.
            detail = "degenerate" if degenerate else "contracted by readout alone"
            results.append(
                CheckResult(f"fixed_point_{suffix}", "pass", detail=detail)
            )
        else:
            # Dissipation this weak leaves a gap under DEGENERACY_TOL, which
            # invariant_state reads as degenerate; the gap itself may read at
            # round-off, so the dissipation strength decides.
            unresolved = degenerate and strength <= DEGENERACY_TOL
            if unresolved:
                gap = 1.0 - report.lambda2
                detail = (
                    f"spectral gap {gap:.1e} is below the degeneracy tolerance "
                    f"{DEGENERACY_TOL:.0e}; the fixed point cannot be resolved"
                )
            else:
                detail = "eigenvalue 1 must be simple under dissipation"
            results.append(
                CheckResult(
                    f"fixed_point_unique_{suffix}",
                    "fail" if degenerate and not unresolved else "pass",
                    deviation=abs(abs(report.eigenvalues[0]) - 1.0),
                    tolerance=1e-12,
                    detail=detail,
                )
            )
    return results


def run_validation(
    config: EngineConfig, suppression_scale: float = 1.0
) -> ValidationReport:
    """Run every cross-route check at the given configuration.

    Enumeration legs are capped at two cycles internally (their cost grows
    exponentially); density and spectral legs follow the configured cycle
    count up to a small cap.  Each route is built once per run and shared by
    the legs that read it.  ``suppression_scale`` is a negative-control
    hook: any value other than 1 corrupts the enumeration-route weights and
    must make the report fail.
    """
    routes = _Routes(config, suppression_scale)
    results = _channel_legs(routes)
    if routes.rho0 is None:
        results.append(
            CheckResult(
                "initial_state",
                "skip",
                detail=(
                    "invariant initial state unresolved: no dissipation, or a "
                    "spectral gap below the degeneracy tolerance; enumeration, "
                    "moment and density legs skipped"
                ),
            )
        )
    else:
        results += _enumeration_legs(routes)
        results += _analytic_legs(routes)
        results += _marginal_legs(routes)
    results += _spectral_legs(routes)
    return ValidationReport(tuple(results))
