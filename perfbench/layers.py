"""The per-layer metrics: which spans and counters make up each one.

The layers are the modules of ``ottomon``.  A ``*_calls`` metric counts calls
of the named functions; a ``*_s`` metric named after functions is the wall
time spent inside them, child calls included; ``<layer>.self_s`` is the
layer's self time (its spans minus their child spans).  ``lattice.assemble_s``
is the self time of the three assembly functions, so it leaves out the cycle
advances and kernel builds they call.
"""
from __future__ import annotations

import numpy as np

from tracer import Tracer

# oracle's self time is reported as oracle.enumerate_s.
SELF_TIME_LAYERS = (
    "asymptotics", "cli", "config", "engine", "lattice", "mixtures", "moments",
    "qubit", "superop", "thermal", "validation",
)

# name -> (unit, reader)
_METRICS = {
    "engine.tabulate_calls": ("count", lambda t: t.count("engine", "tabulate_cycle_branches")),
    "engine.tabulate_s": ("s", lambda t: t.total(t.inclusive, "engine", "tabulate_cycle_branches")),
    "engine.group_s": ("s", lambda t: t.total(
        t.inclusive, "engine", "group_work_transfers", "group_heat_transfers")),
    "engine.build_model_calls": ("count", lambda t: t.count("engine", "build_model")),
    "engine.build_model_s": ("s", lambda t: t.total(t.inclusive, "engine", "build_model")),
    "superop.sandwich_calls": ("count", lambda t: t.count("superop", "sandwich")),
    "thermal.generalized_gibbs_calls": ("count", lambda t: t.count("thermal", "generalized_gibbs")),
    "thermal.generalized_gibbs_s": ("s", lambda t: t.total(t.inclusive, "thermal", "generalized_gibbs")),
    "asymptotics.superop_s": ("s", lambda t: t.total(
        t.inclusive, "asymptotics", "build_cycle_superoperator")),
    "asymptotics.invariant_s": ("s", lambda t: t.total(t.inclusive, "asymptotics", "invariant_state")),
    "asymptotics.work_heat_s": ("s", lambda t: t.total(
        t.inclusive, "asymptotics", "asymptotic_work_per_cycle", "asymptotic_heat_per_cycle")),
    "lattice.kernel_calls": ("count", lambda t: t.count("lattice", "build_cycle_kernel")),
    "lattice.kernel_s": ("s", lambda t: t.total(t.inclusive, "lattice", "build_cycle_kernel")),
    "lattice.advance_calls": ("count", lambda t: t.count("lattice", "advance_cycle")),
    "lattice.advance_s": ("s", lambda t: t.total(t.inclusive, "lattice", "advance_cycle")),
    "lattice.points_advanced": ("count", lambda t: t.counters["lattice.points_advanced"]),
    "lattice.peak_grid_mb": ("MB", lambda t: t.peaks["lattice.peak_grid_mb"]),
    "lattice.assemble_s": ("s", lambda t: t.total(
        t.self_time, "lattice", "assemble_marginal", "joint_via_lattice", "work_per_cycle_series")),
    "mixtures.density_calls": ("count", lambda t: t.count("mixtures", "GaussianMixture1D.density")
                               + t.count("mixtures", "GaussianMixture2D.density")),
    "mixtures.density_s": ("s", lambda t: t.total(
        t.inclusive, "mixtures", "GaussianMixture1D.density", "GaussianMixture2D.density")),
    "mixtures.component_evals": ("count", lambda t: t.counters["mixtures.component_evals"]),
    "moments.closed_form_s": ("s", lambda t: t.total(
        t.inclusive, "moments", "analytic_moments_lindblad", "analytic_moments_perfect")),
    "oracle.enumerate_s": ("s", lambda t: t.layer_self("oracle")),
}
for _layer in SELF_TIME_LAYERS:
    _METRICS[f"{_layer}.self_s"] = ("s", lambda t, layer=_layer: t.layer_self(layer))

PER_LAYER_UNITS = {name: unit for name, (unit, _) in _METRICS.items()}


def _advance_probe(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    acc = args[0] if args else kwargs["acc"]
    kernel = args[1] if len(args) > 1 else kwargs.get("engine")
    tracer.peaks["lattice.peak_grid_mb"] = max(
        tracer.peaks["lattice.peak_grid_mb"], acc.grid.nbytes / 1e6
    )
    shifts = getattr(kernel, "shifts", None)
    if shifts is None:
        return
    bounds = acc.bounds
    box = 1
    for lo, hi in zip(bounds[0::2], bounds[1::2]):
        box *= hi - lo + 1
    tracer.counters["lattice.points_advanced"] += box * len(shifts)


def _density_probe(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    # The density evaluates only the components that survive pruning; the
    # unwrapped pruner is called so that the probe records no span.
    mixture, grid = args[0], args[1] if len(args) > 1 else next(iter(kwargs.values()))
    prune = tracer.package.mixtures.prune_components
    prune = getattr(prune, "__wrapped__", prune)
    live = len(prune(mixture.centers, mixture.weights)[0])
    tracer.counters["mixtures.component_evals"] += live * np.atleast_1d(grid).size


def new_tracer(package) -> Tracer:
    return Tracer(package, probes={
        ("lattice", "advance_cycle"): _advance_probe,
        ("mixtures", "GaussianMixture1D.density"): _density_probe,
        ("mixtures", "GaussianMixture2D.density"): _density_probe,
    })


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    return {name: float(read(tracer)) for name, (_, read) in _METRICS.items()}
