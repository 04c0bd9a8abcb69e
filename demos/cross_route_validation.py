"""Cross-route self-checks and the pointer-equivalence negative control.

Every quantity in the library is computable by at least two independent
routes (exhaustive branch enumeration, the lattice recursion, closed-form
moments).  The validation report runs them against each other.  The second
half corrupts the comparison deliberately, first through the suppression
hook and then with a synthetic thermal channel that couples the population
and coherence sectors; both must be caught.
"""
from __future__ import annotations

import numpy as np

from ottomon import EngineConfig, build_model
from ottomon.asymptotics import initial_state
from ottomon.lattice import as_weight_table, lattice_points
from ottomon.oracle import enumerate_branches, point_weights
from ottomon.superop import conjugation
from ottomon.validation import compare_weight_tables, run_validation


def pointer_work_gap(model, rho0) -> float:
    """Largest one- vs two-pointer work weight gap of the enumeration."""
    table = enumerate_branches(model, 1, initial=rho0)
    gap, _ = compare_weight_tables(
        as_weight_table(*point_weights(table, "RC1", "work")),
        as_weight_table(*point_weights(table, "RC2", "work")),
    )
    return gap


def main() -> None:
    config = EngineConfig(cycles=2)
    print("Honest validation report:")
    report = run_validation(config)
    for line in report.lines():
        print(" ", line)

    print("\nCorrupted suppression factors (scale 1.05) must fail:")
    bad = run_validation(config, suppression_scale=1.05)
    print(" ", bad.lines()[-1])
    assert not bad.passed

    print("\nPointer equivalence and its negative control:")
    control = EngineConfig(sigma=2.0)
    model = build_model(control)
    rho0 = initial_state(model)
    gap = pointer_work_gap(model, rho0)
    print(f"  honest channels: one- vs two-pointer work gap = {gap:.3e}")

    angle = 0.4
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
        dtype=complex,
    )

    class SectorMixingChannel:
        def superoperator(self) -> np.ndarray:
            return conjugation(rotation)

    model.hot_channel = SectorMixingChannel()
    gap = pointer_work_gap(model, rho0)
    print(f"  sector-mixing channel: gap = {gap:.3e} (equivalence broken)")
    try:
        lattice_points(model, "RC2", "work", 1)
    except ValueError as exc:
        print(f"  lattice fails closed: {exc}")


if __name__ == "__main__":
    main()
