"""Long-run behavior: invariant state, spectral gap and power sweep.

The single-cycle map drives the working substance toward an invariant state
at a geometric rate set by its second-largest eigenvalue modulus.  This demo
prints the spectrum for both readout styles, shows the per-cycle work
increments converging to the asymptotic value at exactly that rate, and
sweeps output power over the stroke and thermalization durations.
"""
from __future__ import annotations

import numpy as np

from ottomon import (
    EngineConfig,
    LandauZenerStroke,
    READOUTS,
    asymptotic_power,
    asymptotic_work_heat,
    build_cycle_superoperator,
    fit_geometric_ratio,
    invariant_state,
    spectrum,
    work_per_cycle_series,
)


def main() -> None:
    config = EngineConfig()

    print("Cycle-map spectrum (eigenvalue moduli, descending):")
    for label, scheme in READOUTS:
        sop = build_cycle_superoperator(config, scheme)
        report = spectrum(sop)
        moduli = ", ".join(f"{abs(z):.6f}" for z in report.eigenvalues[:4])
        print(f"  {label}: {moduli}  (gap = {report.lambda2:.6f})")
        rho = invariant_state(sop)
        print(f"      invariant excited population {rho[1, 1].real:.6f}")

    print("\nPer-cycle work increments vs the asymptotic value:")
    for _, scheme in READOUTS:
        rows = work_per_cycle_series(config, scheme, 30)
        totals = np.array([n * mean for n, mean, _ in rows])
        increments = np.diff(np.concatenate(([0.0], totals)))
        w_inf, _ = asymptotic_work_heat(config, scheme)
        lam2 = spectrum(build_cycle_superoperator(config, scheme)).lambda2
        fitted = fit_geometric_ratio(increments - w_inf)
        print(f"  {scheme}: w_inf = {w_inf:+.6f}")
        for n in (1, 2, 5, 10, 30):
            print(f"    N={n:3d}  increment = {increments[n - 1]:+.9f}")
        print(f"    fitted decay ratio {fitted:.6f} vs spectral gap {lam2:.6f}")

    print("\nPower over a coarse duration grid (per-stroke readout):")
    base = EngineConfig(stroke=LandauZenerStroke(t1=5.0))
    t2_values = (5.0, 10.0, 20.0, 50.0)
    header = "  t1 \\ t2 " + "".join(f"{t2:>10.1f}" for t2 in t2_values)
    print(header)
    for t1 in (2.0, 5.0, 10.0):
        cells = []
        for t2 in t2_values:
            power = asymptotic_power(base, "RM", t1, t2)
            cells.append(f"{power:+10.5f}")
        print(f"  {t1:7.1f} " + "".join(cells))
    print("  (positive = net extraction per unit time, negative = dud)")


if __name__ == "__main__":
    main()
