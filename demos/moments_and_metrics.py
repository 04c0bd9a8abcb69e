"""Engine metrics: moments, efficiency, reliability and the readout's cost.

Compares the closed-form single-cycle moments of the dissipative engine with
the exhaustive branch enumeration, then prints the figures of merit for both
readout styles.  The two styles agree on mean heat but differ in the work
moments by exact pointer-width offsets plus one damped interference term,
so monitoring itself changes what the engine appears to deliver.
"""
from __future__ import annotations

from ottomon import EngineConfig, MomentSet, build_model, efficiency, reliability
from ottomon.asymptotics import initial_state
from ottomon.lattice import mixture_from_points
from ottomon.moments import closed_form_moments
from ottomon.oracle import enumerate_branches, point_weights


def main() -> None:
    config = EngineConfig()
    model = build_model(config)
    analytic, rho_diag = closed_form_moments(model, initial_state(model))
    table = enumerate_branches(model, 1, initial=rho_diag)
    numeric = {}
    for kind, scheme in (("RM", "RM"), ("RC", "RC2")):
        points, weights = point_weights(table, scheme, "joint")
        mix = mixture_from_points(points, weights, scheme, "joint", 1, config)
        numeric[kind] = MomentSet(*mix.moments())

    print("Single cycle from the diagonal part of the invariant state\n")
    for kind in ("RM", "RC"):
        print(f"{kind}: closed form vs enumeration")
        for name, a, b in zip(MomentSet._fields, analytic[kind], numeric[kind]):
            print(f"  {name:12s} {a:+.12f}  {b:+.12f}  (diff {abs(a - b):.2e})")
        print()

    sig2 = config.sigma**2
    print("Exact readout offsets (enumeration):")
    print(f"  <W^2> RM - RC, width part : {3.0 * sig2:+.4f} (3 sigma^2)")
    print(f"  <WQ>  RM - RC             : {numeric['RM'].cross - numeric['RC'].cross:+.4f} (-2 sigma^2)")
    print(f"  <Q>   RM - RC             : {numeric['RM'].mean_heat - numeric['RC'].mean_heat:+.2e}")

    print("\nFigures of merit per readout (single cycle):")
    for kind in ("RM", "RC"):
        m = numeric[kind]
        eta = efficiency(m.mean_work, m.mean_heat)
        eta_text = f"{eta:+.4f}" if eta is not None else "undefined"
        print(
            f"  {kind}: <W> = {m.mean_work:+.5f}, <Q> = {m.mean_heat:+.5f}, "
            f"efficiency {eta_text}, reliability {reliability(m):+.5f}"
        )
    print(
        "\nNegative mean work means net extraction; a positive mean marks a "
        "dud that absorbs work."
    )


if __name__ == "__main__":
    main()
