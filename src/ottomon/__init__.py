"""Monitored two-level quantum heat-engine simulator.

Computes joint and marginal work/heat statistics of a four-stroke two-level
engine under two readout styles (per-stroke projective pointers and
end-of-run accumulated pointers), their efficiency, reliability and power
metrics, and the asymptotic per-cycle behavior of the monitored dynamics.
"""
from .asymptotics import (
    DegenerateFixedPointError,
    SpectrumReport,
    asymptotic_work_heat,
    build_cycle_superoperator,
    derive_timed_config,
    fit_geometric_ratio,
    initial_state,
    invariant_state,
    spectrum,
    theta_from_thermal_duration,
    thermal_duration_from_theta,
)
from .config import (
    ConfigError,
    KEY_SPECS,
    default_values,
    load_engine_config,
    parse_config_text,
    serialize_values,
    to_engine_config,
)
from .engine import (
    DirectStroke,
    EngineConfig,
    EngineModel,
    LandauZenerStroke,
    LindbladThermo,
    PerfectThermo,
    READOUTS,
    SCHEMES,
    build_model,
    pointer_covariance,
)
from .lattice import joint_via_lattice, marginal_via_lattice, mixture_from_points
from .mixtures import GaussianMixture1D, GaussianMixture2D
from .moments import (
    MomentSet,
    asymptotic_power,
    efficiency,
    moment_series,
    power_output,
    reliability,
    work_per_cycle_series,
)
from .oracle import BranchTable, enumerate_branches, point_weights
from .qubit import (
    StrokeHamiltonian,
    WorkStrokeParams,
    build_forward_unitary,
    build_reverse_unitary,
    gibbs_population,
    landau_zener_params,
)
from .thermal import (
    BathSpec,
    LindbladMap,
    PerfectMap,
    ThermalState,
    generalized_gibbs,
)
from .validation import CheckResult, ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "BranchTable",
    "CheckResult",
    "ConfigError",
    "DegenerateFixedPointError",
    "DirectStroke",
    "EngineConfig",
    "EngineModel",
    "GaussianMixture1D",
    "GaussianMixture2D",
    "KEY_SPECS",
    "LandauZenerStroke",
    "LindbladMap",
    "LindbladThermo",
    "MomentSet",
    "PerfectMap",
    "PerfectThermo",
    "READOUTS",
    "SCHEMES",
    "SpectrumReport",
    "StrokeHamiltonian",
    "ThermalState",
    "ValidationReport",
    "WorkStrokeParams",
    "asymptotic_power",
    "asymptotic_work_heat",
    "build_cycle_superoperator",
    "build_forward_unitary",
    "build_model",
    "build_reverse_unitary",
    "default_values",
    "derive_timed_config",
    "efficiency",
    "enumerate_branches",
    "fit_geometric_ratio",
    "generalized_gibbs",
    "gibbs_population",
    "initial_state",
    "invariant_state",
    "joint_via_lattice",
    "landau_zener_params",
    "load_engine_config",
    "marginal_via_lattice",
    "mixture_from_points",
    "moment_series",
    "parse_config_text",
    "point_weights",
    "pointer_covariance",
    "power_output",
    "reliability",
    "run_validation",
    "serialize_values",
    "spectrum",
    "theta_from_thermal_duration",
    "thermal_duration_from_theta",
    "to_engine_config",
    "work_per_cycle_series",
]
