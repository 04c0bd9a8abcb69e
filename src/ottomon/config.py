"""Flat key/value configuration files and their mapping to engine configs.

The file format is INI-style with three sections (engine, stroke, thermo).
Keys are unique across sections so each one doubles as a command-line flag of
the same name.
"""
from __future__ import annotations

import cmath
import configparser
from dataclasses import dataclass
from typing import Any, Callable

from .engine import (
    DirectStroke,
    EngineConfig,
    LandauZenerStroke,
    LindbladThermo,
    PerfectThermo,
)
from .thermal import ThermalState


@dataclass(frozen=True)
class KeySpec:
    section: str
    parse: Callable[[str], Any]
    default: Any
    help: str


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


KEY_SPECS: dict[str, KeySpec] = {
    "eps_c": KeySpec("engine", float, 1.0, "cold level half-gap"),
    "eps_h": KeySpec("engine", float, 3.7, "hot level half-gap"),
    "sigma": KeySpec("engine", float, 0.2, "pointer width"),
    "cycles": KeySpec("engine", int, 5, "number of cycles"),
    "scheme": KeySpec("engine", str, "RM", "monitoring scheme: RM, RC1 or RC2"),
    "init": KeySpec(
        "engine",
        str,
        "invariant",
        "initial state: invariant, gibbs_cold, generalized_gibbs_cold or custom",
    ),
    "init_d": KeySpec("engine", float, 0.5, "custom initial excited population"),
    "init_q": KeySpec("engine", _parse_complex, 0j, "custom initial coherence"),
    "stroke": KeySpec("stroke", str, "direct", "stroke mode: direct or landau_zener"),
    "alpha": KeySpec("stroke", float, 0.05, "stroke transition probability"),
    "phi": KeySpec("stroke", float, 0.0, "stroke phase"),
    "t1": KeySpec("stroke", float, 5.0, "total work-stroke duration (landau_zener)"),
    "thermo": KeySpec("thermo", str, "lindblad", "thermalization: perfect or lindblad"),
    "beta_c": KeySpec("thermo", float, 0.25, "cold inverse temperature"),
    "beta_h": KeySpec("thermo", float, 0.025, "hot inverse temperature"),
    "gamma": KeySpec("thermo", float, 0.025, "system-bath coupling rate"),
    "theta": KeySpec("thermo", float, 8.0, "dimensionless thermalization duration"),
    "omega_d": KeySpec("thermo", float, 0.2, "bath cutoff frequency"),
    "targets": KeySpec(
        "thermo",
        str,
        "gibbs",
        "perfect-map targets: gibbs, generalized_gibbs or custom",
    ),
    "target_d_c": KeySpec("thermo", float, 0.5, "custom cold target population"),
    "target_q_c": KeySpec("thermo", _parse_complex, 0j, "custom cold target coherence"),
    "target_d_h": KeySpec("thermo", float, 0.5, "custom hot target population"),
    "target_q_h": KeySpec("thermo", _parse_complex, 0j, "custom hot target coherence"),
}

_SECTIONS = ("engine", "stroke", "thermo")


def default_values() -> dict[str, Any]:
    """The out-of-box parameter set (the finite-time reference engine)."""
    return {key: spec.default for key, spec in KEY_SPECS.items()}


class ConfigError(ValueError):
    """Malformed configuration file or flag value."""


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse INI text into typed values on top of the defaults."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values = default_values()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            spec = KEY_SPECS.get(key)
            if spec is None or spec.section != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = spec.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return values


def parse_config_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def apply_overrides(
    values: dict[str, Any], overrides: dict[str, Any]
) -> dict[str, Any]:
    """Overlay non-None override values (already typed) onto a value dict."""
    merged = dict(values)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    return merged


def to_engine_config(values: dict[str, Any]) -> EngineConfig:
    """Build a validated engine configuration from typed values."""
    for key, value in values.items():
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ConfigError(f"{key} must be finite (got {value!r})")
    stroke_mode = values["stroke"]
    if stroke_mode == "direct":
        stroke = DirectStroke(alpha=values["alpha"], phi=values["phi"])
    elif stroke_mode == "landau_zener":
        stroke = LandauZenerStroke(t1=values["t1"])
    else:
        raise ConfigError(f"unknown stroke mode {stroke_mode!r}")
    thermo_mode = values["thermo"]
    if thermo_mode == "lindblad":
        thermo = LindbladThermo(
            beta_c=values["beta_c"],
            beta_h=values["beta_h"],
            gamma=values["gamma"],
            theta=values["theta"],
            omega_d=values["omega_d"],
        )
    elif thermo_mode == "perfect":
        custom_cold = custom_hot = None
        if values["targets"] == "custom":
            custom_cold = ThermalState(d=values["target_d_c"], q=values["target_q_c"])
            custom_hot = ThermalState(d=values["target_d_h"], q=values["target_q_h"])
        thermo = PerfectThermo(
            beta_c=values["beta_c"],
            beta_h=values["beta_h"],
            gamma=values["gamma"],
            omega_d=values["omega_d"],
            targets=values["targets"],
            custom_cold=custom_cold,
            custom_hot=custom_hot,
        )
    else:
        raise ConfigError(f"unknown thermalization mode {thermo_mode!r}")
    init_custom = None
    if values["init"] == "custom":
        init_custom = ThermalState(d=values["init_d"], q=values["init_q"])
    try:
        return EngineConfig(
            eps_c=values["eps_c"],
            eps_h=values["eps_h"],
            stroke=stroke,
            thermo=thermo,
            sigma=values["sigma"],
            cycles=values["cycles"],
            scheme=values["scheme"],
            init=values["init"],
            init_custom=init_custom,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_engine_config(
    path: str | None = None, overrides: dict[str, Any] | None = None
) -> tuple[EngineConfig, dict[str, Any]]:
    """Read a config file (or defaults) and apply flag overrides."""
    values = parse_config_file(path) if path else default_values()
    if overrides:
        values = apply_overrides(values, overrides)
    return to_engine_config(values), values
