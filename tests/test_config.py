"""Tests for the flat key/value configuration layer."""
from __future__ import annotations

import pytest

from ottomon.config import (
    KEY_SPECS,
    ConfigError,
    apply_overrides,
    default_values,
    load_engine_config,
    parse_config_text,
    to_engine_config,
)
from ottomon.engine import (
    DirectStroke,
    EngineConfig,
    LandauZenerStroke,
    LindbladThermo,
    PerfectThermo,
)
from ottomon.thermal import ThermalState


def test_defaults_build_the_reference_engine():
    config = to_engine_config(default_values())
    # The file defaults describe a five-cycle run of the library's default
    # engine (whose own dataclass default is a single cycle).
    assert config == EngineConfig(cycles=5)
    assert config.stroke == DirectStroke(alpha=0.05, phi=0.0)
    assert config.thermo == LindbladThermo(
        beta_c=0.25, beta_h=0.025, gamma=0.025, theta=8.0
    )
    assert config.sigma == 0.2
    assert config.cycles == 5
    assert config.scheme == "RM"
    assert config.init == "invariant"


def test_keys_are_unique_across_sections():
    # Uniqueness lets every key double as a CLI flag without qualification.
    assert len(KEY_SPECS) == len(set(KEY_SPECS))
    for key, spec in KEY_SPECS.items():
        assert spec.section in ("engine", "stroke", "thermo"), key


def test_parse_overrides_only_listed_keys():
    values = parse_config_text("[engine]\neps_h = 2.9\ncycles = 3\n")
    assert values["eps_h"] == 2.9
    assert values["cycles"] == 3
    reference = default_values()
    for key in KEY_SPECS:
        if key not in ("eps_h", "cycles"):
            assert values[key] == reference[key]


def test_parse_complex_values():
    values = parse_config_text("[engine]\ninit_q = 1e-3+2e-3j\n")
    assert values["init_q"] == 1e-3 + 2e-3j
    values = parse_config_text("[thermo]\ntarget_q_h = (0.1 - 0.2j)\n")
    assert values["target_q_h"] == 0.1 - 0.2j


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[bath]\ngamma = 0.1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[engine]\nepsilon = 1.0\n")


def test_parse_rejects_key_in_wrong_section():
    # 'alpha' exists, but it belongs to [stroke].
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[engine]\nalpha = 0.1\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("[engine]\neps_c = fast\n")


def test_parse_rejects_malformed_text():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config_text("eps_c = 1.0\n")


def test_apply_overrides_skips_none_and_checks_keys():
    values = default_values()
    merged = apply_overrides(values, {"eps_h": 4.0, "sigma": None})
    assert merged["eps_h"] == 4.0
    assert merged["sigma"] == values["sigma"]
    assert values["eps_h"] == 1.0 or values["eps_h"] == KEY_SPECS["eps_h"].default
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(values, {"epsilon_h": 4.0})


def test_to_engine_config_builds_each_variant():
    values = default_values()
    values.update({"stroke": "landau_zener", "t1": 3.0})
    config = to_engine_config(values)
    assert config.stroke == LandauZenerStroke(t1=3.0)

    values = default_values()
    values.update(
        {
            "thermo": "perfect",
            "targets": "custom",
            "target_d_c": 0.3,
            "target_q_c": 0.01j,
            "target_d_h": 0.4,
            "target_q_h": 0j,
        }
    )
    config = to_engine_config(values)
    assert isinstance(config.thermo, PerfectThermo)
    assert config.thermo.custom_cold == ThermalState(d=0.3, q=0.01j)
    assert config.thermo.custom_hot == ThermalState(d=0.4, q=0j)

    values = default_values()
    values.update({"init": "custom", "init_d": 0.27, "init_q": 0.01})
    config = to_engine_config(values)
    assert config.init_custom == ThermalState(d=0.27, q=0.01)


def test_to_engine_config_rejects_unknown_modes():
    values = default_values()
    values["stroke"] = "sudden"
    with pytest.raises(ConfigError, match="unknown stroke mode"):
        to_engine_config(values)
    values = default_values()
    values["thermo"] = "collisional"
    with pytest.raises(ConfigError, match="unknown thermalization mode"):
        to_engine_config(values)


def test_to_engine_config_wraps_validation_errors():
    values = default_values()
    values["sigma"] = -0.1
    with pytest.raises(ConfigError):
        to_engine_config(values)


def test_load_engine_config_precedence(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("[engine]\neps_h = 2.5\nsigma = 0.5\n", encoding="utf-8")
    config, values = load_engine_config(str(path), {"eps_h": 4.0})
    assert values["eps_h"] == 4.0
    assert values["sigma"] == 0.5
    assert config.eps_h == 4.0
    assert config.sigma == 0.5

    config, values = load_engine_config(None, None)
    assert config == EngineConfig(cycles=5)
    assert values == default_values()
