"""Scenario parsing: strict keys, preset merging, seed authority."""

import pytest

from greendc.config import (
    ConfigError, ScenarioConfig, from_dict, scenario_preset, to_dict,
)
from greendc.presets import ARCHITECTURES, SCENARIOS
from greendc.report import run_scenario

from conftest import small_scenario


def test_empty_document_uses_presets():
    cfg = from_dict({})
    assert cfg.architecture == ARCHITECTURES["three_tier"]
    assert cfg.policy.scheme == "none"
    assert cfg.horizon_s == 60.0
    assert cfg.server_power.p_fixed_w == 171.0
    assert set(cfg.switch_power) == {"core", "aggregation", "access"}


def test_unknown_keys_fail_with_path():
    with pytest.raises(ConfigError, match="unknown key colour"):
        from_dict({"colour": "green"})
    with pytest.raises(ConfigError, match="workload.cadence"):
        from_dict({"workload": {"cadence": 3}})
    with pytest.raises(ConfigError, match="policy"):
        from_dict({"policy": {"scheme": "none", "mood": "calm"}})
    with pytest.raises(ConfigError, match="switch_power.spine"):
        from_dict({"switch_power": {"spine": {}}})
    with pytest.raises(ConfigError, match="architecture"):
        from_dict({"architecture": {"kind": "three_tier", "lanes": 2}})


def test_architecture_accepts_preset_name_or_object():
    assert from_dict({"architecture": "two_tier"}).architecture == \
        ARCHITECTURES["two_tier"]
    cfg = from_dict({"architecture": {"preset": "three_tier", "core_count": 4}})
    assert cfg.architecture.core_count == 4
    assert cfg.architecture.access_count == ARCHITECTURES["three_tier"].access_count
    with pytest.raises(ConfigError, match="unknown architecture preset"):
        from_dict({"architecture": "mesh"})
    with pytest.raises(ConfigError):
        from_dict({"architecture": 7})


def test_scenario_seed_overrides_workload_seed():
    cfg = from_dict(small_scenario(seed=99))
    assert cfg.seed == 99
    assert cfg.effective_workload().seed == 99


def test_effective_workload_spans_horizon_and_target_load():
    cfg = from_dict(small_scenario(horizon_s=12.0, target_load=0.5))
    wl = cfg.effective_workload()
    assert wl.duration == 12.0
    capacity = cfg.architecture.server_count * cfg.server_power.f_max
    rate = 1.0 / wl.mean_interarrival
    assert rate * wl.mean_compute / capacity == pytest.approx(0.5)


def test_class_mix_must_have_three_entries():
    with pytest.raises(ConfigError, match="class_mix"):
        from_dict({"workload": {"class_mix": [0.5, 0.5]}})


def test_port_power_keys_coerced_from_json_strings():
    cfg = from_dict({"switch_power": {"access": {
        "port_power_by_rate": {"1e9": 0.7}}}})
    assert cfg.switch_power["access"].port_power_by_rate[1e9] == 0.7
    with pytest.raises(ConfigError, match="port_power_by_rate"):
        from_dict({"switch_power": {"access": {"port_power_by_rate": {"fast": 1}}}})


def test_scalar_bounds():
    with pytest.raises(ConfigError, match="horizon_s"):
        from_dict({"horizon_s": 0.0})
    with pytest.raises(ConfigError, match="target_load"):
        from_dict({"target_load": 1.5})
    with pytest.raises(ConfigError, match="replications"):
        from_dict({"replications": 0})
    with pytest.raises(ConfigError, match="pue_overhead"):
        from_dict({"pue_overhead": 0.9})
    with pytest.raises(ConfigError, match="price_per_kwh"):
        from_dict({"price_per_kwh": -0.1})


def test_integral_time_fields_run_like_floats():
    # JSON has one number type: 2 and 2.0 must be the same scenario and run
    as_int = from_dict(small_scenario(horizon_s=2, policy={"scheme": "dvfs+dns",
                                                         "stats_interval_s": 1}))
    as_float = from_dict(small_scenario(horizon_s=2.0, policy={"scheme": "dvfs+dns",
                                                             "stats_interval_s": 1.0}))
    assert as_int == as_float
    assert isinstance(as_int.horizon_s, float)
    assert isinstance(as_int.policy.stats_interval_s, float)
    assert run_scenario(as_int).trace_hash == run_scenario(as_float).trace_hash


def test_float_fields_reject_booleans_and_strings():
    with pytest.raises(ConfigError, match="horizon_s"):
        from_dict({"horizon_s": True})
    with pytest.raises(ConfigError, match="horizon_s"):
        from_dict({"horizon_s": "60"})
    with pytest.raises(ConfigError, match="policy.stats_interval_s"):
        from_dict({"policy": {"stats_interval_s": False}})
    with pytest.raises(ConfigError, match="workload.mean_compute"):
        from_dict({"workload": {"mean_compute": "1"}})


def test_workload_inconsistency_reported_as_config_error():
    with pytest.raises(ConfigError):
        from_dict({"workload": {"job_count": 10, "duration": 5.0}})


def test_roundtrip_through_dict():
    cfg = from_dict(small_scenario())
    again = from_dict(to_dict(cfg))
    assert again == cfg
    assert to_dict(again) == to_dict(cfg)


def test_scenario_presets_resolve():
    for name in SCENARIOS:
        cfg = scenario_preset(name)
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.label == name
    with pytest.raises(ConfigError, match="unknown scenario preset"):
        scenario_preset("peak-hour")


def test_preset_mixes_are_single_class():
    assert scenario_preset("ciw-30").workload.class_mix == (1.0, 0.0, 0.0)
    assert scenario_preset("diw-30").workload.class_mix == (0.0, 1.0, 0.0)
    assert scenario_preset("reference-30").workload.class_mix == (0.0, 0.0, 1.0)
