"""Scenario parsing: strict keys, preset merging, seed authority, and
scenarios that are valid by construction."""

import copy
import dataclasses
import math
import pickle

import pytest

from greendc.config import (
    MAX_INTERVALS, MAX_REPLICATIONS, ConfigError, ScenarioConfig, from_dict, scenario_preset,
    to_dict,
)
from greendc.presets import ARCHITECTURES, SCENARIOS, SERVER_POWER, SWITCH_POWER
from greendc.engine import run
from greendc.scheduler import SchedulerPolicy
from greendc.workload import WorkloadSpec

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
    """The scenario seed is stored as the workload's, so a report echoes
    the seed that drew its jobs and its scenario reruns to the same trace."""
    cfg = from_dict(small_scenario(seed=99))
    assert cfg.seed == 99
    assert cfg.effective_workload().seed == 99
    cfg = from_dict(small_scenario(seed=11, horizon_s=2.0,
                                   workload=dict(small_scenario()["workload"], seed=5)))
    assert cfg.workload.seed == 11
    rep = run(cfg)
    assert rep.scenario["workload"]["seed"] == 11
    assert run(from_dict(rep.scenario)).trace_hash == rep.trace_hash


def test_effective_workload_spans_horizon_and_target_load():
    cfg = from_dict(small_scenario(horizon_s=12.0, target_load=0.5))
    wl = cfg.effective_workload()
    assert wl.duration == 12.0
    capacity = cfg.architecture.server_count   # CPU-seconds per second at full speed
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
    assert from_dict({"replications": MAX_REPLICATIONS}).replications == MAX_REPLICATIONS
    with pytest.raises(ConfigError, match="replications"):
        from_dict({"replications": MAX_REPLICATIONS + 1})
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
    assert run(as_int).trace_hash == run(as_float).trace_hash


def test_float_fields_reject_booleans_and_strings():
    with pytest.raises(ConfigError, match="horizon_s"):
        from_dict({"horizon_s": True})
    with pytest.raises(ConfigError, match="horizon_s"):
        from_dict({"horizon_s": "60"})
    with pytest.raises(ConfigError, match="policy.stats_interval_s"):
        from_dict({"policy": {"stats_interval_s": False}})
    with pytest.raises(ConfigError, match="workload.mean_compute"):
        from_dict({"workload": {"mean_compute": "1"}})


def test_no_invalid_scenario_can_be_built():
    """A scenario checks itself when built, so dataclasses.replace cannot
    make one that from_dict would refuse.  A NaN fails every comparison, so
    a bound alone lets it through: every number of the scenario must be
    finite, with from_dict's message.  Each part refuses a non-finite number
    itself, so no scenario can be handed one."""
    cfg = from_dict(small_scenario())
    no_core = {role: p for role, p in cfg.switch_power.items() if role != "core"}
    nan, inf = float("nan"), float("inf")
    finite = ": expected a finite number, got "
    for change, match in (({"pue_overhead": 0.5}, "pue_overhead"),
                          ({"price_per_kwh": -1.0}, "price_per_kwh"),
                          ({"switch_power": no_core}, "missing roles"),
                          ({"horizon_s": 0.0}, "horizon_s"),
                          ({"horizon_s": nan}, "^horizon_s" + finite),
                          ({"pue_overhead": inf}, "^pue_overhead" + finite),
                          ({"price_per_kwh": nan}, "^price_per_kwh" + finite)):
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(cfg, **change)
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(cfg.workload, class_mix=(nan, 0.0, 1.0))


def _part_numbers():
    """(part, field, value maker) for every number field of each part class
    but the workload: the link rates on every fabric, the counts, and one
    rate and one wattage of a port table."""
    rates = ("server_rate_bps", "access_uplink_bps", "agg_core_bps", "core_mesh_bps")
    counts = ("core_count", "agg_count", "access_count", "servers_per_access")
    for kind, arch in ARCHITECTURES.items():
        for name in rates + (counts if kind == "three_tier" else ()):
            yield pytest.param(arch, name, float, id=f"{kind}.{name}")
    for part in (SchedulerPolicy(), SERVER_POWER, SWITCH_POWER["core"]):
        for name in (f.name for f in dataclasses.fields(part)):
            if name not in ("scheme", "port_power_by_rate"):
                yield pytest.param(part, name, float, id=f"{type(part).__name__}.{name}")
    access = SWITCH_POWER["access"]
    yield pytest.param(access, "port_power_by_rate", lambda x: {x: 1.0}, id="port-rate")
    yield pytest.param(access, "port_power_by_rate",
                       lambda x: {rate: x for rate in access.port_power_by_rate},
                       id="hot_ports")


@pytest.mark.parametrize("part, name, value", _part_numbers())
def test_each_part_refuses_non_finite_numbers(part, name, value):
    """A NaN passes a range test written as x <= 0, so each part writes its
    range tests so that a NaN fails them: a part built alone, as
    dataclasses.replace builds it, refuses a NaN or an infinity in any of
    its numbers and says the number must be finite."""
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(part, **{name: value(x)})


def test_interval_bound_holds_at_the_limit():
    """The horizon may hold MAX_INTERVALS management ticks or samples, not
    more; the message names the interval."""
    at_limit = {"horizon_s": 100.0, "policy": {"tick_interval_s": 100.0 / MAX_INTERVALS,
                                               "stats_interval_s": 100.0 / MAX_INTERVALS}}
    assert from_dict(at_limit).policy.tick_interval_s == 1e-4
    for name in ("tick_interval_s", "stats_interval_s"):
        with pytest.raises(ConfigError, match=f"policy.{name}"):
            from_dict({"horizon_s": 100.0, "policy": {name: 1e-5}})
    # the default 1 s samples bound only a run past 1,000,000 s with ticks over 1 s
    assert from_dict({"horizon_s": 1e6, "policy": {"tick_interval_s": 2.0}})
    with pytest.raises(ConfigError, match="policy.stats_interval_s"):
        from_dict({"horizon_s": 2e6, "policy": {"tick_interval_s": 2.0}})


def test_effective_workload_checks_only_the_spec_it_returns():
    """The target load rescales the template's rate before the horizon
    sizes it, so the template's own rate is never measured against the
    horizon; the effective spec is the one that arithmetic gives, bit for
    bit.  Without the target load that rate is the effective one, and too
    many jobs for a run."""
    doc = {"target_load": 0.3, "horizon_s": 60, "workload": {"mean_interarrival": 1e-6}}
    wl = from_dict(doc).effective_workload()
    servers = ARCHITECTURES["three_tier"].server_count   # 1,536
    assert wl == WorkloadSpec(mean_interarrival=1.0 / (0.3 * servers / 1.0), duration=60.0)
    assert wl.mean_interarrival.hex() == "0x1.1c71c71c71c72p-9"
    with pytest.raises(ConfigError, match="expects 6e\\+07 jobs"):
        from_dict(dict(doc, target_load=None))


def test_workload_inconsistency_reported_as_config_error():
    with pytest.raises(ConfigError):
        from_dict({"workload": {"job_count": 10, "duration": 5.0}})


def test_roundtrip_through_dict():
    cfg = from_dict(small_scenario())
    again = from_dict(to_dict(cfg))
    assert again == cfg
    assert to_dict(again) == to_dict(cfg)


def test_power_tables_cannot_change_once_built(small_cfg):
    """switch_power and every port_power_by_rate refuse each change, so a
    built scenario stays as its checks left it; replace, copies, pickles
    (what --workers sends) and the round trip keep them read-only, and
    to_dict still gives plain dicts."""
    ports = small_cfg.switch_power["access"].port_power_by_rate
    for table, key in ((small_cfg.switch_power, "core"), (ports, 1e9)):
        before = dict(table)
        for change in (lambda: table.__delitem__(key), lambda: table.__setitem__(key, None),
                       lambda: table.pop(key), table.popitem, table.clear,
                       lambda: table.update({key: None}), lambda: table.setdefault(0, 0),
                       lambda: table.__ior__({key: None})):
            with pytest.raises(TypeError, match="cannot be changed"):
                change()
        assert table == before
    copies = (dataclasses.replace(small_cfg, seed=2), copy.deepcopy(small_cfg),
              pickle.loads(pickle.dumps(small_cfg)), from_dict(to_dict(small_cfg)))
    for cfg in copies:
        assert cfg.switch_power == small_cfg.switch_power
        with pytest.raises(TypeError):
            del cfg.switch_power["core"]
        with pytest.raises(TypeError):
            del cfg.switch_power["access"].port_power_by_rate[1e9]
    data = to_dict(small_cfg)
    assert type(data["switch_power"]) is dict
    assert all(type(p["port_power_by_rate"]) is dict for p in data["switch_power"].values())


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


def test_int_fields_take_integral_numbers_only():
    cfg = from_dict({"seed": 7.0, "replications": 2,
                     "architecture": {"preset": "three_tier", "core_count": 4.0}})
    assert cfg.seed == 7 and type(cfg.seed) is int
    assert cfg.architecture.core_count == 4 and type(cfg.architecture.core_count) is int
    for doc, where in (({"seed": 1.5}, "seed"), ({"replications": True}, "replications"),
                       ({"workload": {"job_count": "9"}}, "workload.job_count"),
                       ({"seed": None}, "seed"),
                       ({"switch_power": {"core": {"n_linecards": 0.5}}},
                        "switch_power.core.n_linecards")):
        with pytest.raises(ConfigError, match=where):
            from_dict(doc)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        from_dict({"seed": -1})


def test_fabric_geometry_and_port_power_checked_at_load():
    with pytest.raises(ConfigError, match="aggregation pairs"):
        from_dict({"architecture": {"preset": "three_tier", "access_count": 3}})
    from_dict({"architecture": {"preset": "three_tier", "access_count": 4}})
    with pytest.raises(ConfigError, match=r"switch_power\.access\.port_power_by_rate"):
        from_dict({"architecture": {"preset": "three_tier", "server_rate_bps": 2.5e9}})
    # a two-tier core mesh exists only with two or more cores
    with pytest.raises(ConfigError, match=r"switch_power\.core\.port_power_by_rate"):
        from_dict({"architecture": {"preset": "two_tier", "core_mesh_bps": 3e9}})
    from_dict({"architecture": {"preset": "two_tier", "core_count": 1,
                                "core_mesh_bps": 3e9}})
    from_dict({"architecture": {"preset": "three_tier", "server_rate_bps": 2.5e9},
               "switch_power": {"access": {"port_power_by_rate": {
                   "1e9": 0.4, "2.5e9": 0.7}}}})
