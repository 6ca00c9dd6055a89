"""Scenario configuration.

A scenario bundles everything one simulation run needs: the fabric, the
workload, the power-management policy, component power parameters, the
horizon and pricing assumptions.  Parsing is strict -- unknown keys fail
with their full path rather than being silently ignored -- and every field
left out falls back to the presets, so a scenario file only has to say
what it changes.

The scenario seed is authoritative: it overrides ``workload.seed`` so that
replication seeding stays in one place.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from . import presets
from .powermodel import ServerPowerParams, SwitchPowerParams
from .scheduler import SchedulerPolicy
from .topology import ROLE_NAMES, ArchitectureSpec
from .workload import WorkloadSpec, load_for_target

SWITCH_ROLES = ("core", "aggregation", "access")


class ConfigError(ValueError):
    """A scenario document failed validation; message carries the key path."""


@dataclass(frozen=True)
class ScenarioConfig:
    architecture: ArchitectureSpec
    workload: WorkloadSpec
    policy: SchedulerPolicy
    server_power: ServerPowerParams
    switch_power: dict[str, SwitchPowerParams]
    label: str = "scenario"
    target_load: float | None = None
    horizon_s: float = 60.0
    seed: int = 1
    replications: int = 1
    pue_overhead: float = 1.0
    price_per_kwh: float = 0.10

    def validate(self) -> None:
        self.architecture.validate()
        self.policy.validate()
        self.server_power.validate()
        missing = [r for r in SWITCH_ROLES if r not in self.switch_power]
        if missing:
            raise ConfigError(f"switch_power: missing roles {missing}")
        for name in SWITCH_ROLES:
            try:
                self.switch_power[name].validate()
            except ValueError as exc:
                raise ConfigError(f"switch_power.{name}: {exc}") from None
        for rate, role in sorted(self.architecture.port_rates()):
            name = ROLE_NAMES[role]
            if rate not in self.switch_power[name].port_power_by_rate:
                raise ConfigError(f"switch_power.{name}.port_power_by_rate: no entry for "
                                  f"the {rate:g} b/s links of this fabric")
        if self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.pue_overhead < 1.0:
            raise ConfigError("pue_overhead must be >= 1 (facility/IT ratio)")
        if self.price_per_kwh < 0:
            raise ConfigError("price_per_kwh must be non-negative")
        if self.target_load is not None and not 0 < self.target_load <= 1:
            raise ConfigError("target_load must be in (0, 1]")
        self.effective_workload()  # raises on inconsistent workload fields

    def effective_workload(self) -> WorkloadSpec:
        """The workload actually generated: seeded by the scenario, spanning
        the horizon unless sized explicitly, scaled to the target load."""
        wl = self.workload
        if wl.job_count is None and wl.duration is None:
            wl = replace(wl, duration=self.horizon_s)
        wl = replace(wl, seed=self.seed)
        if self.target_load is not None:
            capacity = self.architecture.server_count * self.server_power.f_max
            wl = load_for_target(capacity, self.target_load, wl)
        wl.validate()
        return wl


@functools.cache
def _number_fields(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (float or int, whether None is allowed) for every
    number-typed field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        for kind in (float, int):
            if hints[f.name] in (kind, kind | None):
                out[f.name] = (kind, hints[f.name] != kind)
    return out


def _finite(value: Any, where: str) -> float:
    """value as a float; an infinity, a NaN (both of which Python's JSON
    reader accepts) or anything float() cannot take is a ConfigError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


def _coerce_numbers(cls, data: Mapping[str, Any], path: str) -> dict:
    """data with every value of a float-typed field of cls made a float and
    every value of an int-typed field made an int.

    JSON has a single number type, so ``2`` and ``2.0`` must give the same
    run (the event times are hashed as floats, counts and seeds are used as
    integers); a boolean, a string or a null (where the field has no
    default of None) is not a number here, a float must be finite, and a
    count or a seed must be integral."""
    numeric = _number_fields(cls)
    out = dict(data)
    for key, value in data.items():
        kind, nullable = numeric.get(key, (None, True))
        if kind is None or (value is None and nullable):
            continue
        where = f"{path + '.' if path else ''}{key}"
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if kind is float:
            out[key] = _finite(value, where)
        elif isinstance(value, numbers.Integral) or float(value).is_integer():
            out[key] = int(value)
        else:
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return out


def _build(cls, data: Mapping[str, Any], path: str, base: dict | None = None):
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path or 'config'}: expected an object")
    allowed = {f.name for f in fields(cls)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {path + '.' if path else ''}{key} "
                              f"(allowed: {', '.join(sorted(allowed))})")
    kwargs = dict(base or {})
    kwargs.update(_coerce_numbers(cls, data, path))
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from None


def _parse_architecture(value: Any, path: str) -> ArchitectureSpec:
    if isinstance(value, str):
        try:
            return presets.ARCHITECTURES[value]
        except KeyError:
            raise ConfigError(f"{path}: unknown architecture preset {value!r} "
                              f"(have: {', '.join(sorted(presets.ARCHITECTURES))})") from None
    if isinstance(value, Mapping):
        data = dict(value)
        base: dict = {}
        name = data.pop("preset", None)
        if name is not None:
            if name not in presets.ARCHITECTURES:
                raise ConfigError(f"{path}.preset: unknown architecture preset {name!r}")
            base = asdict(presets.ARCHITECTURES[name])
        return _build(ArchitectureSpec, data, path, base)
    raise ConfigError(f"{path}: expected a preset name or an object")


def _parse_workload(value: Any, path: str) -> WorkloadSpec:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object")
    data = dict(value)
    if "class_mix" in data:
        mix = data["class_mix"]
        if not isinstance(mix, (list, tuple)) or len(mix) != 3:
            raise ConfigError(f"{path}.class_mix: expected three fractions "
                              "(compute-intensive, data-intensive, balanced)")
        data["class_mix"] = tuple(_finite(x, f"{path}.class_mix") for x in mix)
    return _build(WorkloadSpec, data, path)


def _parse_switch_params(value: Any, path: str, base: SwitchPowerParams) -> SwitchPowerParams:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object")
    data = dict(value)
    if "port_power_by_rate" in data:
        ports = data["port_power_by_rate"]
        if not isinstance(ports, Mapping):
            raise ConfigError(f"{path}.port_power_by_rate: expected an object")
        where = f"{path}.port_power_by_rate"
        data["port_power_by_rate"] = {_finite(k, where): _finite(v, where)
                                      for k, v in ports.items()}
    return _build(SwitchPowerParams, data, path, asdict(base))


def from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build and validate a scenario from a plain dictionary."""
    if not isinstance(data, Mapping):
        raise ConfigError("config: expected an object")
    allowed = {f.name for f in fields(ScenarioConfig)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key} "
                              f"(allowed: {', '.join(sorted(allowed))})")
    arch = _parse_architecture(data.get("architecture", "three_tier"), "architecture")
    workload = _parse_workload(data.get("workload", {}), "workload")
    policy = _build(SchedulerPolicy, data.get("policy", {}), "policy")
    server_power = _build(ServerPowerParams, data.get("server_power", {}),
                          "server_power", asdict(presets.SERVER_POWER))
    sw_data = data.get("switch_power", {})
    if not isinstance(sw_data, Mapping):
        raise ConfigError("switch_power: expected an object")
    for role in sw_data:
        if role not in SWITCH_ROLES:
            raise ConfigError(f"unknown key switch_power.{role} "
                              f"(allowed: {', '.join(SWITCH_ROLES)})")
    switch_power = {
        role: _parse_switch_params(sw_data.get(role, {}), f"switch_power.{role}",
                                   presets.SWITCH_POWER[role])
        for role in SWITCH_ROLES
    }
    scalars = _coerce_numbers(ScenarioConfig, {
        k: data[k] for k in ("label", "target_load", "horizon_s", "seed",
                             "replications", "pue_overhead", "price_per_kwh")
        if k in data}, "")
    cfg = ScenarioConfig(architecture=arch, workload=workload, policy=policy,
                         server_power=server_power, switch_power=switch_power,
                         **scalars)
    try:
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-dictionary form of a scenario (JSON-serializable)."""
    wl = asdict(cfg.workload)
    wl["class_mix"] = list(wl["class_mix"])
    return {
        "label": cfg.label,
        "architecture": asdict(cfg.architecture),
        "workload": wl,
        "policy": asdict(cfg.policy),
        "server_power": asdict(cfg.server_power),
        "switch_power": {role: asdict(p) for role, p in cfg.switch_power.items()},
        "target_load": cfg.target_load,
        "horizon_s": cfg.horizon_s,
        "seed": cfg.seed,
        "replications": cfg.replications,
        "pue_overhead": cfg.pue_overhead,
        "price_per_kwh": cfg.price_per_kwh,
    }


def scenario_preset(name: str) -> ScenarioConfig:
    """One of the named scenarios from the preset catalog."""
    try:
        data = presets.SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario preset {name!r} "
                          f"(have: {', '.join(sorted(presets.SCENARIOS))})") from None
    return from_dict(data)
