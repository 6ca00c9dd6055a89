"""Component power terms and link-rate tiers.

Servers draw a fixed platform power plus a cubic frequency-dependent CPU
term while busy; an idle-but-awake server draws the platform power plus a
constant OS/CPU idle term.  Switches draw chassis plus linecard power plus
a per-port transceiver term that depends on the port's transmission rate;
only the port term reacts to link rate scaling.  The engine reads every
wattage from these terms.  Sleep and wake are the engine's: a mode change
takes TRANSITION_SECONDS, during which the component is unavailable and
draws its pre-transition power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

TRANSITION_SECONDS = 0.1

# link rate scaling tiers, as fractions of the native rate (a gigabit link
# may run at 10 Mb/s, 100 Mb/s or 1 Gb/s)
DVS_TIER_FRACTIONS = (0.01, 0.1, 1.0)
DVS_HEADROOM = 1.25


class UnknownRate(KeyError):
    pass


@dataclass(frozen=True)
class ServerPowerParams:
    p_fixed_w: float = 171.0
    p_f_w: float = 130.0
    p_idle_cpu_w: float = 27.0
    p_sleep_w: float = 0.0
    f_max: float = 1.0

    def validate(self) -> None:
        if min(self.p_fixed_w, self.p_f_w, self.p_idle_cpu_w, self.p_sleep_w) < 0:
            raise ValueError("power terms must be non-negative")
        if self.f_max <= 0:
            raise ValueError("f_max must be positive")

    @property
    def idle_w(self) -> float:
        """Draw of an awake server with nothing to serve."""
        return self.p_fixed_w + self.p_idle_cpu_w

    def busy_w(self, f: float) -> float:
        """Draw of a server serving at frequency setpoint ``f``."""
        # f * f * f, not f ** 3: they differ in the last bit for some f, and
        # the pinned trace hashes were taken with this form
        return self.p_fixed_w + self.p_f_w * f * f * f


@dataclass(frozen=True)
class SwitchPowerParams:
    p_chassis_w: float
    p_linecard_w: float = 0.0
    n_linecards: int = 0
    port_power_by_rate: Mapping[float, float] = field(default_factory=dict)
    p_sleep_w: float = 0.0

    def validate(self) -> None:
        if min(self.p_chassis_w, self.p_linecard_w, self.p_sleep_w, self.n_linecards,
               *self.port_power_by_rate.values()) < 0:
            raise ValueError("power terms and n_linecards must be non-negative")

    @property
    def base_w(self) -> float:
        """Chassis plus linecard draw of an awake switch, before its ports."""
        return self.p_chassis_w + self.n_linecards * self.p_linecard_w


# transceiver draw by native port rate; the 100GE figure is extrapolated
# linearly from 10GE
DEFAULT_PORT_POWER_W = {1e9: 0.4, 1e10: 1.0, 1e11: 10.0}


def dvs_rate_tiers(native_rate_bps: float) -> tuple[float, ...]:
    """Allowed transmission rates for a link of the given native rate."""
    return tuple(native_rate_bps * fr for fr in DVS_TIER_FRACTIONS)


def dvs_tier_index(offered_bps: float, tiers: Sequence[float]) -> int:
    """Index of the lowest tier whose rate covers the offered load with
    headroom; a link whose load needs more than the top tier stays there.

    ``tiers`` are the link's allowed rates in ascending order, as
    dvs_rate_tiers gives them.
    """
    if not tiers:
        raise ValueError("tiers must be non-empty")
    if offered_bps < 0:
        raise ValueError("offered load must be non-negative")
    top = tiers[-1]
    # via the load's share of the top rate, not offered_bps * DVS_HEADROOM:
    # they differ in the last bit for some loads, and the pinned trace
    # hashes were taken with this form
    need = offered_bps / top * top * DVS_HEADROOM
    for i, r in enumerate(tiers):
        if r >= need:
            return i
    return len(tiers) - 1


def port_power_at_tier(native_rate_bps: float, tier_bps: float,
                       port_power_by_rate: Mapping[float, float]) -> float:
    """Transceiver draw when a port runs below its native rate.

    Sub-native tiers scale the native transceiver power linearly with the
    selected rate.
    """
    base = port_power_by_rate.get(native_rate_bps)
    if base is None:
        raise UnknownRate(f"no port power configured for rate {native_rate_bps:g} b/s")
    return base * (tier_bps / native_rate_bps)

