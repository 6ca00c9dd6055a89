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

import math
import sys
from dataclasses import astuple, dataclass, field
from typing import Mapping, Sequence

TRANSITION_SECONDS = 0.1

# link rate scaling tiers, as fractions of the native rate (a gigabit link
# may run at 10 Mb/s, 100 Mb/s or 1 Gb/s)
DVS_TIER_FRACTIONS = (0.01, 0.1, 1.0)
DVS_HEADROOM = 1.25


class ReadOnlyDict(dict):
    """A dict that refuses every change once built, so a power table checked
    when its config was built stays as checked; a copy or an unpickled one
    is built afresh from a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class ServerPowerParams:
    p_fixed_w: float = 171.0
    p_f_w: float = 130.0
    p_idle_cpu_w: float = 27.0
    p_sleep_w: float = 0.0

    def __post_init__(self) -> None:
        if not all(0 <= x < math.inf for x in astuple(self)):
            raise ValueError("power terms must be finite and non-negative")
        # finite terms can still sum past the float range
        if not (self.idle_w < math.inf and self.busy_w(1.0) < math.inf):
            raise ValueError("idle and full-speed draws must be finite")

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "port_power_by_rate", ReadOnlyDict(self.port_power_by_rate))
        terms = (self.p_chassis_w, self.p_linecard_w, self.p_sleep_w,
                 *self.port_power_by_rate, *self.port_power_by_rate.values())
        if not all(0 <= x < math.inf for x in terms):
            raise ValueError("power terms and port rates must be finite and non-negative")
        # a count past the float range cannot be multiplied by a wattage
        if not 0 <= self.n_linecards <= sys.float_info.max or not self.base_w < math.inf:
            raise ValueError("n_linecards must be >= 0 with a finite linecard draw")

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
    selected rate.  The table covers every native rate of a fabric's ports:
    ScenarioConfig refuses one that does not when it is built.
    """
    return port_power_by_rate[native_rate_bps] * (tier_bps / native_rate_bps)

