"""Power model anchors: the terms the engine draws its wattages from."""

import math
from typing import Sequence

import pytest
from hypothesis import example, given, strategies as st

from greendc import config, engine
from greendc.engine import SimState
from greendc.powermodel import (
    DEFAULT_PORT_POWER_W, TRANSITION_SECONDS, ServerPowerParams, SwitchPowerParams,
    DVS_HEADROOM, dvs_rate_tiers, dvs_tier_index, port_power_at_tier,
)

from conftest import small_scenario

DEFAULTS = ServerPowerParams()


def test_server_power_peak_and_idle_endpoints():
    assert DEFAULTS.busy_w(1.0) == 301.0
    assert DEFAULTS.idle_w == 198.0


def test_idle_to_peak_ratio():
    ratio = DEFAULTS.idle_w / DEFAULTS.busy_w(1.0)
    assert abs(ratio - 0.658) <= 1e-3


def test_server_power_cubic_in_setpoint():
    assert DEFAULTS.busy_w(0.5) == pytest.approx(171.0 + 130.0 * 0.125)
    # busy power at a low setpoint undercuts the awake-idle draw
    assert DEFAULTS.busy_w(0.5) < DEFAULTS.idle_w


def test_sleeping_server_draws_sleep_power():
    cfg = config.from_dict(small_scenario(server_power={"p_sleep_w": 4.5}))
    state = SimState(cfg)
    sid = state.topology.server_ids.start
    engine._apply_sleeps(state, [sid])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, sid)
    assert state.nodes[sid].power_w == 4.5


@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_busy_power_monotone_in_setpoint(f1, f2):
    lo, hi = sorted((f1, f2))
    assert DEFAULTS.busy_w(lo) <= DEFAULTS.busy_w(hi)


def test_switch_power_example_breakdown():
    params = SwitchPowerParams(p_chassis_w=100.0, p_linecard_w=35.0,
                               n_linecards=1,
                               port_power_by_rate={1e9: 0.4})
    assert params.base_w == 135.0
    port = port_power_at_tier(1e9, 1e9, params.port_power_by_rate)
    assert params.base_w + 48 * port == pytest.approx(154.2)


def dvs_link_rate(utilization: float, allowed_rates: Sequence[float],
                  headroom: float = DVS_HEADROOM) -> float:
    """The tier rule dvs_tier_index replaced, kept verbatim as the reference."""
    if not allowed_rates:
        raise ValueError("allowed_rates must be non-empty")
    if utilization < 0:
        raise ValueError("utilization must be non-negative")
    rates = sorted(allowed_rates)
    offered = utilization * rates[-1]
    need = offered * headroom
    for r in rates:
        if r >= need:
            return r
    return rates[-1]


def test_dvs_tiers_and_rate_selection():
    tiers = dvs_rate_tiers(1e9)
    assert tiers == (1e7, 1e8, 1e9)
    # idle link settles to the lowest tier
    assert dvs_tier_index(0.0, tiers) == 0
    # load plus headroom ranks into the next tier up
    assert dvs_tier_index(0.05e9, tiers) == 1
    assert dvs_tier_index(0.5e9, tiers) == 2
    # saturated links stay clamped at native rate
    assert dvs_tier_index(1e9, tiers) == 2
    with pytest.raises(ValueError):
        dvs_tier_index(-0.1e9, tiers)
    with pytest.raises(ValueError):
        dvs_tier_index(0.5e9, ())


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_dvs_rate_covers_offered_load_and_is_monotone(u1, u2):
    tiers = dvs_rate_tiers(1e9)
    r1 = tiers[dvs_tier_index(u1 * 1e9, tiers)]
    r2 = tiers[dvs_tier_index(u2 * 1e9, tiers)]
    if u1 <= u2:
        assert r1 <= r2
    if u1 <= 1.0 / 1.25:
        # below the headroom knee the chosen tier covers load with margin
        assert r1 >= u1 * 1e9


_native = st.sampled_from(sorted(DEFAULT_PORT_POWER_W))
# loads exactly at a tier's headroom knee (tier / 1.25), a step either side
# of it, and anywhere from idle to past native
_knee = st.tuples(st.integers(0, 2), st.sampled_from([-1, 0, 1]))


@given(_native, st.one_of(st.floats(0.0, 1.6), _knee))
@example(1e9, (0, 0))
@example(1e10, (1, 0))
@example(1e11, (2, 0))
def test_tier_index_equals_the_old_tier_rule(native, load):
    tiers = dvs_rate_tiers(native)
    if isinstance(load, tuple):
        i, nudge = load
        offered = tiers[i] / DVS_HEADROOM
        for _ in range(abs(nudge)):
            offered = math.nextafter(offered, math.inf if nudge > 0 else 0.0)
    else:
        offered = load * native
    # the engine passed the load as a share of the top tier, then indexed
    want = tiers.index(dvs_link_rate(offered / tiers[-1], tiers))
    assert dvs_tier_index(offered, tiers) == want


def test_port_power_scales_with_tier():
    assert port_power_at_tier(1e9, 1e9, DEFAULT_PORT_POWER_W) == 0.4
    assert port_power_at_tier(1e9, 1e7, DEFAULT_PORT_POWER_W) == \
        pytest.approx(0.004)
    assert port_power_at_tier(1e10, 1e9, DEFAULT_PORT_POWER_W) == \
        pytest.approx(0.1)


def test_param_validation():
    """Power parameters check themselves when built.  A linecard count past
    the float range, or one whose draw overflows, made base_w raise
    OverflowError or give an infinity mid-run."""
    with pytest.raises(ValueError):
        ServerPowerParams(p_fixed_w=-1.0)
    # finite terms whose idle or full-speed sum overflows
    for over in ({"p_idle_cpu_w": 1e308}, {"p_f_w": 1e308}):
        with pytest.raises(ValueError, match="finite"):
            ServerPowerParams(p_fixed_w=1e308, **over)
    with pytest.raises(ValueError):
        SwitchPowerParams(p_chassis_w=100.0, port_power_by_rate={1e9: -0.4})
    for count, watts in ((10 ** 400, 0.0), (10 ** 300, 1e10)):
        with pytest.raises(ValueError, match="finite linecard draw"):
            SwitchPowerParams(p_chassis_w=100.0, p_linecard_w=watts, n_linecards=count)
