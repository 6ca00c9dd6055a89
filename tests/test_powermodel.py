"""Power model anchors: the terms the engine draws its wattages from."""

import pytest
from hypothesis import given, strategies as st

from greendc import config, engine
from greendc.engine import SimState
from greendc.powermodel import (
    DEFAULT_PORT_POWER_W, TRANSITION_SECONDS, ServerPowerParams, SwitchPowerParams,
    UnknownRate, dvs_link_rate, dvs_rate_tiers, port_power_at_tier,
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
    engine._apply_sleeps(state, [("server", sid)])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, 0, sid)
    assert state.servers[sid].power_w == 4.5


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


def test_dvs_tiers_and_rate_selection():
    tiers = dvs_rate_tiers(1e9)
    assert tiers == (1e7, 1e8, 1e9)
    # idle link settles to the lowest tier
    assert dvs_link_rate(0.0, tiers) == 1e7
    # load plus headroom ranks into the next tier up
    assert dvs_link_rate(0.05, tiers) == 1e8
    assert dvs_link_rate(0.5, tiers) == 1e9
    # saturated links stay clamped at native rate
    assert dvs_link_rate(1.0, tiers) == 1e9
    with pytest.raises(ValueError):
        dvs_link_rate(-0.1, tiers)
    with pytest.raises(ValueError):
        dvs_link_rate(0.5, ())


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_dvs_rate_covers_offered_load_and_is_monotone(u1, u2):
    tiers = dvs_rate_tiers(1e9)
    r1, r2 = dvs_link_rate(u1, tiers), dvs_link_rate(u2, tiers)
    if u1 <= u2:
        assert r1 <= r2
    if u1 <= 1.0 / 1.25:
        # below the headroom knee the chosen tier covers load with margin
        assert r1 >= u1 * 1e9


def test_port_power_scales_with_tier():
    assert port_power_at_tier(1e9, 1e9, DEFAULT_PORT_POWER_W) == 0.4
    assert port_power_at_tier(1e9, 1e7, DEFAULT_PORT_POWER_W) == \
        pytest.approx(0.004)
    assert port_power_at_tier(1e10, 1e9, DEFAULT_PORT_POWER_W) == \
        pytest.approx(0.1)
    with pytest.raises(UnknownRate):
        port_power_at_tier(2.5e9, 1e9, DEFAULT_PORT_POWER_W)


def test_param_validation():
    with pytest.raises(ValueError):
        ServerPowerParams(p_fixed_w=-1.0).validate()
    with pytest.raises(ValueError):
        ServerPowerParams(f_max=0.0).validate()
