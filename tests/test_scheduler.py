"""Placement policy, frequency setpoints and sleep eligibility."""

import pytest

from greendc import engine
from greendc.engine import SimState
from greendc.powermodel import TRANSITION_SECONDS
from greendc.scheduler import (
    SCHEMES, SchedulerPolicy, dns_tick, dvfs_setpoint, place,
)
from greendc.workload import Job


def job(jid, arrival, compute, deadline, cls="balanced", internal=0.0, external=0.0):
    return Job(jid, arrival, cls, compute, internal, external, deadline)


def admit(state, j, policy=None):
    """Run the real admission path for a hand-built job."""
    policy = policy or state.policy
    state.jobs[j.id] = engine._JobRun(j)
    engine._handle_arrival(state, j.id)
    return state.jobs[j.id]


def spine_requests(state, policy, now):
    """dns_tick's sleep requests for aggregation and core switches."""
    topo = state.topology
    return [n for n in dns_tick(state, policy, now)
            if n in topo.agg_ids or n in topo.core_ids]


@pytest.fixture
def state(small_cfg):
    return SimState(small_cfg)


def test_scheme_catalog():
    assert SCHEMES == ("none", "dvfs", "dns", "dvfs+dns")
    p = SchedulerPolicy(scheme="dvfs+dns")
    assert p.dvfs_enabled and p.dns_enabled
    assert not SchedulerPolicy().dvfs_enabled


def test_policy_validation():
    """A policy checks itself when built."""
    with pytest.raises(ValueError):
        SchedulerPolicy(scheme="off")
    with pytest.raises(ValueError):
        SchedulerPolicy(congestion_threshold=0.0)
    with pytest.raises(ValueError):
        SchedulerPolicy(idle_timeout_s=-1.0)
    with pytest.raises(ValueError):
        SchedulerPolicy(f_min=0.0)
    with pytest.raises(ValueError):
        SchedulerPolicy(tick_interval_s=0.0)


def test_dvfs_setpoint_tracks_load_with_headroom():
    assert dvfs_setpoint(0.5, headroom=0.1) == pytest.approx(0.55)
    assert dvfs_setpoint(0.0, headroom=0.1) == 0.1       # floors at f_min
    assert dvfs_setpoint(0.99, headroom=0.1) == 1.0      # clamps at full speed
    with pytest.raises(ValueError):
        dvfs_setpoint(-0.1, headroom=0.1)


def test_placement_consolidates_most_loaded_first(state):
    # ties break toward the lowest id, then the loaded server keeps
    # winning until it cannot promise the requested density
    first = state.topology.server_ids.start
    a = admit(state, job(0, 0.0, 2.0, 5.0))       # r = 0.4
    b = admit(state, job(1, 0.0, 2.0, 5.0))       # fits on the same server
    c = admit(state, job(2, 0.0, 2.0, 5.0))       # 1.2 would overflow; next server
    assert a.server == first
    assert b.server == first
    assert c.server == first + 1


def test_placement_rejects_when_no_window(state):
    state.clock = 4.0
    jr = admit(state, job(0, 4.0, 1.0, 4.2))      # needs r = 5 on every server
    assert not jr.admitted
    assert jr.reason == "no feasible server"


def test_placement_wakes_lowest_sleeping_server(state):
    sids = list(state.topology.server_ids)
    engine._apply_sleeps(state, sids)
    state.clock = TRANSITION_SECONDS
    for s in sids:
        engine._handle_transition(state, s)
    # everything is asleep now; the next job must trigger a wake
    j = job(0, state.clock, 0.5, state.clock + 5.0)
    decision = place(j, state, state.policy)
    assert decision.admit and decision.needs_wake
    assert decision.server == sids[0]
    # admitted, the job waits on the waking server until its wake ends
    jr = admit(state, j)
    srv = state.nodes[jr.server]
    assert jr.server == sids[0] and srv.asleep and srv.pending == [j.id]
    assert srv.transition_until == pytest.approx(state.clock + TRANSITION_SECONDS)


def test_wake_latency_counts_against_deadline(state):
    sids = list(state.topology.server_ids)
    engine._apply_sleeps(state, sids)
    state.clock = TRANSITION_SECONDS
    for s in sids:
        engine._handle_transition(state, s)
    # half the window disappears into the wake; density doubles and an
    # infeasible-once-woken job is turned away
    tight = job(1, state.clock, 2 * TRANSITION_SECONDS, state.clock + 2 * TRANSITION_SECONDS)
    decision = place(tight, state, state.policy)
    assert not decision.admit


def test_diw_job_avoids_congested_uplinks(state):
    topo = state.topology
    first = topo.server_ids.start
    acc = topo.access_of_server(first)
    # clog both aggregation uplinks of the first rack in the upstream
    # direction; externally bound transfers from that rack now exceed the
    # congestion threshold
    for nbr, lid in topo.adj[acc]:
        if nbr in topo.agg_ids:
            dk = 2 * lid + (1 if acc > nbr else 0)
            state.net.dir_sum[dk] = 0.95 * state.net.cap[dk]
    diw = job(0, 0.0, 0.1, 5.0, cls="diw", external=1e6)
    decision = place(diw, state, state.policy)
    assert decision.admit
    assert topo.access_of_server(decision.server) != acc
    # a balanced job with the same shape ignores congestion and keeps
    # consolidating onto the first rack
    bal = job(1, 0.0, 0.1, 5.0, cls="balanced", external=1e6)
    assert place(bal, state, state.policy).server == first


def test_dns_tick_requests_idle_servers_only_after_timeout(state):
    policy = SchedulerPolicy(scheme="dns", idle_timeout_s=0.5)
    assert dns_tick(state, policy, now=0.3) == []
    reqs = dns_tick(state, policy, now=0.6)
    servers = {nid for nid in reqs if nid in state.topology.server_ids}
    assert servers == set(state.topology.server_ids)
    # a busy server is never offered for sleep
    jr = admit(state, job(0, 0.6, 5.0, 20.0))
    reqs = dns_tick(state, policy, now=1.2)
    assert jr.server not in reqs


def test_dns_tick_access_switch_needs_whole_rack_asleep(state):
    policy = SchedulerPolicy(scheme="dns", idle_timeout_s=0.5)
    topo = state.topology
    acc = topo.access_ids.start
    rack = list(topo.servers_of_access(acc))
    engine._apply_sleeps(state, rack[:1])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, rack[0])
    assert acc not in dns_tick(state, policy, now=1.0)
    engine._apply_sleeps(state, [rack[1]])
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, rack[1])
    assert acc in dns_tick(state, policy, now=1.0)


def test_spine_sleep_keeps_one_aggregation_switch_per_pod(state):
    policy = SchedulerPolicy(scheme="dns", idle_timeout_s=0.5)
    aggs = list(state.topology.agg_ids)
    cores = list(state.topology.core_ids)
    eligible = spine_requests(state, policy, now=1.5)
    # the gateway core is pinned awake; both aggs are offered because the
    # rule is re-checked when sleeps are applied
    assert set(eligible) == {cores[1], *aggs}
    engine._apply_sleeps(state, eligible)
    transitioning = [n for n in eligible
                     if state.nodes[n].transition_until is not None]
    # exactly one aggregation switch of the pair went down
    assert len([n for n in transitioning if n in aggs]) == 1
    assert cores[1] in transitioning
    assert state.nodes[cores[0]].transition_until is None


def test_spine_pair_can_sleep_once_pod_is_dark(state):
    policy = SchedulerPolicy(scheme="dns", idle_timeout_s=0.5)
    topo = state.topology
    # put every server and every access switch to sleep
    engine._apply_sleeps(state, list(topo.server_ids))
    state.clock = TRANSITION_SECONDS
    for s in topo.server_ids:
        engine._handle_transition(state, s)
    engine._apply_sleeps(state, list(topo.access_ids))
    state.clock += TRANSITION_SECONDS
    for a in topo.access_ids:
        engine._handle_transition(state, a)
    # with zero active racks the partner rule no longer binds
    engine._apply_sleeps(state, spine_requests(state, policy, now=state.clock + 0.5))
    aggs_down = [a for a in topo.agg_ids
                 if state.nodes[a].transition_until is not None]
    assert len(aggs_down) == 2
