"""Event-loop behavior: energy integration, scheduling semantics,
conservation invariants and reproducibility."""

import pytest

from greendc import config, engine, fairshare, report
from greendc.engine import EVENT_NAMES, InternalInvariantViolation, SimState
from greendc.powermodel import TRANSITION_SECONDS, dvs_tier_index
from greendc.workload import Job

from conftest import small_scenario

# the small fabric from conftest: 2 cores, 2 aggs, 4 access, 8 servers
N_SERVERS = 8
IDLE_W = 198.0
BUSY_W = 301.0
CORE_W = 1150.0 + 2 * 1000.0 + 2 * 1.0          # chassis+linecards+2 trunk ports
AGG_W = 2400.0 + 2 * 1900.0 + 2 * 1.0 + 4 * 0.4
ACCESS_W = 145.0 + 2 * 0.4 + 2 * 0.4


def balanced_job(jid, arrival, compute, deadline, internal=0.0, external=0.0):
    return Job(jid, arrival, "balanced", compute, internal, external, deadline)


def finish_of(rep, jid):
    return next(j["finish"] for j in rep.jobs if j["id"] == jid)


def server_of(rep, jid):
    return next(j["server"] for j in rep.jobs if j["id"] == jid)


# -- energy integration ------------------------------------------------------

def test_idle_fabric_energy_is_exact(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    rep = engine.run(cfg, jobs=[])
    e = rep.energy
    assert e.servers_wh == pytest.approx(N_SERVERS * IDLE_W * 10 / 3600, rel=1e-12)
    assert e.core_wh == pytest.approx(2 * CORE_W * 10 / 3600, rel=1e-12)
    assert e.aggregation_wh == pytest.approx(2 * AGG_W * 10 / 3600, rel=1e-12)
    assert e.access_wh == pytest.approx(4 * ACCESS_W * 10 / 3600, rel=1e-12)
    assert e.total_wh == pytest.approx(
        e.servers_wh + e.core_wh + e.aggregation_wh + e.access_wh, rel=1e-12)


def test_single_compute_job_adds_busy_idle_delta(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    jobs = [balanced_job(0, 1.0, 2.0, 100.0)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    want = (N_SERVERS * IDLE_W * 10 + (BUSY_W - IDLE_W) * 2.0) / 3600
    assert rep.energy.servers_wh == pytest.approx(want, rel=1e-12)
    assert finish_of(rep, 0) == pytest.approx(3.0)
    sla = rep.sla
    assert (sla["offered"], sla["admitted"], sla["completed"]) == (1, 1, 1)
    assert sla["violations"] == 0


def test_external_transfer_runs_at_bottleneck_rate(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    # 125 MB over a gigabit NIC is exactly one second of transfer
    jobs = [balanced_job(0, 0.5, 1.0, 9.0, external=125e6)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert finish_of(rep, 0) == pytest.approx(1.5, abs=1e-9)
    c = rep.conservation
    assert c["flow_bytes_offered"] == pytest.approx(125e6)
    assert c["flow_bytes_done"] == pytest.approx(125e6, rel=1e-12)
    assert c["flow_bytes_left"] == 0.0


def test_concurrent_transfers_share_a_link_fairly(make_cfg):
    cfg = make_cfg(horizon_s=20.0)
    # both jobs sit on the same server, so their outbound transfers split
    # the server's gigabit link; each 125 MB copy takes two seconds
    jobs = [balanced_job(0, 0.0, 0.01, 19.0, external=125e6),
            balanced_job(1, 0.0, 0.01, 19.0, external=125e6)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert server_of(rep, 0) == server_of(rep, 1)
    assert finish_of(rep, 0) == pytest.approx(2.0, abs=1e-6)
    assert finish_of(rep, 1) == pytest.approx(2.0, abs=1e-6)


# -- scheduling semantics ------------------------------------------------------

def test_edf_preemption_lets_tight_job_cut_in(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    jobs = [balanced_job(0, 0.0, 2.0, 10.0),
            balanced_job(1, 0.5, 0.5, 1.5)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert server_of(rep, 0) == server_of(rep, 1)
    assert finish_of(rep, 1) == pytest.approx(1.0, abs=1e-9)
    assert finish_of(rep, 0) == pytest.approx(2.5, abs=1e-9)
    assert rep.sla["deadline_missed"] == 0


def test_reservation_held_until_deadline(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    first = 8   # lowest server id in the small fabric
    jobs = [
        balanced_job(0, 0.0, 0.5, 1.0),
        # arrives after job 0's compute is done but before its deadline;
        # the density it would need exceeds what the held reservation
        # leaves, so it must land on a different server
        balanced_job(1, 0.55, 0.6, 1.15),
        # arrives after job 0's deadline passed: its server is free again
        balanced_job(2, 1.05, 0.3, 1.65),
    ]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert server_of(rep, 0) == first
    assert server_of(rep, 1) == first + 1
    assert server_of(rep, 2) == first
    assert rep.sla["deadline_missed"] == 0


def test_infeasible_job_rejected_not_missed(make_cfg):
    cfg = make_cfg(horizon_s=10.0)
    # a full second of compute with half a second of window fits nowhere
    jobs = [balanced_job(0, 1.0, 1.0, 1.5)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    sla = rep.sla
    assert sla["rejected"] == 1 and sla["admitted"] == 0
    assert sla["violations"] == 1
    assert rep.jobs[0]["reason"] == "no feasible server"


def test_job_unfinished_at_horizon_with_live_deadline_is_censored(make_cfg):
    cfg = make_cfg(horizon_s=2.0)
    jobs = [balanced_job(0, 1.0, 5.0, 50.0)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    sla = rep.sla
    assert sla["unfinished_censored"] == 1
    assert sla["deadline_missed"] == 0 and sla["violations"] == 0
    c = rep.conservation
    assert c["delivered_cpu_s"] == pytest.approx(1.0)   # ran from t=1 to t=2
    assert c["residual_cpu_s"] == pytest.approx(4.0)


def test_admitted_jobs_are_fully_accounted(make_cfg):
    cfg = make_cfg(horizon_s=6.0)
    rep = report.run_scenario(cfg)
    sla = rep.sla
    assert sla["offered"] == sla["admitted"] + sla["rejected"]
    assert sla["admitted"] == (sla["completed"] + sla["deadline_missed"]
                               + sla["unfinished_censored"])


# -- dvfs and dns ------------------------------------------------------------

def test_dvfs_slows_job_but_meets_deadline(make_cfg):
    jobs = [balanced_job(0, 0.0, 2.0, 10.0)]
    base = engine.run(make_cfg(horizon_s=10.0), jobs=jobs, collect_jobs=True)
    cfg = make_cfg(horizon_s=10.0, policy={"scheme": "dvfs"})
    slow = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert slow.energy.servers_wh < base.energy.servers_wh
    assert finish_of(slow, 0) > finish_of(base, 0)
    assert finish_of(slow, 0) <= 10.0
    assert slow.sla["deadline_missed"] == 0


def test_dns_sleeps_idle_servers(make_cfg):
    cfg = make_cfg(horizon_s=10.0, policy={"scheme": "dns"})
    jobs = [balanced_job(0, 0.0, 0.2, 5.0)]
    rep = engine.run(cfg, jobs=jobs)
    base = engine.run(make_cfg(horizon_s=10.0), jobs=jobs)
    assert rep.awake_fraction < 0.5
    assert rep.energy.servers_wh < 0.5 * base.energy.servers_wh
    assert rep.sla["deadline_missed"] == 0


def test_dns_wakes_server_for_late_arrival(make_cfg):
    cfg = make_cfg(horizon_s=12.0, policy={"scheme": "dns"})
    jobs = [balanced_job(0, 0.0, 0.2, 5.0),
            balanced_job(1, 8.0, 0.5, 11.5)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert rep.sla["completed"] == 2
    # the second job's finish includes the wake-up latency
    assert finish_of(rep, 1) >= 8.0 + TRANSITION_SECONDS + 0.5 - 1e-9


# -- invariants and reproducibility -------------------------------------------

@pytest.mark.parametrize("arch", ["two_tier", "three_tier", "three_tier_hs"])
@pytest.mark.parametrize("scheme", ["none", "dvfs", "dns", "dvfs+dns"])
def test_conservation_invariants(arch, scheme):
    data = small_scenario(horizon_s=6.0, policy={"scheme": scheme})
    if arch == "two_tier":
        data["architecture"] = {"kind": "two_tier", "core_count": 2,
                                "agg_count": 0, "access_count": 4,
                                "servers_per_access": 2}
    elif arch == "three_tier_hs":
        data["architecture"]["kind"] = "three_tier_hs"
    cfg = config.from_dict(data)
    rep = report.run_scenario(cfg)
    c = rep.conservation
    work_gap = abs(c["admitted_cpu_s"] - c["delivered_cpu_s"] - c["residual_cpu_s"])
    assert work_gap <= 1e-6 * max(c["admitted_cpu_s"], 1.0)
    byte_gap = abs(c["flow_bytes_offered"] - c["flow_bytes_done"] - c["flow_bytes_left"])
    assert byte_gap <= 1e-6 * max(c["flow_bytes_offered"], 1.0)
    e = rep.energy
    assert e.total_wh == pytest.approx(
        e.servers_wh + e.core_wh + e.aggregation_wh + e.access_wh, rel=1e-12)


def test_same_seed_reproduces_report_bytes(make_cfg, tmp_path):
    cfg = make_cfg(horizon_s=6.0, policy={"scheme": "dvfs+dns"})
    rep_a = report.run_scenario(cfg)
    rep_b = report.run_scenario(cfg)
    assert rep_a.trace_hash == rep_b.trace_hash
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    report.write_report_json(rep_a, str(pa))
    report.write_report_json(rep_b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_changes_trace(make_cfg):
    a = report.run_scenario(make_cfg(seed=1, horizon_s=4.0))
    b = report.run_scenario(make_cfg(seed=2, horizon_s=4.0))
    assert a.trace_hash != b.trace_hash


def test_event_names_cover_all_kinds():
    assert len(EVENT_NAMES) == 9
    assert len(set(EVENT_NAMES)) == 9


# -- direct state manipulation -------------------------------------------------

def test_internal_peer_prefers_rack_sibling(small_cfg):
    state = SimState(small_cfg)
    src = state.topology.server_ids.start
    sib = src + 1
    for jid in range(50):
        assert state.internal_dst(jid, src) == sib
    # with the sibling asleep the peer comes from the rest of the fleet
    state.servers[sib].asleep = True
    state.awake_ids.remove(sib)
    peers = {state.internal_dst(jid, src) for jid in range(50)}
    assert sib not in peers and src not in peers
    assert peers <= set(state.topology.server_ids)


def test_candidate_bookkeeping_detects_corruption(small_cfg):
    state = SimState(small_cfg)
    srv = state.servers[state.topology.server_ids.start]
    srv.key = (0.123, -srv.id)   # not what the candidate list holds
    with pytest.raises(InternalInvariantViolation):
        state._cand_remove(srv)


def test_sleep_transition_draws_pre_transition_power(small_cfg):
    state = SimState(small_cfg)
    sid = state.topology.server_ids.start
    before = state.class_power[0]
    engine._apply_sleeps(state, [sid])
    assert state.class_power[0] == before          # still idle draw while falling asleep
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, 0, sid)
    assert state.class_power[0] == pytest.approx(before - IDLE_W)
    assert state.servers[sid].asleep
    # waking restores idle draw only after the wake transition completes
    engine._begin_wake(state, sid)
    assert state.class_power[0] == pytest.approx(before - IDLE_W)
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, 0, sid)
    assert state.class_power[0] == pytest.approx(before)


def _transitions_pushed(state):
    return sum(1 for ev in state.heap if ev[2] == engine.EV_TRANSITION)


def test_request_mid_transition_is_a_no_op(small_cfg):
    state = SimState(small_cfg)
    sid = state.topology.server_ids.start
    core = state.topology.core_ids[1]   # a non-gateway core: always safe to sleep
    n_awake = len(state.awake_ids)
    engine._apply_sleeps(state, [sid, core])
    assert _transitions_pushed(state) == 2
    state.clock = TRANSITION_SECONDS / 2
    engine._apply_sleeps(state, [sid, core])
    assert _transitions_pushed(state) == 2
    assert len(state.awake_ids) == n_awake - 1
    assert state.dark_switches == 1


def test_wake_of_a_switch_mid_transition_pushes_nothing(small_cfg):
    state = SimState(small_cfg)
    core = state.topology.core_ids[1]
    engine._apply_sleeps(state, [core])
    engine._wake_switch(state, core)          # falling asleep
    assert _transitions_pushed(state) == 1
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, 1, core)
    engine._wake_switch(state, core)          # asleep: starts the wake
    assert _transitions_pushed(state) == 2
    engine._wake_switch(state, core)          # waking up
    assert _transitions_pushed(state) == 2
    assert state.dark_switches == 1


def _check_derived_state(state, seen):
    """The facts the engine keeps once and derives where needed: switch
    draw from its mode and port tiers, class power from its members,
    server mode sets from the per-server flags, and single-visit paths."""
    class_sum = [0.0, 0.0, 0.0, 0.0]
    for nid, sw in enumerate(state.switches[:state.topology.server_ids.start]):
        if sw.asleep:
            assert sw.power_w == sw.p_sleep_w, nid
            seen["asleep_switches"] += 1
        else:
            assert sw.power_w == pytest.approx(sw.base_w + state._ports_w(nid), rel=1e-9), nid
        class_sum[sw.cls] += sw.power_w
        assert state.switch_live[nid] == (not sw.asleep and sw.transition_until is None), nid
    servers = [state.servers[s] for s in state.topology.server_ids]
    class_sum[engine.CLS_SERVER] = sum(srv.power_w for srv in servers)
    assert state.class_power == pytest.approx(class_sum, rel=1e-9)
    assert state.waking_ids == {srv.id for srv in servers
                                if srv.asleep and srv.transition_until is not None}
    assert state.awake_ids == [srv.id for srv in servers
                               if not srv.asleep and srv.transition_until is None]
    seen["waking"] += len(state.waking_ids)
    for fl in state.flows.values():
        assert len({d >> 1 for d in fl.res}) == len(fl.res), fl.id
    seen["trimmed"] += sum(i != state.native_idx for i in state.link_tier_idx)
    seen["checks"] += 1


@pytest.mark.parametrize("mix", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
def test_derived_state_holds_after_every_event(make_cfg, monkeypatch, mix):
    """Checked before each event's energy step (the state the previous event
    left) and on the final state handed to the report."""
    seen = {"checks": 0, "asleep_switches": 0, "waking": 0, "trimmed": 0}
    integrate = engine.integrate_energy

    def checked_integrate(state, dt):
        _check_derived_state(state, seen)
        integrate(state, dt)

    build = report.build_report

    def checked_build(cfg, state, collect_jobs=False):
        _check_derived_state(state, seen)
        return build(cfg, state, collect_jobs)

    monkeypatch.setattr(engine, "integrate_energy", checked_integrate)
    monkeypatch.setattr(report, "build_report", checked_build)
    cfg = make_cfg(horizon_s=6.0, target_load=0.5, policy={"scheme": "dvfs+dns"},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert seen["checks"] > 1000
    assert seen["asleep_switches"] and seen["waking"] and seen["trimmed"]


# -- the placement query -------------------------------------------------------

def _placement_reference(state, demand, deadline):
    """Every server the documented rule lets take the job, by brute force:
    awake servers whose committed load leaves room for demand over the time
    left, most-loaded first, ties to the lowest id; then waking servers,
    reserving over the time left after their transition, in the same order;
    then the sleeping servers whose rack switch is not falling asleep,
    lowest id first, reserving over the time left after a wake."""
    now, eps = state.clock, engine._EPS
    ranked = []
    for sid in state.topology.server_ids:
        srv = state.servers[sid]
        rack = state.switches[state.topology.access_of_server(sid)]
        if not srv.asleep and srv.transition_until is None:
            window = deadline - now
            if window > 0 and srv.committed <= 1.0 - demand / window + eps:
                ranked.append(((0, -srv.committed, sid), (sid, demand / window, now, False)))
        elif srv.asleep and srv.transition_until is not None:
            window = deadline - srv.transition_until
            if (deadline > now and window > 0
                    and srv.committed + demand / window <= 1.0 + eps):
                ranked.append(((1, -srv.committed, sid),
                               (sid, demand / window, srv.transition_until, False)))
        elif srv.asleep and not (rack.transition_until is not None and not rack.asleep):
            window = deadline - (now + TRANSITION_SECONDS)
            if window > 0 and demand / window <= 1.0 + eps:
                ranked.append(((2, 0.0, sid),
                               (sid, demand / window, now + TRANSITION_SECONDS, True)))
    return [entry for _key, entry in sorted(ranked)]


def test_placement_order_is_the_documented_sort(make_cfg, monkeypatch):
    """At every arrival of a dns run, for the arriving job and for a tight, a
    loose and an already-late demand, the query lists exactly the servers the
    brute-force rule ranks, in its order."""
    seen = {"calls": 0, "loaded": 0, "waking": 0, "sleeping": 0, "dimming_rack": 0}
    place = engine.place

    def checked_place(job, state, policy):
        now = state.clock
        for demand, deadline in ((job.compute_demand, job.deadline), (0.05, now + 0.12),
                                 (0.5, now + 10.0), (0.1, now)):
            want = _placement_reference(state, demand, deadline)
            assert list(state.placement_order(demand, deadline)) == want
        servers = [state.servers[s] for s in state.topology.server_ids]
        racks = [state.switches[state.topology.access_of_server(s.id)] for s in servers]
        seen["calls"] += 1
        seen["loaded"] += len({srv.committed for srv in servers if not srv.asleep}) > 2
        seen["waking"] += any(srv.asleep and srv.transition_until is not None
                              for srv in servers)
        seen["sleeping"] += any(srv.asleep and srv.transition_until is None
                                for srv in servers)
        seen["dimming_rack"] += any(srv.asleep and not rack.asleep
                                    and rack.transition_until is not None
                                    for srv, rack in zip(servers, racks))
        return place(job, state, policy)

    monkeypatch.setattr(engine, "place", checked_place)
    cfg = make_cfg(horizon_s=8.0, target_load=0.3,
                   policy={"scheme": "dns", "idle_timeout_s": 0.1})
    engine.run(cfg)
    assert seen["calls"] > 100
    assert seen["loaded"] and seen["waking"] and seen["sleeping"] and seen["dimming_rack"]


# -- the flow layer's fill and the rate-scaling tick ----------------------------

def _component(state, seed_dirs):
    """Flows reachable from the seed directed links through shared links."""
    todo = [d for d in seed_dirs if state.dir_flows[d]]
    seen_dirs, comp = set(todo), set()
    while todo:
        for fid in state.dir_flows[todo.pop()]:
            if fid not in comp:
                comp.add(fid)
                for d in state.flows[fid].res:
                    if d not in seen_dirs:
                        seen_dirs.add(d)
                        todo.append(d)
    return comp


@pytest.fixture
def checked_recompute(monkeypatch):
    """Wrap _recompute: after each call, every flow of the component must
    hold exactly fairshare.allocate's rate over the component's live flows,
    and every flow crossing a down link must be at 0.0."""
    seen = {"calls": 0, "multi": 0, "stalled": 0, "shared": 0}
    original = engine._recompute

    def checked(state, seed_dirs):
        original(state, seed_dirs)
        comp = _component(state, seed_dirs)
        live = {fid: state.flows[fid].res for fid in comp
                if all(state.link_up[d >> 1] for d in state.flows[fid].res)}
        want = fairshare.allocate(live, state.cap)
        for fid in comp:
            assert state.flows[fid].rate == want.get(fid, 0.0), fid
        seen["calls"] += 1
        seen["multi"] += len(live) > 1
        seen["stalled"] += len(comp) - len(live)
        seen["shared"] += len(live) > 1 and len(comp) > len(live)

    monkeypatch.setattr(engine, "_recompute", checked)
    return seen


@pytest.mark.parametrize("mix", [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
def test_recompute_rates_equal_the_fill_over_each_component(make_cfg, checked_recompute, mix):
    cfg = make_cfg(horizon_s=6.0, target_load=0.5, policy={"scheme": "dvfs+dns"},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert checked_recompute["calls"] > 100 and checked_recompute["multi"] > 100


def test_recompute_stalls_flows_over_a_dark_switch(make_cfg, checked_recompute):
    """Flows over a sleeping aggregation switch stall at 0.0 while flows
    sharing their other links fill as if the stalled ones were gone, and all
    of them move again once the switch is back.  Stalls are rare in whole
    runs (the scheduler routes around dark switches), so they are built
    here."""
    state = SimState(make_cfg(policy={"scheme": "dvfs+dns"}))
    topo = state.topology
    dark, _partner = topo.aggs_of_pod(0)
    engine._apply_sleeps(state, [dark])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, 1, dark)
    assert state.links_down
    jr = engine._JobRun(balanced_job(0, 0.0, 1.0, 100.0))
    servers = topo.server_ids
    for i, src in enumerate(servers):
        # every equal-cost path to the gateway and to the mirror-image server
        for dst in (topo.gateway, servers[-1 - i]):
            for k in range(topo.path_count(src, dst)):
                engine._add_flow(state, jr, topo.kth_path(src, dst, k), 1e9)
    assert checked_recompute["stalled"] > 0 and checked_recompute["shared"] > 0
    stalled = [fl for fl in state.flows.values() if dark in fl.nodes]
    assert stalled and all(fl.rate == 0.0 for fl in stalled)
    engine._remove_flow(state, next(iter(state.flows.values())))
    engine._wake_switch(state, dark)
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, 1, dark)
    assert not state.links_down
    assert all(fl.rate > 0.0 for fl in state.flows.values())


@pytest.mark.parametrize("scheme", ["dvfs", "dvfs+dns"])
@pytest.mark.parametrize("mix", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
def test_rate_scaling_pass_matches_a_scan_of_every_link(make_cfg, monkeypatch, scheme, mix):
    """The pass visits only the links whose tier can move; afterwards every
    up link must sit at the tier a scan of every link picks."""
    original = engine._dvs_pass
    seen = {"passes": 0, "trimmed": 0}

    def checked(state):
        want = {}
        for lid, tiers in enumerate(state.link_tiers):
            if state.link_up[lid]:
                offered = max(state.dir_sum[2 * lid], state.dir_sum[2 * lid + 1], 0.0)
                want[lid] = dvs_tier_index(offered, tiers)
        before = list(state.link_tier_idx)
        original(state)
        assert {lid: state.link_tier_idx[lid] for lid in want} == want
        seen["passes"] += 1
        seen["trimmed"] += sum(a != b for a, b in zip(before, state.link_tier_idx))

    monkeypatch.setattr(engine, "_dvs_pass", checked)
    cfg = make_cfg(horizon_s=8.0, target_load=0.5,
                   policy={"scheme": scheme},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert seen["passes"] >= 30 and seen["trimmed"] > seen["passes"]


def test_link_back_up_is_trimmed_at_the_next_pass(make_cfg):
    """A link raised to native while down, drained and passed over while
    down is off the pending set; coming back up must put it back on."""
    state = SimState(make_cfg(policy={"scheme": "dvfs"}))
    topo = state.topology
    engine._dvs_pass(state)                  # every idle link to the bottom tier
    assert set(state.link_tier_idx) == {0}
    dark, _partner = topo.aggs_of_pod(0)
    engine._apply_sleeps(state, [dark])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, 1, dark)
    src = topo.server_ids.start
    path = next(p for k in range(topo.path_count(src, topo.gateway))
                if dark in (p := topo.kth_path(src, topo.gateway, k)).nodes)
    engine._add_flow(state, engine._JobRun(balanced_job(0, 0.0, 1.0, 100.0)), path, 1e6)
    engine._remove_flow(state, next(iter(state.flows.values())))
    engine._dvs_pass(state)                  # the dark switch's links are down
    trunk = topo.link_between(path.nodes[2], path.nodes[3])
    assert not state.link_up[trunk] and state.link_tier_idx[trunk] == state.native_idx
    engine._wake_switch(state, dark)
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, 1, dark)
    engine._dvs_pass(state)
    assert set(state.link_tier_idx) == {0}
