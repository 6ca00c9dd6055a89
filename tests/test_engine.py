"""Event-loop behavior: energy integration, scheduling semantics,
conservation invariants and reproducibility."""

import pytest

from greendc import config, engine, fairshare, report
from greendc.engine import EVENT_NAMES, InternalInvariantViolation, SimState
from greendc.powermodel import TRANSITION_SECONDS, dvs_tier_index
from greendc.topology import ROLE_ACCESS, ROLE_AGG, ROLE_CORE, ROLE_SERVER
from greendc.workload import Job, generate

from conftest import small_scenario
from test_fairshare import check_fill

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
    rep = engine.run(cfg)
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


def test_arrival_at_the_instant_a_wake_ends_waits_for_the_wake(make_cfg):
    """Every server is asleep by t=1.0.  Job 0 wakes server 8, whose wake
    ends at 1.0 + 0.1 == 1.1, the arrival time of job 1.  Arrivals pop
    before the wake's event at the same instant, so job 1 is placed on the
    still-waking server: it must wait for the wake like job 0, and its
    transfer must run to the end."""
    cfg = make_cfg(horizon_s=10.0, policy={"scheme": "dns"})
    assert 1.0 + TRANSITION_SECONDS == 1.1
    jobs = [balanced_job(0, 1.0, 0.5, 5.0),
            balanced_job(1, 1.1, 0.5, 5.0, external=1e6)]
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    assert server_of(rep, 0) == server_of(rep, 1) == 8
    assert rep.sla["completed"] == 2 and rep.sla["violations"] == 0
    c = rep.conservation
    assert c["flow_bytes_done"] == c["flow_bytes_offered"] == 1e6
    assert finish_of(rep, 0) < finish_of(rep, 1)


def test_arrival_is_taken_before_a_heap_event_at_the_same_instant(make_cfg, monkeypatch):
    """Arrivals hold the lowest sequence numbers, so at a tie in time the
    arrival comes first: the management tick at t=1.0 sees the job that
    arrives at 1.0 already being served.  The row stamped 1.0 shows the
    state after every event at 1.0, with or without a tick there."""
    cfg = make_cfg(horizon_s=4.0, policy={"scheme": "none", "stats_interval_s": 1.0})
    rep = engine.run(cfg, jobs=[balanced_job(0, 1.0, 0.5, 3.0)], collect_jobs=True)
    rows = {row["t"]: row["serving_servers"] for row in rep.timeseries}
    assert rows[0.0] == 0 and rows[1.0] == 1 and rows[2.0] == 0
    assert finish_of(rep, 0) == 1.5

    handled = []
    arrival, tick = engine._handle_arrival, engine._handle_tick

    def recorded_arrival(state, jid):
        arrival(state, jid)
        handled.append((state.clock, "arrival", state.n_serving))

    def recorded_tick(state):
        handled.append((state.clock, "tick", state.n_serving))
        tick(state)

    monkeypatch.setattr(engine, "_handle_arrival", recorded_arrival)
    monkeypatch.setattr(engine, "_handle_tick", recorded_tick)
    cfg = make_cfg(horizon_s=4.0, policy={"scheme": "dvfs", "stats_interval_s": 1.0})
    rep = engine.run(cfg, jobs=[balanced_job(0, 1.0, 0.5, 3.0)], collect_jobs=True)
    assert [h for h in handled if h[0] == 1.0] == [(1.0, "arrival", 1), (1.0, "tick", 1)]
    rows = {row["t"]: row["serving_servers"] for row in rep.timeseries}
    assert [rows[t] for t in (0.0, 1.0, 2.0, 3.0)] == [0, 1, 1, 0]
    # the tick at 1.0 sets the frequency for the job already served, which
    # stretches its 0.5 s of work; any other tie order moves this finish
    assert finish_of(rep, 0) == 2.677839556277056


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
    rep = engine.run(cfg)
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
    rep_a = engine.run(cfg)
    rep_b = engine.run(cfg)
    assert rep_a.trace_hash == rep_b.trace_hash
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    report.write_report_json(rep_a, str(pa))
    report.write_report_json(rep_b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_changes_trace(make_cfg):
    a = engine.run(make_cfg(seed=1, horizon_s=4.0))
    b = engine.run(make_cfg(seed=2, horizon_s=4.0))
    assert a.trace_hash != b.trace_hash


def test_event_names_cover_all_kinds():
    assert len(EVENT_NAMES) == 7
    assert len(set(EVENT_NAMES)) == 7


# -- direct state manipulation -------------------------------------------------

def test_internal_peer_prefers_rack_sibling(small_cfg):
    state = SimState(small_cfg)
    src = state.topology.server_ids.start
    sib = src + 1
    for jid in range(50):
        assert state.internal_dst(jid, src) == sib
    # with the sibling asleep the peer comes from the rest of the fleet
    state.nodes[sib].asleep = True
    state.awake_ids.remove(sib)
    peers = {state.internal_dst(jid, src) for jid in range(50)}
    assert sib not in peers and src not in peers
    assert peers <= set(state.topology.server_ids)


def test_candidate_bookkeeping_detects_corruption(small_cfg):
    state = SimState(small_cfg)
    srv = state.nodes[state.topology.server_ids.start]
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
    engine._handle_transition(state, sid)
    assert state.class_power[0] == pytest.approx(before - IDLE_W)
    assert state.nodes[sid].asleep
    # waking restores idle draw only after the wake transition completes
    engine._begin_wake(state, sid)
    assert state.class_power[0] == pytest.approx(before - IDLE_W)
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, sid)
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
    """A server's wake leaves its rack switch alone while the switch is
    falling asleep or waking, and starts the switch's wake along with its
    own when the switch is dormant."""
    state = SimState(small_cfg)
    acc = state.topology.access_ids.start
    first, second = state.topology.servers_of_access(acc)
    engine._apply_sleeps(state, [first, second])
    _complete(state, [first, second])
    engine._apply_sleeps(state, [acc])
    assert _transitions_pushed(state) == 3
    engine._begin_wake(state, first)          # falling asleep: the server only
    assert _transitions_pushed(state) == 4
    assert state.nodes[acc].falling_asleep()
    _complete(state, [acc, first])
    engine._apply_sleeps(state, [first])
    _complete(state, [first])
    assert _transitions_pushed(state) == 5
    engine._begin_wake(state, second)         # dormant: the switch wakes too
    assert _transitions_pushed(state) == 7
    assert state.nodes[acc].asleep and state.nodes[acc].transition_until is not None
    engine._begin_wake(state, first)          # waking up: the server only
    assert _transitions_pushed(state) == 8
    assert state.dark_switches == 1


_CLS_OF_ROLE = {ROLE_CORE: engine.CLS_CORE, ROLE_AGG: engine.CLS_AGG,
                ROLE_ACCESS: engine.CLS_ACCESS, ROLE_SERVER: engine.CLS_SERVER}


def _check_derived_state(state, seen):
    """The facts the engine keeps once and derives where needed: each
    node's class from its role, switch draw from its mode and port tiers,
    class power from its members, server mode sets from the per-server
    flags, pending jobs only on sleeping or waking servers, flows only
    between awake servers, and single-visit paths."""
    topo = state.topology
    assert len(state.nodes) == topo.n_nodes
    assert [node.cls for node in state.nodes] == [_CLS_OF_ROLE[r] for r in topo.roles]
    class_sum = [0.0, 0.0, 0.0, 0.0]
    for nid, sw in enumerate(state.nodes[:topo.server_ids.start]):
        if sw.asleep:
            assert sw.power_w == sw.p_sleep_w, nid
            seen["asleep_switches"] += 1
        else:
            assert sw.power_w == pytest.approx(sw.base_w + state._ports_w(nid), rel=1e-9), nid
        class_sum[sw.cls] += sw.power_w
        assert state.switch_live[nid] == (not sw.asleep and sw.transition_until is None), nid
    servers = [state.nodes[s] for s in topo.server_ids]
    class_sum[engine.CLS_SERVER] = sum(srv.power_w for srv in servers)
    assert state.class_power == pytest.approx(class_sum, rel=1e-9)
    assert state.waking_ids == {srv.id for srv in servers
                                if srv.asleep and srv.transition_until is not None}
    assert state.awake_ids == [srv.id for srv in servers
                               if not srv.asleep and srv.transition_until is None]
    assert state.wakeable == _wakeable_reference(state)
    seen["waking"] += len(state.waking_ids)
    for srv in servers:
        assert srv.asleep or not srv.pending, srv.id
        seen["pending"] += len(srv.pending)
    for fid, fl in state.net.flows.items():
        assert len({d >> 1 for d in fl.res}) == len(fl.res), fid
        for end in (fl.nodes[0], fl.nodes[-1]):
            assert end not in topo.server_ids or not state.nodes[end].asleep, (fid, end)
    seen["trimmed"] += sum(i != state.net.native_idx for i in state.net.link_tier_idx)
    seen["checks"] += 1


# every handler run calls for an event, looked up on the module at each call
_HANDLERS = ("_handle_arrival", "_handle_compute_end", "_handle_flow_end",
             "_handle_transition", "_handle_tick", "_maybe_release", "_sample_stats")


def _on_each_event(monkeypatch, hook):
    """Call hook(state) as each event's handler starts, on the state the
    previous event left (after the event's energy step and clock move, which
    change no state a handler reads but the clock).  A handler called from
    inside another (_maybe_release at a compute end) is not an event of its
    own and is not hooked again.  The _sample_stats calls before the loop and
    after it are hooked as well."""
    depth = [0]
    for name in _HANDLERS:
        def wrapped(state, *args, _original=getattr(engine, name)):
            if not depth[0]:
                hook(state)
            depth[0] += 1
            try:
                return _original(state, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(engine, name, wrapped)


def _final_state(monkeypatch):
    """The state run hands to build_report, once the run is done."""
    got = []
    build = report.build_report

    def capture(cfg, state, collect_jobs=False):
        got.append(state)
        return build(cfg, state, collect_jobs)

    monkeypatch.setattr(report, "build_report", capture)
    return got


@pytest.mark.parametrize("mix", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
def test_derived_state_holds_after_every_event(make_cfg, monkeypatch, mix):
    """Checked as each event's handler starts (the state the previous event
    left) and on the final state handed to the report."""
    seen = {"checks": 0, "asleep_switches": 0, "waking": 0, "trimmed": 0, "pending": 0}
    _on_each_event(monkeypatch, lambda state: _check_derived_state(state, seen))
    final = _final_state(monkeypatch)
    cfg = make_cfg(horizon_s=6.0, target_load=0.5, policy={"scheme": "dvfs+dns"},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    _check_derived_state(final[0], seen)
    assert seen["checks"] > 1000
    assert seen["asleep_switches"] and seen["waking"] and seen["trimmed"] and seen["pending"]


def test_energy_ledger_is_the_documented_kahan_sum(make_cfg, monkeypatch):
    """Power changes only at events, so the draw a handler finds on entry is
    the draw over the interval that ended at its event.  Re-integrating those
    draws with the documented steps (a Kahan sum of watts * dt per class;
    awake and serving counts times dt; the awake count over the part of each
    interval past the warm-up) gives the run's ledger and integrals to the
    bit.  The last interval ends at SimEnd, which has no handler: the
    _sample_stats after the loop sees its draw."""
    marks = []
    _on_each_event(monkeypatch, lambda state: marks.append(
        (state.clock, tuple(state.class_power), len(state.awake_ids), state.n_serving)))
    final = _final_state(monkeypatch)
    cfg = make_cfg(horizon_s=6.0, target_load=0.5, policy={"scheme": "dvfs+dns"},
                   workload={"class_mix": [0.0, 0.5, 0.5], "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    state = final[0]
    assert 0.0 < state.warmup < cfg.horizon_s and marks[-1][0] == cfg.horizon_s
    ledger, comp = [0.0] * 4, [0.0] * 4
    awake_int = steady_int = serving_int = 0.0
    clock = 0.0
    for t, power, awake, serving in marks:
        dt = t - clock
        if dt <= 0.0:
            continue
        for k in range(4):
            y = power[k] * dt - comp[k]
            u = ledger[k] + y
            comp[k] = (u - ledger[k]) - y
            ledger[k] = u
        awake_int += awake * dt
        serving_int += serving * dt
        if clock + dt > state.warmup:
            steady_int += awake * (clock + dt - max(clock, state.warmup))
        clock = t
    assert [x.hex() for x in state.ledger_j] == [x.hex() for x in ledger]
    assert state.awake_integral.hex() == awake_int.hex()
    assert state.awake_integral_steady.hex() == steady_int.hex()
    assert state.serving_integral.hex() == serving_int.hex()
    # the run slept servers and served jobs on both sides of the warm-up
    assert 0.0 < steady_int < awake_int < len(state.topology.server_ids) * cfg.horizon_s
    assert serving_int > 0.0 and all(x > 0.0 for x in ledger)


@pytest.mark.parametrize("case", ["reversed", "repeated id"])
def test_jobs_out_of_arrival_order_are_refused(make_cfg, case):
    """Taken as given, a reversed list runs the clock backwards and a
    repeated id shares one job record between two arrivals; both are
    refused before the run starts."""
    cfg = make_cfg(horizon_s=4.0)
    jobs = generate(cfg.effective_workload())
    assert len(jobs) > 2
    if case == "reversed":
        jobs, match = jobs[::-1], "before the job ahead of it"
    else:
        jobs, match = jobs[:1] + jobs, "repeats"
    with pytest.raises(ValueError, match=match):
        engine.run(cfg, jobs=jobs)


@pytest.mark.parametrize("arrival", [-1.0, float("nan"), float("inf")])
def test_jobs_arriving_at_no_valid_time_are_refused(make_cfg, arrival):
    """A negative arrival ran and drew energy before time zero, and a NaN
    or infinite one dropped the job unseen; each is refused before the run
    starts."""
    cfg = make_cfg(horizon_s=4.0)
    jobs = generate(cfg.effective_workload())
    jobs[0] = jobs[0]._replace(arrival=arrival)
    with pytest.raises(ValueError, match="not a finite time from 0 on"):
        engine.run(cfg, jobs=jobs)


@pytest.mark.parametrize("field,value", [
    ("compute_demand", float("inf")), ("compute_demand", -1.0),
    ("comm_internal_bytes", float("nan")), ("comm_external_bytes", float("inf")),
    ("comm_external_bytes", -1.0), ("deadline", float("nan")), ("deadline", float("inf"))])
def test_jobs_with_non_finite_sizes_or_deadlines_are_refused(make_cfg, field, value):
    """An infinite demand put a non-finite key in the candidate list, and a
    NaN deadline was rejected by every admission; a job whose demand or
    transfer sizes are not finite numbers from 0 on, or whose deadline is
    not finite, is refused before the run starts."""
    cfg = make_cfg(horizon_s=4.0)
    jobs = generate(cfg.effective_workload())
    jobs[1] = jobs[1]._replace(**{field: value})
    with pytest.raises(ValueError, match="not a finite number from 0 on"):
        engine.run(cfg, jobs=jobs)


# -- the placement query -------------------------------------------------------

def _placement_reference(state, demand, deadline):
    """Every server the documented rule lets take the job, by brute force:
    awake servers whose committed load leaves room for demand over the time
    left, most-loaded first, ties to the lowest id; then waking servers,
    reserving over the time left after their transition, in the same order;
    then the sleeping servers whose rack switch is not falling asleep, nor
    every aggregation switch wired to that rack, lowest id first,
    reserving over the time left after a wake, which they need."""
    now, eps = state.clock, engine._EPS
    ranked = []
    for sid in state.topology.server_ids:
        srv = state.nodes[sid]
        if not srv.asleep and srv.transition_until is None:
            window = deadline - now
            if window > 0 and srv.committed <= 1.0 - demand / window + eps:
                ranked.append(((0, -srv.committed, sid), (sid, demand / window, False)))
        elif srv.asleep and srv.transition_until is not None:
            window = deadline - srv.transition_until
            if (deadline > now and window > 0
                    and srv.committed + demand / window <= 1.0 + eps):
                ranked.append(((1, -srv.committed, sid), (sid, demand / window, False)))
        elif srv.asleep and not _dark_uplink(state, sid):
            window = deadline - (now + TRANSITION_SECONDS)
            if window > 0 and demand / window <= 1.0 + eps:
                ranked.append(((2, 0.0, sid), (sid, demand / window, True)))
    return [entry for _key, entry in sorted(ranked)]


def _dark_uplink(state, sid):
    """Whether the server's rack switch, or every aggregation switch wired
    to that rack (a two-tier rack has none), is falling asleep."""
    rack_id = state.topology.access_of_server(sid)
    aggs = [state.nodes[a] for a in _neighbours(state.topology, rack_id, ROLE_AGG)]
    return _falling_asleep(state.nodes[rack_id]) or bool(aggs and all(map(_falling_asleep, aggs)))


def _wakeable_reference(state):
    """The dormant servers placement may offer for a wake, by id."""
    return [sid for sid in state.topology.server_ids
            if _dormant(state.nodes[sid]) and not _dark_uplink(state, sid)]


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
        servers = [state.nodes[s] for s in state.topology.server_ids]
        racks = [state.nodes[state.topology.access_of_server(s.id)] for s in servers]
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


# two pods of two racks of two servers
_TWO_PODS = {"kind": "three_tier", "core_count": 2, "agg_count": 4,
             "access_count": 4, "servers_per_access": 2}


def _complete(state, nids):
    """Move the clock on by one transition and end the nodes' transitions."""
    state.clock += TRANSITION_SECONDS
    for nid in nids:
        engine._handle_transition(state, nid)


def test_no_server_wakes_under_a_pod_spine_falling_asleep(make_cfg):
    """Once every rack of a pod is dormant both of its aggregation switches
    may start to sleep at one tick.  While they are in that transition no
    server of the pod is offered for a wake: it would find no dormant
    aggregation switch to wake with it.  Once they are asleep the servers
    are offered again, and a wake takes one aggregation switch along."""
    state = SimState(make_cfg(architecture=_TWO_PODS, policy={"scheme": "dns"}))
    topo = state.topology
    racks = list(topo.racks_of_pod(0))
    pod = [sid for acc in racks for sid in topo.servers_of_access(acc)]
    engine._apply_sleeps(state, pod)
    _complete(state, pod)
    engine._apply_sleeps(state, racks)
    _complete(state, racks)
    aggs = topo.aggs_of_pod(0)
    assert all(state.spine_sleep_ok(a) for a in aggs)
    engine._apply_sleeps(state, list(aggs))
    assert all(state.nodes[a].transition_until is not None for a in aggs)

    def offered(deadline):
        got = list(state.placement_order(0.1, deadline))
        assert got == _placement_reference(state, 0.1, deadline)
        return [sid for sid, _rate, wake in got if wake]

    assert offered(state.clock + 10.0) == []
    _complete(state, aggs)
    assert offered(state.clock + 10.0) == pod
    engine._begin_wake(state, pod[0])
    assert sum(state.nodes[a].transition_until is not None for a in aggs) == 1


def test_no_server_wakes_under_a_rack_switch_falling_asleep(make_cfg):
    """Once a rack's servers are dormant its rack switch may start to sleep.
    While every sleeping server's rack switch is in that transition no
    server is offered for a wake: its rack switch could not be woken with
    it.  As each rack switch's sleep completes its servers are offered
    again, every offered server in id order."""
    state = SimState(make_cfg(architecture=_TWO_PODS, policy={"scheme": "dns"}))
    topo = state.topology
    # the first rack of each pod
    racks = [topo.racks_of_pod(0).start, topo.racks_of_pod(1).start]
    servers = [sid for acc in racks for sid in topo.servers_of_access(acc)]
    engine._apply_sleeps(state, servers)
    _complete(state, servers)

    def offered(deadline):
        got = list(state.placement_order(0.1, deadline))
        assert got == _placement_reference(state, 0.1, deadline)
        return [sid for sid, _rate, wake in got if wake]

    assert offered(state.clock + 10.0) == servers
    engine._apply_sleeps(state, racks)
    assert all(state.nodes[acc].transition_until is not None for acc in racks)
    assert offered(state.clock + 10.0) == []
    # the later rack completes first: its servers come back on their own
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, racks[1])
    assert offered(state.clock + 10.0) == list(topo.servers_of_access(racks[1]))
    engine._handle_transition(state, racks[0])
    assert offered(state.clock + 10.0) == servers
    assert state.wakeable == servers


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fabric", [
    {"kind": kind, "core_count": 2, "agg_count": aggs, "access_count": 8,
     "servers_per_access": 2} for kind, aggs in (("three_tier", 4), ("two_tier", 0))],
    ids=["three_tier", "two_tier"])
def test_switch_churn_never_puts_a_flow_over_a_down_link(make_cfg, monkeypatch, fabric, seed):
    """Sleeping at once when idle, with a tick every 50 ms, a mixed load
    puts rack, aggregation and core switches to sleep, and wakes racks and
    aggregation switches again and again; the flow network would raise on
    any flow over a down link, or link going down under a flow, and none
    does.  Only core sleeps are required: nothing wakes a core, because the
    gateway core never sleeps and reaches every pod or rack."""
    seen = {}
    handle = engine._handle_transition

    def counted(state, nid):
        assert state.wakeable == _wakeable_reference(state)
        if state.nodes[nid].cls != engine.CLS_SERVER:
            key = (state.topology.roles[nid], state.nodes[nid].asleep)
            seen[key] = seen.get(key, 0) + 1
        handle(state, nid)

    monkeypatch.setattr(engine, "_handle_transition", counted)
    cfg = make_cfg(architecture=fabric, horizon_s=20.0, target_load=0.3, seed=seed,
                   policy={"scheme": "dvfs+dns", "idle_timeout_s": 0.0,
                           "tick_interval_s": 0.05},
                   workload={"class_mix": [0.2, 0.4, 0.4], "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    # keyed by role and whether the switch was asleep: a sleep ends on False
    want = {(ROLE_ACCESS, False): 10, (ROLE_ACCESS, True): 10, (ROLE_CORE, False): 1}
    if fabric["agg_count"]:
        want.update({(ROLE_AGG, False): 3, (ROLE_AGG, True): 3})
    assert all(seen.get(key, 0) >= n for key, n in want.items()), seen


# -- the flow layer's fill and the rate-scaling tick ----------------------------

@pytest.fixture
def checked_recompute(monkeypatch):
    """Wrap FlowNet._recompute: after each call, every flow of the component
    must hold exactly fairshare.allocate's rate over the component."""
    seen = {"calls": 0, "single": 0, "multi": 0}
    original = fairshare.FlowNet._recompute

    def checked(net, seed_dirs, now):
        original(net, seed_dirs, now)
        comp = check_fill(net, seed_dirs)
        seen["calls"] += 1
        seen["single"] += len(comp) == 1
        seen["multi"] += len(comp) > 1

    monkeypatch.setattr(fairshare.FlowNet, "_recompute", checked)
    return seen


@pytest.mark.parametrize("mix", [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
def test_recompute_rates_equal_the_fill_over_each_component(make_cfg, checked_recompute, mix):
    cfg = make_cfg(horizon_s=6.0, target_load=0.5, policy={"scheme": "dvfs+dns"},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert checked_recompute["calls"] > 100 and checked_recompute["multi"] > 100
    assert checked_recompute["single"] > 100


def test_a_job_starts_its_transfers_in_one_refill(make_cfg, monkeypatch):
    """A job with both transfers costs one refill as it starts, and its
    internal transfer's end is pushed once, at the rate it runs at while
    the external one shares its server's link: the end pops with the
    transfer done, not to re-arm."""
    state = SimState(make_cfg())
    net = state.net
    refills, ends = [], []
    recompute, push = fairshare.FlowNet._recompute, net._push

    def counted(net, seed_dirs, now):
        refills.append(now)
        recompute(net, seed_dirs, now)

    def recorded(t, kind, fid, b):
        ends.append((t, fid))
        push(t, kind, fid, b)

    monkeypatch.setattr(fairshare.FlowNet, "_recompute", counted)
    net._push = recorded
    src, peer = state.topology.server_ids[:2]
    # 25 MB at half a gigabit is 0.4 s; the 125 MB external copy lasts longer
    jr = engine._JobRun(balanced_job(0, 0.0, 1.0, 100.0, internal=25e6, external=125e6))
    jr.server, jr.dst = src, peer
    state.jobs[0] = jr   # its compute is queued too
    engine._start_jobs(state, [jr])
    assert refills == [0.0] and jr.flows_left == 2
    internal, external = net.flows[0], net.flows[1]
    assert internal.nodes[-1] == peer and internal.rate == external.rate == 0.5e9
    assert [t for t, fid in ends if fid == 0] == [internal.end_t] == [0.4]
    state.clock = internal.end_t
    assert net.finish(0, state.clock) is internal and internal.bytes_left == 0.0
    assert [t for t, fid in ends if fid == 0] == [0.4]


def test_a_wake_starts_its_pending_jobs_in_one_step(make_cfg, monkeypatch):
    """The jobs placed on a server while it woke start together when the
    wake completes: their compute is queued, and all their transfers go to
    one FlowNet.add, which fills their shared component once."""
    state = SimState(make_cfg(policy={"scheme": "dns"}))
    adds = []
    add = fairshare.FlowNet.add

    def counted(net, transfers, now):
        adds.append([jid for jid, _, _ in transfers])
        return add(net, transfers, now)

    monkeypatch.setattr(fairshare.FlowNet, "add", counted)
    src, peer = state.topology.server_ids[:2]
    engine._apply_sleeps(state, [src])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, src)
    engine._begin_transition(state, src)
    srv = state.nodes[src]
    for jid in (0, 1):
        jr = state.jobs[jid] = engine._JobRun(
            balanced_job(jid, 0.0, 0.1, 100.0, internal=25e6, external=125e6))
        jr.server, jr.dst = src, peer
        srv.pending.append(jid)
    state.clock = srv.transition_until
    engine._handle_transition(state, src)
    assert adds == [[0, 0, 1, 1]] and not srv.pending
    assert srv.serving == 0 and [jid for _, jid in srv.queue] == [1]
    assert [state.jobs[jid].flows_left for jid in (0, 1)] == [2, 2]


def test_no_flow_crosses_a_down_link(make_cfg):
    """Transfers are routed over live switches only, and the flow network
    refuses the opposite as an invariant violation: a flow over a sleeping
    switch's down link, and a switch completing its sleep under a flow."""
    state = SimState(make_cfg(policy={"scheme": "dvfs+dns"}))
    topo = state.topology
    dark, partner = topo.aggs_of_pod(0)
    engine._apply_sleeps(state, [dark])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, dark)
    assert state.dark_switches == 1 and not all(state.net.link_up)
    net = state.net
    src = topo.server_ids[0]
    assert all(dark not in state.route(src, topo.gateway, salt).nodes for salt in range(8))
    path = next(p for k in range(topo.path_count(src, topo.gateway))
                if dark in (p := topo.kth_path(src, topo.gateway, k)).nodes)
    live = state.route(src, topo.gateway, 1)
    tiers = list(net.link_tier_idx)
    # a job whose second transfer crosses the down link starts neither
    with pytest.raises(InternalInvariantViolation, match="down link"):
        net.add([(0, live, 1e6), (0, path, 1e6)], state.clock)
    assert not net.flows and net.next_id == 0 and net.link_tier_idx == tiers
    net.add([(0, live, 1e6)], state.clock)
    (fl,) = net.flows.values()
    assert partner in fl.nodes and fl.rate > 0.0
    # a sleep started under the flow, which dns_tick never asks for
    state.nodes[partner].transition_until = state.clock + TRANSITION_SECONDS
    state.clock += TRANSITION_SECONDS
    with pytest.raises(InternalInvariantViolation, match="goes down under a flow"):
        engine._handle_transition(state, partner)


@pytest.mark.parametrize("scheme", ["dvfs", "dvfs+dns"])
@pytest.mark.parametrize("mix", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
def test_rate_scaling_pass_matches_a_scan_of_every_link(make_cfg, monkeypatch, scheme, mix):
    """The pass visits only the links whose tier can move; afterwards every
    up link must sit at the tier a scan of every link picks."""
    original = fairshare.FlowNet.trim
    seen = {"passes": 0, "trimmed": 0}

    def checked(net, now):
        want = {}
        for lid, tiers in enumerate(net.link_tiers):
            if net.link_up[lid]:
                offered = max(net.dir_sum[2 * lid], net.dir_sum[2 * lid + 1], 0.0)
                want[lid] = dvs_tier_index(offered, tiers)
        before = list(net.link_tier_idx)
        changes = original(net, now)
        assert {lid: net.link_tier_idx[lid] for lid in want} == want
        assert changes == [(lid, a, b) for lid, (a, b)
                           in enumerate(zip(before, net.link_tier_idx)) if a != b]
        seen["passes"] += 1
        seen["trimmed"] += len(changes)
        return changes

    monkeypatch.setattr(fairshare.FlowNet, "trim", checked)
    cfg = make_cfg(horizon_s=8.0, target_load=0.5,
                   policy={"scheme": scheme},
                   workload={"class_mix": mix, "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert seen["passes"] >= 30 and seen["trimmed"] > seen["passes"]


def test_link_back_up_is_trimmed_at_the_next_pass(make_cfg):
    """A link left at native rate with no flow when it went down is passed
    over while down and drops off the pending set; coming back up must put
    it back on."""
    state = SimState(make_cfg(policy={"scheme": "dvfs"}))
    net = state.net
    topo = state.topology
    engine._handle_tick(state)               # every idle link to the bottom tier
    assert set(net.link_tier_idx) == {0}
    dark, _partner = topo.aggs_of_pod(0)
    src = topo.server_ids.start
    path = next(p for k in range(topo.path_count(src, topo.gateway))
                if dark in (p := topo.kth_path(src, topo.gateway, k)).nodes)
    # a flow raises the path to native and drains before any trim
    state._price_ports(net.add([(0, path, 1e6)], state.clock))
    net.remove(next(iter(net.flows)), state.clock)
    engine._apply_sleeps(state, [dark])
    state.clock = TRANSITION_SECONDS
    engine._handle_transition(state, dark)
    engine._handle_tick(state)               # the dark switch's links are down
    link_of = {frozenset((ln.a, ln.b)): ln.id for ln in topo.links}
    trunk = link_of[frozenset(path.nodes[2:4])]
    assert not net.link_up[trunk] and net.link_tier_idx[trunk] == net.native_idx
    engine._begin_transition(state, dark)
    state.clock += TRANSITION_SECONDS
    engine._handle_transition(state, dark)
    engine._handle_tick(state)
    assert set(net.link_tier_idx) == {0}


# -- facts derived where they are read ------------------------------------------

def test_each_transfer_is_routed_once_at_its_start(make_cfg, monkeypatch):
    """Placement hands no path on: outside place, the engine routes exactly
    once per flow it starts, whether the job started when it was placed or
    after a wake; inside place only data-intensive jobs are routed, for the
    congestion test."""
    seen = {"outside": 0, "placing_diw": 0, "placing_other": 0, "flows": 0, "wakes": 0}
    placing = []
    route, place, add = SimState.route, engine.place, fairshare.FlowNet.add

    def counted_route(self, src, dst, salt):
        if not placing:
            seen["outside"] += 1
        elif placing[-1].job_class == "diw":
            seen["placing_diw"] += 1
        else:
            seen["placing_other"] += 1
        return route(self, src, dst, salt)

    def flagged_place(job, state, policy):
        placing.append(job)
        try:
            decision = place(job, state, policy)
        finally:
            placing.pop()
        seen["wakes"] += decision.needs_wake
        return decision

    def counted_add(net, transfers, now):
        seen["flows"] += len(transfers)
        return add(net, transfers, now)

    monkeypatch.setattr(SimState, "route", counted_route)
    monkeypatch.setattr(engine, "place", flagged_place)
    monkeypatch.setattr(fairshare.FlowNet, "add", counted_add)
    cfg = make_cfg(horizon_s=6.0, target_load=0.4,
                   policy={"scheme": "dvfs+dns", "idle_timeout_s": 0.1},
                   workload={"class_mix": [0.0, 0.5, 0.5], "deadline_slack": 2.5,
                             "mean_compute": 0.1})
    engine.run(cfg)
    assert seen["flows"] > 100 and seen["wakes"] > 0 and seen["placing_diw"] > 0
    assert seen["outside"] == seen["flows"]
    assert seen["placing_other"] == 0


def test_congestion_test_routes_the_paths_the_transfers_start_on(make_cfg, monkeypatch):
    """For a data-intensive job started the moment it is placed, the paths
    SimState.transfers_congested routed for the accepted server, the last
    one it tested, are the paths the job's transfers start on, in order."""
    tested, started, routing, arriving = {}, {}, [], []
    congested, route = SimState.transfers_congested, SimState.route
    handle_arrival, add = engine._handle_arrival, fairshare.FlowNet.add
    seen = {"refused": 0, "dark": 0}

    def recorded_congested(self, job, server, threshold):
        routing.append([])
        try:
            hot = congested(self, job, server, threshold)
        finally:
            paths = routing.pop()
        tested[job.id] = (server, paths)
        seen["refused"] += hot
        seen["dark"] += self.dark_switches > 0
        return hot

    def recorded_route(self, src, dst, salt):
        path = route(self, src, dst, salt)
        if routing:
            routing[-1].append(path)
        return path

    def recorded_arrival(state, jid):
        arriving.append(jid)
        try:
            handle_arrival(state, jid)
        finally:
            arriving.pop()

    def recorded_add(net, transfers, now):
        for jid, path, _ in transfers:
            if arriving and arriving[-1] == jid:
                started.setdefault(jid, []).append(path)
        return add(net, transfers, now)

    monkeypatch.setattr(SimState, "transfers_congested", recorded_congested)
    monkeypatch.setattr(SimState, "route", recorded_route)
    monkeypatch.setattr(engine, "_handle_arrival", recorded_arrival)
    monkeypatch.setattr(fairshare.FlowNet, "add", recorded_add)
    # one server per rack: every internal peer is across the fabric, where
    # the transfer's salt picks among equal-cost paths
    cfg = make_cfg(horizon_s=4.0, target_load=0.4,
                   architecture=dict(_TWO_PODS, servers_per_access=1),
                   policy={"scheme": "dvfs+dns", "idle_timeout_s": 0.1},
                   workload={"class_mix": [0.0, 1.0, 0.0], "deadline_slack": 2.5,
                             "mean_compute": 0.05})
    rep = engine.run(cfg, collect_jobs=True)
    server = {j["id"]: j["server"] for j in rep.jobs}
    for jid, paths in started.items():
        assert tested[jid] == (server[jid], paths), jid
    assert len(started) > 100 and seen["refused"] and seen["dark"], (len(started), seen)


@pytest.mark.parametrize("scheme", ["none", "dvfs", "dns", "dvfs+dns"])
def test_sla_counts_recount_from_the_job_records(make_cfg, scheme):
    """report.sla and admitted_cpu_s equal a recount of the per-job records:
    a job is missed when it finished past its deadline or is unfinished with
    its deadline passed at the horizon, and censored when unfinished with
    the deadline still ahead.  Admitted work is summed in arrival order.
    Two transfers too long for their deadlines join the generated stream,
    because admission reserves compute only."""
    cfg = make_cfg(horizon_s=4.0, target_load=0.9, policy={"scheme": scheme},
                   workload={"class_mix": [0.2, 0.4, 0.4], "deadline_slack": 1.5,
                             "mean_compute": 0.3})
    late = balanced_job(10_000, 0.5, 0.05, 1.0, external=250e6)      # 2 s of transfer
    overdue = balanced_job(10_001, 0.6, 0.05, 2.0, external=2e9)     # 16 s of transfer
    jobs = sorted([*generate(cfg.effective_workload()), late, overdue],
                  key=lambda job: job.arrival)
    rep = engine.run(cfg, jobs=jobs, collect_jobs=True)
    records = {j["id"]: j for j in rep.jobs}
    offered = [job for job in jobs if job.arrival < cfg.horizon_s]
    admitted = [records[job.id] for job in offered if records[job.id]["admitted"]]
    for rec in rep.jobs:
        finished_late = rec["finish"] is not None and rec["finish"] > rec["deadline"] + 1e-9
        overdue_at_end = rec["finish"] is None and rec["deadline"] <= cfg.horizon_s
        assert rec["missed"] == (rec["admitted"] and (finished_late or overdue_at_end)), rec
    assert records[late.id]["missed"] and records[late.id]["finish"] is not None
    assert records[overdue.id]["missed"] and records[overdue.id]["finish"] is None
    missed = sum(rec["missed"] for rec in admitted)
    censored = sum(rec["finish"] is None and not rec["missed"] for rec in admitted)
    rejected = len(offered) - len(admitted)
    assert rep.sla == {
        "offered": len(offered), "admitted": len(admitted), "rejected": rejected,
        "completed": len(admitted) - missed - censored, "deadline_missed": missed,
        "unfinished_censored": censored, "violations": rejected + missed,
        "violation_fraction": (rejected + missed) / len(offered),
    }
    work = 0.0
    for job in offered:
        if records[job.id]["admitted"]:
            work += job.compute_demand
    assert rep.conservation["admitted_cpu_s"] == work
    assert rejected and censored


def _dormant(node):
    return node.asleep and node.transition_until is None


def _falling_asleep(node):
    return not node.asleep and node.transition_until is not None


def _neighbours(topo, nid, role):
    return [nbr for nbr, _lid in topo.adj[nid] if topo.roles[nbr] == role]


def _spine_reference(state, nid):
    """An aggregation switch may sleep while its pair partner (the other
    switch its racks are wired to) is fully up, or while every rack switch
    wired to it is dormant; any other switch always may."""
    topo = state.topology
    if topo.roles[nid] != ROLE_AGG:
        return True
    return (state.switch_live[_partner(topo, nid)]
            or all(_dormant(state.nodes[r]) for r in _neighbours(topo, nid, ROLE_ACCESS)))


def _partner(topo, agg):
    rack = _neighbours(topo, agg, ROLE_ACCESS)[0]
    return next(a for a in _neighbours(topo, rack, ROLE_AGG) if a != agg)


def _dns_tick_reference(state, policy, now):
    """dns_tick's requests by brute force over the nodes: quiet servers idle
    past the timeout; fully-up rack switches with no flow whose wired
    servers are all dormant; then the non-gateway cores and the aggregation
    switches, fully up, flowless and idle past the timeout.  The spine rule
    is the engine's, applied as the sleeps start."""
    topo, cutoff = state.topology, now - policy.idle_timeout_s
    out = [s for s in topo.server_ids
           if not state.nodes[s].asleep and state.nodes[s].transition_until is None
           and state.nodes[s].quiet() and state.nodes[s].idle_since <= cutoff]
    up = [nid for nid in range(topo.server_ids.start)
          if not state.nodes[nid].asleep and state.nodes[nid].transition_until is None
          and state.nodes[nid].flow_count == 0]
    out += [nid for nid in up if topo.roles[nid] == ROLE_ACCESS
            and all(_dormant(state.nodes[s]) for s in _neighbours(topo, nid, ROLE_SERVER))]
    return out + [nid for nid in up if topo.roles[nid] != ROLE_ACCESS and nid != topo.gateway
                  and state.nodes[nid].idle_since <= cutoff]


def test_sleep_rules_equal_brute_force_over_the_nodes(make_cfg, monkeypatch):
    """At every tick of a two-pod dns run, spine_sleep_ok for every switch
    and the whole request list of dns_tick equal predicates read straight
    off the nodes and the fabric's wiring."""
    seen = {"ticks": 0, "racks": 0, "refused": 0, "dark_pod_ok": 0}
    tick = engine.dns_tick

    def checked(state, policy, now):
        topo = state.topology
        for nid in range(topo.server_ids.start):
            want = _spine_reference(state, nid)
            assert state.spine_sleep_ok(nid) == want, nid
            if topo.roles[nid] == ROLE_AGG:
                seen["refused"] += not want
                seen["dark_pod_ok"] += want and not state.switch_live[_partner(topo, nid)]
        requests = tick(state, policy, now)
        assert requests == _dns_tick_reference(state, policy, now)
        seen["ticks"] += 1
        seen["racks"] += sum(topo.roles[n] == ROLE_ACCESS for n in requests)
        return requests

    monkeypatch.setattr(engine, "dns_tick", checked)
    cfg = make_cfg(horizon_s=8.0, target_load=0.2,
                   architecture={"kind": "three_tier", "core_count": 2, "agg_count": 4,
                                 "access_count": 4, "servers_per_access": 2},
                   policy={"scheme": "dns", "idle_timeout_s": 0.1})
    engine.run(cfg)
    assert seen["ticks"] >= 30
    assert seen["racks"] and seen["refused"] and seen["dark_pod_ok"], seen
