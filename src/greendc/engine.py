"""Discrete-event simulation core.

Events are ordered by (time, sequence), so runs are reproducible to the
bit on any platform.  Job arrivals, known in full before the run, keep
sequence numbers 1..N and are taken from a list of their own rather than
the heap: the next one is taken whenever it precedes the heap's head, which
is the same total order.  Servers serve one job at a time under preemptive
earliest-deadline-first at their current frequency setpoint; admission
reserves compute-demand over time-to-deadline, which keeps deadlines safe
at full frequency.  Transfers are the flow network's (fairshare.FlowNet):
it holds the flows, the links' capacities, tiers and up states, and their
max-min rates, and pushes each flow's end event through SimState.push.

Servers and switches share one node table, SimState.nodes, indexed by
node id: switches first, then servers.  Each node carries its energy
class, its sleep/wake mode, its draw and the count of flows crossing it,
and every mode question is read off the node.

Reservations are the engine's: SimState.placement_order lists the servers
that can take a job, in scan order, and _maybe_release returns them.  A
job placed on a server that is asleep or waking waits in the server's
pending list until the wake completes, even when it arrives at the very
instant the wake ends; so a server carrying a flow is always awake.

Each transfer is routed once, when it starts.  Its path is an equal-cost
path picked by a hash of the job id; while any switch is dark the pick is
made among the paths whose switches are all up.  Topology.pick_path reads
either pick straight off the fabric's pod and index arithmetic (the live
one in the same order as the full enumeration), with no search or per-root
cache.  Placement routes only to test a data-intensive job's candidates for
congestion and hands no path on: routing is pure, so a job that starts the
moment it is placed gets the paths the test saw.

No flow crosses a down link: an awake server's rack switch is live, a pod
with a rack not dormant keeps an aggregation switch live or waking, the
gateway core never sleeps and reaches every pod or rack, and no switch
carrying a flow is asked to sleep.  So every transfer's pick is live, and
the flow network raises on a flow over a down link.

Compute completion events are provisional, as the network's flow ends
are: a frequency drop leaves the scheduled event in place and the pop
re-arms from live state, while a rise pushes an earlier event.  Stale
entries are skipped.

Power levels change only at events, so integrating per-component power
between events is exact.  The run loop does it as each event is taken, in
compensated (Kahan) sums per energy class held in locals, and writes the
ledger back to the state when the loop ends.  A component in a mode
transition draws its pre-transition power until the transition completes,
and its links count as up only while both endpoints are awake.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from functools import cache

from .config import ScenarioConfig
from .fairshare import FlowNet, InternalInvariantViolation
from .powermodel import TRANSITION_SECONDS, dvs_rate_tiers, port_power_at_tier
from .scheduler import SchedulerPolicy, dns_tick, dvfs_setpoint, place
from .topology import (ROLE_ACCESS, ROLE_AGG, ROLE_CORE, ROLE_NAMES, ROLE_SERVER,
                       Path, Topology, build_topology, splitmix64)
from .workload import Job, generate

# component classes for the energy ledger
CLS_SERVER, CLS_CORE, CLS_AGG, CLS_ACCESS = range(4)
_ROLE_TO_CLS = {ROLE_CORE: CLS_CORE, ROLE_AGG: CLS_AGG, ROLE_ACCESS: CLS_ACCESS}

# event kinds, in trace order.  Kind numbers are hashed into the trace, so
# EV_RECOMPUTE keeps its slot although nothing pushes it any more: a flow
# rate change is recomputed inside the event that causes it.
(EV_ARRIVAL, EV_COMPUTE_END, EV_RECOMPUTE, EV_FLOW_END, EV_TRANSITION,
 EV_TICK, EV_STATS, EV_RELEASE, EV_END) = range(9)
EVENT_NAMES = ("JobArrival", "ComputePhaseEnd", "FlowRateRecompute",
               "TransferEnd", "TransitionComplete", "DnsTick", "StatsSample",
               "ReservationRelease", "SimEnd")

_EPS = 1e-12


class _Node:
    """What servers and switches share: the energy class, the sleep/wake
    mode, the draw and the flows crossing the node."""
    __slots__ = ("cls", "asleep", "transition_until", "power_w", "flow_count", "idle_since")

    def __init__(self, cls: int):
        self.cls = cls
        self.asleep = False
        self.transition_until: float | None = None
        self.power_w = 0.0
        self.flow_count = 0
        self.idle_since = 0.0

    def dormant(self) -> bool:
        """Asleep, with no wake under way."""
        return self.asleep and self.transition_until is None

    def falling_asleep(self) -> bool:
        """In a sleep transition: awake, with a transition under way."""
        return self.transition_until is not None and not self.asleep


class _Server(_Node):
    __slots__ = ("id", "f", "committed", "key", "queue", "serving", "stamp",
                 "pending", "epoch", "end_t", "reserved")

    def __init__(self, sid: int):
        super().__init__(CLS_SERVER)
        self.id = sid
        self.f = 1.0
        self.committed = 0.0
        self.reserved = 0
        self.key: tuple[float, int] | None = (0.0, -sid)   # in cands while set
        self.queue: list[tuple[float, int]] = []   # EDF heap of waiting jobs
        self.serving: int | None = None
        self.stamp = 0.0
        self.pending: list[int] = []               # assigned while asleep
        self.epoch = 0
        self.end_t = float("inf")

    def quiet(self) -> bool:
        return (self.serving is None and not self.queue and not self.pending
                and self.flow_count == 0)


class _Switch(_Node):
    __slots__ = ("base_w", "p_sleep_w")

    def __init__(self, cls: int, base_w: float, p_sleep_w: float):
        super().__init__(cls)
        self.base_w = base_w
        self.p_sleep_w = p_sleep_w

    def quiet(self) -> bool:
        return self.flow_count == 0


class _JobRun:
    __slots__ = ("job", "server", "r", "rem", "done_cpu", "compute_done",
                 "flows_left", "admitted", "finish_t", "reason", "dst", "released")

    def __init__(self, job: Job):
        self.job = job
        self.server: int | None = None
        self.r = 0.0
        self.rem = job.compute_demand
        self.done_cpu = 0.0
        self.compute_done = False
        self.flows_left = 0
        self.admitted = False
        self.finish_t: float | None = None
        self.reason = ""
        self.dst: int | None = None
        self.released = False


class SimState:
    """Mutable world state plus the event heap and energy ledger."""

    def __init__(self, cfg: ScenarioConfig, topology: Topology | None = None):
        cfg.policy.validate()
        cfg.server_power.validate()
        self.topology = topology if topology is not None else build_topology(cfg.architecture)
        self.policy: SchedulerPolicy = cfg.policy
        self.sparams = cfg.server_power
        self.clock = 0.0
        self.seq = 0
        self.heap: list[tuple] = []
        topo = self.topology

        # the node table, indexed by node id: switches, then servers
        self.nodes: list[_Node] = []
        for nid in range(topo.server_ids.start):
            role = topo.roles[nid]
            params = cfg.switch_power[ROLE_NAMES[role]]
            self.nodes.append(_Switch(_ROLE_TO_CLS[role], params.base_w, params.p_sleep_w))
        self.nodes += [_Server(s) for s in topo.server_ids]
        self.awake_ids: list[int] = list(topo.server_ids)
        self.sleeping: list[int] = []
        self.waking_ids: set[int] = set()
        self.cands: list[tuple[float, int]] = sorted(self.nodes[s].key for s in topo.server_ids)

        # the flows and the links they share; pushes go through self.push
        self.net = FlowNet(topo, self.push, EV_FLOW_END)
        # per-end port watts of each link by rate tier, pure in the native
        # rate and the switch's role, so built once and shared across links
        roles = topo.roles

        @cache
        def port_watts(rate: float, role: int) -> tuple[float, ...]:
            by_rate = cfg.switch_power[ROLE_NAMES[role]].port_power_by_rate
            return tuple(port_power_at_tier(rate, t, by_rate) for t in dvs_rate_tiers(rate))

        self._port_w = [[(nid, port_watts(rate, roles[nid])) for nid in (a, b)
                         if roles[nid] != ROLE_SERVER] for _lid, a, b, rate in topo.links]
        self.jobs: dict[int, _JobRun] = {}

        # the routing filter: per switch id, fully up (neither asleep nor in
        # a transition), and the count of those not.  Both move only at a
        # sleep request and a wake completion; the gateway core never sleeps.
        self.dark_switches = 0
        self.switch_live = [True] * topo.server_ids.start

        # energy ledger: joules per class, with compensated accumulation
        self.class_power = [0.0, 0.0, 0.0, 0.0]
        self.ledger_j = [0.0, 0.0, 0.0, 0.0]
        self.awake_integral = 0.0
        self.awake_integral_steady = 0.0
        self.serving_integral = 0.0
        self.warmup = 0.25 * cfg.horizon_s
        self.n_serving = 0

        self.offered_jobs = 0
        self.events_processed = 0
        self.timeseries: list[dict] = []
        self.trace = hashlib.sha256()

        for s in topo.server_ids:
            self._set_w(self.nodes[s], self.sparams.idle_w)
        for nid in range(topo.server_ids.start):
            sw = self.nodes[nid]
            self._set_w(sw, sw.base_w + self._ports_w(nid))

    # -- power bookkeeping ---------------------------------------------------

    def _set_w(self, node: _Node, watts: float) -> None:
        self.class_power[node.cls] += watts - node.power_w
        node.power_w = watts

    def _ports_w(self, nid: int) -> float:
        net = self.net
        total = 0.0
        for _nbr, lid in self.topology.adj[nid]:
            if net.link_up[lid]:
                for end, watts in self._port_w[lid]:
                    if end == nid:
                        total += watts[net.link_tier_idx[lid]]
        return total

    def _refresh_links(self, nid: int) -> None:
        """Re-evaluate up/down of a node's links after its mode flipped, and
        price each flip."""
        for nbr, lid in self.topology.adj[nid]:
            up = not self.nodes[nid].asleep and not self.nodes[nbr].asleep
            if self.net.set_link(lid, up):
                sign = 1.0 if up else -1.0
                idx = self.net.link_tier_idx[lid]
                for end, watts in self._port_w[lid]:
                    sw = self.nodes[end]
                    if not sw.asleep:
                        self._set_w(sw, sw.power_w + sign * watts[idx])

    def _price_tiers(self, changes: list[tuple[int, int, int]]) -> None:
        """Port power for the network's tier changes (link, old, new)."""
        link_up = self.net.link_up
        for lid, old_idx, new_idx in changes:
            if link_up[lid]:
                for end, watts in self._port_w[lid]:
                    sw = self.nodes[end]
                    delta = watts[new_idx] - watts[old_idx]
                    self._set_w(sw, sw.power_w + delta)

    # -- candidate list --------------------------------------------------------

    def _cand_remove(self, srv: _Server) -> None:
        i = bisect_left(self.cands, srv.key)
        if i >= len(self.cands) or self.cands[i] != srv.key:
            raise InternalInvariantViolation(f"candidate key missing for server {srv.id}")
        del self.cands[i]
        srv.key = None

    def _cand_insert(self, srv: _Server) -> None:
        srv.key = (srv.committed, -srv.id)
        insort(self.cands, srv.key)

    def _cand_update(self, srv: _Server) -> None:
        if srv.key is not None:
            self._cand_remove(srv)
            self._cand_insert(srv)

    # -- queries used by the placement policy ----------------------------------

    def placement_order(self, demand: float,
                        deadline: float) -> Iterator[tuple[int, float, bool]]:
        """(server, reserved rate, needs wake) for each server whose
        committed load plus demand over its time left fits in full speed, in
        scan order: awake ones most-loaded first, ties to the lowest id;
        waking ones alike, from the end of their transition; then wakeable
        sleeping ones by id, from the end of a wake: those whose rack switch,
        or pod's whole aggregation pair, is not falling asleep (it could not
        be woken with them).  Lazy: consume it before the state changes."""
        now = self.clock
        nodes = self.nodes
        window = deadline - now
        if window > 0:
            r = demand / window
            # cands ascends by (committed, -id): walk left from the cut
            cands = self.cands
            for i in range(bisect_right(cands, (1.0 - r + _EPS, 1)) - 1, -1, -1):
                yield -cands[i][1], r, False
            for sid in sorted(self.waking_ids, key=lambda s: (-nodes[s].committed, s)):
                srv = nodes[sid]
                w = deadline - srv.transition_until
                if w > 0 and srv.committed + demand / w <= 1.0 + _EPS:
                    yield sid, demand / w, False
        window = deadline - (now + TRANSITION_SECONDS)
        if window <= 0 or demand / window > 1.0 + _EPS:
            return
        topo = self.topology
        for sid in self.sleeping:
            acc = topo.access_of_server(sid)
            sw = nodes[acc]
            if sw.transition_until is not None and not sw.asleep:
                continue  # rack switch is mid sleep-transition
            if topo.pod_count:
                a, b = topo.aggs_of_pod(topo.pod_of_access(acc))
                if nodes[a].falling_asleep() and nodes[b].falling_asleep():
                    continue
            yield sid, demand / window, True

    def internal_dst(self, job_id: int, src: int) -> int | None:
        """Peer for an internal transfer: a rack sibling when one is awake
        (keeping the exchange off the fabric spine), else any awake server."""
        sibs = [s for s in self.topology.servers_of_access(
                    self.topology.access_of_server(src))
                if s != src and not self.nodes[s].asleep
                and self.nodes[s].transition_until is None]
        if sibs:
            return sibs[splitmix64(job_id) % len(sibs)]
        awake = self.awake_ids
        n = len(awake)
        pos = bisect_left(awake, src)
        present = pos < n and awake[pos] == src
        m = n - 1 if present else n
        if m <= 0:
            return None
        idx = splitmix64(job_id) % m
        if present and idx >= pos:
            idx += 1
        return awake[idx]

    def route(self, src: int, dst: int, salt: int) -> Path:
        """Equal-cost path for a transfer, hashed uniformly; with some
        switches dark, hash over the fully-live paths instead, and fall back
        to the uniform pick when none is live, as for a sleeping candidate
        in placement's congestion test (a transfer's pick is live).  Pure."""
        return self.topology.pick_path(src, dst, splitmix64(salt),
                                       self.switch_live if self.dark_switches else None)

    def spine_sleep_ok(self, nid: int) -> bool:
        """Connectivity rule for powering down an aggregation or core
        switch.  An aggregation switch may sleep only if its pair partner
        stays fully up or every rack switch of its pod is dormant; other
        switches always may (dns_tick never asks for the gateway core)."""
        topo = self.topology
        if topo.roles[nid] != ROLE_AGG:
            return True
        pod = topo.pod_of_agg(nid)
        a, b = topo.aggs_of_pod(pod)
        return (self.switch_live[b if nid == a else a]
                or all(self.nodes[acc].dormant() for acc in topo.racks_of_pod(pod)))

    # -- event plumbing --------------------------------------------------------

    def push(self, t: float, kind: int, a: int, b: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, a, b))


# ---------------------------------------------------------------------------
# compute side
# ---------------------------------------------------------------------------

def _advance_serving(state: SimState, srv: _Server, now: float) -> None:
    """Bring the serving job's remaining compute up to date."""
    if srv.serving is not None:
        dt = now - srv.stamp
        if dt > 0.0:
            jr = state.jobs[srv.serving]
            delta = srv.f * dt
            if delta > jr.rem:
                delta = jr.rem
            jr.rem -= delta
            jr.done_cpu += delta
    srv.stamp = now


def _dvfs_load(state: SimState, srv: _Server, now: float) -> float:
    """Current load signal: sum of remaining-work over time-to-deadline.

    The serving and queued jobs are summed in that order, in place: the
    float sum depends on it.  None of them has finished its compute, and
    the server is awake, so it holds no pending job."""
    jobs = state.jobs
    total = 0.0
    if srv.serving is not None:
        jr = jobs[srv.serving]
        w = jr.job.deadline - now
        if w <= 0.0:
            return 1.0
        total += jr.rem / w
    for _d, jid in srv.queue:
        jr = jobs[jid]
        w = jr.job.deadline - now
        if w <= 0.0:
            return 1.0
        total += jr.rem / w
    return total


def _refresh_setpoint(state: SimState, srv: _Server, now: float) -> None:
    """Re-evaluate the frequency setpoint (no-op unless scaling is enabled).

    The committed reservation density floors the signal.  The live density
    sum alone is unsafe: it is only sampled at events and ticks, and the
    density of a queued job grows as its window shrinks, so a setpoint
    tracking a stale sample can fall behind faster than its headroom
    covers.  Speed >= committed is sufficient by construction, because
    admission never sells more than the full window of any reservation.
    """
    if not state.policy.dvfs_enabled:
        return
    load = max(_dvfs_load(state, srv, now), srv.committed)
    f = dvfs_setpoint(load, state.policy.dvfs_headroom, state.policy.f_min)
    if f == srv.f:
        return
    _advance_serving(state, srv, now)
    rising = f > srv.f
    srv.f = f
    if srv.serving is not None:
        state._set_w(srv, state.sparams.busy_w(f))
        jr = state.jobs[srv.serving]
        end = now + jr.rem / f
        if rising and end < srv.end_t - _EPS:
            srv.epoch += 1
            srv.end_t = end
            state.push(end, EV_COMPUTE_END, srv.id, srv.epoch)
        # on a drop the scheduled event pops early and re-arms itself


def _serve_next(state: SimState, srv: _Server, now: float) -> None:
    """Dispatch the earliest-deadline queued job, or fall back to idle."""
    if srv.queue:
        _d, jid = heapq.heappop(srv.queue)
        srv.serving = jid
        srv.stamp = now
        state.n_serving += 1
        state._set_w(srv, state.sparams.busy_w(srv.f))
        srv.epoch += 1
        srv.end_t = now + state.jobs[jid].rem / srv.f
        state.push(srv.end_t, EV_COMPUTE_END, srv.id, srv.epoch)
    else:
        srv.serving = None
        srv.end_t = float("inf")
        state._set_w(srv, state.sparams.idle_w)
        if srv.quiet():
            srv.idle_since = now


def _enqueue_compute(state: SimState, srv: _Server, jr: _JobRun, now: float) -> None:
    """Add a job's compute phase to a server under preemptive EDF."""
    heapq.heappush(srv.queue, (jr.job.deadline, jr.job.id))
    cur = srv.serving
    if cur is None:
        _refresh_setpoint(state, srv, now)
        _serve_next(state, srv, now)
    elif jr.job.deadline < state.jobs[cur].job.deadline:
        # preempt: the running job rejoins the queue with its remaining work
        _advance_serving(state, srv, now)
        heapq.heappush(srv.queue, (state.jobs[cur].job.deadline, cur))
        state.n_serving -= 1
        srv.serving = None
        _serve_next(state, srv, now)
        _refresh_setpoint(state, srv, now)
    else:
        _refresh_setpoint(state, srv, now)


# ---------------------------------------------------------------------------
# job lifecycle
# ---------------------------------------------------------------------------

def _add_flow(state: SimState, jr: _JobRun, path: Path, nbytes: float) -> None:
    changes = state.net.add(jr.job.id, path, nbytes, state.clock)
    if changes:
        state._price_tiers(changes)
    table = state.nodes
    for nid in path.nodes:
        table[nid].flow_count += 1
    jr.flows_left += 1


def _start_flows(state: SimState, jr: _JobRun) -> None:
    """Route and start a job's transfers.  The internal peer is the one
    placement chose while it stays awake, else one re-resolved now."""
    job = jr.job
    if job.comm_internal_bytes > 0.0:
        dst = jr.dst
        if dst is None or (peer := state.nodes[dst]).asleep or peer.transition_until is not None:
            dst = state.internal_dst(job.id, jr.server)
        if dst is not None:
            _add_flow(state, jr, state.route(jr.server, dst, job.id * 2),
                      job.comm_internal_bytes)
        # with no possible peer the exchange degenerates to a local copy
    if job.comm_external_bytes > 0.0:
        _add_flow(state, jr, state.route(jr.server, state.topology.gateway, job.id * 2 + 1),
                  job.comm_external_bytes)


def _job_piece_done(state: SimState, jr: _JobRun) -> None:
    if jr.compute_done and jr.flows_left == 0 and jr.finish_t is None:
        jr.finish_t = state.clock


def _wake_switch(state: SimState, nid: int) -> None:
    """Start a wake transition for a dormant switch."""
    sw = state.nodes[nid]
    if not sw.dormant():
        return
    sw.transition_until = state.clock + TRANSITION_SECONDS
    state.push(sw.transition_until, EV_TRANSITION, 1, nid)


def _begin_wake(state: SimState, sid: int) -> None:
    """Kick a sleeping server awake, along with its rack switch and, if the
    pod spine has gone fully dark, one aggregation switch.  The switch
    transitions are pushed first so that, on simultaneous completion, the
    uplink path is up before the server's flows start."""
    now = state.clock
    topo = state.topology
    acc = topo.access_of_server(sid)
    _wake_switch(state, acc)
    if topo.pod_count:
        # placement_order keeps one of the pair out of a sleep transition
        pair = [a for a in topo.aggs_of_pod(topo.pod_of_access(acc))
                if not state.nodes[a].falling_asleep()]
        if all(state.nodes[a].dormant() for a in pair):
            _wake_switch(state, pair[0])
    srv = state.nodes[sid]
    i = bisect_left(state.sleeping, sid)
    del state.sleeping[i]
    srv.transition_until = now + TRANSITION_SECONDS
    state.waking_ids.add(sid)
    state.push(srv.transition_until, EV_TRANSITION, 0, sid)


def _handle_arrival(state: SimState, jid: int) -> None:
    jr = state.jobs[jid]
    decision = place(jr.job, state, state.policy)
    if not decision.admit:
        jr.reason = decision.reason
        return
    jr.admitted = True
    jr.server = decision.server
    jr.r = decision.reserved_rate
    jr.dst = decision.internal_dst
    srv = state.nodes[decision.server]
    if decision.needs_wake:
        _begin_wake(state, decision.server)
    srv.committed += jr.r
    srv.reserved += 1
    state._cand_update(srv)      # no-op while the server is not a candidate
    state.push(jr.job.deadline, EV_RELEASE, decision.server, jid)
    if srv.asleep:
        # asleep or waking: the job starts when the wake completes, also
        # when it arrives at the very instant the wake ends
        srv.pending.append(jid)
        return
    _enqueue_compute(state, srv, jr, state.clock)
    _start_flows(state, jr)


def _maybe_release(state: SimState, srv: _Server, jr: _JobRun) -> None:
    """Return a job's reserved density to its server.

    The reservation is held until the deadline has passed *and* the compute
    phase is done.  Holding until the deadline keeps admission sound: the
    work any one server accepts over an interval is then bounded by the
    integral of its committed density, so earliest-deadline-first execution
    cannot overrun (a reservation returned at compute end could be resold
    to a job whose demand overlaps the remaining window of an earlier one).
    """
    if jr.released or not jr.compute_done or state.clock < jr.job.deadline - _EPS:
        return
    jr.released = True
    srv.committed -= jr.r
    srv.reserved -= 1
    if srv.reserved == 0:
        srv.committed = 0.0   # shed float residue while empty
    state._cand_update(srv)


def _handle_compute_end(state: SimState, sid: int, epoch: int) -> None:
    srv = state.nodes[sid]
    now = state.clock
    _advance_serving(state, srv, now)
    jr = state.jobs[srv.serving]
    if jr.rem > 1e-9 * max(jr.job.compute_demand, 1.0):
        # the frequency dropped since this event was scheduled; re-arm
        srv.end_t = now + jr.rem / srv.f
        state.push(srv.end_t, EV_COMPUTE_END, sid, epoch)
        return
    jr.done_cpu += jr.rem
    jr.rem = 0.0
    jr.compute_done = True
    state.n_serving -= 1
    srv.serving = None
    _maybe_release(state, srv, jr)
    _serve_next(state, srv, now)
    _refresh_setpoint(state, srv, now)
    _job_piece_done(state, jr)


def _handle_flow_end(state: SimState, fid: int) -> None:
    """When the flow's bytes are done, its nodes and its job let go of it."""
    now = state.clock
    fl = state.net.finish(fid, now)
    if fl is None:
        return
    table = state.nodes
    for nid in fl.nodes:
        node = table[nid]
        node.flow_count -= 1
        if node.flow_count == 0 and node.quiet():
            node.idle_since = now
    jr = state.jobs[fl.jid]
    jr.flows_left -= 1
    _job_piece_done(state, jr)


def _handle_transition(state: SimState, comp: int, nid: int) -> None:
    now = state.clock
    if comp == 0:
        srv = state.nodes[nid]
        srv.transition_until = None
        if srv.asleep:   # a wake: a sleep starts only while awake
            srv.asleep = False
            state.waking_ids.discard(nid)
            insort(state.awake_ids, nid)
            state._set_w(srv, state.sparams.idle_w)
            srv.f = 1.0
            srv.idle_since = now
            state._cand_insert(srv)
            state._refresh_links(nid)
            pending, srv.pending = srv.pending, []
            for jid in pending:
                jr = state.jobs[jid]
                _enqueue_compute(state, srv, jr, now)
                _start_flows(state, jr)
        else:
            srv.asleep = True
            state._set_w(srv, state.sparams.p_sleep_w)
            insort(state.sleeping, nid)
            state._refresh_links(nid)
    else:
        sw = state.nodes[nid]
        sw.transition_until = None
        if sw.asleep:
            sw.asleep = False
            state._set_w(sw, sw.base_w)
            state.dark_switches -= 1
            state.switch_live[nid] = True
        else:
            sw.asleep = True
            state._set_w(sw, sw.p_sleep_w)
        # port power comes back, or goes, per link flipped
        state._refresh_links(nid)


def _apply_sleeps(state: SimState, requests: list[int]) -> None:
    now = state.clock
    for nid in requests:
        node = state.nodes[nid]
        if node.transition_until is not None or node.asleep or not node.quiet():
            continue
        if node.cls == CLS_SERVER:
            node.transition_until = now + TRANSITION_SECONDS
            i = bisect_left(state.awake_ids, nid)
            del state.awake_ids[i]
            state._cand_remove(node)
            state.push(node.transition_until, EV_TRANSITION, 0, nid)
        # the connectivity rule, always met off the aggregation layer, fails
        # when an earlier request this tick took the partner down
        elif state.spine_sleep_ok(nid):
            node.transition_until = now + TRANSITION_SECONDS
            state.dark_switches += 1
            state.switch_live[nid] = False
            state.push(node.transition_until, EV_TRANSITION, 1, nid)


def _handle_tick(state: SimState) -> None:
    policy = state.policy
    now = state.clock
    if policy.dvfs_enabled:
        changes = state.net.trim(now)
        if changes:
            state._price_tiers(changes)
        for sid in state.awake_ids:
            srv = state.nodes[sid]
            if srv.serving is not None:
                _refresh_setpoint(state, srv, now)
    if policy.dns_enabled:
        _apply_sleeps(state, dns_tick(state, policy, now))


def _sample_stats(state: SimState) -> None:
    state.timeseries.append({
        "t": state.clock,
        "servers_w": state.class_power[CLS_SERVER],
        "core_w": state.class_power[CLS_CORE],
        "aggregation_w": state.class_power[CLS_AGG],
        "access_w": state.class_power[CLS_ACCESS],
        "awake_servers": len(state.awake_ids),
        "serving_servers": state.n_serving,
        "active_flows": len(state.net.flows),
    })


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig, jobs: list[Job] | None = None,
        topology: Topology | None = None, collect_jobs: bool = False):
    """Execute one simulation run and return its report.

    jobs must come in arrival order with distinct ids and finite arrival
    times from 0 on, as generate makes them; a job that breaks any of these
    raises ValueError before the run starts.  Arrivals are taken from their
    own list, latest first from its end, whenever the next one precedes the
    heap's head in (time, sequence) order; every arrival is before the
    horizon, so all of them are taken before SimEnd.  The energy step runs
    in the loop: its sums live in locals and are written back to the state
    when the loop ends."""
    from .report import build_report

    state = SimState(cfg, topology)
    if jobs is None:
        jobs = generate(cfg.effective_workload())
    runs = state.jobs
    last = float("-inf")
    for job in jobs:
        if not 0.0 <= job.arrival < float("inf"):
            raise ValueError(f"job {job.id} arrives at {job.arrival}, not a finite "
                             f"time from 0 on")
        if job.arrival < last:
            raise ValueError(f"job {job.id} arrives at {job.arrival}, "
                             f"before the job ahead of it ({last})")
        if job.id in runs:
            raise ValueError(f"job id {job.id} repeats")
        last = job.arrival
        runs[job.id] = _JobRun(job)
    horizon = cfg.horizon_s
    # heap-shaped entries with sequence numbers 1..N, popped from the end
    arrivals = [(job.arrival, i + 1, EV_ARRIVAL, job.id, 0)
                for i, job in enumerate(jobs) if job.arrival < horizon]
    arrivals.reverse()
    state.offered_jobs = len(arrivals)
    state.seq = len(arrivals) + 1
    state.push(horizon, EV_END, 0, 0)
    if cfg.policy.scheme != "none":
        state.push(0.0, EV_TICK, 0, 0)
    state.push(cfg.policy.stats_interval_s, EV_STATS, 0, 0)
    _sample_stats(state)

    heap = state.heap
    heappop = heapq.heappop
    trace = state.trace.update
    flows, nodes = state.net.flows, state.nodes
    class_power = state.class_power   # updated in place, never rebound
    awake_ids = state.awake_ids       # likewise
    warmup = state.warmup
    tick_s = cfg.policy.tick_interval_s
    stats_s = cfg.policy.stats_interval_s
    clock = state.clock
    # the energy ledger: a compensated (Kahan) sum of watts * dt per class
    l0, l1, l2, l3 = state.ledger_j
    c0 = c1 = c2 = c3 = 0.0
    awake_int = state.awake_integral
    steady_int = state.awake_integral_steady
    serving_int = state.serving_integral
    events = state.events_processed
    while True:
        if arrivals and arrivals[-1] < heap[0]:
            t, _seq, kind, a, b = arrivals.pop()
        else:
            t, _seq, kind, a, b = heappop(heap)
            # stale guards first: skipped entries never touch time or the trace
            if kind == EV_FLOW_END:
                if a not in flows:
                    continue
            elif kind == EV_COMPUTE_END:
                srv = nodes[a]
                if srv.epoch != b or srv.serving is None:
                    continue
            elif kind == EV_RELEASE:
                if runs[b].released:
                    continue
        dt = t - clock
        if dt > 0.0:
            # power changes only at events, so each interval adds power * dt
            p0, p1, p2, p3 = class_power
            y = p0 * dt - c0
            u = l0 + y
            c0 = (u - l0) - y
            l0 = u
            y = p1 * dt - c1
            u = l1 + y
            c1 = (u - l1) - y
            l1 = u
            y = p2 * dt - c2
            u = l2 + y
            c2 = (u - l2) - y
            l2 = u
            y = p3 * dt - c3
            u = l3 + y
            c3 = (u - l3) - y
            l3 = u
            awake = len(awake_ids)
            awake_int += awake * dt
            serving_int += state.n_serving * dt
            if clock + dt > warmup:
                steady_int += awake * (clock + dt - max(clock, warmup))
        state.clock = clock = t
        events += 1
        trace(b"%d|%s|%d|%d\n" % (kind, t.hex().encode(), a, b))
        if kind == EV_ARRIVAL:
            _handle_arrival(state, a)
        elif kind == EV_COMPUTE_END:
            _handle_compute_end(state, a, b)
        elif kind == EV_FLOW_END:
            _handle_flow_end(state, a)
        elif kind == EV_TRANSITION:
            _handle_transition(state, a, b)
        elif kind == EV_TICK:
            _handle_tick(state)
            nxt = t + tick_s
            if nxt < horizon:
                state.push(nxt, EV_TICK, 0, 0)
        elif kind == EV_STATS:
            _sample_stats(state)
            nxt = t + stats_s
            if nxt < horizon:
                state.push(nxt, EV_STATS, 0, 0)
        elif kind == EV_RELEASE:
            _maybe_release(state, nodes[a], runs[b])
        elif kind == EV_END:
            break
    state.ledger_j[:] = (l0, l1, l2, l3)
    state.awake_integral = awake_int
    state.awake_integral_steady = steady_int
    state.serving_integral = serving_int
    state.events_processed = events

    # settle in-flight work at the horizon
    for sid in list(state.awake_ids):
        srv = state.nodes[sid]
        if srv.serving is not None:
            _advance_serving(state, srv, state.clock)
    state.net.settle(state.clock)
    _sample_stats(state)
    return build_report(cfg, state, collect_jobs)
