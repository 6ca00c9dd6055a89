"""Discrete-event simulation core.

Events are ordered by (time, sequence), so runs are reproducible to the
bit on any platform.  Servers serve one job at a time under preemptive
earliest-deadline-first at their current frequency setpoint; admission
reserves compute-demand over time-to-deadline, which keeps deadlines safe
at full frequency.  Transfers are flow-level: every active flow gets its
max-min fair share of each directed link it crosses, recomputed whenever
the set of flows or a link capacity changes.  Only the connected component
of flows sharing links with the change is recomputed; allocations outside
it cannot move.

Reservations are the engine's: SimState.placement_order lists the servers
that can take a job, in scan order, and _maybe_release returns them.

Each transfer is routed once.  Its path is an equal-cost path picked by a
hash of the job id; while any switch is dark the pick is made among the
paths whose switches are all up.  Topology.pick_path reads either pick
straight off the fabric's pod and index arithmetic (the live one in the
same order as the full enumeration), with no search or per-root cache.
A job that starts the moment it is placed reuses the paths placement
chose; only a job that waited for a wake, or whose internal peer went
away, is routed again.

Completion events for compute phases and transfers are provisional: a
rate or frequency drop leaves the scheduled event in place and the pop
re-arms from live state, while a rise pushes an earlier event.  Stale
entries are skipped.

Link rate scaling is asymmetric on purpose: a link jumps to its native
rate the moment a flow is routed over it, and is trimmed back toward the
offered load (with headroom) at the periodic management tick.  Demand is
never throttled by a stale low tier, but idle or lightly loaded ports pay
only their scaled power.

Power levels change only at events, so integrating per-component power
between events is exact; sums are compensated.  A component in a mode
transition draws its pre-transition power until the transition completes,
and its links count as up only while both endpoints are awake.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator

from . import fairshare
from .config import ScenarioConfig
from .powermodel import TRANSITION_SECONDS, dvs_rate_tiers, dvs_tier_index, port_power_at_tier
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


class InternalInvariantViolation(RuntimeError):
    """A conservation or capacity invariant broke; the run is invalid."""


class _Server:
    __slots__ = ("id", "asleep", "transition_until", "f", "committed",
                 "key", "queue", "serving", "stamp", "idle_since", "flow_count",
                 "pending", "power_w", "epoch", "end_t", "reserved")

    def __init__(self, sid: int):
        self.id = sid
        self.asleep = False
        self.transition_until: float | None = None
        self.f = 1.0
        self.committed = 0.0
        self.reserved = 0
        self.key: tuple[float, int] | None = None
        self.queue: list[tuple[float, int]] = []   # EDF heap of waiting jobs
        self.serving: int | None = None
        self.stamp = 0.0
        self.idle_since = 0.0
        self.flow_count = 0
        self.pending: list[int] = []               # assigned while waking up
        self.power_w = 0.0
        self.epoch = 0
        self.end_t = float("inf")

    def quiet(self) -> bool:
        return (self.serving is None and not self.queue and not self.pending
                and self.flow_count == 0)


class _Switch:
    __slots__ = ("cls", "asleep", "transition_until", "base_w", "power_w",
                 "flow_count", "rack_sleepers", "p_sleep_w", "idle_since")

    def __init__(self, cls: int, base_w: float, p_sleep_w: float):
        self.cls = cls
        self.asleep = False
        self.transition_until: float | None = None
        self.base_w = base_w
        self.power_w = 0.0
        self.flow_count = 0
        self.rack_sleepers = 0
        self.p_sleep_w = p_sleep_w
        self.idle_since = 0.0


class _Flow:
    __slots__ = ("id", "jid", "res", "nodes", "bytes_left", "done_bytes",
                 "rate", "stamp", "end_t")

    def __init__(self, fid: int, jid: int, res: tuple[int, ...],
                 nodes: tuple[int, ...], nbytes: float):
        self.id = fid
        self.jid = jid
        self.res = res
        self.nodes = nodes
        self.bytes_left = nbytes
        self.done_bytes = 0.0
        self.rate = 0.0
        self.stamp = 0.0
        self.end_t = float("inf")


class _JobRun:
    __slots__ = ("job", "server", "r", "rem", "done_cpu", "compute_done",
                 "flows_left", "admitted", "finish_t", "missed", "reason", "dst",
                 "released")

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
        self.missed = False
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

        # indexed by node id, None at switch ids
        self.servers: list[_Server | None] = [None] * topo.server_ids.start
        self.servers += [_Server(s) for s in topo.server_ids]
        self.awake_ids: list[int] = list(topo.server_ids)
        self.sleeping: list[int] = []
        self.waking_ids: set[int] = set()
        self.cands: list[tuple[float, int]] = sorted((0.0, -s) for s in topo.server_ids)
        for s in topo.server_ids:
            self.servers[s].key = (0.0, -s)

        self.switches: list[_Switch | None] = [None] * topo.n_nodes
        for nid in range(topo.server_ids.start):
            role = topo.roles[nid]
            params = cfg.switch_power[ROLE_NAMES[role]]
            self.switches[nid] = _Switch(_ROLE_TO_CLS[role], params.base_w, params.p_sleep_w)

        # per-link rate tiers, directional capacities and per-end port power
        nlinks = len(topo.links)
        self.link_tiers = [dvs_rate_tiers(ln.rate_bps) for ln in topo.links]
        self.native_idx = len(self.link_tiers[0]) - 1
        self.link_tier_idx = [self.native_idx] * nlinks
        self.link_up = [True] * nlinks
        self.links_down = 0           # links with link_up False
        self.cap = [0.0] * (2 * nlinks)
        self.dir_sum = [0.0] * (2 * nlinks)
        self.dir_flows: list[set[int]] = [set() for _ in range(2 * nlinks)]
        # links whose tier the next rate-scaling pass may move: every link
        # at first, then those a flow was added to or that came back up,
        # and those still carrying flows after the last pass
        self.dvs_pending: set[int] = set(range(nlinks))
        self._port_w: list[list[tuple[int, tuple[float, ...]]]] = []
        for ln in topo.links:
            ends = []
            for nid in (ln.a, ln.b):
                if topo.roles[nid] != ROLE_SERVER:
                    params = cfg.switch_power[ROLE_NAMES[topo.roles[nid]]]
                    watts = tuple(port_power_at_tier(ln.rate_bps, t, params.port_power_by_rate)
                                  for t in self.link_tiers[ln.id])
                    ends.append((nid, watts))
            self._port_w.append(ends)
            self.cap[2 * ln.id] = self.cap[2 * ln.id + 1] = ln.rate_bps

        self.flows: dict[int, _Flow] = {}
        self.next_flow_id = 0
        self.jobs: dict[int, _JobRun] = {}

        # spine sleep structures: which switches may power down and what has
        # to stay up so every placed job keeps a usable route.  The gateway
        # core fronts the external uplink and is never asked to sleep.
        self.dark_switches = 0        # switches not fully up (routing filter)
        # per switch id: fully up, neither asleep nor in a transition.  It
        # flips only where dark_switches moves: a sleep request and a wake
        # completion.
        self.switch_live = [True] * topo.server_ids.start
        self.agg_partner: dict[int, int] = {}
        self.agg_pod: dict[int, int] = {}
        self.pod_of_acc: dict[int, int] = {}
        pods = topo.pod_count
        self.pod_active_racks = [0] * pods
        for p in range(pods):
            a, b = topo.aggs_of_pod(p)
            self.agg_partner[a], self.agg_partner[b] = b, a
            self.agg_pod[a] = self.agg_pod[b] = p
        for acc in topo.access_ids:
            if pods:
                p = topo.pod_of_access(acc)
                self.pod_of_acc[acc] = p
                self.pod_active_racks[p] += 1

        # energy ledger: joules per class, with compensated accumulation
        self.class_power = [0.0, 0.0, 0.0, 0.0]
        self.ledger_j = [0.0, 0.0, 0.0, 0.0]
        self._ledger_c = [0.0, 0.0, 0.0, 0.0]
        self.awake_integral = 0.0
        self.awake_integral_steady = 0.0
        self.serving_integral = 0.0
        self.warmup = 0.25 * cfg.horizon_s
        self.n_serving = 0

        self.offered_jobs = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.missed = 0
        self.censored = 0
        self.admitted_cpu = 0.0
        self.flow_bytes_offered = 0.0
        self.flow_bytes_done = 0.0
        self.flow_bytes_left = 0.0
        self.events_processed = 0
        self.timeseries: list[dict] = []
        self.trace = hashlib.sha256()

        for s in topo.server_ids:
            self._set_server_w(self.servers[s], self.sparams.idle_w)
        for nid in range(topo.server_ids.start):
            sw = self.switches[nid]
            self._set_switch_w(sw, sw.base_w + self._ports_w(nid))

    # -- power bookkeeping ---------------------------------------------------

    def _set_server_w(self, srv: _Server, watts: float) -> None:
        self.class_power[CLS_SERVER] += watts - srv.power_w
        srv.power_w = watts

    def _set_switch_w(self, sw: _Switch, watts: float) -> None:
        self.class_power[sw.cls] += watts - sw.power_w
        sw.power_w = watts

    def _ports_w(self, nid: int) -> float:
        total = 0.0
        for _nbr, lid in self.topology.adj[nid]:
            if self.link_up[lid]:
                for end, watts in self._port_w[lid]:
                    if end == nid:
                        total += watts[self.link_tier_idx[lid]]
        return total

    def _refresh_link_state(self, lid: int) -> None:
        """Re-evaluate link up/down after an endpoint mode flip."""
        ln = self.topology.links[lid]
        up = not self._asleep(ln.a) and not self._asleep(ln.b)
        if up == self.link_up[lid]:
            return
        self.link_up[lid] = up
        self.links_down += -1 if up else 1
        if up:
            self.dvs_pending.add(lid)
        sign = 1.0 if up else -1.0
        idx = self.link_tier_idx[lid]
        for end, watts in self._port_w[lid]:
            sw = self.switches[end]
            if not sw.asleep:
                self._set_switch_w(sw, sw.power_w + sign * watts[idx])

    def _asleep(self, nid: int) -> bool:
        if self.topology.roles[nid] == ROLE_SERVER:
            return self.servers[nid].asleep
        return self.switches[nid].asleep

    def _set_tier(self, lid: int, new_idx: int) -> None:
        old_idx = self.link_tier_idx[lid]
        if new_idx == old_idx:
            return
        self.link_tier_idx[lid] = new_idx
        rate = self.link_tiers[lid][new_idx]
        self.cap[2 * lid] = self.cap[2 * lid + 1] = rate
        if self.link_up[lid]:
            for end, watts in self._port_w[lid]:
                sw = self.switches[end]
                delta = watts[new_idx] - watts[old_idx]
                self._set_switch_w(sw, sw.power_w + delta)

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
                        deadline: float) -> Iterator[tuple[int, float, float, bool]]:
        """(server, reserved rate, available at, needs wake) for each server
        whose committed load plus demand over its time left fits in full
        speed, in scan order: awake ones most-loaded first, ties to the
        lowest id; waking ones alike, from the end of their transition; then
        wakeable sleeping ones by id, from the end of a wake.  Lazy: consume
        it before the state changes."""
        now = self.clock
        window = deadline - now
        if window > 0:
            r = demand / window
            # cands ascends by (committed, -id): walk left from the cut
            cands = self.cands
            for i in range(bisect_right(cands, (1.0 - r + _EPS, 1)) - 1, -1, -1):
                yield -cands[i][1], r, now, False
            servers = self.servers
            for sid in sorted(self.waking_ids, key=lambda s: (-servers[s].committed, s)):
                srv = servers[sid]
                w = deadline - srv.transition_until
                if w > 0 and srv.committed + demand / w <= 1.0 + _EPS:
                    yield sid, demand / w, srv.transition_until, False
        avail = now + TRANSITION_SECONDS
        window = deadline - avail
        if window <= 0 or demand / window > 1.0 + _EPS:
            return
        for sid in self.sleeping:
            sw = self.switches[self.topology.access_of_server(sid)]
            if sw.transition_until is not None and not sw.asleep:
                continue  # rack switch is mid sleep-transition
            yield sid, demand / window, avail, True

    def internal_dst(self, job_id: int, src: int) -> int | None:
        """Peer for an internal transfer: a rack sibling when one is awake
        (keeping the exchange off the fabric spine), else any awake server."""
        sibs = [s for s in self.topology.servers_of_access(
                    self.topology.access_of_server(src))
                if s != src and not self.servers[s].asleep
                and self.servers[s].transition_until is None]
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
        to the uniform pick when none is live.  Pure: the caller decides
        whether to wake anything (see ensure_path_live)."""
        return self.topology.pick_path(src, dst, splitmix64(salt),
                                       self.switch_live if self.dark_switches else None)

    def path_congested(self, path: Path, threshold: float) -> bool:
        nodes = path.nodes
        for u, v, lid in zip(nodes, nodes[1:], path.links):
            dk = 2 * lid + (1 if u > v else 0)
            if self.dir_sum[dk] > threshold * self.cap[dk]:
                return True
        return False

    def ensure_path_live(self, path: Path) -> None:
        """Request wake-up of any stably sleeping switch on the path.  A
        switch caught mid sleep-transition is re-woken when that transition
        completes, because the flow keeps its count above zero."""
        if self.dark_switches == 0:
            return
        roles = self.topology.roles
        for n in path.nodes:
            if roles[n] != ROLE_SERVER:
                sw = self.switches[n]
                if sw.asleep and sw.transition_until is None:
                    _wake_switch(self, n)

    def spine_sleep_ok(self, nid: int) -> bool:
        """Connectivity rule for powering down an aggregation or core
        switch.  An aggregation switch may sleep only if its pod is out of
        active racks or its pair partner stays fully up; other switches
        always may (dns_tick never asks for the gateway core)."""
        pod = self.agg_pod.get(nid)
        if pod is None:
            return True
        if self.pod_active_racks[pod] == 0:
            return True
        return self.switch_live[self.agg_partner[nid]]

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

    The pending, serving and queued jobs are summed in that order, in
    place: the float sum depends on it."""
    jobs = state.jobs
    total = 0.0
    for jid in srv.pending:
        jr = jobs[jid]
        if not jr.compute_done:
            w = jr.job.deadline - now
            if w <= 0.0:
                return 1.0
            total += jr.rem / w
    if srv.serving is not None:
        jr = jobs[srv.serving]
        if not jr.compute_done:
            w = jr.job.deadline - now
            if w <= 0.0:
                return 1.0
            total += jr.rem / w
    for _d, jid in srv.queue:
        jr = jobs[jid]
        if not jr.compute_done:
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
    f = dvfs_setpoint(load, state.policy.dvfs_headroom, state.policy.f_min,
                      state.sparams.f_max)
    if f == srv.f:
        return
    _advance_serving(state, srv, now)
    rising = f > srv.f
    srv.f = f
    if srv.serving is not None:
        state._set_server_w(srv, state.sparams.busy_w(f))
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
        state._set_server_w(srv, state.sparams.busy_w(srv.f))
        srv.epoch += 1
        srv.end_t = now + state.jobs[jid].rem / srv.f
        state.push(srv.end_t, EV_COMPUTE_END, srv.id, srv.epoch)
    else:
        srv.serving = None
        srv.end_t = float("inf")
        state._set_server_w(srv, state.sparams.idle_w)
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
# flow side
# ---------------------------------------------------------------------------

def _advance_flow(state: SimState, fl: _Flow, now: float) -> None:
    dt = now - fl.stamp
    if dt > 0.0 and fl.rate > 0.0:
        delta = fl.rate * dt * 0.125  # bits/s * s -> bytes
        if delta > fl.bytes_left:
            delta = fl.bytes_left
        fl.bytes_left -= delta
        fl.done_bytes += delta
    fl.stamp = now


def _recompute(state: SimState, seed_dirs) -> None:
    """Max-min re-allocation over the affected component, with rescheduling.

    One pass: the component (every flow and directed link reachable from
    the seeds through shared links) is walked once, breadth first.  The
    walk builds the fill's own records as it goes: per directed link, its
    live capacity as the residual, its flow count as the unfrozen count
    and its flow set from dir_flows as the members, and per flow its
    directed links.  Flows crossing a link that is down (an endpoint
    switch asleep or mid transition to sleep) are stalled: they get rate
    zero up front and are taken off their records' counts, so they hold no
    bandwidth elsewhere while they wait for the wake; the scan for them is
    skipped while no link of the component is down.  The flows are
    advanced to now in id order, fairshare.fill runs over the records, and
    new rates are applied and rescheduled in id order.  Every directed
    link of the component is checked against its capacity afterwards.
    """
    flows = state.flows
    dir_flows = state.dir_flows
    cap = state.cap
    records: dict[int, list] = {}   # directed link -> [residual, unfrozen, members]
    queue: list[set[int]] = []
    for d in seed_dirs:
        fids = dir_flows[d]
        if fids and d not in records:
            records[d] = [cap[d], len(fids), fids]
            queue.append(fids)
    if not queue:
        return
    members: dict[int, tuple[int, ...]] = {}   # flow -> its directed links
    for fids in queue:   # queue grows while it is walked, breadth first
        for fid in fids:
            if fid not in members:
                res = members[fid] = flows[fid].res
                for d2 in res:
                    if d2 not in records:
                        f2 = dir_flows[d2]
                        records[d2] = [cap[d2], len(f2), f2]
                        queue.append(f2)
    now = state.clock
    order = sorted(members)
    rates: dict[int, float] = {}
    # every flow's links are among the records, so with none of them down
    # no flow of the component is stalled
    link_up = state.link_up
    if state.links_down and not all(link_up[d >> 1] for d in records):
        for fid in order:
            res = members[fid]
            if not all(link_up[d >> 1] for d in res):
                rates[fid] = 0.0
                for d in res:
                    records[d][1] -= 1
    for fid in order:
        fl = flows[fid]
        # _advance_flow, inlined: this loop runs for every flow of every fill
        dt = now - fl.stamp
        if dt > 0.0 and fl.rate > 0.0:
            delta = fl.rate * dt * 0.125  # bits/s * s -> bytes
            if delta > fl.bytes_left:
                delta = fl.bytes_left
            fl.bytes_left -= delta
            fl.done_bytes += delta
        fl.stamp = now
    dir_sum = state.dir_sum
    rates = fairshare.fill(records, members, rates)
    for fid in order:
        fl = flows[fid]
        new = rates[fid]
        if new != fl.rate:
            diff = new - fl.rate
            for d in fl.res:
                dir_sum[d] += diff
            fl.rate = new
        if new > 0.0:
            end = now + fl.bytes_left * 8.0 / new
            if end < fl.end_t - _EPS:
                fl.end_t = end
                state.push(end, EV_FLOW_END, fid, 0)
            # slower flows keep their event; it pops early and re-arms
    for d in records:
        if dir_sum[d] > cap[d] * (1.0 + 1e-9):
            raise InternalInvariantViolation(
                f"directed link {d} oversubscribed: {dir_sum[d]} > {cap[d]}")


def _touch_endpoints(state: SimState, fl: _Flow, delta: int) -> None:
    """Maintain per-node flow counts (and idle stamps) along a flow's path."""
    now = state.clock
    roles = state.topology.roles
    for node in (fl.nodes[0], fl.nodes[-1]):
        if roles[node] == ROLE_SERVER:
            srv = state.servers[node]
            srv.flow_count += delta
            if delta < 0 and srv.quiet():
                srv.idle_since = now
    for node in fl.nodes:
        if roles[node] != ROLE_SERVER:
            sw = state.switches[node]
            sw.flow_count += delta
            if delta < 0 and sw.flow_count == 0:
                sw.idle_since = now


def _add_flow(state: SimState, jr: _JobRun, path: Path, nbytes: float) -> None:
    fid = state.next_flow_id
    state.next_flow_id += 1
    nodes = path.nodes
    res = tuple(2 * lid + (1 if u > v else 0)
                for u, v, lid in zip(nodes, nodes[1:], path.links))
    fl = _Flow(fid, jr.job.id, res, nodes, nbytes)
    fl.stamp = state.clock
    state.flows[fid] = fl
    for lid in path.links:
        # demand brings a scaled-down link straight back to native rate;
        # the management tick trims it again once the burst has passed
        if state.link_tier_idx[lid] != state.native_idx:
            state._set_tier(lid, state.native_idx)
        state.dvs_pending.add(lid)
    for d in res:
        state.dir_flows[d].add(fid)
    _touch_endpoints(state, fl, +1)
    jr.flows_left += 1
    state.flow_bytes_offered += nbytes
    _recompute(state, fl.res)


def _remove_flow(state: SimState, fl: _Flow) -> None:
    for d in fl.res:
        state.dir_flows[d].discard(fl.id)
        state.dir_sum[d] -= fl.rate
    fl.rate = 0.0
    del state.flows[fl.id]
    _touch_endpoints(state, fl, -1)
    state.flow_bytes_done += fl.done_bytes
    _recompute(state, fl.res)


# ---------------------------------------------------------------------------
# job lifecycle
# ---------------------------------------------------------------------------

def _start_flows(state: SimState, jr: _JobRun, path_int: Path | None = None,
                 path_ext: Path | None = None) -> None:
    """Start a job's transfers over the given paths, routing any not given.

    A job that starts the moment it is placed passes the placement's paths:
    nothing in between changes switch liveness (a wake request only starts
    a transition on a switch that is already dark), so routing again would
    pick the same ones.  A job that waited for a wake is routed afresh."""
    job = jr.job
    if job.comm_internal_bytes > 0.0:
        dst = jr.dst
        if dst is not None:
            d = state.servers[dst]
            if d.asleep or d.transition_until is not None:
                dst = None
        if dst is None:
            # the placement-time peer went away; re-resolve among awake servers
            dst = state.internal_dst(job.id, jr.server)
            path_int = None
        if dst is not None:
            if path_int is None:
                path_int = state.route(jr.server, dst, job.id * 2)
            state.ensure_path_live(path_int)
            _add_flow(state, jr, path_int, job.comm_internal_bytes)
        # with no possible peer the exchange degenerates to a local copy
    if job.comm_external_bytes > 0.0:
        if path_ext is None:
            path_ext = state.route(jr.server, state.topology.gateway, job.id * 2 + 1)
        state.ensure_path_live(path_ext)
        _add_flow(state, jr, path_ext, job.comm_external_bytes)


def _job_piece_done(state: SimState, jr: _JobRun) -> None:
    if jr.compute_done and jr.flows_left == 0 and jr.finish_t is None:
        now = state.clock
        jr.finish_t = now
        if now > jr.job.deadline + 1e-9:
            jr.missed = True
            state.missed += 1
        else:
            state.completed += 1


def _wake_switch(state: SimState, nid: int) -> None:
    """Start a wake transition for a stably sleeping switch."""
    sw = state.switches[nid]
    if not sw.asleep or sw.transition_until is not None:
        return
    sw.transition_until = state.clock + TRANSITION_SECONDS
    pod = state.pod_of_acc.get(nid)
    if pod is not None:
        state.pod_active_racks[pod] += 1
    state.push(sw.transition_until, EV_TRANSITION, 1, nid)


def _begin_wake(state: SimState, sid: int) -> None:
    """Kick a sleeping server awake, along with its rack switch and, if the
    pod spine has gone fully dark, one aggregation switch.  The switch
    transitions are pushed first so that, on simultaneous completion, the
    uplink path is up before the server's flows start."""
    now = state.clock
    topo = state.topology
    acc = topo.access_of_server(sid)
    sw = state.switches[acc]
    _wake_switch(state, acc)
    if topo.pod_count:
        pod = state.pod_of_acc[acc]
        pair = topo.aggs_of_pod(pod)
        if not any(state.switch_live[a]
                   or (state.switches[a].asleep
                       and state.switches[a].transition_until is not None)
                   for a in pair):
            for a in pair:
                if state.switches[a].asleep and state.switches[a].transition_until is None:
                    _wake_switch(state, a)
                    break
    srv = state.servers[sid]
    i = bisect_left(state.sleeping, sid)
    del state.sleeping[i]
    sw.rack_sleepers -= 1
    srv.transition_until = now + TRANSITION_SECONDS
    state.waking_ids.add(sid)
    state.push(srv.transition_until, EV_TRANSITION, 0, sid)


def _handle_arrival(state: SimState, jid: int) -> None:
    jr = state.jobs[jid]
    decision = place(jr.job, state, state.policy)
    if not decision.admit:
        state.rejected += 1
        jr.reason = decision.reason
        return
    state.admitted += 1
    state.admitted_cpu += jr.job.compute_demand
    jr.admitted = True
    jr.server = decision.server
    jr.r = decision.reserved_rate
    jr.dst = decision.internal_dst
    srv = state.servers[decision.server]
    if decision.needs_wake:
        _begin_wake(state, decision.server)
    srv.committed += jr.r
    srv.reserved += 1
    state._cand_update(srv)      # no-op while the server is not a candidate
    now = state.clock
    state.push(jr.job.deadline, EV_RELEASE, decision.server, jid)
    if decision.available_at > now:
        srv.pending.append(jid)
        return
    _enqueue_compute(state, srv, jr, now)
    _start_flows(state, jr, decision.path_internal, decision.path_external)


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
    srv = state.servers[sid]
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
    fl = state.flows[fid]
    now = state.clock
    _advance_flow(state, fl, now)
    if fl.bytes_left > 1e-6:
        if fl.rate > 0.0:
            # the rate dropped since this event was scheduled; re-arm
            fl.end_t = now + fl.bytes_left * 8.0 / fl.rate
            state.push(fl.end_t, EV_FLOW_END, fid, 0)
        else:
            # stalled on a dark path; the wake-completion recompute pushes
            # a fresh event, which must beat this sentinel
            fl.end_t = float("inf")
        return
    fl.done_bytes += fl.bytes_left
    fl.bytes_left = 0.0
    jr = state.jobs[fl.jid]
    _remove_flow(state, fl)
    jr.flows_left -= 1
    _job_piece_done(state, jr)


def _handle_transition(state: SimState, comp: int, nid: int) -> None:
    now = state.clock
    topo = state.topology
    if comp == 0:
        srv = state.servers[nid]
        srv.transition_until = None
        if srv.asleep:   # a wake: a sleep starts only while awake
            srv.asleep = False
            state.waking_ids.discard(nid)
            insort(state.awake_ids, nid)
            state._set_server_w(srv, state.sparams.idle_w)
            srv.f = 1.0
            srv.idle_since = now
            state._cand_insert(srv)
            for _nbr, lid in topo.adj[nid]:
                state._refresh_link_state(lid)
            pending, srv.pending = srv.pending, []
            for jid in pending:
                jr = state.jobs[jid]
                _enqueue_compute(state, srv, jr, now)
                _start_flows(state, jr)
        else:
            srv.asleep = True
            state._set_server_w(srv, state.sparams.p_sleep_w)
            insort(state.sleeping, nid)
            state.switches[topo.access_of_server(nid)].rack_sleepers += 1
            for _nbr, lid in topo.adj[nid]:
                state._refresh_link_state(lid)
    else:
        sw = state.switches[nid]
        sw.transition_until = None
        if sw.asleep:
            sw.asleep = False
            state._set_switch_w(sw, sw.base_w)
            state.dark_switches -= 1
            state.switch_live[nid] = True
            for _nbr, lid in topo.adj[nid]:
                state._refresh_link_state(lid)   # re-adds port power per up link
            # flows that stalled on this switch's links can move again
            dirs = [d for _nbr, lid in topo.adj[nid]
                    for d in (2 * lid, 2 * lid + 1) if state.dir_flows[d]]
            if dirs:
                _recompute(state, dirs)
        else:
            sw.asleep = True
            state._set_switch_w(sw, sw.p_sleep_w)
            pod = state.pod_of_acc.get(nid)
            if pod is not None:
                state.pod_active_racks[pod] -= 1
            for _nbr, lid in topo.adj[nid]:
                state._refresh_link_state(lid)
            if sw.flow_count:
                # traffic was mapped here while the shutdown was in motion;
                # turn straight back on
                _wake_switch(state, nid)


def _apply_sleeps(state: SimState, requests: list[int]) -> None:
    now = state.clock
    roles = state.topology.roles
    for nid in requests:
        if roles[nid] == ROLE_SERVER:
            srv = state.servers[nid]
            if srv.transition_until is not None or srv.asleep or not srv.quiet():
                continue
            srv.transition_until = now + TRANSITION_SECONDS
            i = bisect_left(state.awake_ids, nid)
            del state.awake_ids[i]
            state._cand_remove(srv)
            state.push(srv.transition_until, EV_TRANSITION, 0, nid)
        else:
            sw = state.switches[nid]
            if sw.transition_until is not None or sw.asleep or sw.flow_count:
                continue
            if not state.spine_sleep_ok(nid):   # always True off the aggregation layer
                continue   # an earlier request this tick took the partner down
            sw.transition_until = now + TRANSITION_SECONDS
            state.dark_switches += 1
            state.switch_live[nid] = False
            state.push(sw.transition_until, EV_TRANSITION, 1, nid)


def _dvs_pass(state: SimState) -> None:
    """Trim link rates toward offered load; raises happen at flow arrival.

    Only the links in dvs_pending are visited, in link id order: those
    carrying flows at the last pass, those a flow was added to since and
    those that came back up since.  Any other link has carried no flow
    since a pass set it to its target tier, so its offered load, its tier
    and that target are all unchanged; a scan of every powered link would
    leave it alone too.  Idle links settle to the bottom tier, which is
    where most of the transceiver saving comes from.  Afterwards only the
    links still carrying flows stay pending."""
    touched: list[int] = []
    link_up = state.link_up
    link_tiers = state.link_tiers
    tier_idx = state.link_tier_idx
    dir_sum = state.dir_sum
    dir_flows = state.dir_flows
    for lid in sorted(state.dvs_pending):
        if not link_up[lid]:
            continue
        # subtraction residue can leave a drained direction at ~-1e-13
        offered = max(dir_sum[2 * lid], dir_sum[2 * lid + 1], 0.0)
        new_idx = dvs_tier_index(offered, link_tiers[lid])
        if new_idx != tier_idx[lid]:
            state._set_tier(lid, new_idx)
            if dir_flows[2 * lid] or dir_flows[2 * lid + 1]:
                touched.append(2 * lid)
                touched.append(2 * lid + 1)
    state.dvs_pending = {lid for lid in state.dvs_pending
                         if dir_flows[2 * lid] or dir_flows[2 * lid + 1]}
    if touched:
        _recompute(state, touched)


def _handle_tick(state: SimState) -> None:
    policy = state.policy
    now = state.clock
    if policy.dvfs_enabled:
        _dvs_pass(state)
        for sid in state.awake_ids:
            srv = state.servers[sid]
            if srv.serving is not None:
                _refresh_setpoint(state, srv, now)
    if policy.dns_enabled:
        _apply_sleeps(state, dns_tick(state, policy, now))


def integrate_energy(state: SimState, dt: float) -> None:
    """Accumulate class power over dt into the energy ledger."""
    if dt <= 0.0:
        return
    # compensated (Kahan) sums, one per class
    ledger = state.ledger_j
    comp = state._ledger_c
    for k, watts in enumerate(state.class_power):
        y = watts * dt - comp[k]
        t = ledger[k] + y
        comp[k] = (t - ledger[k]) - y
        ledger[k] = t
    t0 = state.clock
    awake = len(state.awake_ids)
    state.awake_integral += awake * dt
    state.serving_integral += state.n_serving * dt
    if t0 + dt > state.warmup:
        state.awake_integral_steady += awake * (t0 + dt - max(t0, state.warmup))


def _sample_stats(state: SimState) -> None:
    state.timeseries.append({
        "t": state.clock,
        "servers_w": state.class_power[CLS_SERVER],
        "core_w": state.class_power[CLS_CORE],
        "aggregation_w": state.class_power[CLS_AGG],
        "access_w": state.class_power[CLS_ACCESS],
        "awake_servers": len(state.awake_ids),
        "serving_servers": state.n_serving,
        "active_flows": len(state.flows),
    })


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig, jobs: list[Job] | None = None,
        topology: Topology | None = None, collect_jobs: bool = False):
    """Execute one simulation run and return its report."""
    from .report import build_report

    state = SimState(cfg, topology)
    if jobs is None:
        jobs = generate(cfg.effective_workload())
    for job in jobs:
        state.jobs[job.id] = _JobRun(job)
    offered = [(job.arrival, i + 1, EV_ARRIVAL, job.id, 0)
               for i, job in enumerate(jobs) if job.arrival < cfg.horizon_s]
    state.offered_jobs = len(offered)
    state.seq = len(offered) + 1
    state.heap = offered            # already time-ordered, a valid heap
    state.push(cfg.horizon_s, EV_END, 0, 0)
    if cfg.policy.scheme != "none":
        state.push(0.0, EV_TICK, 0, 0)
    state.push(cfg.policy.stats_interval_s, EV_STATS, 0, 0)
    _sample_stats(state)

    heap = state.heap
    trace = state.trace
    while heap:
        t, _seq, kind, a, b = heapq.heappop(heap)
        # stale guards first: skipped entries never touch time or the trace
        if kind == EV_FLOW_END:
            if a not in state.flows:
                continue
        elif kind == EV_COMPUTE_END:
            srv = state.servers[a]
            if srv.epoch != b or srv.serving is None:
                continue
        elif kind == EV_RELEASE:
            if state.jobs[b].released:
                continue
        integrate_energy(state, t - state.clock)
        state.clock = t
        state.events_processed += 1
        trace.update(b"%d|%s|%d|%d\n" % (kind, t.hex().encode(), a, b))
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
            nxt = t + cfg.policy.tick_interval_s
            if nxt < cfg.horizon_s:
                state.push(nxt, EV_TICK, 0, 0)
        elif kind == EV_STATS:
            _sample_stats(state)
            nxt = t + cfg.policy.stats_interval_s
            if nxt < cfg.horizon_s:
                state.push(nxt, EV_STATS, 0, 0)
        elif kind == EV_RELEASE:
            _maybe_release(state, state.servers[a], state.jobs[b])
        elif kind == EV_END:
            break

    # settle in-flight work at the horizon; a job still running counts as
    # missed only once its deadline has actually passed
    for sid in list(state.awake_ids):
        srv = state.servers[sid]
        if srv.serving is not None:
            _advance_serving(state, srv, state.clock)
    for fl in state.flows.values():
        _advance_flow(state, fl, state.clock)
        state.flow_bytes_done += fl.done_bytes
        state.flow_bytes_left += fl.bytes_left
    for jr in state.jobs.values():
        if jr.admitted and jr.finish_t is None:
            if jr.job.deadline <= state.clock:
                jr.missed = True
                state.missed += 1
            else:
                state.censored += 1
    _sample_stats(state)
    return build_report(cfg, state, collect_jobs)
