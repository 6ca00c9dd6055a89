"""Energy-aware job placement and power management policy.

Placement consolidates: awake servers are scanned most-loaded first (ties
by lowest id) and the first server that can still finish the job by its
deadline wins.  Load is the sum of admission-time rate reservations
(compute demand over time-to-deadline), so a server's residual capacity is
exactly what it can still promise.  Data-intensive jobs additionally skip
servers whose selected network paths cross a congested link.  If no awake
server fits, a server in wake-up gets a chance, then the lowest-numbered
sleeping server is woken; wake latency counts against the deadline.

Frequency setpoints track current load with a headroom factor, and the
sleep policy (dns_tick) puts to sleep servers idle past a timeout, access
switches whose whole rack sleeps with no traffic, and core and aggregation
switches idle past the timeout (sleepable_spine).  The engine's
connectivity rule keeps one aggregation switch of every pod with active
racks and the gateway core awake; links of awake switches rate-scale.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .powermodel import TRANSITION_SECONDS
from .topology import Path
from .workload import DIW, Job

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SimState

SCHEME_NONE = "none"
SCHEME_DVFS = "dvfs"
SCHEME_DNS = "dns"
SCHEME_DVFS_DNS = "dvfs+dns"
SCHEMES = (SCHEME_NONE, SCHEME_DVFS, SCHEME_DNS, SCHEME_DVFS_DNS)

_FEAS_EPS = 1e-12


@dataclass(frozen=True)
class SchedulerPolicy:
    scheme: str = SCHEME_NONE
    congestion_threshold: float = 0.9
    idle_timeout_s: float = 0.5
    dvfs_headroom: float = 0.1
    f_min: float = 0.1
    tick_interval_s: float = 0.25
    stats_interval_s: float = 60.0

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not 0.0 < self.congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be in (0, 1]")
        if self.idle_timeout_s < 0 or self.dvfs_headroom < 0:
            raise ValueError("idle_timeout_s and dvfs_headroom must be >= 0")
        if not 0.0 < self.f_min <= 1.0:
            raise ValueError("f_min must be in (0, 1]")
        if self.tick_interval_s <= 0 or self.stats_interval_s <= 0:
            raise ValueError("intervals must be positive")

    @property
    def dvfs_enabled(self) -> bool:
        return self.scheme in (SCHEME_DVFS, SCHEME_DVFS_DNS)

    @property
    def dns_enabled(self) -> bool:
        return self.scheme in (SCHEME_DNS, SCHEME_DVFS_DNS)


@dataclass
class PlacementDecision:
    admit: bool
    server: int | None = None
    reserved_rate: float = 0.0
    available_at: float = 0.0
    needs_wake: bool = False
    internal_dst: int | None = None
    path_internal: Path | None = None
    path_external: Path | None = None
    reason: str = "ok"


def dvfs_setpoint(server_load: float, headroom: float, f_min: float = 0.1,
                  f_max: float = 1.0) -> float:
    """Lowest frequency that covers the load with the given headroom."""
    if server_load < 0:
        raise ValueError("server_load must be non-negative")
    return min(f_max, max(f_min, server_load * (1.0 + headroom)))


def _paths_for(state: "SimState", job: Job, server: int) -> tuple[int | None, Path | None, Path | None]:
    dst = state.internal_dst(job.id, server) if job.comm_internal_bytes > 0 else None
    p_int = state.route(server, dst, job.id * 2) if dst is not None else None
    p_ext = (state.route(server, state.topology.gateway, job.id * 2 + 1)
             if job.comm_external_bytes > 0 else None)
    return dst, p_int, p_ext


def _decide(state: "SimState", job: Job, server: int, r: float, avail: float,
            needs_wake: bool, check_congestion: bool, threshold: float) -> PlacementDecision | None:
    dst, p_int, p_ext = _paths_for(state, job, server)
    if check_congestion:
        for p in (p_int, p_ext):
            if p is not None and state.path_congested(p, threshold):
                return None
    return PlacementDecision(True, server, r, avail, needs_wake, dst, p_int, p_ext)


def place(job: Job, state: "SimState", policy: SchedulerPolicy) -> PlacementDecision:
    """Pick a server for the job, or reject it as an SLA violation."""
    now = state.clock
    window = job.deadline - now
    diw = job.job_class == DIW
    thr = policy.congestion_threshold
    if window > 0:
        r = job.compute_demand / window
        limit = 1.0 - r + _FEAS_EPS
        # awake servers, most-loaded first; the candidate list is ascending
        # by (committed, -id) so walking left from the cut point visits
        # feasible servers in scan order
        cands = state.cands
        i = bisect_right(cands, (limit, 1)) - 1
        while i >= 0:
            committed, negid = cands[i]
            dec = _decide(state, job, -negid, r, now, False, diw, thr)
            if dec is not None:
                return dec
            i -= 1
        # servers already waking up: available when their transition ends
        waking = sorted(state.waking_ids,
                        key=lambda s: (-state.servers[s].committed, s))
        for sid in waking:
            srv = state.servers[sid]
            w = job.deadline - srv.transition_until
            if w <= 0:
                continue
            rw = job.compute_demand / w
            if srv.committed + rw <= 1.0 + _FEAS_EPS:
                dec = _decide(state, job, sid, rw, srv.transition_until, False, diw, thr)
                if dec is not None:
                    return dec
    # wake the lowest-numbered sleeping server
    ws = job.deadline - (now + TRANSITION_SECONDS)
    if ws > 0:
        rs = job.compute_demand / ws
        if rs <= 1.0 + _FEAS_EPS:
            for sid in state.sleeping_ids():
                dec = _decide(state, job, sid, rs, now + TRANSITION_SECONDS, True, diw, thr)
                if dec is not None:
                    return dec
    return PlacementDecision(False, reason="no feasible server")


def dns_tick(state: "SimState", policy: SchedulerPolicy, now: float) -> list[int]:
    """Node ids due for a sleep request: servers idle past the timeout,
    access switches whose whole rack is asleep with no traffic, and spine
    switches that have been idle past the timeout and are safe to lose
    (the engine's connectivity rule keeps one aggregation switch per
    active pod and the gateway core up)."""
    requests: list[int] = []
    cutoff = now - policy.idle_timeout_s
    for sid in state.awake_ids:
        srv = state.servers[sid]
        if srv.quiet() and srv.idle_since <= cutoff:
            requests.append(sid)
    topo = state.topology
    for acc in topo.access_ids:
        sw = state.switches[acc]
        if sw.asleep or sw.transition_until is not None:
            continue
        if (sw.rack_sleepers == topo.spec.servers_per_access
                and sw.flow_count == 0):
            requests.append(acc)
    requests += state.sleepable_spine(cutoff)
    return requests
