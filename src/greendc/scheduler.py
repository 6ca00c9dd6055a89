"""Energy-aware job placement and power management policy.

Placement consolidates: the engine's placement query lists the servers
that can still finish the job by its deadline, awake ones most-loaded
first (ties by lowest id), then servers in wake-up, then sleeping ones
lowest id first, wake latency counting against the deadline.  Load is the
sum of admission-time rate reservations (compute demand over
time-to-deadline), so a server's residual capacity is exactly what it can
still promise.  The first listed server wins; data-intensive jobs skip
servers whose selected network paths cross a congested link.

Frequency setpoints track current load with a headroom factor.  The whole
sleep policy is dns_tick: it puts to sleep servers idle past a timeout,
access switches whose whole rack sleeps with no traffic, and aggregation
and non-gateway core switches idle past the timeout.  The engine's
connectivity rule keeps one aggregation switch of every pod with active
racks awake; links of awake switches rate-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .topology import Path
from .workload import DIW, Job

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SimState

SCHEME_NONE = "none"
SCHEME_DVFS = "dvfs"
SCHEME_DNS = "dns"
SCHEME_DVFS_DNS = "dvfs+dns"
SCHEMES = (SCHEME_NONE, SCHEME_DVFS, SCHEME_DNS, SCHEME_DVFS_DNS)


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


def place(job: Job, state: "SimState", policy: SchedulerPolicy) -> PlacementDecision:
    """The first server of the engine's placement order, skipping for a
    data-intensive job those whose paths cross a congested link; or a
    rejection, an SLA violation."""
    check = job.job_class == DIW
    threshold = policy.congestion_threshold
    for server, rate, available_at, needs_wake in state.placement_order(
            job.compute_demand, job.deadline):
        dst = state.internal_dst(job.id, server) if job.comm_internal_bytes > 0 else None
        p_int = state.route(server, dst, job.id * 2) if dst is not None else None
        p_ext = (state.route(server, state.topology.gateway, job.id * 2 + 1)
                 if job.comm_external_bytes > 0 else None)
        if check and any(p is not None and state.path_congested(p, threshold)
                         for p in (p_int, p_ext)):
            continue
        return PlacementDecision(True, server, rate, available_at, needs_wake,
                                 dst, p_int, p_ext)
    return PlacementDecision(False, reason="no feasible server")


def dns_tick(state: "SimState", policy: SchedulerPolicy, now: float) -> list[int]:
    """Node ids due for a sleep request: servers idle past the timeout,
    access switches whose whole rack is asleep with no traffic, then
    aggregation switches and the cores but the gateway (core 0) idle past
    the timeout and allowed by the engine's connectivity rule."""
    requests: list[int] = []
    cutoff = now - policy.idle_timeout_s
    for sid in state.awake_ids:
        srv = state.servers[sid]
        if srv.quiet() and srv.idle_since <= cutoff:
            requests.append(sid)
    topo = state.topology
    live = state.switch_live
    for acc in topo.access_ids:
        sw = state.switches[acc]
        if (live[acc] and sw.rack_sleepers == topo.spec.servers_per_access
                and sw.flow_count == 0):
            requests.append(acc)
    for nid in (*topo.core_ids[1:], *topo.agg_ids):
        sw = state.switches[nid]
        if (live[nid] and sw.flow_count == 0 and sw.idle_since <= cutoff
                and state.spine_sleep_ok(nid)):
            requests.append(nid)
    return requests
