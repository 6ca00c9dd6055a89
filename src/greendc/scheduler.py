"""Energy-aware job placement and power management policy.

Placement consolidates: the engine's placement query lists the servers
that can still finish the job by its deadline, awake ones most-loaded
first (ties by lowest id), then servers in wake-up, then sleeping ones
lowest id first, wake latency counting against the deadline, unless their
rack switch or whole aggregation pair is falling asleep.  Load is the
sum of admission-time rate reservations (compute demand over
time-to-deadline), so a server's residual capacity is exactly what it can
still promise.  The first listed server wins; data-intensive jobs skip
servers whose transfers would be routed over a congested link, a test
that is one engine query.  The decision names the server and whether it
must be woken, not peers or paths: the engine picks and routes them.
When the job starts is not the decision's either: the engine holds it while
the server is asleep or waking, and starts it when the wake completes.

Frequency setpoints track current load with a headroom factor.  The whole
sleep policy is dns_tick: it puts to sleep servers idle past a timeout,
access switches with no traffic whose servers are all dormant (asleep,
no wake under way), and aggregation and non-gateway core switches idle
past the timeout.  The engine's connectivity rule keeps one aggregation
switch of every pod with active racks awake, so a transfer always finds
live switches; links of awake switches rate-scale.  dns_tick reads each
node's mode, flows and idle stamp off the engine's node table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    stats_interval_s: float = 1.0

    def __post_init__(self) -> None:
        # written so that a NaN fails each range test
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not 0.0 < self.congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be a finite number in (0, 1]")
        if not (0.0 <= self.idle_timeout_s < math.inf and 0.0 <= self.dvfs_headroom < math.inf):
            raise ValueError("idle_timeout_s and dvfs_headroom must be finite and >= 0")
        if not 0.0 < self.f_min <= 1.0:
            raise ValueError("f_min must be a finite number in (0, 1]")
        if not (0.0 < self.tick_interval_s < math.inf and 0.0 < self.stats_interval_s < math.inf):
            raise ValueError("intervals must be finite and positive")

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
    needs_wake: bool = False
    reason: str = "ok"


def dvfs_setpoint(server_load: float, headroom: float, f_min: float = 0.1) -> float:
    """Lowest frequency that covers the load with the given headroom, as a
    fraction of full speed (1.0, the speed compute demand is measured at)."""
    if server_load < 0:
        raise ValueError("server_load must be non-negative")
    return min(1.0, max(f_min, server_load * (1.0 + headroom)))


def place(job: Job, state: "SimState", policy: SchedulerPolicy) -> PlacementDecision:
    """The first server of the engine's placement order, skipping for a
    data-intensive job those whose transfers would cross a congested link;
    or a rejection, an SLA violation."""
    check = job.job_class == DIW
    threshold = policy.congestion_threshold
    for server, rate, needs_wake in state.placement_order(job.compute_demand, job.deadline):
        if check and state.transfers_congested(job, server, threshold):
            continue
        return PlacementDecision(True, server, rate, needs_wake)
    return PlacementDecision(False, reason="no feasible server")


def dns_tick(state: "SimState", policy: SchedulerPolicy, now: float) -> list[int]:
    """Node ids due for a sleep request: servers idle past the timeout,
    access switches whose whole rack is asleep with no traffic, then
    aggregation switches and the cores but the gateway (core 0) idle past
    the timeout.  The engine applies its connectivity rule to each request
    as it starts the sleeps."""
    requests: list[int] = []
    cutoff = now - policy.idle_timeout_s
    nodes = state.nodes
    for sid in state.awake_ids:
        srv = nodes[sid]
        if srv.quiet() and srv.idle_since <= cutoff:
            requests.append(sid)
    topo = state.topology
    live = state.switch_live
    for acc in topo.access_ids:
        if live[acc] and nodes[acc].flow_count == 0:
            for sid in topo.servers_of_access(acc):
                if not nodes[sid].dormant():
                    break
            else:
                requests.append(acc)
    for nid in (*topo.core_ids[1:], *topo.agg_ids):
        sw = nodes[nid]
        if live[nid] and sw.flow_count == 0 and sw.idle_since <= cutoff:
            requests.append(nid)
    return requests
