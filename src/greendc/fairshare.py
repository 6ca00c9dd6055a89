"""Flow-level network: max-min fair rates over directed links that scale
their rate and go dark.

Every flow gets its max-min fair share of each directed link (resource) it
crosses: all unfrozen flows rise together until some resource saturates,
its flows freeze at the waterline and the rest keep rising (Bertsekas &
Gallager, *Data Networks*, 6.5).  One fill, `fill`, runs over one record
per resource: residual capacity, unfrozen flow count and member flows.
`allocate` builds the records from plain mappings; FlowNet's component
walk builds them as it goes.  Each step takes the tightest share over the
records still counting an unfrozen flow, charges it to them, freezes the
flows of those it saturates and drops the records left without one.  No
float depends on record order, so rates equal those of a fill rescanning
all resources in id order, to the bit.

FlowNet holds one fabric's flows and what they share: per-direction
capacities, rate sums and flow sets, link up states and rate tiers.  A
flow's directed links come with its path (Path.dirs).  A change re-fills
only the component of flows sharing links with it; a component of one
flow takes the fill's one-flow rate, the smallest capacity on its path.
A job's transfers start together, in one refill, so none has an end
pushed at a rate it holds for no time.  End events are provisional: a
rate drop leaves one in place to re-arm when it pops, a rise pushes an
earlier one.  A link jumps to native rate when a transfer is routed over
it, and that refill covers the flows going either way over it; it is
trimmed toward its offered load (with headroom) at the management tick,
so idle ports pay only their scaled power.  A rate that rises between
ticks with no new transfer on the link can meet its trimmed tier until
the next trim.  The network reports each tier change and each link flip
in one form; pricing them is the caller's.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

from .powermodel import dvs_rate_tiers, dvs_tier_index
from .topology import Path, Topology

_EPS = 1e-12


class InternalInvariantViolation(RuntimeError):
    """A conservation or capacity invariant broke; the run is invalid."""


def fill(records: Mapping, flow_resources: Mapping[int, Sequence[int]]) -> dict:
    """Progressive filling over prepared resource records.

    records maps resource id -> [residual, unfrozen, members]: residual
    starts at the resource's capacity (> 0), members holds every flow
    crossing the resource and unfrozen counts them.  flow_resources maps
    every member flow to the resources it crosses.  The records' residuals
    and counts are used up; the member collections are only read.  Returns
    flow id -> rate for every member flow.
    """
    rates: dict = {}
    live = [rec for rec in records.values() if rec[1]]
    level = 0.0
    while live:
        # next waterline increment: tightest residual share
        step = min([rec[0] / rec[1] for rec in live])
        level += step
        tol = step * 1e-12 + 1e-15
        saturated = []
        for rec in live:
            left = rec[0] - step * rec[1]
            if left <= tol:
                saturated.append(rec)
            else:
                rec[0] = left
        for rec in saturated:
            for fid in rec[2]:
                if fid not in rates:
                    rates[fid] = level
                    for rid in flow_resources[fid]:
                        records[rid][1] -= 1
            if rec[1]:
                # it would stay live at a residual it never charges, forever
                raise ValueError("a saturated resource counts more unfrozen "
                                 "flows than its members hold")
        if saturated:
            live = [rec for rec in live if rec[1]]
    return rates


def allocate(flow_resources: Mapping[int, Sequence[int]],
             capacity: Mapping[int, float] | Sequence[float]) -> dict[int, float]:
    """Max-min fair rates for elastic flows over capacitated resources.

    flow_resources maps flow id -> the distinct resource ids the flow
    crosses (at least one).  capacity maps resource id -> capacity; it may
    be a sequence indexed by resource id, and only the resources some flow
    crosses are read, each of which must have capacity > 0.  Returns flow
    id -> rate.
    """
    members: dict[int, list[int]] = {}
    for fid in sorted(flow_resources):
        res = flow_resources[fid]
        if not res:
            raise ValueError(f"flow {fid} crosses no resources")
        for rid in res:
            fids = members.get(rid)
            if fids is None:
                members[rid] = [fid]
            else:
                fids.append(fid)
    records: dict[int, list] = {}
    for rid in sorted(members):
        cap = float(capacity[rid])
        if cap <= 0:
            raise ValueError(f"resource {rid} has non-positive capacity")
        fids = members[rid]
        records[rid] = [cap, len(fids), fids]
    return fill(records, flow_resources)


class _Flow:
    __slots__ = ("jid", "res", "nodes", "bytes_left", "done_bytes", "rate", "stamp", "end_t")

    def __init__(self, jid: int, res: tuple[int, ...], nodes: tuple[int, ...],
                 nbytes: float, now: float):
        self.jid = jid
        self.res = res
        self.nodes = nodes
        self.bytes_left = nbytes
        self.done_bytes = 0.0
        self.rate = 0.0
        self.stamp = now
        self.end_t = float("inf")

    def advance(self, now: float) -> None:
        """Move the flow's bytes on to now at its current rate."""
        dt = now - self.stamp
        if dt > 0.0:
            delta = self.rate * dt * 0.125  # bits/s * s -> bytes
            if delta > self.bytes_left:
                delta = self.bytes_left
            self.bytes_left -= delta
            self.done_bytes += delta
        self.stamp = now


class FlowNet:
    """The flows over one fabric's links, their max-min rates, and the
    links' rate tiers and up states.  Directed link 2 * lid runs from the
    link's lower node id to its higher one, 2 * lid + 1 back.  A flow's end
    is scheduled on the caller's queue as push(t, end_kind, flow id, 0).
    No flow ever crosses a down link, so every rate is positive: add
    refuses a path over one and set_link a link going down under a flow."""

    def __init__(self, topology: Topology, push: Callable[[float, int, int, int], None],
                 end_kind: int):
        links = topology.links
        nlinks = len(links)
        tiers_of = cache(dvs_rate_tiers)
        self.link_tiers = [tiers_of(ln.rate_bps) for ln in links]
        self.native_idx = len(self.link_tiers[0]) - 1
        self.link_tier_idx = [self.native_idx] * nlinks
        self.link_up = [True] * nlinks
        self.cap = [ln.rate_bps for ln in links for _ in (0, 1)]
        self.dir_sum = [0.0] * (2 * nlinks)
        # flow set per direction, from its first flow on (fill records hold it)
        self.dir_flows: list[set[int] | None] = [None] * (2 * nlinks)
        # links whose tier the next trim may move: all at first, then those
        # carrying flows at the last trim, or added to or back up since
        self.dvs_pending: set[int] = set(range(nlinks))
        self.flows: dict[int, _Flow] = {}
        self.next_id = 0
        self.bytes_offered = self.bytes_done = self.bytes_left = 0.0
        self._push = push
        self._end_kind = end_kind

    def add(self, transfers: Sequence[tuple[int, Path, float]],
            now: float) -> list[tuple[int, int, int]]:
        """Start transfers, given as (job id, path, bytes) in the order they
        start, and fill their component again once.  Demand brings each
        scaled-down link of the paths straight back to native rate; returns
        those tier changes as (link, old, new).  A path over a down link is
        refused before anything changes."""
        link_up = self.link_up
        if not all([link_up[lid] for _, path, _ in transfers for lid in path.links]):
            jid = next(j for j, p, _ in transfers if not all(link_up[lid] for lid in p.links))
            raise InternalInvariantViolation(f"job {jid}'s transfer routed over a down link")
        tier_idx = self.link_tier_idx
        native = self.native_idx
        pending = self.dvs_pending
        dir_flows = self.dir_flows
        raised = []
        seeds: list[int] = []
        for jid, path, nbytes in transfers:
            fid = self.next_id
            self.next_id += 1
            res = path.dirs
            self.flows[fid] = _Flow(jid, res, path.nodes, nbytes, now)
            for lid in path.links:
                if tier_idx[lid] != native:
                    raised.append((lid, tier_idx[lid], native))
                    self._set_tier(lid, native)
                    # flows going the other way gain the capacity too
                    seeds += (2 * lid, 2 * lid + 1)
                pending.add(lid)
            for d in res:
                fids = dir_flows[d]
                if fids is None:
                    dir_flows[d] = {fid}
                else:
                    fids.add(fid)
            seeds += res
            self.bytes_offered += nbytes
        self._recompute(seeds, now)
        return raised

    def remove(self, fid: int, now: float) -> _Flow:
        """Take a flow off its links, fill what it shared again and return it."""
        fl = self.flows.pop(fid)
        dir_flows = self.dir_flows
        dir_sum = self.dir_sum
        for d in fl.res:
            dir_flows[d].discard(fid)
            dir_sum[d] -= fl.rate
        fl.rate = 0.0
        self.bytes_done += fl.done_bytes
        self._recompute(fl.res, now)
        return fl

    def finish(self, fid: int, now: float) -> _Flow | None:
        """A flow's end event: the flow, removed, when its bytes are done;
        else None, its end re-armed at its current rate."""
        fl = self.flows[fid]
        fl.advance(now)
        if fl.bytes_left > 1e-6:
            # the rate dropped since this event was scheduled
            fl.end_t = now + fl.bytes_left * 8.0 / fl.rate
            self._push(fl.end_t, self._end_kind, fid, 0)
            return None
        fl.done_bytes += fl.bytes_left
        fl.bytes_left = 0.0
        return self.remove(fid, now)

    def settle(self, now: float) -> None:
        """Bring every flow up to now and total the bytes done and left."""
        for fl in self.flows.values():
            fl.advance(now)
            self.bytes_done += fl.done_bytes
            self.bytes_left += fl.bytes_left

    def _set_tier(self, lid: int, idx: int) -> None:
        self.link_tier_idx[lid] = idx
        self.cap[2 * lid] = self.cap[2 * lid + 1] = self.link_tiers[lid][idx]

    def set_link(self, lid: int, up: bool) -> tuple[int, int | None, int | None] | None:
        """Mark a link up or down; the flip as (link, old tier, new tier),
        None standing for down, or None if the link already was.  A link
        keeps its tier while down, and one carrying a flow never goes down."""
        if up == self.link_up[lid]:
            return None
        if up:
            self.dvs_pending.add(lid)
        elif self.dir_flows[2 * lid] or self.dir_flows[2 * lid + 1]:
            raise InternalInvariantViolation(f"link {lid} goes down under a flow")
        self.link_up[lid] = up
        tier = self.link_tier_idx[lid]
        return (lid, None, tier) if up else (lid, tier, None)

    def trim(self, now: float) -> list[tuple[int, int, int]]:
        """Trim link rates toward offered load; returns the tier changes as
        (link, old, new).  Only pending links are visited, in id order: any
        other has carried no flow since a trim set its target tier, so a scan
        of every up link would leave it alone too.  Idle links settle to the
        bottom tier, where most of the transceiver saving is; afterwards only
        links still carrying flows stay pending."""
        changes: list[tuple[int, int, int]] = []
        touched: list[int] = []
        link_up = self.link_up
        link_tiers = self.link_tiers
        tier_idx = self.link_tier_idx
        dir_sum = self.dir_sum
        dir_flows = self.dir_flows
        for lid in sorted(self.dvs_pending):
            if not link_up[lid]:
                continue
            # subtraction residue can leave a drained direction at ~-1e-13
            offered = max(dir_sum[2 * lid], dir_sum[2 * lid + 1], 0.0)
            new = dvs_tier_index(offered, link_tiers[lid])
            old = tier_idx[lid]
            if new != old:
                self._set_tier(lid, new)
                changes.append((lid, old, new))
                if dir_flows[2 * lid] or dir_flows[2 * lid + 1]:
                    touched.append(2 * lid)
                    touched.append(2 * lid + 1)
        self.dvs_pending = {lid for lid in self.dvs_pending
                            if dir_flows[2 * lid] or dir_flows[2 * lid + 1]}
        if touched:
            self._recompute(touched, now)
        return changes

    def congested(self, path: Path, threshold: float) -> bool:
        """Whether a direction on the path carries over threshold of its capacity."""
        dir_sum, cap = self.dir_sum, self.cap
        for d in path.dirs:
            if dir_sum[d] > threshold * cap[d]:
                return True
        return False

    def _recompute(self, seed_dirs: Iterable[int], now: float) -> None:
        """Max-min re-allocation over the affected component, with rescheduling.

        The component (every flow and directed link reachable from the seeds
        through shared links) is walked once, breadth first, building the
        fill's records as it goes.  A component of one flow skips the fill:
        its rate is the fill's single step, 0.0 + the smallest capacity on
        its path.  New rates are applied and rescheduled in id order, each
        flow first advanced to now at its old rate, and then every direction
        rated is checked against its capacity."""
        flows = self.flows
        cap = self.cap
        dir_flows = self.dir_flows
        records: dict[int, list] = {}   # directed link -> [residual, unfrozen, members]
        queue: list[set[int]] = []
        for d in seed_dirs:
            fids = dir_flows[d]
            if fids and d not in records:
                records[d] = [cap[d], len(fids), fids]
                queue.append(fids)
        if not queue:
            return
        members = {}   # flow -> its directed links
        for fids in queue:   # queue grows while it is walked, breadth first
            for fid in fids:
                if fid not in members:
                    res = members[fid] = flows[fid].res
                    for d2 in res:
                        if d2 not in records:
                            f2 = dir_flows[d2]
                            records[d2] = [cap[d2], len(f2), f2]
                            queue.append(f2)
        if len(members) == 1:
            (fid, res), = members.items()
            order = (fid,)
            rates = {fid: 0.0 + min([cap[d] for d in res])}
        else:
            order = sorted(members)
            rates = fill(records, members)
        dir_sum = self.dir_sum
        for fid in order:
            fl = flows[fid]
            # _Flow.advance, inline in this hot loop; it reads only the
            # flow's own rate and stamp, so the flows' order does not matter
            dt = now - fl.stamp
            if dt > 0.0:
                delta = fl.rate * dt * 0.125
                if delta > fl.bytes_left:
                    delta = fl.bytes_left
                fl.bytes_left -= delta
                fl.done_bytes += delta
            fl.stamp = now
            new = rates[fid]
            if new != fl.rate:
                diff = new - fl.rate
                for d in fl.res:
                    dir_sum[d] += diff
                fl.rate = new
            end = now + fl.bytes_left * 8.0 / new
            if end < fl.end_t - _EPS:
                fl.end_t = end
                self._push(end, self._end_kind, fid, 0)
            # slower flows keep their event; it pops early and re-arms
        for d in records:
            if dir_sum[d] > cap[d] * (1.0 + 1e-9):
                raise InternalInvariantViolation(
                    f"directed link {d} oversubscribed: {dir_sum[d]} > {cap[d]}")
