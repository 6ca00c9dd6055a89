"""Max-min fair rate allocation by progressive filling.

Flows are elastic: each claims as much rate as fairness allows along every
resource it crosses (a resource is one direction of one link).  All
unfrozen flows are raised together until some resource saturates; flows on
saturated resources freeze at the waterline and the rest keep rising
(Bertsekas & Gallager, *Data Networks*, section 6.5).

The resources are sorted once.  Each waterline step takes the tightest
share over the live resources only (those that still carry an unfrozen
flow), charges the step to them, freezes the flows of the ones it
saturates and drops every resource left without an unfrozen flow.  A
lone flow gets its closed form, the smallest capacity on its path, which
is the single step the general fill would take.  Every float is produced
by the same operations in the same order as a fill that rescans all
resources at each step, so allocations are reproducible to the bit.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def allocate(flow_resources: Mapping[int, Sequence[int]],
             capacity: Mapping[int, float] | Sequence[float]) -> dict[int, float]:
    """Max-min fair rates for elastic flows over capacitated resources.

    flow_resources maps flow id -> the distinct resource ids the flow
    crosses (at least one).  capacity maps resource id -> capacity; it may
    be a sequence indexed by resource id, and only the resources some flow
    crosses are read, each of which must have capacity > 0.  Returns flow
    id -> rate.
    """
    if len(flow_resources) == 1:
        ((fid, res),) = flow_resources.items()
        if not res:
            raise ValueError(f"flow {fid} crosses no resources")
        cap = min([capacity[rid] for rid in res])
        if cap <= 0:
            rid = next(rid for rid in res if capacity[rid] <= 0)
            raise ValueError(f"resource {rid} has non-positive capacity")
        # the fill's single step: level 0.0 plus the tightest share cap / 1
        return {fid: 0.0 + cap}
    rates: dict[int, float] = {}
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
    # one record per resource: [residual, unfrozen flows, member flows]
    records: dict[int, list] = {}
    live: list[list] = []
    for rid in sorted(members):
        cap = float(capacity[rid])
        if cap <= 0:
            raise ValueError(f"resource {rid} has non-positive capacity")
        fids = members[rid]
        rec = [cap, len(fids), fids]
        records[rid] = rec
        live.append(rec)
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
        if saturated:
            live = [rec for rec in live if rec[1]]
    return rates
