"""Max-min fair rate allocation by progressive filling.

Flows are elastic: each claims as much rate as fairness allows along every
resource it crosses (a resource is one direction of one link).  All
unfrozen flows are raised together until some resource saturates; flows on
saturated resources freeze at the waterline and the rest keep rising
(Bertsekas & Gallager, *Data Networks*, section 6.5).

There is one fill, `fill`, over one record per resource: residual
capacity, unfrozen flow count and member flows.  Two callers build the
records.  `allocate` builds them from plain mappings, sorted by resource
id.  The engine's component walk builds them as it goes, with its own
per-link flow sets as the members, and fixes stalled flows at zero before
the fill.

Each waterline step takes the tightest share over the live records only
(those that still count an unfrozen flow), charges the step to them,
freezes the flows of the ones it saturates and drops every record left
without an unfrozen flow.  A lone flow gets its closed form, the smallest
capacity on its path, which is the single step the general fill would
take.  The minimum share, each record's own residual updates and the
freeze level depend on no record order, so every float is the one a fill
that rescans all resources in id order at each step produces, and
allocations are reproducible to the bit.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def fill(records: Mapping, flow_resources: Mapping[int, Sequence[int]],
         rates: dict) -> dict:
    """Progressive filling over prepared resource records.

    records maps resource id -> [residual, unfrozen, members]: residual
    starts at the resource's capacity (> 0), members holds every flow
    crossing the resource and unfrozen counts those of them not already in
    rates.  flow_resources maps every member flow to the resources it
    crosses.  rates holds flows fixed in advance (a stalled flow at 0.0);
    the fill skips them and adds every other member flow.  The records'
    residuals and counts are used up; the member collections are only read.
    Returns rates.
    """
    if len(flow_resources) - len(rates) == 1:
        for fid, res in flow_resources.items():
            if fid not in rates:
                # the fill's single step: level 0.0 plus the tightest share cap / 1
                rates[fid] = 0.0 + min([records[rid][0] for rid in res])
                return rates
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
    return fill(records, flow_resources, {})
