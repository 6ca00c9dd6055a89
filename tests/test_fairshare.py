"""Max-min allocation against a brute-force water-filling oracle, and
bit for bit against the plain progressive fill it replaced.

The oracle raises every unfrozen flow in lockstep by the exact bottleneck
increment, freezing flows as their resources saturate.  It shares no code
with the engine's allocator, so agreement is meaningful.  The plain fill
rescans every resource at each waterline step; the allocator must give
exactly its floats, because the rates feed event times and the trace.
The engine hands `fill` its records in the order its component walk met
them, so `fill` must give those floats over any record order.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from greendc.fairshare import allocate, fill


def waterfill_oracle(flow_resources, capacity):
    """Reference max-min rates by literal progressive filling."""
    rates = {fid: 0.0 for fid in flow_resources}
    frozen = set()
    residual = dict(capacity)
    while len(frozen) < len(flow_resources):
        active = {fid: res for fid, res in flow_resources.items() if fid not in frozen}
        # tightest per-flow increment over the resources each flow crosses
        counts = {}
        for res in active.values():
            for rid in res:
                counts[rid] = counts.get(rid, 0) + 1
        step = min(residual[rid] / counts[rid] for fid, res in active.items()
                   for rid in res)
        for fid, res in active.items():
            rates[fid] += step
            for rid in res:
                residual[rid] -= step
        # residual bookkeeping double-subtracts shared resources; recompute
        residual = dict(capacity)
        for fid, res in flow_resources.items():
            for rid in res:
                residual[rid] -= rates[fid]
        for fid, res in active.items():
            if any(residual[rid] <= 1e-12 * capacity[rid] for rid in res):
                frozen.add(fid)
    return rates


def rescan_fill(flow_resources, capacity):
    """The progressive fill that rescans all resources at each step; the
    allocator's previous implementation, kept verbatim as the reference."""
    rates: dict[int, float] = {}
    if not flow_resources:
        return rates
    members: dict[int, list[int]] = {}
    for fid in sorted(flow_resources):
        res = flow_resources[fid]
        if not res:
            raise ValueError(f"flow {fid} crosses no resources")
        for rid in res:
            members.setdefault(rid, []).append(fid)
    residual = {rid: float(capacity[rid]) for rid in members}
    for rid, cap in residual.items():
        if cap <= 0:
            raise ValueError(f"resource {rid} has non-positive capacity")
    unfrozen = {rid: len(fids) for rid, fids in members.items()}
    frozen: set[int] = set()
    level = 0.0
    remaining = len(flow_resources)
    while remaining:
        # next waterline increment: tightest residual share over live resources
        step = None
        for rid in sorted(members):
            n = unfrozen[rid]
            if n == 0:
                continue
            share = residual[rid] / n
            if step is None or share < step:
                step = share
        level += step
        newly: list[int] = []
        for rid in sorted(members):
            n = unfrozen[rid]
            if n == 0:
                continue
            residual[rid] -= step * n
            if residual[rid] <= step * 1e-12 + 1e-15:
                residual[rid] = 0.0
                for fid in members[rid]:
                    if fid not in frozen:
                        newly.append(fid)
        for fid in newly:
            if fid in frozen:
                continue
            frozen.add(fid)
            rates[fid] = level
            remaining -= 1
            for rid in flow_resources[fid]:
                unfrozen[rid] -= 1
    return rates


def test_single_link_even_split():
    rates = allocate({1: [0], 2: [0], 3: [0]}, {0: 9.0})
    assert rates == {1: 3.0, 2: 3.0, 3: 3.0}


def test_two_links_tandem_flow_bottlenecked_by_smaller():
    # flow 1 crosses both links, flows 2 and 3 one each
    rates = allocate({1: [0, 1], 2: [0], 3: [1]}, {0: 10.0, 1: 4.0})
    assert rates[1] == pytest.approx(2.0)
    assert rates[3] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(8.0)


def test_unshared_resources_give_full_capacity():
    rates = allocate({7: [0], 9: [1]}, {0: 3.0, 1: 5.0})
    assert rates == {7: 3.0, 9: 5.0}


def test_empty_allocation():
    assert allocate({}, {}) == {}


def test_flow_without_resources_rejected():
    with pytest.raises(ValueError):
        allocate({1: []}, {})


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError):
        allocate({1: [0]}, {0: 0.0})


def test_classic_three_flow_example():
    # textbook case: shared 10-capacity link, one flow also crossing a
    # 3-capacity link freezes early and the others absorb the slack
    rates = allocate({0: [0, 1], 1: [0], 2: [0]}, {0: 10.0, 1: 3.0})
    assert rates[0] == pytest.approx(3.0)
    assert rates[1] == pytest.approx(3.5)
    assert rates[2] == pytest.approx(3.5)


def test_matches_oracle_on_randomized_micro_topologies():
    rng = np.random.default_rng(20240817)
    cases = 0
    while cases < 40:
        n_res = int(rng.integers(1, 7))
        n_flows = int(rng.integers(1, 7))
        capacity = {rid: float(rng.uniform(0.5, 10.0)) for rid in range(n_res)}
        flows = {}
        for fid in range(n_flows):
            k = int(rng.integers(1, n_res + 1))
            flows[fid] = sorted(rng.choice(n_res, size=k, replace=False).tolist())
        cases += 1
        got = allocate(flows, capacity)
        want = waterfill_oracle(flows, capacity)
        for fid in flows:
            assert got[fid] == pytest.approx(want[fid], rel=1e-9), (
                f"case {cases}: flow {fid} rate {got[fid]} != oracle {want[fid]}")


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_allocation_is_feasible_and_maxmin(n_res, n_flows, seed):
    rng = np.random.default_rng(seed)
    capacity = {rid: float(rng.uniform(0.5, 10.0)) for rid in range(n_res)}
    flows = {}
    for fid in range(n_flows):
        k = int(rng.integers(1, n_res + 1))
        flows[fid] = sorted(rng.choice(n_res, size=k, replace=False).tolist())
    rates = allocate(flows, capacity)
    used = {rid: 0.0 for rid in range(n_res)}
    for fid, res in flows.items():
        assert rates[fid] > 0.0
        for rid in res:
            used[rid] += rates[fid]
    for rid, cap in capacity.items():
        assert used[rid] <= cap * (1.0 + 1e-9)
    # max-min property: every flow is blocked by some saturated resource
    for fid, res in flows.items():
        assert any(used[rid] >= capacity[rid] * (1.0 - 1e-9) for rid in res)


def test_allocation_order_independent_of_dict_insertion():
    flows_a = {2: [0], 1: [0, 1], 0: [1]}
    flows_b = {0: [1], 1: [0, 1], 2: [0]}
    caps = {0: 4.0, 1: 6.0}
    assert allocate(flows_a, caps) == allocate(flows_b, caps)


# capacities drawn from a few round values tie often; the others rarely
_capacity = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.1, 1e9, 1e10]),
                      st.floats(0.05, 1e10, allow_nan=False, allow_infinity=False))


@st.composite
def _fills(draw):
    n_res = draw(st.integers(1, 8))
    capacity = draw(st.lists(_capacity, min_size=n_res, max_size=n_res))
    n_flows = draw(st.integers(1, 12))
    flows = {}
    for _ in range(n_flows):
        fid = draw(st.integers(0, 10 ** 6).filter(lambda f: f not in flows))
        flows[fid] = draw(st.lists(st.integers(0, n_res - 1), min_size=1,
                                   max_size=n_res, unique=True))
    return flows, capacity


@given(_fills())
@example(({5: [2, 0]}, [4.0, 1.0, 7.0]))                                # one flow
@example(({0: [0], 1: [0], 2: [1], 3: [1]}, [2.0, 2.0]))               # tied links
@example(({0: [0, 1], 1: [0], 2: [0], 3: [1, 2], 4: [2]}, [10.0, 3.0, 8.0]))  # three levels
def test_allocation_equals_the_rescanning_fill_exactly(case):
    flows, capacity = case
    # the engine passes its whole capacity table; the reference saw only
    # the capacities of the resources the flows cross
    used = {rid: capacity[rid] for res in flows.values() for rid in res}
    assert allocate(flows, capacity) == rescan_fill(flows, used)


def test_exactness_examples_cover_ties_and_several_levels():
    # the explicit examples above exercise what they claim to
    def levels(flows, caps):
        return len(set(rescan_fill(flows, dict(enumerate(caps))).values()))

    assert levels({0: [0], 1: [0], 2: [1], 3: [1]}, [2.0, 2.0]) == 1
    assert levels({0: [0, 1], 1: [0], 2: [0], 3: [1, 2], 4: [2]},
                  [10.0, 3.0, 8.0]) == 3


@given(_fills(), st.randoms(use_true_random=False))
@example(({0: [0, 1], 1: [0], 2: [0], 3: [1, 2], 4: [2]}, [10.0, 3.0, 8.0]),
         random.Random(3))
def test_fill_over_any_record_order_equals_the_rescanning_fill(case, rnd):
    flows, capacity = case
    members: dict[int, set[int]] = {}
    for fid, res in flows.items():
        for rid in res:
            members.setdefault(rid, set()).add(fid)
    rids = list(members)
    rnd.shuffle(rids)
    # the engine's shape: records keyed in walk order, member sets
    records = {rid: [capacity[rid], len(members[rid]), members[rid]] for rid in rids}
    used = {rid: capacity[rid] for rid in members}
    assert fill(records, flows, {}) == rescan_fill(flows, used)


def test_fill_skips_flows_fixed_in_advance():
    # flow 0 is stalled: fixed at 0.0 and off its records' counts, so flows
    # 1 and 2 split resource 0 as if it were alone
    flows = {0: [0, 1], 1: [0], 2: [0]}
    records = {0: [6.0, 2, {0, 1, 2}], 1: [1.0, 0, {0}]}
    assert fill(records, flows, {0: 0.0}) == {0: 0.0, 1: 3.0, 2: 3.0}
    # with one flow left unfixed the closed form applies
    records = {0: [6.0, 1, {0, 1}], 1: [1.0, 0, {0}]}
    assert fill(records, {0: [0, 1], 1: [0]}, {0: 0.0}) == {0: 0.0, 1: 6.0}


def test_fill_rejects_a_count_its_members_do_not_hold():
    # resource 0 counts three unfrozen flows but holds two: once it
    # saturates it could never leave the fill
    with pytest.raises(ValueError):
        fill({0: [4.0, 3, {7, 8}]}, {7: [0], 8: [0]}, {})
