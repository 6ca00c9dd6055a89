"""Fabric construction and equal-cost path enumeration.

Path sets are checked against networkx's shortest-path machinery on small
fabrics, which exercises the same BFS/predecessor logic the engine uses at
full scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

networkx = pytest.importorskip("networkx")

from greendc.presets import ARCHITECTURES
from greendc.topology import (
    THREE_TIER, THREE_TIER_HS, TWO_TIER, ArchitectureSpec, InvalidSpec, Path,
    build_topology, select_path, splitmix64,
)


def small_three_tier(**over):
    kw = dict(kind=THREE_TIER, core_count=2, agg_count=4, access_count=6,
              servers_per_access=2)
    kw.update(over)
    return ArchitectureSpec(**kw)


def as_nx(topo):
    g = networkx.Graph()
    g.add_nodes_from(range(topo.n_nodes))
    g.add_edges_from((ln.a, ln.b) for ln in topo.links)
    return g


# -- id layout and construction ------------------------------------------

def test_layer_major_id_ranges():
    topo = build_topology(small_three_tier())
    assert list(topo.core_ids) == [0, 1]
    assert list(topo.agg_ids) == [2, 3, 4, 5]
    assert list(topo.access_ids) == [6, 7, 8, 9, 10, 11]
    assert list(topo.server_ids) == list(range(12, 24))
    assert topo.gateway == 0
    roles = [topo.role(n) for n in (0, 3, 8, 20)]
    assert roles == [0, 1, 2, 3]


def test_preset_link_counts():
    # cores*aggs + access uplinks + server links for the three-tier fabrics,
    # core mesh + access-to-every-core + server links for the two-tier one
    expected = {"two_tier": 120 + 512 * 16 + 1536,
                "three_tier": 64 + 1024 + 1536,
                "three_tier_hs": 8 + 1024 + 1536}
    for name, count in expected.items():
        topo = build_topology(ARCHITECTURES[name])
        assert len(topo.links) == count, name


def test_rack_and_pod_lookups():
    topo = build_topology(small_three_tier())
    assert topo.pod_count == 2
    # six racks split into two contiguous pods of three
    assert [topo.pod_of_access(a) for a in topo.access_ids] == [0, 0, 0, 1, 1, 1]
    assert topo.aggs_of_pod(0) == (2, 3)
    assert topo.aggs_of_pod(1) == (4, 5)
    for srv in topo.server_ids:
        acc = topo.access_of_server(srv)
        assert srv in topo.servers_of_access(acc)
    # each access switch dual-homes onto exactly its pod's aggregation pair
    for acc in topo.access_ids:
        pair = set(topo.aggs_of_pod(topo.pod_of_access(acc)))
        uplinks = {nbr for nbr, _lid in topo.adj[acc] if nbr in topo.agg_ids}
        assert uplinks == pair


def test_two_tier_has_no_pods():
    topo = build_topology(ArchitectureSpec(kind=TWO_TIER, core_count=3,
                                           agg_count=0, access_count=4,
                                           servers_per_access=2))
    assert topo.pod_count == 0
    for acc in topo.access_ids:
        cores = {nbr for nbr, _lid in topo.adj[acc] if nbr in topo.core_ids}
        assert cores == set(topo.core_ids)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        ArchitectureSpec(kind="ring", core_count=2, agg_count=2,
                         access_count=2).validate()
    with pytest.raises(InvalidSpec):
        small_three_tier(agg_count=3).validate()   # pairs must be even
    with pytest.raises(InvalidSpec):
        small_three_tier(core_count=0).validate()
    with pytest.raises(InvalidSpec):
        small_three_tier(server_rate_bps=0.0).validate()
    with pytest.raises(InvalidSpec):
        ArchitectureSpec(kind=TWO_TIER, core_count=2, agg_count=2,
                         access_count=2).validate()


# -- shortest paths against networkx ---------------------------------------

# one pocket fabric of each kind; the three-tier ones have two pods
POCKET_FABRICS = {
    THREE_TIER: small_three_tier(),
    TWO_TIER: ArchitectureSpec(kind=TWO_TIER, core_count=3, agg_count=0,
                               access_count=4, servers_per_access=2),
    THREE_TIER_HS: ArchitectureSpec(kind=THREE_TIER_HS, core_count=2, agg_count=4,
                                    access_count=6, servers_per_access=2,
                                    access_uplink_bps=1e10, agg_core_bps=1e11),
}
POCKET_TOPOLOGIES = {kind: build_topology(spec) for kind, spec in POCKET_FABRICS.items()}


def test_equal_cost_paths_match_networkx_on_small_fabric():
    # every endpoint pair of a pocket fabric of each kind
    for kind, topo in POCKET_TOPOLOGIES.items():
        g = as_nx(topo)
        ends = [*topo.server_ids, topo.gateway]
        for src in ends:
            for dst in ends:
                if src == dst:
                    continue
                want = {tuple(p) for p in networkx.all_shortest_paths(g, src, dst)}
                paths = topo.equal_cost_paths(src, dst)
                assert {p.nodes for p in paths} == want, (kind, src, dst)
                assert topo.path_count(src, dst) == len(want)
                for p in paths:
                    assert list(p.links) == [topo.link_between(u, v)
                                             for u, v in zip(p.nodes, p.nodes[1:])]


def vectorised_preds(topo, root):
    """Per-switch (predecessor, link id) lists as _bfs used to extract them
    with numpy for every root; kept verbatim as the reference for the order
    of the lazily built predecessors, which fixes the path enumeration."""
    n = topo.server_ids.start
    trunks = topo.links[:len(topo.links) - topo.spec.server_count]
    la = np.fromiter((ln.a for ln in trunks), dtype=np.int64, count=len(trunks))
    lb = np.fromiter((ln.b for ln in trunks), dtype=np.int64, count=len(trunks))
    d = np.array(topo._bfs(root)[0], dtype=np.int64)
    da, db = d[la], d[lb]
    fwd = (da >= 0) & (da + 1 == db)   # pred of link.b is link.a
    bwd = (db >= 0) & (db + 1 == da)
    child = np.concatenate((lb[fwd], la[bwd]))
    parent = np.concatenate((la[fwd], lb[bwd]))
    lids = np.concatenate((np.flatnonzero(fwd), np.flatnonzero(bwd)))
    order = np.argsort(child, kind="stable")
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=n), out=off[1:])
    off, pred, plink = off.tolist(), parent[order].tolist(), lids[order].tolist()
    return [[(pred[i], plink[i]) for i in range(off[v], off[v + 1])] for v in range(n)]


def test_predecessor_order_matches_the_vectorised_extraction():
    both_ends = 0
    for kind, spec in POCKET_FABRICS.items():
        topo = build_topology(spec)
        n = topo.server_ids.start
        for root in range(n):
            want = vectorised_preds(topo, root)
            entry = topo._bfs(root)
            for v in range(n):
                got = topo._preds(entry, v)
                assert got == want[v], (kind, root, v)
                assert topo._preds(entry, v) is got      # memoised
                both_ends += len({topo.links[lid].b == v for _u, lid in got}) == 2
    # some switch (an aggregation switch seen from its pod partner) has
    # predecessors over links whose b end it is and over links whose a end
    # it is, so the order of the two candidate blocks is pinned here too
    assert both_ends > 0


def test_kth_path_enumeration_is_disjoint_and_complete():
    topo = build_topology(small_three_tier())
    src = topo.server_ids.start
    dst = topo.server_ids[-1]
    n = topo.path_count(src, dst)
    paths = [topo.kth_path(src, dst, k) for k in range(n)]
    assert len({p.nodes for p in paths}) == n
    with pytest.raises(IndexError):
        topo.kth_path(src, dst, n)
    for p in paths:
        # node sequence and link ids must agree
        for u, v, lid in zip(p.nodes, p.nodes[1:], p.links):
            assert topo.link_between(u, v) == lid


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(POCKET_FABRICS)), data=st.data(),
       k=st.integers(min_value=0, max_value=2**64 - 1))
def test_live_path_is_the_kth_of_the_filtered_enumeration(kind, data, k):
    topo = POCKET_TOPOLOGIES[kind]
    n_switches = topo.server_ids.start
    live = data.draw(st.lists(st.booleans(), min_size=n_switches, max_size=n_switches),
                     label="live")
    ends = [*topo.server_ids, topo.gateway]
    src = data.draw(st.sampled_from(ends), label="src")
    dst = data.draw(st.sampled_from([e for e in ends if e != src]), label="dst")
    want = [p for p in topo.equal_cost_paths(src, dst)
            if all(live[n] for n in p.nodes if n < n_switches)]
    got = topo.live_path(src, dst, k, live)
    if want:
        assert got == want[k % len(want)]
    else:
        assert got is None


def test_live_path_with_every_switch_up_is_kth_path():
    topo = POCKET_TOPOLOGIES[THREE_TIER]
    live = [True] * topo.server_ids.start
    src, dst = topo.server_ids.start, topo.server_ids[-1]
    n = topo.path_count(src, dst)
    for k in range(3 * n):
        assert topo.live_path(src, dst, k, live) == topo.kth_path(src, dst, k % n)


def test_preset_path_counts():
    three = build_topology(ARCHITECTURES["three_tier"])
    srv = three.server_ids.start
    same_rack = srv + 1
    same_pod = srv + 3 * 4          # four racks over, same first pod
    cross_pod = srv + 3 * 200       # rack 200 lives in another pod
    assert three.path_count(srv, same_rack) == 1
    assert three.path_count(srv, same_pod) == 2
    assert three.path_count(srv, cross_pod) == 2 * 8 * 2
    assert three.path_count(srv, three.gateway) == 2

    two = build_topology(ARCHITECTURES["two_tier"])
    srv2 = two.server_ids.start
    assert two.path_count(srv2, srv2 + 3) == 16
    assert two.path_count(srv2, two.gateway) == 1

    hs = build_topology(ARCHITECTURES["three_tier_hs"])
    srv3 = hs.server_ids.start
    assert hs.path_count(srv3, srv3 + 3 * 300) == 2 * 2 * 2
    assert hs.path_count(srv3, hs.gateway) == 2


def test_paths_restricted_to_server_or_gateway_endpoints():
    topo = build_topology(small_three_tier())
    with pytest.raises(ValueError):
        topo.path_count(topo.agg_ids.start, topo.server_ids.start)
    with pytest.raises(ValueError):
        topo.path_count(topo.server_ids.start, topo.server_ids.start)


# -- hashing and selection ---------------------------------------------------

def test_splitmix64_reference_values():
    # first output of the reference splitmix64 stream seeded with zero
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    # frozen regression anchors: routing and peer choice depend on these
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2) == 0x975835DE1C9756CE
    assert splitmix64(0xDEADBEEF) == 0x4ADFB90F68C9EB9B


def test_select_path_is_deterministic_and_covers():
    paths = [Path((i,), ()) for i in range(7)]
    assert select_path(paths, 42) is select_path(paths, 42)
    seen = {select_path(paths, k).nodes[0] for k in range(200)}
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        select_path([], 1)


def test_to_dot_lists_every_node_and_link():
    topo = build_topology(small_three_tier(access_count=2, agg_count=2))
    dot = topo.to_dot()
    assert dot.startswith("graph datacenter {")
    assert dot.count(" -- ") == len(topo.links)
    assert 'label="server' in dot and 'label="core0"' in dot


def test_builds_are_reproducible():
    a = build_topology(small_three_tier())
    b = build_topology(small_three_tier())
    assert [(l.a, l.b, l.rate_bps) for l in a.links] == \
           [(l.a, l.b, l.rate_bps) for l in b.links]
