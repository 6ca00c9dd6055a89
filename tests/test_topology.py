"""Fabric construction and equal-cost path enumeration.

Topology reads paths off pod and index arithmetic.  Path sets are checked
against networkx's shortest paths on small fabrics, and the enumeration
order and link ids against a breadth-first search with a backward
predecessor decode (the search Topology used to run per root switch, kept
here as the reference) on every endpoint pair of small fabrics and on a
sample of pairs on the full-size presets.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

networkx = pytest.importorskip("networkx")

from greendc.presets import ARCHITECTURES
from greendc.topology import (
    THREE_TIER, THREE_TIER_HS, TWO_TIER, ArchitectureSpec, InvalidSpec, Path, Topology,
    build_topology, splitmix64,
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


def link_ids(topo):
    """Link id of each node pair, both ways round, from the link list."""
    out = {}
    for ln in topo.links:
        out[ln.a, ln.b] = out[ln.b, ln.a] = ln.id
    return out


def all_paths(topo, src, dst):
    """Every equal-cost path, in enumeration order."""
    return [topo.kth_path(src, dst, k) for k in range(topo.path_count(src, dst))]


# -- id layout and construction ------------------------------------------

def test_layer_major_id_ranges():
    topo = build_topology(small_three_tier())
    assert list(topo.core_ids) == [0, 1]
    assert list(topo.agg_ids) == [2, 3, 4, 5]
    assert list(topo.access_ids) == [6, 7, 8, 9, 10, 11]
    assert list(topo.server_ids) == list(range(12, 24))
    assert topo.gateway == 0
    roles = [topo.roles[n] for n in (0, 3, 8, 20)]
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


@pytest.mark.parametrize("aggs, racks", [(0, 4), (2, 4), (4, 6), (6, 7), (8, 3 * 4 + 3)])
def test_pod_closed_forms_invert_the_wiring(aggs, racks):
    """racks_of_pod, pod_of_agg and pair_of agree with the links: a pod's
    racks are exactly the rack switches wired to its aggregation pair, and
    pair_of gives each rack's aggregation neighbours (none on two-tier)."""
    topo = build_topology(ArchitectureSpec(kind=THREE_TIER if aggs else TWO_TIER, core_count=2,
                                           agg_count=aggs, access_count=racks,
                                           servers_per_access=1))
    for acc in topo.access_ids:
        assert topo.pair_of(acc) == tuple(nbr for nbr, _lid in topo.adj[acc]
                                          if nbr in topo.agg_ids)
    covered = []
    for pod in range(topo.pod_count):
        pair = topo.aggs_of_pod(pod)
        assert [topo.pod_of_agg(g) for g in pair] == [pod, pod]
        wired = sorted(nbr for nbr, _lid in topo.adj[pair[0]] if nbr in topo.access_ids)
        assert list(topo.racks_of_pod(pod)) == wired
        assert all(topo.pod_of_access(acc) == pod for acc in wired)
        covered += wired
    assert covered == (list(topo.access_ids) if aggs else [])


def test_two_tier_has_no_pods():
    topo = build_topology(ArchitectureSpec(kind=TWO_TIER, core_count=3,
                                           agg_count=0, access_count=4,
                                           servers_per_access=2))
    assert topo.pod_count == 0
    for acc in topo.access_ids:
        cores = {nbr for nbr, _lid in topo.adj[acc] if nbr in topo.core_ids}
        assert cores == set(topo.core_ids)


def test_invalid_specs_rejected():
    """A spec checks itself when built, so an invalid one never exists."""
    with pytest.raises(InvalidSpec):
        ArchitectureSpec(kind="ring", core_count=2, agg_count=2,
                         access_count=2)
    with pytest.raises(InvalidSpec):
        small_three_tier(agg_count=3)   # pairs must be even
    with pytest.raises(InvalidSpec):
        small_three_tier(core_count=0)
    with pytest.raises(InvalidSpec):
        small_three_tier(server_rate_bps=0.0)
    with pytest.raises(InvalidSpec):
        ArchitectureSpec(kind=TWO_TIER, core_count=2, agg_count=2,
                         access_count=2)


# -- equal-cost paths against networkx and the BFS reference --------------

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
        link_of = link_ids(topo)
        ends = [*topo.server_ids, topo.gateway]
        for src in ends:
            for dst in ends:
                if src == dst:
                    continue
                want = {tuple(p) for p in networkx.all_shortest_paths(g, src, dst)}
                paths = all_paths(topo, src, dst)
                assert {p.nodes for p in paths} == want, (kind, src, dst)
                assert topo.path_count(src, dst) == len(want)
                for p in paths:
                    assert list(p.links) == [link_of[u, v] for u, v in zip(p.nodes, p.nodes[1:])]


class BfsReference:
    """Equal-cost paths by a breadth-first search from the source's switch
    and a backward decode, as Topology enumerated them before its closed
    forms.  A switch's candidate predecessors are the trunk links whose b
    end it is, then those whose a end it is, each in link-id order; the
    k-th path picks, walking back from the destination's switch, the first
    predecessor w one hop closer with k < paths(root, w), after taking the
    paths through the earlier ones off k."""

    def __init__(self, topo):
        self.topo = topo
        n = topo.server_ids.start
        self.trunks = len(topo.links) - topo.spec.server_count
        self.cands = [[] for _ in range(n)]
        for ln in topo.links[:self.trunks]:
            self.cands[ln.b].append((ln.a, ln.id))
        for ln in topo.links[:self.trunks]:
            self.cands[ln.a].append((ln.b, ln.id))

    def paths(self, src, dst):
        topo, cands = self.topo, self.cands
        anchor = {s: topo.access_of_server(s) if s in topo.server_ids else s
                  for s in (src, dst)}
        root, end = anchor[src], anchor[dst]
        dist = [-1] * len(cands)
        cnt = [0] * len(cands)
        dist[root], cnt[root] = 0, 1
        q = deque([root])
        while q:
            v = q.popleft()
            for w, _lid in cands[v]:
                if dist[w] < 0:
                    dist[w], cnt[w] = dist[v] + 1, cnt[v]
                    q.append(w)
                elif dist[w] == dist[v] + 1:
                    cnt[w] += cnt[v]
        out = []
        for k in range(cnt[end]):
            nodes, links, v = [end], [], end
            while v != root:
                for w, lid in cands[v]:
                    if dist[w] == dist[v] - 1:
                        if k < cnt[w]:
                            nodes.append(w)
                            links.append(lid)
                            v = w
                            break
                        k -= cnt[w]
            if end != dst:
                nodes.insert(0, dst)
                links.insert(0, self.trunks + dst - topo.server_ids.start)
            if root != src:
                nodes.append(src)
                links.append(self.trunks + src - topo.server_ids.start)
            nodes, links = tuple(reversed(nodes)), tuple(reversed(links))
            # directed link 2 * id runs from the lower node id to the higher
            dirs = tuple(2 * lid + (u > v) for u, v, lid in zip(nodes, nodes[1:], links))
            out.append(Path(nodes, links, dirs))
        return out


# the pocket fabrics plus a three-tier one whose two pods are uneven (3 and
# 4 racks), the shape the last pod takes when racks do not split evenly
ORACLE_TOPOLOGIES = dict(POCKET_TOPOLOGIES,
                         three_tier_uneven=build_topology(small_three_tier(access_count=7)))
REFERENCES = {kind: BfsReference(topo) for kind, topo in ORACLE_TOPOLOGIES.items()}


def test_paths_equal_the_bfs_reference_on_every_pair():
    for kind, topo in ORACLE_TOPOLOGIES.items():
        ref = REFERENCES[kind]
        ends = [*topo.server_ids, topo.gateway]
        for src in ends:
            for dst in ends:
                if src == dst:
                    continue
                want = ref.paths(src, dst)
                n = topo.path_count(src, dst)
                assert n == len(want), (kind, src, dst)
                assert [topo.kth_path(src, dst, k) for k in range(n)] == want, (kind, src, dst)
                with pytest.raises(IndexError):
                    topo.kth_path(src, dst, n)
                with pytest.raises(IndexError):
                    topo.kth_path(src, dst, -1)


def test_preset_paths_equal_the_bfs_reference_on_sampled_pairs():
    rng = random.Random(6)
    for name, spec in ARCHITECTURES.items():
        topo = build_topology(spec)
        ref = BfsReference(topo)
        servers = topo.server_ids
        pairs = [(servers[0], topo.gateway), (topo.gateway, servers[-1])]
        pairs += [tuple(rng.sample(servers, 2)) for _ in range(40)]
        # same rack and same pod too, which random pairs seldom hit
        pairs += [(servers[0], servers[1]), (servers[0], servers[3 * 4])]
        for src, dst in pairs:
            want = ref.paths(src, dst)
            assert all_paths(topo, src, dst) == want, (name, src, dst)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_TOPOLOGIES)), data=st.data(),
       k=st.integers(min_value=0, max_value=2**64 - 1))
def test_live_and_picked_paths_match_the_filtered_bfs_reference(kind, data, k):
    topo = ORACLE_TOPOLOGIES[kind]
    n_switches = topo.server_ids.start
    live = data.draw(st.lists(st.booleans(), min_size=n_switches, max_size=n_switches),
                     label="live")
    ends = [*topo.server_ids, topo.gateway]
    src = data.draw(st.sampled_from(ends), label="src")
    dst = data.draw(st.sampled_from([e for e in ends if e != src]), label="dst")
    every = REFERENCES[kind].paths(src, dst)
    want = [p for p in every if all(live[n] for n in p.nodes if n < n_switches)]
    got = topo.pick_path(src, dst, k, live)
    if want:
        assert got == want[k % len(want)]
    else:
        # with none live the pick falls back to the whole enumeration
        assert got == topo.kth_path(src, dst, k % len(every)) == every[k % len(every)]
    assert topo.pick_path(src, dst, k) == every[k % len(every)]


def test_kth_path_enumeration_is_disjoint_and_complete():
    topo = build_topology(small_three_tier())
    src = topo.server_ids.start
    dst = topo.server_ids[-1]
    n = topo.path_count(src, dst)
    paths = [topo.kth_path(src, dst, k) for k in range(n)]
    assert len({p.nodes for p in paths}) == n
    with pytest.raises(IndexError):
        topo.kth_path(src, dst, n)
    link_of = link_ids(topo)
    for p in paths:
        # node sequence and link ids must agree
        for u, v, lid in zip(p.nodes, p.nodes[1:], p.links):
            assert link_of[u, v] == lid


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(POCKET_FABRICS)), data=st.data(),
       k=st.integers(min_value=0, max_value=2**64 - 1))
def test_live_path_is_the_kth_of_the_filtered_enumeration(kind, data, k):
    """pick_path's live pick is the k-th of the enumeration cut to the paths
    whose switches are all live, and the k-th of all paths when none is."""
    topo = POCKET_TOPOLOGIES[kind]
    n_switches = topo.server_ids.start
    live = data.draw(st.lists(st.booleans(), min_size=n_switches, max_size=n_switches),
                     label="live")
    ends = [*topo.server_ids, topo.gateway]
    src = data.draw(st.sampled_from(ends), label="src")
    dst = data.draw(st.sampled_from([e for e in ends if e != src]), label="dst")
    every = all_paths(topo, src, dst)
    want = [p for p in every if all(live[n] for n in p.nodes if n < n_switches)]
    got = topo.pick_path(src, dst, k, live)
    if want:
        assert got == want[k % len(want)]
    else:
        assert got == every[k % len(every)]


def test_live_path_with_every_switch_up_is_kth_path():
    topo = POCKET_TOPOLOGIES[THREE_TIER]
    live = [True] * topo.server_ids.start
    src, dst = topo.server_ids.start, topo.server_ids[-1]
    n = topo.path_count(src, dst)
    for k in range(3 * n):
        assert topo.pick_path(src, dst, k, live) == topo.kth_path(src, dst, k % n)


def test_a_pick_with_every_switch_up_is_kept_and_one_under_live_is_not():
    """A repeated pick with no live filter hands out the path kept from the
    first, equal to a fresh decode of its index mod n; a pick under a live
    filter, every switch up or not, is decoded afresh and kept nowhere."""
    for spec in POCKET_FABRICS.values():
        topo = build_topology(spec)   # nothing kept yet
        ends = [*topo.server_ids, topo.gateway]
        n_switches = topo.server_ids.start
        live = [True] * n_switches
        dark = [w != topo.core_ids[-1] for w in range(n_switches)]
        for src in ends:
            for dst in ends:
                if src == dst:
                    continue
                n = topo.path_count(src, dst)
                for k in (0, 7, 2**64 - 1):
                    first = topo.pick_path(src, dst, k)
                    assert first == topo._path(src, dst, *topo._tiers(src, dst), k % n)
                    assert first == topo.kth_path(src, dst, k % n)
                    assert topo.pick_path(src, dst, k + n) is first
                    kept = len(topo._picks), sum(len(e[1]) for e in topo._picks.values())
                    for filt in (live, dark):
                        got = topo.pick_path(src, dst, k, filt)
                        assert got is not first
                        assert all(got is not p for e in topo._picks.values()
                                   for p in e[1].values())
                    assert (len(topo._picks),
                            sum(len(e[1]) for e in topo._picks.values())) == kept
                    assert topo.pick_path(src, dst, k, live) == first


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


# -- hashing and export ---------------------------------------------------

def test_splitmix64_reference_values():
    # first output of the reference splitmix64 stream seeded with zero
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    # frozen regression anchors: routing and peer choice depend on these
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2) == 0x975835DE1C9756CE
    assert splitmix64(0xDEADBEEF) == 0x4ADFB90F68C9EB9B


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


def _one_link_at_a_time(topo):
    """(links, adj, pair -> link id) built the way Topology once built them:
    each link appended to all three as it is added, in build order."""
    spec = topo.spec
    links, adj, by_pair = [], [[] for _ in range(topo.n_nodes)], {}

    def add(a, b, rate):
        lid = len(links)
        links.append((lid, a, b, rate))
        adj[a].append((b, lid))
        adj[b].append((a, lid))
        by_pair[(a, b) if a < b else (b, a)] = lid

    if spec.kind == TWO_TIER:
        cores = list(topo.core_ids)
        for i, ci in enumerate(cores):
            for cj in cores[i + 1:]:
                add(ci, cj, spec.core_mesh_bps)
        for acc in topo.access_ids:
            for ci in cores:
                add(acc, ci, spec.access_uplink_bps)
    else:
        for agg in topo.agg_ids:
            for ci in topo.core_ids:
                add(agg, ci, spec.agg_core_bps)
        pair_count = spec.agg_count // 2
        pod_size = spec.access_count // pair_count
        for k, acc in enumerate(topo.access_ids):
            pair = topo.aggs_of_pod(min(k // pod_size, pair_count - 1))
            add(acc, pair[0], spec.access_uplink_bps)
            add(acc, pair[1], spec.access_uplink_bps)
    for k, srv in enumerate(topo.server_ids):
        add(srv, topo.access_ids.start + k // spec.servers_per_access, spec.server_rate_bps)
    for nbrs in adj:
        nbrs.sort()
    return links, adj, by_pair


@pytest.mark.parametrize("name", sorted(ARCHITECTURES))
def test_links_and_adjacency_equal_a_one_link_at_a_time_build(name):
    topo = build_topology(ARCHITECTURES[name])
    links, adj, by_pair = _one_link_at_a_time(topo)
    assert [(ln.id, ln.a, ln.b, ln.rate_bps) for ln in topo.links] == links
    assert topo.adj == adj
    link_of = link_ids(topo)
    assert len(link_of) == 2 * len(by_pair)
    for (a, b), lid in by_pair.items():
        assert link_of[a, b] == link_of[b, a] == lid


@pytest.mark.parametrize("flip", [False, True], ids=["same-order", "reversed"])
def test_a_duplicate_link_is_an_invalid_spec(monkeypatch, flip):
    """The fabric builders never repeat a pair, so the check is reached by
    a builder that adds agg 3 - core 1 a second time."""
    build = Topology._build

    def with_duplicate(self):
        triples = build(self)
        assert triples[3][:2] == (3, 1)
        return triples + [(1, 3, 1e10) if flip else (3, 1, 1e10)]

    monkeypatch.setattr(Topology, "_build", with_duplicate)
    with pytest.raises(InvalidSpec, match=r"^duplicate link between nodes \(1, 3\)$"):
        build_topology(small_three_tier())
