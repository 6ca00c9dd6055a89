"""Fabric topologies for the simulated data center.

Three switching fabrics are supported: a two-tier fabric (access switches
wired to a full mesh of core switches), a classic three-tier fabric
(access -> aggregation -> core), and a three-tier high-speed variant that
keeps the three-tier shape but multiplies trunk rates by ten.

Node ids are assigned layer-major: cores first, then aggregation, then
access switches, then servers.  Link ids follow build order, which is a
fixed function of the spec, so two builds of the same spec are identical.
External traffic terminates at the gateway, which is core switch 0.

Equal-cost paths come from one breadth-first search per root switch, run
over the switches and trunk links only: servers are leaves, so the server
hop at either end of a path is added afterwards.  The search keeps, per
switch, the number of shortest paths from the root and the predecessors
(with the link to each); the k-th path is decoded by walking backward from
the destination.  Paths that avoid dark switches are picked the same way,
with the counts replaced by live-path counts from a small DP over the
destination's predecessors, so they keep their order in the full
enumeration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_TIER = "two_tier"
THREE_TIER = "three_tier"
THREE_TIER_HS = "three_tier_hs"
KINDS = (TWO_TIER, THREE_TIER, THREE_TIER_HS)

ROLE_CORE = 0
ROLE_AGG = 1
ROLE_ACCESS = 2
ROLE_SERVER = 3
ROLE_NAMES = {ROLE_CORE: "core", ROLE_AGG: "aggregation",
              ROLE_ACCESS: "access", ROLE_SERVER: "server"}

_MASK64 = (1 << 64) - 1


class InvalidSpec(ValueError):
    """Raised when an architecture spec fails validation."""


class Unreachable(RuntimeError):
    """Raised when no path exists between two endpoints."""


def splitmix64(x: int) -> int:
    """Deterministic 64-bit integer mix (splitmix64 finalizer)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ArchitectureSpec:
    kind: str
    core_count: int
    agg_count: int
    access_count: int
    servers_per_access: int = 3
    server_rate_bps: float = 1e9
    access_uplink_bps: float = 1e9
    agg_core_bps: float = 1e10
    core_mesh_bps: float = 1e10
    uplinks_per_access: int = 2
    link_delay_s: float = 10e-9

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpec(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("core_count", "access_count", "servers_per_access"):
            if getattr(self, name) < 1:
                raise InvalidSpec(f"{name} must be >= 1")
        for name in ("server_rate_bps", "access_uplink_bps", "link_delay_s"):
            if getattr(self, name) <= 0:
                raise InvalidSpec(f"{name} must be positive")
        if self.kind == TWO_TIER:
            if self.agg_count != 0:
                raise InvalidSpec("agg_count must be 0 for a two_tier fabric")
        else:
            if self.agg_count < 2 or self.agg_count % 2:
                raise InvalidSpec("agg_count must be an even number >= 2")
            if self.uplinks_per_access != 2:
                raise InvalidSpec("uplinks_per_access must be 2 (paired aggregation)")
            if self.agg_core_bps <= 0:
                raise InvalidSpec("agg_core_bps must be positive")

    @property
    def server_count(self) -> int:
        return self.access_count * self.servers_per_access

    @property
    def switch_count(self) -> int:
        return self.core_count + self.agg_count + self.access_count


@dataclass(frozen=True)
class Link:
    id: int
    a: int
    b: int
    rate_bps: float
    delay_s: float


@dataclass(frozen=True)
class Path:
    """A loop-free route as a node sequence plus the link ids joining it."""
    nodes: tuple[int, ...]
    links: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.links)


class Topology:
    def __init__(self, spec: ArchitectureSpec):
        spec.validate()
        self.spec = spec
        c, a, x = spec.core_count, spec.agg_count, spec.access_count
        self.core_ids = range(0, c)
        self.agg_ids = range(c, c + a)
        self.access_ids = range(c + a, c + a + x)
        self.server_ids = range(c + a + x, c + a + x + spec.server_count)
        self.n_nodes = c + a + x + spec.server_count
        self.roles = ([ROLE_CORE] * c + [ROLE_AGG] * a + [ROLE_ACCESS] * x
                      + [ROLE_SERVER] * spec.server_count)
        self.links: list[Link] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        self._link_by_pair: dict[tuple[int, int], int] = {}
        self._build()
        for nbrs in self.adj:
            nbrs.sort()
        # per-root BFS caches for shortest-path queries over the switch
        # layer, and the trunk links' endpoint arrays used to vectorize the
        # predecessor extraction.  Server links come last, one per server in
        # id order, so they are found by arithmetic.
        self._n_switches = self.server_ids.start
        self._server_link0 = len(self.links) - spec.server_count
        self._sp_cache: dict[int, tuple[list[int], ...]] = {}
        trunks = self.links[:self._server_link0]
        self._la = np.fromiter((ln.a for ln in trunks), dtype=np.int64, count=len(trunks))
        self._lb = np.fromiter((ln.b for ln in trunks), dtype=np.int64, count=len(trunks))

    # -- construction -----------------------------------------------------

    def _add_link(self, a: int, b: int, rate: float) -> None:
        lid = len(self.links)
        self.links.append(Link(lid, a, b, rate, self.spec.link_delay_s))
        self.adj[a].append((b, lid))
        self.adj[b].append((a, lid))
        key = (a, b) if a < b else (b, a)
        if key in self._link_by_pair:
            raise InvalidSpec(f"duplicate link between nodes {key}")
        self._link_by_pair[key] = lid

    def _build(self) -> None:
        s = self.spec
        if s.kind == TWO_TIER:
            cores = list(self.core_ids)
            for i, ci in enumerate(cores):
                for cj in cores[i + 1:]:
                    self._add_link(ci, cj, s.core_mesh_bps)
            for acc in self.access_ids:
                for ci in cores:
                    self._add_link(acc, ci, s.access_uplink_bps)
        else:
            for agg in self.agg_ids:
                for ci in self.core_ids:
                    self._add_link(agg, ci, s.agg_core_bps)
            pair_count = s.agg_count // 2
            pod_size = s.access_count // pair_count
            agg0 = self.agg_ids.start
            for k, acc in enumerate(self.access_ids):
                # contiguous pods: each block of racks dual-homes onto one
                # aggregation pair, so consolidation by id stays podwise
                pair = min(k // pod_size, pair_count - 1)
                self._add_link(acc, agg0 + 2 * pair, s.access_uplink_bps)
                self._add_link(acc, agg0 + 2 * pair + 1, s.access_uplink_bps)
        acc0 = self.access_ids.start
        for k, srv in enumerate(self.server_ids):
            self._add_link(srv, acc0 + k // s.servers_per_access, s.server_rate_bps)

    # -- lookups ----------------------------------------------------------

    @property
    def gateway(self) -> int:
        """Core switch that terminates external traffic."""
        return self.core_ids.start

    def role(self, node: int) -> int:
        return self.roles[node]

    def access_of_server(self, server: int) -> int:
        k = server - self.server_ids.start
        return self.access_ids.start + k // self.spec.servers_per_access

    def servers_of_access(self, access: int) -> range:
        k = access - self.access_ids.start
        s0 = self.server_ids.start + k * self.spec.servers_per_access
        return range(s0, s0 + self.spec.servers_per_access)

    @property
    def pod_count(self) -> int:
        """Aggregation pairs in a three-tier fabric; 0 when there is none."""
        return self.spec.agg_count // 2

    def pod_of_access(self, access: int) -> int:
        pairs = self.pod_count
        k = access - self.access_ids.start
        return min(k // (self.spec.access_count // pairs), pairs - 1)

    def aggs_of_pod(self, pod: int) -> tuple[int, int]:
        a0 = self.agg_ids.start + 2 * pod
        return (a0, a0 + 1)

    def link_between(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        return self._link_by_pair[key]

    # -- shortest-path machinery ------------------------------------------

    def _bfs(self, root: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """Shortest-path layers from one switch, over the switch layer only.

        Servers are leaves, so no shortest path between switches passes
        through one; the server hop at either end is added by the callers.
        Returns (dist, path_count, pred_offsets, pred_flat, pred_link) over
        switch ids, where the last three encode, per switch, the neighbors
        one hop closer to the root and the link to each.  Predecessors are
        listed in link-id order, links whose b end is the switch first.
        Everything is cached per root; plain lists keep the decode loop in
        fast-path Python.
        """
        cached = self._sp_cache.get(root)
        if cached is not None:
            return cached
        n = self._n_switches
        dist = [-1] * n
        cnt = [0] * n
        dist[root] = 0
        cnt[root] = 1
        q = deque([root])
        adj = self.adj
        while q:
            v = q.popleft()
            dv = dist[v]
            for w, _lid in adj[v]:
                if w >= n:
                    continue   # a server: a leaf, never on the way to a switch
                if dist[w] < 0:
                    dist[w] = dv + 1
                    cnt[w] = cnt[v]
                    q.append(w)
                elif dist[w] == dv + 1:
                    cnt[w] += cnt[v]
        d = np.array(dist, dtype=np.int64)
        da, db = d[self._la], d[self._lb]
        fwd = (da >= 0) & (da + 1 == db)   # pred of link.b is link.a
        bwd = (db >= 0) & (db + 1 == da)
        child = np.concatenate((self._lb[fwd], self._la[bwd]))
        parent = np.concatenate((self._la[fwd], self._lb[bwd]))
        lids = np.concatenate((np.flatnonzero(fwd), np.flatnonzero(bwd)))
        order = np.argsort(child, kind="stable")
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(child, minlength=n), out=off[1:])
        entry = (dist, cnt, off.tolist(), parent[order].tolist(), lids[order].tolist())
        self._sp_cache[root] = entry
        return entry

    def _endpoints(self, src: int, dst: int) -> None:
        for node in (src, dst):
            if self.roles[node] == ROLE_SERVER or node == self.gateway:
                continue
            raise ValueError(f"node {node} is not a server or the gateway")
        if src == dst:
            raise ValueError("src and dst must differ")

    def _anchor(self, node: int) -> int:
        """The switch a path endpoint attaches through: its rack switch for
        a server, the endpoint itself for the gateway."""
        return self.access_of_server(node) if self.roles[node] == ROLE_SERVER else node

    def _tree(self, src: int, dst: int):
        """Validated endpoints -> (root, dst's switch, BFS entry of root)."""
        self._endpoints(src, dst)
        # all shortest paths from a server leave through its access switch,
        # so the BFS cache only needs switch-layer roots
        root = self._anchor(src)
        end = self._anchor(dst)
        entry = self._bfs(root)
        if entry[0][end] < 0:
            raise Unreachable(f"no path from {src} to {dst}")
        return root, end, entry

    def _walk(self, src: int, dst: int, root: int, end: int, entry, k: int, count) -> Path:
        """Decode the k-th path, walking backward from dst: predecessor
        choices partition the index by count[pred], the number of paths
        (of the kind being enumerated) from the root to that predecessor."""
        _dist, _cnt, off, pred, plink = entry
        nodes = [dst]
        links = []
        if end != dst:
            nodes.append(end)
            links.append(self._server_link0 + dst - self.server_ids.start)
        node = end
        while node != root:
            for i in range(off[node], off[node + 1]):
                w = pred[i]
                c = count[w]
                if k < c:
                    nodes.append(w)
                    links.append(plink[i])
                    node = w
                    break
                k -= c
            else:
                raise Unreachable(f"broken predecessor chain at node {node}")
        if root != src:
            nodes.append(src)
            links.append(self._server_link0 + src - self.server_ids.start)
        nodes.reverse()
        links.reverse()
        return Path(tuple(nodes), tuple(links))

    def path_count(self, src: int, dst: int) -> int:
        """Number of equal-cost (minimum-hop) paths between endpoints."""
        _root, end, entry = self._tree(src, dst)
        return entry[1][end]

    def kth_path(self, src: int, dst: int, k: int) -> Path:
        """The k-th equal-cost path, in a fixed deterministic order."""
        root, end, entry = self._tree(src, dst)
        cnt = entry[1]
        if not 0 <= k < cnt[end]:
            raise IndexError(f"path index {k} out of range ({cnt[end]} paths)")
        return self._walk(src, dst, root, end, entry, k, cnt)

    def live_path(self, src: int, dst: int, k: int, live: Sequence[bool]) -> Path | None:
        """The (k mod m)-th of the m equal-cost paths whose switches are all
        live (live[switch id] true), or None when m is 0.

        Live paths keep their order in the full enumeration, so this equals
        ``[p for p in equal_cost_paths(src, dst) if <p is live>][k % m]``.
        The live-path counts are a memoised DP over the ancestors of dst's
        switch only, a handful of nodes, so no dead path is decoded.
        """
        root, end, entry = self._tree(src, dst)
        _dist, _cnt, off, pred, _plink = entry
        memo: dict[int, int] = {}

        def count(v: int) -> int:
            m = memo.get(v)
            if m is None:
                if not live[v]:
                    m = 0
                elif v == root:
                    m = 1
                else:
                    m = 0
                    for i in range(off[v], off[v + 1]):
                        m += count(pred[i])
                memo[v] = m
            return m

        m = count(end)
        if m == 0:
            return None
        return self._walk(src, dst, root, end, entry, k % m, memo)

    def equal_cost_paths(self, src: int, dst: int) -> list[Path]:
        """Exhaustive set of minimum-hop paths between two endpoints."""
        return [self.kth_path(src, dst, k) for k in range(self.path_count(src, dst))]

    # -- export ------------------------------------------------------------

    def to_dot(self) -> str:
        out = ["graph datacenter {"]
        for n in range(self.n_nodes):
            out.append(f'  n{n} [label="{ROLE_NAMES[self.roles[n]]}{n}"];')
        for ln in self.links:
            out.append(f"  n{ln.a} -- n{ln.b} [rate={ln.rate_bps:g}];")
        out.append("}")
        return "\n".join(out)


def build_topology(spec: ArchitectureSpec) -> Topology:
    return Topology(spec)


def equal_cost_paths(topology: Topology, src: int, dst: int) -> list[Path]:
    return topology.equal_cost_paths(src, dst)


def select_path(paths: Sequence[Path], flow_key: int) -> Path:
    """Pick one path deterministically from an equal-cost set."""
    if not paths:
        raise ValueError("empty path set")
    return paths[splitmix64(flow_key) % len(paths)]
