"""Fabric topologies for the simulated data center.

Three switching fabrics are supported: a two-tier fabric (access switches
wired to a full mesh of core switches), a classic three-tier fabric
(access -> aggregation -> core), and a three-tier high-speed variant that
keeps the three-tier shape but multiplies trunk rates by ten.

Node ids are assigned layer-major: cores first, then aggregation, then
access switches, then servers.  Link ids follow build order, which is a
fixed function of the spec, so two builds of the same spec are identical.
External traffic terminates at the gateway, which is core switch 0.

Equal-cost paths follow from pod and index arithmetic, because each fabric
is regular: a three-tier rack switch is dual-homed onto its pod's
aggregation pair (Topology.pair_of) and every aggregation switch is wired
to every core; a two-tier rack switch is wired to every core.  So the
minimum-hop paths between two endpoints are one choice per tier between
them (aggregation switch on the destination's side, core, aggregation
switch on the source's side), the k-th path is k read as a mixed-radix
number over those choices, and link ids come from the build order.  Paths
that avoid dark switches are the same product over each tier's live
switches, so they keep their order in the full enumeration.  Nothing is
searched or cached per root; a pick with every switch up is kept, per
endpoint pair and path index, and handed out again (Topology.pick_path).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf, prod
from typing import NamedTuple, Sequence

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

# most links a fabric may have (the 1536-server presets have 2,624)
MAX_LINKS = 1_000_000


class InvalidSpec(ValueError):
    """Raised when an architecture spec fails validation."""


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

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpec(f"kind must be one of {KINDS}, got {self.kind!r}")
        # written so that a NaN fails each range test
        for name in ("core_count", "access_count", "servers_per_access"):
            if not 1 <= getattr(self, name) < inf:
                raise InvalidSpec(f"{name} must be a finite count >= 1")
        for name in ("server_rate_bps", "access_uplink_bps", "agg_core_bps", "core_mesh_bps"):
            if not 0.0 < getattr(self, name) < inf:
                raise InvalidSpec(f"{name} must be a finite positive number")
        if self.kind == TWO_TIER:
            if self.agg_count != 0:
                raise InvalidSpec("agg_count must be 0 for a two_tier fabric")
        else:
            if not (2 <= self.agg_count < inf and self.agg_count % 2 == 0):
                raise InvalidSpec("agg_count must be a finite even number >= 2")
            if self.access_count < self.agg_count // 2:
                raise InvalidSpec("access_count must be at least the number of "
                                  "aggregation pairs (agg_count // 2)")
        if self.link_count > MAX_LINKS:
            raise InvalidSpec(f"the fabric has more than the {MAX_LINKS:,} links a run may hold")

    def port_rates(self) -> set[tuple[float, int]]:
        """(native link rate, switch role) of every kind of switch port the
        fabric has, which is what the port power tables must cover."""
        if self.kind == TWO_TIER:
            rates = {(self.access_uplink_bps, ROLE_ACCESS), (self.access_uplink_bps, ROLE_CORE)}
            if self.core_count > 1:
                rates.add((self.core_mesh_bps, ROLE_CORE))
        else:
            rates = {(self.access_uplink_bps, ROLE_ACCESS), (self.access_uplink_bps, ROLE_AGG),
                     (self.agg_core_bps, ROLE_AGG), (self.agg_core_bps, ROLE_CORE)}
        rates.add((self.server_rate_bps, ROLE_ACCESS))
        return rates

    @property
    def server_count(self) -> int:
        return self.access_count * self.servers_per_access

    @property
    def link_count(self) -> int:
        """Trunks plus server links."""
        c, x = self.core_count, self.access_count
        trunks = c * (c - 1) // 2 + x * c if self.kind == TWO_TIER else self.agg_count * c + 2 * x
        return trunks + self.server_count


class Link(NamedTuple):
    id: int
    a: int
    b: int
    rate_bps: float


class Path(NamedTuple):
    """A loop-free route as a node sequence, the link ids joining it and
    the directed links it takes: 2 * link id, plus 1 where the hop runs
    from the link's higher node id to its lower one."""
    nodes: tuple[int, ...]
    links: tuple[int, ...]
    dirs: tuple[int, ...]


class Topology:
    def __init__(self, spec: ArchitectureSpec):
        self.spec = spec
        c, a, x = spec.core_count, spec.agg_count, spec.access_count
        self.core_ids = range(0, c)
        self.agg_ids = range(c, c + a)
        self.access_ids = range(c + a, c + a + x)
        self.server_ids = range(c + a + x, c + a + x + spec.server_count)
        self.n_nodes = c + a + x + spec.server_count
        self.roles = ([ROLE_CORE] * c + [ROLE_AGG] * a + [ROLE_ACCESS] * x
                      + [ROLE_SERVER] * spec.server_count)
        # aggregation pair of each rack switch, one shared tuple per pod
        # (three-tier; filled by _build)
        self._pair_of_rack: list[tuple[int, int]] = []
        self.links: list[Link] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        links, adj, pairs = self.links, self.adj, set()
        for lid, (u, v, rate) in enumerate(self._build()):
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                raise InvalidSpec(f"duplicate link between nodes {key}")
            pairs.add(key)
            links.append(Link(lid, u, v, rate))
            adj[u].append((v, lid))
            adj[v].append((u, lid))
        for nbrs in adj:
            nbrs.sort()
        # Routing tables, closed forms of the build order.  Every hop of a
        # path joins nodes u < v over link base[v] + off[u]:
        #   aggregation switch g - core c: (g - agg0) * C + c
        #   rack switch r - uplink j: first uplink + (r - acc0) * uplinks + j,
        #     j being the core's id (two-tier) or g's place in its pair
        #   server s - its rack switch: the server links, last, in id order
        srv0, n_srv = self.server_ids.start, spec.server_count
        uplink0, uplinks = (a * c, 2) if a else (c * (c - 1) // 2, c)
        server_link0 = len(self.links) - n_srv
        self._link_base = ([0] * c + [i * c for i in range(a)]
                           + [uplink0 + i * uplinks for i in range(x)]
                           + list(range(server_link0, server_link0 + n_srv)))
        self._link_off = [*self.core_ids, *(i & 1 for i in range(a)), *[0] * x]
        # the switch a path endpoint attaches through: a server's rack
        # switch, the gateway itself; -1 for nodes that cannot end a path
        spa = spec.servers_per_access
        self._anchor = [-1] * srv0 + [self.access_ids.start + i // spa for i in range(n_srv)]
        self._anchor[self.gateway] = self.gateway
        # paths are closed forms, so nothing is cached per root; the empty
        # dict stays because bench/run.py reports its length as
        # topology.bfs_sources
        self._sp_cache: dict = {}
        # the picks made with every switch up: (src, dst) -> (path count,
        # {path index: path}, then _tiers(src, dst) for decoding the rest)
        self._picks: dict[tuple[int, int], tuple] = {}

    # -- construction -----------------------------------------------------

    def _build(self) -> list[tuple[int, int, float]]:
        """(a, b, native rate) of every link, in link id order."""
        s = self.spec
        if s.kind == TWO_TIER:
            triples = [(ci, cj, s.core_mesh_bps) for ci, cj in combinations(self.core_ids, 2)]
            triples += [(acc, ci, s.access_uplink_bps)
                        for acc in self.access_ids for ci in self.core_ids]
        else:
            triples = [(agg, ci, s.agg_core_bps) for agg in self.agg_ids for ci in self.core_ids]
            pods = [self.aggs_of_pod(p) for p in range(self.pod_count)]
            for acc in self.access_ids:
                # contiguous pods: each block of racks dual-homes onto one
                # aggregation pair, so consolidation by id stays podwise
                pair = pods[self.pod_of_access(acc)]
                triples += [(acc, pair[0], s.access_uplink_bps),
                            (acc, pair[1], s.access_uplink_bps)]
                self._pair_of_rack.append(pair)
        acc0, spa = self.access_ids.start, s.servers_per_access
        triples += [(srv, acc0 + k // spa, s.server_rate_bps)
                    for k, srv in enumerate(self.server_ids)]
        return triples

    # -- lookups ----------------------------------------------------------

    @property
    def gateway(self) -> int:
        """Core switch that terminates external traffic."""
        return self.core_ids.start

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

    def racks_of_pod(self, pod: int) -> range:
        """Inverse of pod_of_access: contiguous blocks, the last pod taking
        the remainder."""
        size, acc = self.spec.access_count // self.pod_count, self.access_ids
        last = pod == self.pod_count - 1
        return range(acc.start + pod * size, acc.stop if last else acc.start + (pod + 1) * size)

    def pair_of(self, access: int) -> tuple[int, ...]:
        """The aggregation pair a rack switch is wired to; () on two-tier."""
        pairs = self._pair_of_rack
        return pairs[access - self.access_ids.start] if pairs else ()

    def pod_of_agg(self, agg: int) -> int:
        return (agg - self.agg_ids.start) // 2

    def aggs_of_pod(self, pod: int) -> tuple[int, int]:
        a0 = self.agg_ids.start + 2 * pod
        return (a0, a0 + 1)

    # -- equal-cost paths --------------------------------------------------

    def _tiers(self, src: int, dst: int) -> tuple[int, int, tuple]:
        """Validated endpoints -> (first switch, last switch, tiers).

        Every minimum-hop path runs src, the first switch (src's rack switch,
        or src itself for the gateway), one switch from each tier, the last
        switch, dst.  The tiers are listed from dst's side, which is the
        enumeration order: a path's index is a mixed-radix number whose most
        significant digit picks in tiers[0] and whose least significant digit
        picks in tiers[-1], next to src, each in switch-id order.
        """
        a, b = self._anchor[src], self._anchor[dst]
        if a < 0 or b < 0:
            raise ValueError(f"node {src if a < 0 else dst} is not a server or the gateway")
        if src == dst:
            raise ValueError("src and dst must differ")
        if a == b:
            return a, b, ()
        gw = self.gateway
        if not self._pair_of_rack:
            # two-tier: racks meet over any core, and the gateway is a core
            # every rack switch is wired to
            return a, b, (() if gw in (a, b) else (self.core_ids,))
        pairs = self._pair_of_rack
        acc0 = self.access_ids.start
        if a == gw:
            return a, b, (pairs[b - acc0],)
        if b == gw:
            return a, b, (pairs[a - acc0],)
        pa, qa = pairs[a - acc0], pairs[b - acc0]
        if pa is qa:
            return a, b, (pa,)
        return a, b, (qa, self.core_ids, pa)

    def _path(self, src: int, dst: int, a: int, b: int, tiers, k: int) -> Path:
        """The path whose index is k modulo the product of the tier sizes."""
        nodes = [a] if a == src else [src, a]
        for tier in reversed(tiers):
            k, j = divmod(k, len(tier))
            nodes.append(tier[j])
        if b != a:
            nodes.append(b)
        if b != dst:
            nodes.append(dst)
        base, off = self._link_base, self._link_off
        dirs = [2 * (base[v] + off[u]) if u < v else 2 * (base[u] + off[v]) + 1
                for u, v in zip(nodes, nodes[1:])]
        return Path(tuple(nodes), tuple([d >> 1 for d in dirs]), tuple(dirs))

    @staticmethod
    def _live_tiers(a: int, b: int, tiers, live: Sequence[bool]):
        """The tiers cut to their live switches, or None when no path is live.
        Cutting every tier keeps the live paths in their enumeration order."""
        if live[a] and live[b]:
            up = [[w for w in tier if live[w]] for tier in tiers]
            if all(up):
                return up
        return None

    def path_count(self, src: int, dst: int) -> int:
        """Number of equal-cost (minimum-hop) paths between endpoints."""
        return prod(map(len, self._tiers(src, dst)[2]))

    def kth_path(self, src: int, dst: int, k: int) -> Path:
        """The k-th equal-cost path, in a fixed deterministic order."""
        a, b, tiers = self._tiers(src, dst)
        n = prod(map(len, tiers))
        if not 0 <= k < n:
            raise IndexError(f"path index {k} out of range ({n} paths)")
        return self._path(src, dst, a, b, tiers, k)

    def pick_path(self, src: int, dst: int, k: int, live: Sequence[bool] | None = None) -> Path:
        """The path a transfer hashed to k takes: when live is given and
        some of the equal-cost paths have all their switches live
        (live[switch id] true), the (k mod m)-th of those m, which keep their
        order in the full enumeration; else the (k mod n)-th of all n paths.
        Checks the endpoints and decodes once.  With live None the pick is
        kept and the same Path handed out for (src, dst, k mod n) again;
        _path reads only k's low mixed-radix digits, so it is the path a
        decode would give.  A pick under live is decoded afresh each time."""
        if live is None:
            entry = self._picks.get((src, dst))
            if entry is None:
                a, b, tiers = self._tiers(src, dst)
                entry = self._picks[src, dst] = (prod(map(len, tiers)), {}, a, b, tiers)
            n, paths, a, b, tiers = entry
            j = k % n
            path = paths.get(j)
            if path is None:
                path = paths[j] = self._path(src, dst, a, b, tiers, j)
            return path
        a, b, tiers = self._tiers(src, dst)
        up = self._live_tiers(a, b, tiers, live)
        if up is not None:
            tiers = up
        return self._path(src, dst, a, b, tiers, k)

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
