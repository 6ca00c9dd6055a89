"""Spans around greendc's public call sites, installed from outside.

The benchmark does not edit the simulator: it replaces a handful of module
and class attributes with timing wrappers for the length of one traced run
and puts the originals back afterwards.  Each wrapped call is a span with a
name, start, end and parent; a span's self time is its duration minus the
durations of its direct children.  Spans of frequent calls (routing, event
pushes, path decoding, fair-share) are aggregated as they close; the rest
are kept in memory, with the job id where the call has one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from greendc import engine, fairshare, report, topology


@dataclass
class SpanStats:
    """Aggregate over every span of one name."""
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    by_parent: dict = field(default_factory=dict)   # parent name -> calls


class Tracer:
    """Span stack plus per-name aggregates for one traced run."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, child_s, stored index]
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)

    def wrap(self, name: str, fn, after=None, store: bool = False, job_of=None):
        """fn wrapped in a span; after(args, result, duration) sees each call."""
        stats = self.stats.setdefault(name, SpanStats())
        by_parent = stats.by_parent
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if store:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                pname = parent[0] if parent else None
                by_parent[pname] = by_parent.get(pname, 0) + 1
                if parent:
                    parent[1] += dt
                if store:
                    job = job_of(args) if job_of else None
                    spans[frame[2]] = (name, t0, t1, parent[2] if parent else None, job)
            if after is not None:
                after(args, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced


@dataclass
class LayerProbe:
    """Counters fed by the wrappers' after-hooks."""
    place_us: list = field(default_factory=list)
    admits: int = 0
    wakes: int = 0
    dns_requests: int = 0
    dark_routes: int = 0
    flows: list = field(default_factory=list)
    resources: list = field(default_factory=list)
    state: object = None   # the finished SimState handed to build_report

    def on_place(self, args, decision, dt):
        self.place_us.append(dt * 1e6)
        self.admits += decision.admit
        self.wakes += decision.needs_wake

    def on_dns_tick(self, args, requests, dt):
        self.dns_requests += len(requests)

    def on_route(self, args, path, dt):
        self.dark_routes += args[0].dark_switches > 0

    def on_allocate(self, args, rates, dt):
        self.flows.append(len(args[0]))
        self.resources.append(len(args[1]))

    def on_build_report(self, args, rep, dt):
        self.state = args[1]


# (owner, attribute, span name, probe hook, keep every span, job id of call)
_SITES = (
    (engine, "place", "scheduler.place", "on_place", True, lambda a: a[0].id),
    (engine, "dns_tick", "scheduler.dns_tick", "on_dns_tick", True, None),
    (engine.SimState, "route", "engine.route", "on_route", False, None),
    (engine.SimState, "push", "engine.push", None, False, None),
    (topology.Topology, "kth_path", "topology.kth_path", None, False, None),
    (topology.Topology, "path_count", "topology.path_count", None, False, None),
    (fairshare, "allocate", "fairshare.allocate", "on_allocate", False, None),
    (report, "build_report", "report.build_report", "on_build_report", True, None),
)


class Installed:
    """Wrappers in place on every call site until the with-block ends."""

    def __init__(self, tracer: Tracer, probe: LayerProbe):
        self.saved = []
        for owner, attr, name, hook, store, job_of in _SITES:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            after = getattr(probe, hook) if hook else None
            setattr(owner, attr, tracer.wrap(name, original, after, store, job_of))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        return False
