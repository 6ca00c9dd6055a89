"""The shared host's speed, as seen by the benchmark's own process.

The CPUs of a shared virtual machine change speed with what other tenants
run: each CPU on its own for seconds at a time, and all of them together
for minutes.  Two tools keep that out of the benchmark's numbers:

- CpuTurns moves the process to the next CPU it may use before each run,
  so one invocation samples every CPU rather than the one it started on.
- SpeedProbe times a fixed piece of pure-Python work every PROBE_EVERY_S
  while a run is in progress.  The work touches nothing of greendc, so its
  time follows the host alone, and a run's time divided by the probe's
  time measured during that run is the run's cost in units of host speed.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import statistics
import time

PROBE_EVERY_S = 0.1     # seconds between probes while a run is in progress
PROBE_STEPS = 400       # loop steps in one probe, about 0.15 ms
PROBE_RING = 50_000     # slots in the ring the probe walks, a few MB


class CpuTurns:
    """Moves this process to the next CPU it may use, one CPU per call, and
    back to its original set on close."""

    def __init__(self):
        getter = getattr(os, "sched_getaffinity", None)
        self.original = getter(0) if getter else None
        self.cpus = sorted(self.original) if self.original and len(self.original) > 1 else []
        self.turn = 0

    def next(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def close(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, self.original)


class SpeedProbe:
    """Context manager that probes the host's speed from a SIGALRM handler
    while its block runs, and once more as the block ends, so that every
    block has at least one probe.  median_s is the median probe time of
    the last block.

    The probe walks a seeded random ring of integers and updates a small
    dict and heap on the way: the pointer chasing, hashing and small-object
    work that the simulator's event loop does."""

    def __init__(self):
        rng = random.Random(0)
        order = list(range(PROBE_RING))
        rng.shuffle(order)
        self.ring = [0] * PROBE_RING
        for a, b in zip(order, order[1:] + order[:1]):
            self.ring[a] = b
        self.values = [rng.random() for _ in range(PROBE_RING)]
        self.samples: list[float] = []
        self.median_s = float("nan")
        self._previous = None

    def _work(self) -> float:
        ring, values, seen, heap = self.ring, self.values, {}, []
        i = 0
        for _ in range(PROBE_STEPS):
            i = ring[i]
            seen[i & 1023] = seen.get(i & 1023, 0.0) + values[i]
            heapq.heappush(heap, values[i])
            if len(heap) > 64:
                heapq.heappop(heap)
        return heap[0]

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self.median_s = statistics.median(self.samples)
        return False
