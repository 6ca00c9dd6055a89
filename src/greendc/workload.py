"""Synthetic job streams.

Jobs arrive in a Poisson process and carry an exponentially distributed
compute demand plus communication volume proportional to compute.  Three
job classes fix the communication-to-compute ratio: computationally
intensive jobs move ten times less data than compute, data-intensive jobs
ten times more, and balanced jobs as much data as compute.  Class counts
match the requested mix exactly (largest-remainder apportionment); only
their order is random.  Generation is driven by a named 64-bit generator
(PCG64) with a fixed draw order -- arrival gaps, then compute demands,
then the class shuffle -- so a (spec, seed) pair yields a bit-identical
stream on any platform and two mixes share the same arrival and size
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

CIW = "ciw"
DIW = "diw"
BALANCED = "balanced"
CLASS_ORDER = (CIW, DIW, BALANCED)

# bytes moved per CPU-second of compute, per unit of comm/compute ratio
COMM_COMPUTE_RATIO = {CIW: 0.1, DIW: 10.0, BALANCED: 1.0}

# most jobs a workload may expect (job_count, or duration over the mean
# interarrival time), so that a mistyped rate is a config error rather
# than a failed allocation: 360 times a preset's 60 s horizon
# (reference-30 offers about 461 jobs/s, 27,648 jobs), or six hours of it
MAX_EXPECTED_JOBS = 10_000_000


class Job(NamedTuple):
    """One job of the stream: an immutable tuple, built a whole column at a
    time by generate."""
    id: int
    arrival: float
    job_class: str
    compute_demand: float        # CPU-seconds at full frequency
    comm_internal_bytes: float
    comm_external_bytes: float
    deadline: float


@dataclass(frozen=True)
class WorkloadSpec:
    """Sized by job_count or duration; with neither it is a template that a
    scenario sizes from its horizon."""
    mean_interarrival: float = 1.0
    mean_compute: float = 1.0
    class_mix: tuple[float, float, float] = (0.0, 0.0, 1.0)  # (ciw, diw, balanced)
    bytes_per_cpu_second: float = 1e6
    internal_fraction: float = 0.8
    deadline_slack: float = 2.0
    nic_rate_bps: float = 1e9
    seed: int = 1
    job_count: int | None = None
    duration: float | None = None

    def __post_init__(self) -> None:
        # written so that a NaN fails each range test
        if not (0.0 < self.mean_interarrival < math.inf and 0.0 < self.mean_compute < math.inf):
            raise ValueError("mean_interarrival and mean_compute must be finite and positive")
        if not (abs(sum(self.class_mix) - 1.0) <= 1e-9 and min(self.class_mix) >= 0):
            raise ValueError("class_mix must be finite, non-negative and sum to 1")
        if not 0.0 <= self.internal_fraction <= 1.0:
            raise ValueError("internal_fraction must be a finite number in [0, 1]")
        if not 0.0 < self.deadline_slack < math.inf:
            raise ValueError("deadline_slack must be finite and positive")
        if not 0.0 < self.nic_rate_bps < math.inf:
            raise ValueError("nic_rate_bps must be finite and positive")
        if not 0.0 <= self.bytes_per_cpu_second < math.inf:
            raise ValueError("bytes_per_cpu_second must be finite and non-negative")
        if not 0 <= self.seed < math.inf:
            raise ValueError("seed must be a finite number >= 0")
        if self.job_count is not None and self.duration is not None:
            raise ValueError("job_count and duration cannot both be set")
        if self.job_count is not None and not 1 <= self.job_count < math.inf:
            raise ValueError("job_count must be a finite count >= 1")
        if self.duration is not None and not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be finite and positive")
        expected = (self.job_count if self.job_count is not None
                    else (self.duration or 0.0) / self.mean_interarrival)
        if expected > MAX_EXPECTED_JOBS:
            raise ValueError(f"the workload expects {expected:.3g} jobs (job_count, or "
                             f"duration / mean_interarrival), more than the "
                             f"{MAX_EXPECTED_JOBS:,} a run may hold")


def _materialize(spec: WorkloadSpec, arrivals: np.ndarray, classes: np.ndarray,
                 compute: np.ndarray) -> list[Job]:
    ratios = np.array([COMM_COMPUTE_RATIO[c] for c in CLASS_ORDER])
    total_bytes = compute * ratios[classes] * spec.bytes_per_cpu_second
    internal = total_bytes * spec.internal_fraction
    external = total_bytes - internal
    transfer = total_bytes * 8.0 / spec.nic_rate_bps
    deadline = arrivals + spec.deadline_slack * (compute + transfer)
    # tolist turns a column into built-in floats (ints for classes) with the
    # same bits; the jobs are then zipped from the columns in one pass
    return list(map(Job._make, zip(
        range(len(arrivals)), arrivals.tolist(),
        map(CLASS_ORDER.__getitem__, classes.tolist()), compute.tolist(),
        internal.tolist(), external.tolist(), deadline.tolist())))


def class_counts(mix: tuple[float, float, float], n: int) -> tuple[int, int, int]:
    """Apportion n jobs to the three classes, matching the mix exactly.

    Integer parts first, then the leftovers go to the largest fractional
    remainders (ties broken by class order).
    """
    total = sum(mix)
    quotas = [n * m / total for m in mix]
    counts = [int(q) for q in quotas]
    leftovers = sorted(range(3), key=lambda k: (counts[k] - quotas[k], k))
    for k in leftovers[: n - sum(counts)]:
        counts[k] += 1
    return tuple(counts)


def generate(spec: WorkloadSpec) -> list[Job]:
    """Produce the deterministic job stream described by the spec, which
    must be sized by a job count or a duration."""
    if spec.job_count is None and spec.duration is None:
        raise ValueError("one of job_count or duration must be set")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.job_count is not None:
        n = spec.job_count
        gaps = np.maximum(rng.exponential(spec.mean_interarrival, n), 1e-12)
        arrivals = np.cumsum(gaps)
    else:
        # draw in chunks until the horizon is covered; chunking is part of
        # the fixed draw order so results do not depend on the chunk size
        chunk = max(1024, int(spec.duration / spec.mean_interarrival * 1.1) + 64)
        gaps = np.maximum(rng.exponential(spec.mean_interarrival, chunk), 1e-12)
        arrivals = np.cumsum(gaps)
        while arrivals[-1] <= spec.duration:
            gaps = np.maximum(rng.exponential(spec.mean_interarrival, chunk), 1e-12)
            arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(gaps)])
        n = int(np.searchsorted(arrivals, spec.duration, side="left"))
        arrivals = arrivals[:n]
        if n == 0:
            return []
    compute = np.maximum(rng.exponential(spec.mean_compute, n), 1e-12)
    classes = np.repeat(np.arange(3), class_counts(spec.class_mix, n))
    classes = rng.permutation(classes)
    return _materialize(spec, arrivals, classes, compute)


def load_for_target(server_capacity_cps: float, target_utilization: float,
                    spec: WorkloadSpec) -> WorkloadSpec:
    """Rescale the arrival rate so offered compute load hits the target.

    ``server_capacity_cps`` is the aggregate CPU-seconds per second the
    fleet can serve at full frequency (one per server).
    """
    if server_capacity_cps <= 0:
        raise ValueError("server_capacity_cps must be positive")
    if not 0 < target_utilization <= 1:
        raise ValueError("target_utilization must be in (0, 1]")
    rate = target_utilization * server_capacity_cps / spec.mean_compute
    return replace(spec, mean_interarrival=1.0 / rate)
