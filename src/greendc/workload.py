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

import csv
from dataclasses import dataclass, replace
from typing import Iterable

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


@dataclass(frozen=True)
class Job:
    id: int
    arrival: float
    job_class: str
    compute_demand: float        # CPU-seconds at full frequency
    comm_internal_bytes: float
    comm_external_bytes: float
    deadline: float


@dataclass(frozen=True)
class WorkloadSpec:
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

    def validate(self) -> None:
        if self.mean_interarrival <= 0 or self.mean_compute <= 0:
            raise ValueError("mean_interarrival and mean_compute must be positive")
        if abs(sum(self.class_mix) - 1.0) > 1e-9 or min(self.class_mix) < 0:
            raise ValueError("class_mix must be non-negative and sum to 1")
        if not 0.0 <= self.internal_fraction <= 1.0:
            raise ValueError("internal_fraction must be in [0, 1]")
        if self.deadline_slack <= 0:
            raise ValueError("deadline_slack must be positive")
        if (self.job_count is None) == (self.duration is None):
            raise ValueError("exactly one of job_count or duration must be set")
        if self.job_count is not None and self.job_count < 1:
            raise ValueError("job_count must be >= 1")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")
        expected = (self.job_count if self.job_count is not None
                    else self.duration / self.mean_interarrival)
        if expected > MAX_EXPECTED_JOBS:
            raise ValueError(f"the workload expects {expected:.3g} jobs (job_count, or "
                             f"duration / mean_interarrival), more than the "
                             f"{MAX_EXPECTED_JOBS:,} a run may hold")


def ideal_transfer_seconds(total_bytes: float, nic_rate_bps: float) -> float:
    """Transfer time of a job's traffic over an uncontended NIC."""
    return total_bytes * 8.0 / nic_rate_bps


def _materialize(spec: WorkloadSpec, arrivals: np.ndarray, classes: np.ndarray,
                 compute: np.ndarray) -> list[Job]:
    ratios = np.array([COMM_COMPUTE_RATIO[c] for c in CLASS_ORDER])
    total_bytes = compute * ratios[classes] * spec.bytes_per_cpu_second
    internal = total_bytes * spec.internal_fraction
    external = total_bytes - internal
    transfer = total_bytes * 8.0 / spec.nic_rate_bps
    deadline = arrivals + spec.deadline_slack * (compute + transfer)
    names = CLASS_ORDER
    return [
        Job(i, float(arrivals[i]), names[classes[i]], float(compute[i]),
            float(internal[i]), float(external[i]), float(deadline[i]))
        for i in range(len(arrivals))
    ]


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
    """Produce the deterministic job stream described by the spec."""
    spec.validate()
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


def offered_load(jobs: Iterable[Job], server_capacity_cps: float,
                 horizon: float) -> float:
    """Measured offered compute load over a horizon, as a capacity fraction."""
    demand = sum(j.compute_demand for j in jobs if j.arrival <= horizon)
    return demand / (server_capacity_cps * horizon)


_CSV_FIELDS = ("id", "arrival", "class", "compute", "bytes_int",
               "bytes_ext", "deadline")


def save_csv(jobs: Iterable[Job], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_FIELDS)
        for j in jobs:
            w.writerow([j.id, repr(j.arrival), j.job_class, repr(j.compute_demand),
                        repr(j.comm_internal_bytes), repr(j.comm_external_bytes),
                        repr(j.deadline)])


def load_csv(path: str) -> list[Job]:
    jobs = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != _CSV_FIELDS:
            raise ValueError(f"unexpected workload CSV header: {header}")
        for row in r:
            jobs.append(Job(int(row[0]), float(row[1]), row[2], float(row[3]),
                            float(row[4]), float(row[5]), float(row[6])))
    return jobs
