"""Job stream statistics and determinism."""

import collections

import numpy as np
import pytest

from greendc import workload
from greendc.workload import (
    BALANCED, CIW, CLASS_ORDER, COMM_COMPUTE_RATIO, DIW, WorkloadSpec, class_counts,
    generate, load_for_target,
)


def big_spec(**over):
    kw = dict(mean_interarrival=0.01, mean_compute=0.25,
              class_mix=(0.2, 0.3, 0.5), job_count=100_000, seed=42)
    kw.update(over)
    return WorkloadSpec(**kw)


def test_generation_is_deterministic():
    a = generate(big_spec(job_count=2000))
    b = generate(big_spec(job_count=2000))
    assert a == b
    c = generate(big_spec(job_count=2000, seed=43))
    assert a != c


def test_interarrival_mean_within_two_percent():
    jobs = generate(big_spec())
    gaps = np.diff([0.0] + [j.arrival for j in jobs])
    assert abs(gaps.mean() / 0.01 - 1.0) <= 0.02


def test_compute_mean_and_cv():
    jobs = generate(big_spec())
    compute = np.array([j.compute_demand for j in jobs])
    assert abs(compute.mean() / 0.25 - 1.0) <= 0.02
    cv = compute.std(ddof=1) / compute.mean()
    assert abs(cv - 1.0) <= 0.05   # exponential demand has unit CV


def test_interarrival_cv_is_exponential():
    jobs = generate(big_spec())
    gaps = np.diff([j.arrival for j in jobs])
    cv = gaps.std(ddof=1) / gaps.mean()
    assert abs(cv - 1.0) <= 0.05


def test_class_ratios_exact():
    jobs = generate(big_spec())
    counts = collections.Counter(j.job_class for j in jobs)
    assert counts[CIW] == 20_000
    assert counts[DIW] == 30_000
    assert counts[BALANCED] == 50_000


def test_class_counts_largest_remainder():
    assert class_counts((0.1, 0.3, 0.6), 100_000) == (10_000, 30_000, 60_000)
    assert class_counts((1 / 3, 1 / 3, 1 / 3), 10) == (4, 3, 3)
    assert class_counts((0.5, 0.25, 0.25), 5) == (3, 1, 1)
    assert class_counts((0.0, 0.0, 1.0), 7) == (0, 0, 7)
    for n in (1, 2, 17, 97):
        assert sum(class_counts((0.21, 0.34, 0.45), n)) == n


def test_mixes_share_arrival_and_compute_streams():
    pure = generate(big_spec(job_count=500, class_mix=(0.0, 0.0, 1.0)))
    mixed = generate(big_spec(job_count=500, class_mix=(0.5, 0.5, 0.0)))
    for a, b in zip(pure, mixed):
        assert a.arrival == b.arrival
        assert a.compute_demand == b.compute_demand


def test_communication_volume_tracks_class_ratio():
    jobs = generate(big_spec(job_count=3000, bytes_per_cpu_second=2e6,
                             internal_fraction=0.8))
    for j in jobs:
        total = j.comm_internal_bytes + j.comm_external_bytes
        assert total == pytest.approx(
            j.compute_demand * COMM_COMPUTE_RATIO[j.job_class] * 2e6)
        assert j.comm_internal_bytes == pytest.approx(0.8 * total)
    kinds = {j.job_class for j in jobs}
    assert kinds == {CIW, DIW, BALANCED}


def test_deadline_budgets_compute_plus_transfer():
    spec = big_spec(job_count=200, deadline_slack=2.5, nic_rate_bps=1e9)
    for j in generate(spec):
        total = j.comm_internal_bytes + j.comm_external_bytes
        want = j.arrival + 2.5 * (j.compute_demand + total * 8.0 / 1e9)
        assert j.deadline == pytest.approx(want, rel=1e-12)


def test_duration_mode_stops_at_horizon():
    spec = WorkloadSpec(mean_interarrival=0.05, duration=20.0, seed=3)
    jobs = generate(spec)
    assert jobs, "expected arrivals within the horizon"
    assert jobs[-1].arrival < 20.0
    assert all(a.arrival < b.arrival for a, b in zip(jobs, jobs[1:]))
    assert len(jobs) == pytest.approx(400, rel=0.25)


def test_load_for_target_scales_arrival_rate():
    spec = WorkloadSpec(mean_compute=1.0, duration=60.0)
    scaled = load_for_target(1536.0, 0.30, spec)
    assert 1.0 / scaled.mean_interarrival == pytest.approx(460.8)
    jobs = generate(scaled)
    # offered compute over the horizon, as a share of the fleet's capacity
    offered = sum(j.compute_demand for j in jobs) / (1536.0 * 60.0)
    assert offered == pytest.approx(0.30, rel=0.05)
    with pytest.raises(ValueError):
        load_for_target(0.0, 0.3, spec)
    with pytest.raises(ValueError):
        load_for_target(100.0, 1.5, spec)


def test_spec_validation_errors():
    """A spec checks itself when built; one with no size is a template that
    builds but cannot be generated."""
    with pytest.raises(ValueError):
        WorkloadSpec(job_count=10, duration=5.0)
    with pytest.raises(ValueError, match="one of job_count or duration"):
        generate(WorkloadSpec())   # neither count nor duration
    with pytest.raises(ValueError):
        WorkloadSpec(job_count=10, class_mix=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        WorkloadSpec(job_count=10, deadline_slack=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(job_count=0)
    with pytest.raises(ValueError):
        WorkloadSpec(job_count=10, internal_fraction=1.2)


@pytest.mark.parametrize("field", [{"mean_compute": float("inf")},
                                   {"deadline_slack": float("nan")},
                                   {"class_mix": (float("nan"), 0.0, 1.0)},
                                   {"job_count": float("nan")}],
                         ids=["infinite-compute", "nan-slack", "nan-mix", "nan-count"])
def test_non_finite_numbers_are_refused(field):
    """A NaN passes every range test, and an infinite mean draws infinite
    demands; each is refused when the spec is built, so generate never
    makes a non-finite job.  An integer of any size is finite."""
    with pytest.raises(ValueError, match="finite"):
        WorkloadSpec(**{"job_count": 3, **field})
    assert WorkloadSpec(job_count=3, seed=10 ** 400).seed == 10 ** 400


def _per_index_jobs(spec, arrivals, classes, compute):
    """The job stream built the way generate once built it from the same
    draws: whole-column arithmetic, then one numpy scalar at a time."""
    ratios = np.array([COMM_COMPUTE_RATIO[c] for c in CLASS_ORDER])
    total_bytes = compute * ratios[classes] * spec.bytes_per_cpu_second
    internal = total_bytes * spec.internal_fraction
    external = total_bytes - internal
    transfer = total_bytes * 8.0 / spec.nic_rate_bps
    deadline = arrivals + spec.deadline_slack * (compute + transfer)
    return [(i, float(arrivals[i]), CLASS_ORDER[classes[i]], float(compute[i]),
             float(internal[i]), float(external[i]), float(deadline[i]))
            for i in range(len(arrivals))]


def _bits(fields):
    return [x.hex() if isinstance(x, float) else x for x in fields]


@pytest.mark.parametrize("seed", [7, 2024])
@pytest.mark.parametrize("sizing", [{"job_count": 3000}, {"duration": 15.0}],
                         ids=["job_count", "duration"])
def test_jobs_are_the_per_index_construction_bit_for_bit(monkeypatch, seed, sizing):
    draws = []
    materialize = workload._materialize

    def capture(spec, arrivals, classes, compute):
        draws.append((spec, arrivals, classes, compute))
        return materialize(spec, arrivals, classes, compute)

    monkeypatch.setattr(workload, "_materialize", capture)
    spec = WorkloadSpec(mean_interarrival=0.005, mean_compute=0.2, class_mix=(0.3, 0.3, 0.4),
                        bytes_per_cpu_second=3e6, internal_fraction=0.7,
                        deadline_slack=2.5, seed=seed, **sizing)
    jobs = generate(spec)
    assert len(draws) == 1 and len(jobs) > 2000
    want = _per_index_jobs(*draws[0])
    assert [_bits(j) for j in jobs] == [_bits(w) for w in want]
    kinds = (int, float, str, float, float, float, float)
    assert all(tuple(map(type, j)) == kinds for j in jobs)
    assert {j.job_class for j in jobs} == {CIW, DIW, BALANCED}


def test_jobs_are_immutable_and_hashable():
    job = generate(big_spec(job_count=3))[1]
    with pytest.raises(AttributeError):
        job.arrival = 0.0
    assert job.id == 1 and hash(job) == hash(generate(big_spec(job_count=3))[1])
    assert repr(job).startswith("Job(id=1, arrival=")
