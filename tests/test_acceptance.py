"""End-to-end acceptance checks for the shipped behavior.

Every check prints one ``PASS``/``FAIL`` line with the measured value, so

    pytest tests/test_acceptance.py -v -s

doubles as the release checklist.  The heavy fixtures run the reference
scenario (three-tier fabric, 30% balanced load, 60 s horizon) once per
power-management scheme and share the results across tests.

Known red: ``test_link_rate_scaling_switch_reduction_window`` expects a
3-15% switch-energy cut from link rate scaling alone, but port
transceivers draw only ~1.1% of fabric switch power at the modeled
0.4 W / 1 W per-port figures, so the measured cut is ~1%.  The check is
kept honest rather than widened; see the scheme comparison tests around
it for the savings that are attainable.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from greendc import engine, fairshare, workload
from greendc.config import scenario_preset
from greendc.powermodel import ServerPowerParams
from greendc.report import run_replications, summarize
from greendc.scheduler import SCHEMES
from greendc.topology import build_topology

from test_fairshare import waterfill_oracle

RUNTIME_BUDGET_S = 120.0


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_cfg():
    return scenario_preset("reference-30")


@pytest.fixture(scope="module")
def scheme_runs(reference_cfg):
    """One full-horizon run of the reference scenario per scheme."""
    topo = build_topology(reference_cfg.architecture)
    runs = {}
    for scheme in SCHEMES:
        cfg = replace(reference_cfg,
                      policy=replace(reference_cfg.policy, scheme=scheme))
        runs[scheme] = engine.run(cfg, topology=topo)
    return runs


@pytest.fixture(scope="module")
def repeat_run(reference_cfg):
    """A second, fully independent run of the baseline scheme."""
    t0 = time.perf_counter()
    rep = engine.run(reference_cfg)
    rep.wall_s = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# server power endpoints
# ---------------------------------------------------------------------------

def test_server_power_endpoints():
    p = ServerPowerParams()
    peak = p.busy_w(1.0)
    idle = p.idle_w
    check("server peak power", peak == 301.0, f"{peak} W (want exactly 301)")
    check("server idle power", idle == 198.0, f"{idle} W (want exactly 198)")


def test_server_idle_to_peak_ratio():
    p = ServerPowerParams()
    ratio = p.idle_w / p.busy_w(1.0)
    check("idle/peak ratio", abs(ratio - 0.658) <= 1e-3,
          f"{ratio:.6f} (want 0.658 +/- 0.001)")


# ---------------------------------------------------------------------------
# frequency scaling scheme
# ---------------------------------------------------------------------------

def test_frequency_scaling_server_energy_window(scheme_runs):
    base = scheme_runs["none"].energy.servers_wh
    dvfs = scheme_runs["dvfs"].energy.servers_wh
    ratio = dvfs / base
    check("frequency-scaled server energy", 0.93 <= ratio <= 0.99,
          f"{ratio:.4f} of baseline ({dvfs:.1f}/{base:.1f} Wh, want 0.93-0.99)")


def test_frequency_scaling_meets_deadlines(scheme_runs):
    viol = scheme_runs["dvfs"].sla["violation_fraction"]
    base = scheme_runs["none"].sla["violation_fraction"]
    check("frequency scaling SLA cost", viol <= base + 0.01,
          f"violations {viol:.4f} vs baseline {base:.4f}")


def test_link_rate_scaling_switch_reduction_window(scheme_runs):
    base = scheme_runs["none"].energy.switch_wh
    dvfs = scheme_runs["dvfs"].energy.switch_wh
    cut = 1.0 - dvfs / base
    check("link rate scaling switch cut", 0.03 <= cut <= 0.15,
          f"{cut:.4f} ({base:.1f} -> {dvfs:.1f} Wh, want 0.03-0.15; "
          "ports are ~1.1% of switch power, so ~0.01 is the model's ceiling)")


def test_single_run_fits_runtime_budget(repeat_run):
    check("full-horizon run walltime", repeat_run.wall_s < RUNTIME_BUDGET_S,
          f"{repeat_run.wall_s:.1f} s (budget {RUNTIME_BUDGET_S:.0f} s)")


# ---------------------------------------------------------------------------
# sleep scheme, alone and combined
# ---------------------------------------------------------------------------

def test_sleep_scheme_server_energy_cap(scheme_runs):
    base = scheme_runs["none"].energy.servers_wh
    dns = scheme_runs["dns"].energy.servers_wh
    ratio = dns / base
    check("sleep-scheme server energy", ratio <= 0.45,
          f"{ratio:.4f} of baseline ({dns:.1f}/{base:.1f} Wh, want <= 0.45)")


def test_combined_scheme_total_energy_window(scheme_runs):
    base = scheme_runs["none"].energy.total_wh
    both = scheme_runs["dvfs+dns"].energy.total_wh
    ratio = both / base
    check("combined-scheme total energy", 0.28 <= ratio <= 0.42,
          f"{ratio:.4f} of baseline ({both:.1f}/{base:.1f} Wh, want 0.28-0.42)")


def test_sleep_scheme_awake_fraction_settles(scheme_runs):
    awake = scheme_runs["dns"].awake_fraction_steady
    check("steady awake-server fraction", 0.30 <= awake <= 0.40,
          f"{awake:.4f} (want 0.30-0.40 at 30% load)")


# ---------------------------------------------------------------------------
# energy split across components
# ---------------------------------------------------------------------------

def test_servers_dominate_total_energy(scheme_runs):
    e = scheme_runs["none"].energy
    share = e.share(e.servers_wh)
    check("server share of total energy", 0.60 <= share <= 0.80,
          f"{share:.4f} (want 0.70 +/- 0.10)")


def test_switch_energy_ordering_by_layer(scheme_runs):
    e = scheme_runs["none"].energy
    ok = e.access_wh > e.aggregation_wh > e.core_wh
    check("switch energy layer ordering", ok,
          f"access {e.access_wh:.1f} > aggregation {e.aggregation_wh:.1f} "
          f"> core {e.core_wh:.1f} Wh")


def test_access_share_of_switch_energy(scheme_runs):
    e = scheme_runs["none"].energy
    share = e.access_wh / e.switch_wh
    check("access share of switch energy", 0.40 <= share <= 0.60,
          f"{share:.4f} (want 0.50 +/- 0.10)")


# ---------------------------------------------------------------------------
# flow model against a brute-force oracle
# ---------------------------------------------------------------------------

def test_flow_rates_match_waterfill_oracle():
    rng = np.random.default_rng(20250825)
    worst = 0.0
    cases = 0
    for _ in range(30):
        n_links = int(rng.integers(1, 7))
        caps = {f"l{i}": float(rng.uniform(0.5, 20.0)) for i in range(n_links)}
        flows = {}
        for f in range(int(rng.integers(1, 7))):
            k = int(rng.integers(1, n_links + 1))
            picks = rng.choice(n_links, size=k, replace=False)
            flows[f"f{f}"] = [f"l{i}" for i in picks]
        got = fairshare.allocate(flows, caps)
        want = waterfill_oracle(flows, caps)
        for fid in flows:
            err = abs(got[fid] - want[fid]) / max(want[fid], 1e-300)
            worst = max(worst, err)
        cases += 1
    check("flow rates vs water-filling oracle", cases >= 25 and worst <= 1e-9,
          f"{cases} random micro-topologies, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# conservation invariants on every scenario this suite runs
# ---------------------------------------------------------------------------

def _conservation_errors(rep):
    c = rep.conservation
    work = abs(c["admitted_cpu_s"] - c["delivered_cpu_s"] - c["residual_cpu_s"])
    work /= max(c["admitted_cpu_s"], 1.0)
    byte = abs(c["flow_bytes_offered"] - c["flow_bytes_done"] - c["flow_bytes_left"])
    byte /= max(c["flow_bytes_offered"], 1.0)
    e = rep.energy
    parts = e.servers_wh + e.core_wh + e.aggregation_wh + e.access_wh
    ledger = abs(e.total_wh - parts) / max(e.total_wh, 1e-12)
    return work, byte, ledger


def test_conservation_invariants_hold_everywhere(scheme_runs, repeat_run):
    reps = dict(scheme_runs, repeat=repeat_run)
    for name in ("ciw-30", "diw-30"):
        cfg = scenario_preset(name)
        cfg = replace(cfg, horizon_s=8.0,
                      policy=replace(cfg.policy, scheme="dvfs+dns"))
        reps[name] = engine.run(cfg)
    worst = {"work": 0.0, "byte": 0.0, "ledger": 0.0}
    for name, rep in reps.items():
        work, byte, ledger = _conservation_errors(rep)
        worst["work"] = max(worst["work"], work)
        worst["byte"] = max(worst["byte"], byte)
        worst["ledger"] = max(worst["ledger"], ledger)
    ok = all(v <= 1e-6 for v in worst.values())
    check("conservation invariants", ok,
          f"{len(reps)} runs; worst rel errors work={worst['work']:.2e} "
          f"bytes={worst['byte']:.2e} ledger={worst['ledger']:.2e} "
          "(capacity is enforced in-engine at 1e-9 on every recompute)")


# ---------------------------------------------------------------------------
# determinism and replication stability
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_trace_and_report(scheme_runs, repeat_run):
    first = scheme_runs["none"]
    same_hash = first.trace_hash == repeat_run.trace_hash
    a = json.dumps(first.as_dict(), indent=2, sort_keys=True).encode()
    b = json.dumps(repeat_run.as_dict(), indent=2, sort_keys=True).encode()
    check("same-seed determinism", same_hash and a == b,
          f"trace {first.trace_hash[:16]}.. reproduced; "
          f"report bytes identical={a == b} "
          f"({hashlib.sha256(a).hexdigest()[:16]}..)")


def test_replication_confidence_interval_tight(reference_cfg):
    reps = run_replications(reference_cfg, count=20, workers=2)
    stats = summarize([r.energy.servers_wh for r in reps])
    rel = stats["ci95_half_width"] / stats["mean"]
    check("20-replication server-energy CI", rel < 0.005,
          f"relative 95% half-width {rel:.5f} "
          f"(mean {stats['mean']:.1f} Wh, want < 0.005)")


# ---------------------------------------------------------------------------
# workload stream statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_stream():
    spec = workload.WorkloadSpec(mean_interarrival=0.01, mean_compute=0.25,
                                 class_mix=(0.2, 0.3, 0.5), job_count=100_000,
                                 seed=7)
    return spec, workload.generate(spec)


def test_interarrival_and_compute_means(big_stream):
    spec, jobs = big_stream
    gaps = np.diff([j.arrival for j in jobs])
    gap_err = abs(gaps.mean() - spec.mean_interarrival) / spec.mean_interarrival
    comp = np.array([j.compute_demand for j in jobs])
    comp_err = abs(comp.mean() - spec.mean_compute) / spec.mean_compute
    ok = gap_err <= 0.02 and comp_err <= 0.02
    check("exponential means", ok,
          f"interarrival off by {gap_err:.4f}, compute off by {comp_err:.4f} "
          "(want <= 0.02)")


def test_interarrival_and_compute_cv(big_stream):
    spec, jobs = big_stream
    gaps = np.diff([j.arrival for j in jobs])
    comp = np.array([j.compute_demand for j in jobs])
    gap_cv = gaps.std(ddof=1) / gaps.mean()
    comp_cv = comp.std(ddof=1) / comp.mean()
    ok = abs(gap_cv - 1.0) <= 0.05 and abs(comp_cv - 1.0) <= 0.05
    check("exponential CV", ok,
          f"interarrival CV {gap_cv:.4f}, compute CV {comp_cv:.4f} "
          "(want 1.00 +/- 0.05)")


def test_class_ratios_exact(big_stream):
    spec, jobs = big_stream
    tally = {name: 0 for name in workload.CLASS_ORDER}
    for j in jobs:
        tally[j.job_class] += 1
    counts = [tally[name] for name in workload.CLASS_ORDER]
    want = list(workload.class_counts(spec.class_mix, len(jobs)))
    check("class ratios", counts == want == [20_000, 30_000, 50_000],
          f"counts {counts} (want exactly {want})")
