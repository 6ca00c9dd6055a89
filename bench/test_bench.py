"""Tests of the benchmark harness on a pocket fabric (8 servers, a few
simulated seconds).  Run with: python3 -m pytest bench"""

import dataclasses
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from greendc import engine, fairshare, report, scheduler, topology  # noqa: E402

POCKET = bench.Workload(
    "pocket", "tiny three-tier fabric for tests",
    {"architecture": {"kind": "three_tier", "core_count": 2, "agg_count": 2,
                      "access_count": 4, "servers_per_access": 2},
     "workload": {"class_mix": [0.0, 0.5, 0.5], "deadline_slack": 2.5,
                  "mean_compute": 0.1},
     "policy": {"scheme": "dvfs+dns"}, "target_load": 0.3},
    4.0)

SPEC = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, section):
    result = bench.measure(POCKET, 3, 0.3, trace, tmp_path)
    assert result.failed == 0, result.errors
    assert result.attempted >= (4 if trace else 2)
    assert {k: u for k, (_v, u) in result.metrics.items()} == _units(section)
    line = json.loads(bench.result_line(True, result.attempted, result.failed,
                                        result.metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_workloads_match_benchmark_json():
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [name for name in bench.WORKLOADS
                     if name not in ("diw30-dvfs-dns", "fabric6k-none")]
    assert SPEC["run_seconds"] == bench.RUN_SECONDS


def test_forged_hash_mismatch_counts_as_failed(tmp_path, monkeypatch):
    real_run, calls = engine.run, []

    def forged(*args, **kwargs):
        rep = real_run(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 2:
            rep = dataclasses.replace(rep, trace_hash="0" * 64)
        return rep

    monkeypatch.setattr(engine, "run", forged)
    result = bench.measure(POCKET, 3, 0.3, False, tmp_path)
    assert len(calls) >= 2
    assert result.failed == 1
    assert any("trace_hash" in e for e in result.errors)


def test_raising_run_counts_as_failed(tmp_path, monkeypatch):
    real_run, calls = engine.run, []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise engine.InternalInvariantViolation("forged")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run", flaky)
    result = bench.measure(POCKET, 3, 0.3, False, tmp_path)
    assert result.failed == 1 and result.attempted >= 2
    assert result.metrics   # the runs that completed are still measured


def test_traced_run_keeps_the_hash_and_restores_call_sites(tmp_path):
    untraced = bench.measure(POCKET, 5, 0.2, False, tmp_path)
    traced = bench.measure(POCKET, 5, 0.2, True, tmp_path)
    assert traced.failed == 0, traced.errors
    assert traced.trace_hash == untraced.trace_hash
    m = {k: v for k, (v, _u) in traced.metrics.items()}
    assert m["scheduler.dns_tick.calls"] > 0 and m["engine.route.dark_calls"] > 0
    self_times = [v for k, v in m.items() if k.endswith(".self_s")] + [
        m["report.build_report.s"]]
    assert sum(self_times) == pytest.approx(m["trace.run_s"], rel=1e-6)
    assert engine.place is scheduler.place
    assert engine.dns_tick is scheduler.dns_tick
    for owner, attr in ((fairshare, "allocate"), (report, "build_report"),
                        (engine.SimState, "route"), (engine.SimState, "push"),
                        (topology.Topology, "kth_path"), (topology.Topology, "path_count")):
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), attr


def test_host_tools_put_the_process_back(tmp_path):
    """The speed probe and the CPU turns leave no timer, signal handler or
    CPU pinning behind, and every run gets a probe time."""
    handler = signal.getsignal(signal.SIGALRM)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    result = bench.measure(POCKET, 3, 0.3, False, tmp_path)
    assert result.failed == 0, result.errors
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus
    ref_s = result.metrics["run_ref_s"][0]
    assert math.isfinite(ref_s) and ref_s > 0


def test_stripped_checkout_fails_without_a_result(tmp_path):
    """Without the simulator's sources the benchmark must exit non-zero and
    print no result line."""
    shutil.copytree(bench.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(bench.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ref30-none",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
