"""greendc benchmark: host time, events/s and memory per scenario.

One process runs one workload as a closed loop with a single client: it
sets up a scenario through the public API (config.from_dict,
topology.build_topology, workload.generate), runs it (engine.run), writes
the report files, checks them, and starts the next run only when the last
one is done, until --seconds of host time have passed.  Every run of one
invocation uses the same seed, so every run must produce the same trace
hash.  Successive runs go to the CPUs the process may use in turn, and a
probe times a fixed piece of pure-Python work ten times a second while
each run is in progress (see host.py).

    python3 bench/run.py --workload ref30-none --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separately traced run (see spans.py).  Times are measured with
time.perf_counter and reported in reference seconds: host seconds times
PROBE_REF_S over the median probe time during the run, which takes out the
shared host's changes of speed.  A run's time is the lower quartile over
the runs, its rate the upper quartile, and set-up time the median.  The
simulated outputs printed beside them are for information only.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "greendc").is_dir():
    # never fall back to an installed copy: the benchmark measures this checkout
    sys.exit(f"bench: no greendc sources under {SRC}")
sys.path.insert(0, str(SRC))

from greendc import config, engine, presets, report, topology, workload  # noqa: E402

import spans  # noqa: E402
from host import CpuTurns, SpeedProbe  # noqa: E402

RUN_SECONDS = 55        # default --seconds; BENCHMARK.json's run_seconds
SETUP_REPEATS = 16      # set-ups timed on their own before the measured loop
REL_TOL = 1e-6          # conservation tolerance, as in the acceptance suite
# SpeedProbe's median time during a run on the host the bounds were set on,
# when no other tenant slows it; a reference second is a host second scaled
# to a probe time of PROBE_REF_S
PROBE_REF_S = 6.0e-4

MODEL_NOTE = ("simulated outputs are for information only: the repository holds "
              "no hardware reference results, so the model is unvalidated and no "
              "error figure is given")


@dataclass(frozen=True)
class Workload:
    """One benchmark input.  The horizon is part of its identity:
    workload.generate sizes its arrival draws from the duration, so a
    shorter run is not a prefix of a longer one."""
    name: str
    why: str
    base: dict              # scenario document, less label, horizon and seed
    horizon_s: float

    def scenario(self, seed: int) -> dict:
        data = copy.deepcopy(self.base)
        data.update(label=self.name, horizon_s=self.horizon_s, seed=seed)
        return data


_REF30 = presets.SCENARIOS["reference-30"]
_DIW30 = presets.SCENARIOS["diw-30"]
_DVFS_DNS = {"policy": {"scheme": "dvfs+dns"}}

# BENCHMARK.json gates the two ref30 workloads only.  diw30-dvfs-dns's host
# time swings by about a fifth from seed to seed (path decodes per run range
# from 1.4M to 2.0M over seeds 1-5).  fabric6k-none does the same work on
# every seed, but its few hundred MB of path cache make its run time follow
# the shared host's memory traffic, which drifts by a quarter over minutes.
# Both are wider than any regression bound they could hold; both stay
# runnable for per-layer counts, which repeat exactly.
WORKLOADS = {wl.name: wl for wl in (
    Workload("ref30-none",
             "paper baseline: no switch goes dark, so route decodes one path "
             "per call and the event loop does most of the work",
             _REF30, 10.0),
    Workload("ref30-dvfs-dns",
             "headline scheme on the same jobs: management ticks, rate trims, "
             "sleep/wake transitions and some routing around dark switches",
             {**_REF30, **_DVFS_DNS}, 10.0),
    Workload("diw30-dvfs-dns",
             "data-intensive placement routes and checks congestion for every "
             "candidate server while switches are dark; fair-share components grow",
             {**_DIW30, **_DVFS_DNS}, 4.0),
    Workload("fabric6k-none",
             "6144 servers: the per-source shortest-path cache, memory and "
             "per-event cost grow with fabric size",
             {**_REF30, "architecture": {"preset": "three_tier", "access_count": 2048}},
             3.0),
)}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    setup: dict             # seconds per set-up step
    run_s: float
    probe_s: float          # median SpeedProbe time during engine.run
    write: dict             # seconds per report writer
    events: int
    jobs: int
    trace_hash: str
    simulated: dict
    errors: list = field(default_factory=list)


def set_up(scenario: dict):
    """The scenario's inputs, built the way a user's run builds them."""
    clock = time.perf_counter
    t0 = clock()
    cfg = config.from_dict(scenario)
    t1 = clock()
    topo = topology.build_topology(cfg.architecture)
    t2 = clock()
    jobs = workload.generate(cfg.effective_workload())
    t3 = clock()
    times = {"config.from_dict": t1 - t0, "topology.build_topology": t2 - t1,
             "workload.generate": t3 - t2}
    return cfg, topo, jobs, times


def check_report(rep, json_path: Path, csv_path: Path) -> list[str]:
    """Conservation and written-file checks for one finished run."""
    errors = []
    c = rep.conservation
    work = abs(c["admitted_cpu_s"] - c["delivered_cpu_s"] - c["residual_cpu_s"])
    if work > REL_TOL * max(c["admitted_cpu_s"], 1.0):
        errors.append(f"delivered + residual CPU-s != admitted (off by {work:.3g})")
    moved = abs(c["flow_bytes_offered"] - c["flow_bytes_done"] - c["flow_bytes_left"])
    if moved > REL_TOL * max(c["flow_bytes_offered"], 1.0):
        errors.append(f"flow bytes offered != done + left (off by {moved:.3g})")
    with open(json_path) as fh:
        if json.load(fh)["trace_hash"] != rep.trace_hash:
            errors.append("report.json carries another trace_hash")
    with open(csv_path, newline="") as fh:
        if sum(1 for _ in csv.reader(fh)) != len(rep.timeseries) + 1:
            errors.append("timeseries.csv row count differs from the report")
    return errors


def run_once(scenario: dict, outdir: Path, runner=None, probe=None) -> Run:
    """Set up, simulate, write and check one run.  runner stands in for
    engine.run (the traced run passes a wrapped one); probe, a SpeedProbe,
    times the host's speed while engine.run runs."""
    runner = runner or engine.run
    clock = time.perf_counter
    cfg, topo, jobs, setup = set_up(scenario)
    with probe or contextlib.nullcontext():
        t0 = clock()
        rep = runner(cfg, jobs=jobs, topology=topo)
        t1 = clock()
    probe_s = probe.median_s if probe else float("nan")
    json_path, csv_path = outdir / "report.json", outdir / "timeseries.csv"
    report.write_report_json(rep, str(json_path))
    t2 = clock()
    report.write_timeseries_csv(rep, str(csv_path))
    t3 = clock()
    e = rep.energy
    simulated = {"energy_wh": {"servers": e.servers_wh, "core": e.core_wh,
                               "aggregation": e.aggregation_wh, "access": e.access_wh,
                               "total": e.total_wh},
                 "violation_fraction": rep.sla["violation_fraction"],
                 "awake_fraction_steady": rep.awake_fraction_steady}
    return Run(setup, t1 - t0, probe_s,
               {"report.write_report_json": t2 - t1, "report.write_timeseries_csv": t3 - t2},
               rep.events_processed, len(jobs), rep.trace_hash, simulated,
               check_report(rep, json_path, csv_path))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Result:
    seed: int
    attempted: int = 0
    failed: int = 0
    trace_hash: str | None = None
    simulated: dict | None = None
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    spread: dict = field(default_factory=dict)    # name -> (q1, median, q3, n)
    host: dict = field(default_factory=dict)      # name -> (samples, unit), printed only
    errors: list = field(default_factory=list)

    def record(self, run: Run | None, error: str | None = None) -> bool:
        """Count one attempted run and say whether it passed; it fails on an
        exception, a broken check or a trace hash that differs from the set's
        first."""
        self.attempted += 1
        errors = [error] if error else list(run.errors)
        if run is not None and self.trace_hash is None:
            self.trace_hash, self.simulated = run.trace_hash, run.simulated
        elif run is not None and run.trace_hash != self.trace_hash:
            errors.append(f"trace_hash {run.trace_hash[:16]} differs from "
                          f"{self.trace_hash[:16]}")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors


def _attempt(result: Result, scenario: dict, outdir: Path, runner=None,
             probe=None) -> Run | None:
    gc.collect()   # the last run's garbage goes before this one is timed
    try:
        run = run_once(scenario, outdir, runner, probe)
    except Exception as exc:   # a run that raises is a failed run, not the end
        traceback.print_exc(file=sys.stderr)
        result.record(None, f"{type(exc).__name__}: {exc}")
        return None
    return run if result.record(run) else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


Q1, MEDIAN, Q3 = range(3)


def _summary(result: Result, name: str, values, unit: str, which: int) -> None:
    """Reports the first quartile, median or third quartile of values."""
    quartiles = _quartiles(values)
    result.metrics[name] = (quartiles[which], unit)
    result.spread[name] = (*quartiles, len(values))


def measure(wl: Workload, seed: int, seconds: float, trace: bool, outdir: Path) -> Result:
    """Closed-loop runs of one workload for `seconds`; with trace, two
    traced runs follow and the per-layer metrics replace the end-to-end ones."""
    outdir.mkdir(parents=True, exist_ok=True)
    scenario = wl.scenario(seed)
    result = Result(seed)
    setups, runs, turns, probe = [], [], CpuTurns(), SpeedProbe()
    try:
        for _ in range(SETUP_REPEATS):
            turns.next()
            setups.append(set_up(scenario)[3])
            gc.collect()
        deadline = time.perf_counter() + seconds
        while not result.attempted or time.perf_counter() < deadline:
            turns.next()
            run = _attempt(result, scenario, outdir, probe=probe)
            if run is not None:
                runs.append(run)
    finally:
        turns.close()
    if not runs:
        return result
    setups += [r.setup for r in runs]
    if not trace:
        # Other tenants of a shared host only ever add time, so a run is
        # reported by the quartile on the better side, which moves less than
        # the median with how much of an invocation a slow stretch covers and
        # unlike the fastest run rests on more than one sample.  Set-ups are
        # too short for a probe of their own: they take the invocation's
        # median probe time, and its median set-up.
        ref_s = [r.run_s * PROBE_REF_S / r.probe_s for r in runs]
        setup_scale = PROBE_REF_S / statistics.median(r.probe_s for r in runs)
        _summary(result, "setup_s", [sum(s.values()) * setup_scale for s in setups], "s",
                 MEDIAN)
        _summary(result, "run_ref_s", ref_s, "s", Q1)
        _summary(result, "events_per_ref_s", [r.events / t for r, t in zip(runs, ref_s)],
                 "1/s", Q3)
        # host seconds as measured, printed beside the reference ones
        result.host = {"host setup_s": ([sum(s.values()) for s in setups], "s"),
                       "host run_s": ([r.run_s for r in runs], "s"),
                       "host events_per_s": ([r.events / r.run_s for r in runs], "1/s"),
                       "probe_s": ([r.probe_s for r in runs], "s")}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.metrics["peak_rss_mb"] = (peak_mb, "MB")
        return result
    traced = []
    for _ in range(2):
        layer = traced_run(result, scenario, outdir)
        if layer is not None:
            traced.append(layer)
    if len(traced) == 2:
        first, last = traced   # last is the one whose spans.json is on disk
        for name in EXACT:
            if first[name] != last[name]:
                result.failed += 1
                result.errors.append(f"{name} differs across traced runs: "
                                     f"{first[name][0]} != {last[name][0]}")
                break
        # steps the benchmark calls itself are timed on the untraced runs
        steps = [(s, k) for s in (setups, [r.write for r in runs]) for k in s[0]]
        for samples, key in steps:
            last[key + ".s"] = (statistics.median(x[key] for x in samples), "s")
        base = statistics.median(r.run_s for r in runs)
        last["trace.overhead_s"] = (last["trace.run_s"][0] - base, "s")
        result.metrics = last
    return result


# per-layer metrics that are deterministic counts (or ratios of them): they
# repeat exactly across runs, so a later change may cite them in count claims
EXACT = (
    "engine.route.calls", "engine.route.dark_calls", "engine.route.paths_per_call",
    "topology.kth_path.calls", "topology.path_count.calls", "topology.bfs_sources",
    "scheduler.place.calls", "scheduler.place.routes_per_call",
    "scheduler.place.admit_ratio", "scheduler.place.wakes",
    "scheduler.dns_tick.calls", "scheduler.dns_tick.requests",
    "fairshare.allocate.calls", "fairshare.allocate.flows_mean",
    "fairshare.allocate.flows_p99", "fairshare.allocate.flows_max",
    "fairshare.allocate.ge64", "fairshare.allocate.resources_mean",
    "engine.events", "engine.push.calls", "engine.stale_pops",
    "workload.generate.jobs",
)


def _rank(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_run(result: Result, scenario: dict, outdir: Path) -> dict | None:
    """One run with every call site wrapped; returns its per-layer metrics."""
    tracer, probe = spans.Tracer(), spans.LayerProbe()
    with spans.Installed(tracer, probe):
        run = _attempt(result, scenario, outdir,
                       tracer.wrap("engine.run", engine.run, store=True))
    if run is None:
        return None
    s, st = tracer.stats, probe.state
    n = {name: agg.calls for name, agg in s.items()}
    pushed = st.offered_jobs + n["engine.push"]
    errors = []
    if pushed != st.seq - 1:
        errors.append(f"push count {n['engine.push']} disagrees with the "
                      f"event sequence ({st.seq - 1 - st.offered_jobs})")
    run_s = s["engine.run"].total_s
    self_sum = sum(x.self_s for x in s.values())
    if abs(self_sum - run_s) > 1e-6 * run_s:
        errors.append(f"span self times sum to {self_sum} s, not the traced {run_s} s")
    if errors:
        result.failed += 1
        result.errors.extend(errors)
        return None
    (outdir / "spans.json").write_text(json.dumps({
        "aggregates": {k: vars(v) for k, v in s.items()},
        "spans": tracer.spans}))

    def per(count, base):
        return count / base if base else 0.0

    flows = probe.flows
    return {
        "engine.route.calls": (n["engine.route"], "count"),
        "engine.route.self_s": (s["engine.route"].self_s, "s"),
        "engine.route.dark_calls": (probe.dark_routes, "count"),
        "engine.route.paths_per_call": (per(s["topology.kth_path"].by_parent.get(
            "engine.route", 0), n["engine.route"]), "paths/call"),
        "topology.kth_path.calls": (n["topology.kth_path"], "count"),
        "topology.kth_path.self_s": (s["topology.kth_path"].self_s, "s"),
        "topology.path_count.calls": (n["topology.path_count"], "count"),
        "topology.path_count.self_s": (s["topology.path_count"].self_s, "s"),
        "topology.bfs_sources": (len(st.topology._sp_cache), "count"),
        "scheduler.place.calls": (n["scheduler.place"], "count"),
        "scheduler.place.self_s": (s["scheduler.place"].self_s, "s"),
        "scheduler.place.p50_us": (_rank(probe.place_us, 0.50), "us"),
        "scheduler.place.p99_us": (_rank(probe.place_us, 0.99), "us"),
        "scheduler.place.routes_per_call": (per(s["engine.route"].by_parent.get(
            "scheduler.place", 0), n["scheduler.place"]), "routes/call"),
        "scheduler.place.admit_ratio": (per(probe.admits, n["scheduler.place"]), "ratio"),
        "scheduler.place.wakes": (probe.wakes, "count"),
        "scheduler.dns_tick.calls": (n["scheduler.dns_tick"], "count"),
        "scheduler.dns_tick.self_s": (s["scheduler.dns_tick"].self_s, "s"),
        "scheduler.dns_tick.requests": (probe.dns_requests, "count"),
        "fairshare.allocate.calls": (n["fairshare.allocate"], "count"),
        "fairshare.allocate.self_s": (s["fairshare.allocate"].self_s, "s"),
        "fairshare.allocate.flows_mean": (per(sum(flows), len(flows)), "count"),
        "fairshare.allocate.flows_p99": (_rank(flows, 0.99), "count"),
        "fairshare.allocate.flows_max": (max(flows, default=0), "count"),
        "fairshare.allocate.ge64": (sum(1 for f in flows if f >= 64), "count"),
        "fairshare.allocate.resources_mean": (per(sum(probe.resources),
                                                  len(probe.resources)), "count"),
        "engine.run.self_s": (s["engine.run"].self_s, "s"),
        "engine.push.calls": (n["engine.push"], "count"),
        "engine.push.self_s": (s["engine.push"].self_s, "s"),
        "engine.events": (st.events_processed, "count"),
        "engine.stale_pops": (pushed - st.events_processed - len(st.heap), "count"),
        "report.build_report.s": (s["report.build_report"].self_s, "s"),
        "workload.generate.jobs": (run.jobs, "count"),
        "trace.run_s": (run_s, "s"),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result: Result, wl: Workload) -> None:
    print(f"workload {wl.name}: seed {result.seed}, horizon {wl.horizon_s:g} s "
          f"(simulated), scheme {wl.base['policy']['scheme']} -- {wl.why}")
    print(f"  runs attempted {result.attempted}, failed {result.failed}; "
          f"trace_hash {result.trace_hash}")
    for err in result.errors:
        print(f"  FAILED: {err}")
    if result.simulated:
        sim = result.simulated
        energy = ", ".join(f"{k} {v:.6g}" for k, v in sim["energy_wh"].items())
        print(f"  simulated energy (Wh): {energy}")
        print(f"  simulated violation_fraction {sim['violation_fraction']:.6g}, "
              f"awake_fraction_steady {sim['awake_fraction_steady']:.6g}")
        print(f"  note: {MODEL_NOTE}")
    for name, (value, unit) in result.metrics.items():
        line = f"  {name:36s} {_fmt(value):>14s} {unit}"
        if name in result.spread:
            q1, q2, q3, n = result.spread[name]
            line += f"   {n} samples: q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g}"
        elif name in EXACT:
            line += "   exact count"
        print(line)
    for name, (values, unit) in result.host.items():
        q1, q2, q3 = _quartiles(values)
        print(f"  {name:36s} {_fmt(q2):>14s} {unit}   median of {len(values)} "
              f"(q1 {q1:.6g}, q3 {q3:.6g})")
    print("info " + json.dumps({"workload": wl.name, "seed": result.seed,
                                "horizon_s": wl.horizon_s, "trace_hash": result.trace_hash,
                                "simulated": result.simulated}))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_all(args) -> None:
    """Each workload in its own process, one after another, so that peak
    memory is per workload; then one table."""
    rows, attempted, failed, correct, metrics = [], 0, 0, True, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        info = next((json.loads(ln[5:]) for ln in lines if ln.startswith("info ")), {})
        attempted += out["attempted"]
        failed += out["failed"]
        correct = correct and out["correct"]
        for k, v in out["metrics"].items():
            metrics[f"{name}.{k}"] = (v["value"], v["unit"])
        rows.append((name, out, info.get("trace_hash")))
    if not args.trace:
        cols = ("setup_s", "run_ref_s", "events_per_ref_s", "peak_rss_mb")
        print(f"\n{'workload':16s}" + "".join(f"{c:>18s}" for c in cols)
              + f"{'attempted':>10s}{'failed':>7s}  trace_hash")
        for name, out, trace_hash in rows:
            cells = "".join(
                f"{_fmt(out['metrics'][c]['value']) + ' ' + out['metrics'][c]['unit']:>18s}"
                if c in out["metrics"] else f"{'-':>18s}" for c in cols)
            print(f"{name:16s}{cells}{out['attempted']:>10d}{out['failed']:>7d}  {trace_hash}")
    print(result_line(correct and failed == 0, attempted, failed, metrics))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1,
                   help="scenario seed (default 1, the presets' seed)")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="host seconds of closed-loop runs to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from traced runs")
    args = p.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    wl = WORKLOADS[args.workload]
    result = measure(wl, args.seed, args.seconds, bool(args.trace),
                     HERE / ".out" / wl.name)
    print_result(result, wl)
    correct = result.failed == 0 and bool(result.metrics)
    print(result_line(correct, result.attempted, result.failed, result.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
