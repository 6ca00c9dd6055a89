"""Run reports: energy accounting, efficiency metrics and result tables.

A report carries per-component-class energy, SLA counters, utilization
fractions, efficiency metrics and the run's trace hash.  Replicated runs
are summarized with mean and a 95% confidence half-width; the experiment
matrix fans a base scenario out over fabrics and power-management schemes
and renders the comparison tables.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent import futures
from dataclasses import asdict, dataclass, field, fields, replace

from .config import ScenarioConfig, to_dict

SECONDS_PER_YEAR = 365 * 24 * 3600.0

# two-sided 95% Student-t quantiles by degrees of freedom (normal beyond)
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
        25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042}


@dataclass(frozen=True)
class EnergyLedger:
    """Energy per component class over one run, in watt-hours."""
    servers_wh: float
    core_wh: float
    aggregation_wh: float
    access_wh: float

    @property
    def switch_wh(self) -> float:
        return self.core_wh + self.aggregation_wh + self.access_wh

    @property
    def total_wh(self) -> float:
        return self.servers_wh + self.switch_wh

    def share(self, component_wh: float) -> float:
        total = self.total_wh
        return component_wh / total if total else 0.0

    def as_dict(self) -> dict:
        return dict(asdict(self), switch_wh=self.switch_wh, total_wh=self.total_wh)


@dataclass
class SimReport:
    label: str
    architecture: str
    scheme: str
    seed: int
    horizon_s: float
    energy: EnergyLedger
    mean_power_w: dict
    sla: dict
    awake_fraction: float
    awake_fraction_steady: float
    serving_fraction: float
    pue: float
    dcie: float
    annual_cost_usd: float
    trace_hash: str
    events_processed: int
    conservation: dict
    scenario: dict
    timeseries: list = field(default_factory=list)
    jobs: list | None = None

    def as_dict(self) -> dict:
        """Every field but the time series (report.json's content); the job
        records only when the run collected them."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "timeseries"}
        out["energy"] = self.energy.as_dict()
        if self.jobs is None:
            del out["jobs"]
        return out


def annualize_cost(total_it_wh: float, horizon_s: float, price_per_kwh: float,
                   pue_overhead: float = 1.0) -> float:
    """Yearly electricity bill implied by one run's consumption rate."""
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    yearly_kwh = total_it_wh * pue_overhead * (SECONDS_PER_YEAR / horizon_s) / 1000.0
    return yearly_kwh * price_per_kwh


def _missed(jr, end: float) -> bool:
    """Whether an admitted job finished after its deadline, or is unfinished
    at the end with it passed (with it still ahead, the job is censored)."""
    if jr.finish_t is None:
        return jr.job.deadline <= end
    return jr.finish_t > jr.job.deadline + 1e-9


def build_report(cfg: ScenarioConfig, state, collect_jobs: bool = False) -> SimReport:
    """Assemble the report for a finished engine state.  SLA counts and
    admitted work come from the job records, kept in admission order."""
    horizon = cfg.horizon_s
    j = state.ledger_j
    ledger = EnergyLedger(servers_wh=j[0] / 3600.0, core_wh=j[1] / 3600.0,
                          aggregation_wh=j[2] / 3600.0, access_wh=j[3] / 3600.0)
    mean_power = {
        "servers": j[0] / horizon, "core": j[1] / horizon,
        "aggregation": j[2] / horizon, "access": j[3] / horizon,
        "total": sum(j) / horizon,
    }
    end = state.clock
    admitted = completed = missed = censored = 0
    work_admitted = delivered = residual = 0.0
    for jr in state.jobs.values():
        if jr.admitted:
            admitted += 1
            work_admitted += jr.job.compute_demand
            delivered += jr.done_cpu
            residual += jr.rem
            if _missed(jr, end):
                missed += 1
            elif jr.finish_t is None:
                censored += 1
            else:
                completed += 1
    offered = state.offered_jobs
    rejected = offered - admitted
    violations = rejected + missed
    sla = {
        "offered": offered,
        "admitted": admitted,
        "rejected": rejected,
        "completed": completed,
        "deadline_missed": missed,
        "unfinished_censored": censored,
        "violations": violations,
        "violation_fraction": violations / offered if offered else 0.0,
    }
    conservation = {
        "admitted_cpu_s": work_admitted,
        "delivered_cpu_s": delivered,
        "residual_cpu_s": residual,
        "flow_bytes_offered": state.net.bytes_offered,
        "flow_bytes_done": state.net.bytes_done,
        "flow_bytes_left": state.net.bytes_left,
    }
    n_servers = cfg.architecture.server_count
    steady_span = horizon - state.warmup
    # facility energy is IT energy times the overhead, so the ratio is the
    # overhead itself, defined even when the IT draw is zero
    pue = cfg.pue_overhead
    jobs_out = None
    if collect_jobs:
        jobs_out = [{
            "id": jr.job.id, "class": jr.job.job_class, "arrival": jr.job.arrival,
            "deadline": jr.job.deadline, "admitted": jr.admitted,
            "server": jr.server, "finish": jr.finish_t,
            "missed": jr.admitted and _missed(jr, end),
            "reason": jr.reason,
        } for jid, jr in sorted(state.jobs.items())]
    return SimReport(
        label=cfg.label,
        architecture=cfg.architecture.kind,
        scheme=cfg.policy.scheme,
        seed=cfg.seed,
        horizon_s=horizon,
        energy=ledger,
        mean_power_w=mean_power,
        sla=sla,
        awake_fraction=state.awake_integral / (horizon * n_servers),
        awake_fraction_steady=(state.awake_integral_steady / (steady_span * n_servers)
                               if steady_span > 0 else 0.0),
        serving_fraction=state.serving_integral / (horizon * n_servers),
        pue=pue,
        dcie=1.0 / pue,
        annual_cost_usd=annualize_cost(ledger.total_wh, horizon, cfg.price_per_kwh,
                                       cfg.pue_overhead),
        trace_hash=state.trace.hexdigest(),
        events_processed=state.events_processed,
        conservation=conservation,
        scenario=to_dict(cfg),
        timeseries=state.timeseries,
        jobs=jobs_out,
    )


def _run_all(cfgs: list[ScenarioConfig], workers: int | None) -> list[SimReport]:
    """engine.run over every config, reports in config order: in ``workers``
    worker processes when that is > 1, else one after another in this
    process with one topology per fabric."""
    from . import engine
    from .topology import build_topology
    if workers is not None and workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(engine.run, cfgs))
    topologies = {arch: build_topology(arch) for arch in {c.architecture for c in cfgs}}
    return [engine.run(c, topology=topologies[c.architecture]) for c in cfgs]


def run_replications(cfg: ScenarioConfig, count: int | None = None,
                     workers: int | None = None) -> list[SimReport]:
    """Run the scenario ``count`` times with consecutive seeds, reports in
    seed order; ``workers`` > 1 runs them in worker processes."""
    n = cfg.replications if count is None else count
    return _run_all([replace(cfg, seed=cfg.seed + i) for i in range(n)], workers)


def t_quantile_95(df: int) -> float:
    """Two-sided 95% Student-t quantile (normal approximation past df=30)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return _T95.get(df, 1.96)


def summarize(values) -> dict:
    """Mean, sample stddev and 95% confidence half-width of a sample."""
    xs = list(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values to summarize")
    mean = sum(xs) / n
    if n == 1:
        return {"n": 1, "mean": mean, "stddev": 0.0, "ci95_half_width": 0.0}
    # hypot scales as it sums, so no square of a large deviation overflows
    sd = math.hypot(*(x - mean for x in xs)) / math.sqrt(n - 1)
    half = t_quantile_95(n - 1) * sd / math.sqrt(n)
    return {"n": n, "mean": mean, "stddev": sd, "ci95_half_width": half}


def summarize_replications(reports: list[SimReport]) -> dict:
    """Replication summary for the headline metrics."""
    picks = {
        "total_wh": lambda r: r.energy.total_wh,
        "servers_wh": lambda r: r.energy.servers_wh,
        "switch_wh": lambda r: r.energy.switch_wh,
        "awake_fraction_steady": lambda r: r.awake_fraction_steady,
        "violation_fraction": lambda r: r.sla["violation_fraction"],
        "annual_cost_usd": lambda r: r.annual_cost_usd,
    }
    return {name: summarize(pick(r) for r in reports) for name, pick in picks.items()}


def experiment_cells(base: ScenarioConfig, fabrics: dict, schemes) -> dict:
    """Every fabric x scheme cell of a base scenario as a config, keyed by
    (fabric name, scheme); fabrics maps a name to an ArchitectureSpec and
    schemes are names from SCHEMES.  A cell the base cannot make is a
    ConfigError."""
    return {(name, scheme): replace(base, architecture=arch, label=f"{base.label}-{name}-{scheme}",
                                    policy=replace(base.policy, scheme=scheme))
            for name, arch in fabrics.items() for scheme in schemes}


def run_experiment_matrix(cells: dict, workers: int | None = None) -> dict:
    """Reports keyed as the cells are; ``workers`` > 1 runs worker processes."""
    reports = _run_all(list(cells.values()), workers)
    for rep in reports:
        rep.timeseries = []   # keep matrix results light
    return dict(zip(cells, reports))


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def write_report_json(report: SimReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_timeseries_csv(report: SimReport, path: str) -> None:
    cols = ("t", "servers_w", "core_w", "aggregation_w", "access_w",
            "awake_servers", "serving_servers", "active_flows")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in report.timeseries:
            w.writerow([row[c] for c in cols])


def write_energy_by_architecture_csv(results: dict, path: str,
                                     scheme: str = "none") -> None:
    """Baseline energy breakdown per fabric (one row per architecture)."""
    cols = ("architecture", "servers_wh", "core_wh", "aggregation_wh",
            "access_wh", "switch_wh", "total_wh", "servers_share",
            "annual_cost_usd")
    archs = sorted({a for a, s in results if s == scheme})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for arch in archs:
            r = results[(arch, scheme)]
            e = r.energy
            w.writerow([arch, f"{e.servers_wh:.3f}", f"{e.core_wh:.3f}",
                        f"{e.aggregation_wh:.3f}", f"{e.access_wh:.3f}",
                        f"{e.switch_wh:.3f}", f"{e.total_wh:.3f}",
                        f"{e.share(e.servers_wh):.4f}",
                        f"{r.annual_cost_usd:.2f}"])


def write_savings_by_scheme_csv(results: dict, path: str,
                                architecture: str = "three_tier",
                                baseline_scheme: str = "none") -> None:
    """Energy savings per power-management scheme against the baseline."""
    cols = ("scheme", "servers_wh", "switch_wh", "total_wh",
            "servers_saving_fraction", "switch_saving_fraction",
            "total_saving_fraction", "violation_fraction")
    schemes = sorted({s for a, s in results if a == architecture},
                     key=lambda s: (s != baseline_scheme, s))
    base = results[(architecture, baseline_scheme)].energy
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for scheme in schemes:
            r = results[(architecture, scheme)]
            e = r.energy
            w.writerow([
                scheme, f"{e.servers_wh:.3f}", f"{e.switch_wh:.3f}",
                f"{e.total_wh:.3f}",
                _saving(e.servers_wh, base.servers_wh),
                _saving(e.switch_wh, base.switch_wh),
                _saving(e.total_wh, base.total_wh),
                f"{r.sla['violation_fraction']:.5f}",
            ])


def _saving(wh: float, base_wh: float) -> str:
    """Fraction saved against the baseline; nan when the baseline drew nothing."""
    return f"{1.0 - wh / base_wh:.4f}" if base_wh else "nan"
