"""Efficiency metrics, replication statistics and table writers."""

import copy
import csv
import json
import math

import pytest

from greendc import config
from greendc.report import (
    EnergyLedger, annualize_cost, experiment_cells, run_experiment_matrix, run_replications,
    run_scenario, summarize, summarize_replications, t_quantile_95,
    write_energy_by_architecture_csv, write_report_json, write_savings_by_scheme_csv, write_timeseries_csv,
)
from greendc.scheduler import SCHEMES

from conftest import small_scenario


def test_annualize_cost_scales_run_to_a_year():
    # 1 kWh consumed per hour of horizon -> 8760 kWh / year at $0.10
    cost = annualize_cost(1000.0, 3600.0, price_per_kwh=0.10)
    assert cost == pytest.approx(876.0)
    doubled = annualize_cost(1000.0, 3600.0, price_per_kwh=0.10, pue_overhead=2.0)
    assert doubled == pytest.approx(2 * 876.0)
    with pytest.raises(ValueError):
        annualize_cost(10.0, 0.0, 0.1)


def test_energy_ledger_shares():
    e = EnergyLedger(servers_wh=70.0, core_wh=5.0, aggregation_wh=10.0,
                     access_wh=15.0)
    assert e.switch_wh == 30.0
    assert e.total_wh == 100.0
    assert e.share(e.servers_wh) == pytest.approx(0.70)
    assert e.as_dict()["switch_wh"] == 30.0


def test_summarize_basic_stats():
    s = summarize([2.0, 4.0, 6.0])
    assert s["mean"] == pytest.approx(4.0)
    assert s["stddev"] == pytest.approx(2.0)
    assert s["ci95_half_width"] == pytest.approx(
        t_quantile_95(2) * 2.0 / math.sqrt(3))
    assert summarize([5.0])["ci95_half_width"] == 0.0
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        t_quantile_95(0)


def test_replications_use_consecutive_seeds_and_summarize(make_cfg):
    cfg = make_cfg(horizon_s=4.0, replications=3)
    reps = run_replications(cfg)
    assert [r.seed for r in reps] == [cfg.seed, cfg.seed + 1, cfg.seed + 2]
    assert len({r.trace_hash for r in reps}) == 3
    summary = summarize_replications(reps)
    assert summary["total_wh"]["n"] == 3
    assert summary["total_wh"]["mean"] == pytest.approx(
        sum(r.energy.total_wh for r in reps) / 3)


def test_parallel_replications_match_serial(make_cfg):
    cfg = make_cfg(horizon_s=3.0, replications=2)
    serial = run_replications(cfg)
    parallel = run_replications(cfg, workers=2)
    assert [r.trace_hash for r in serial] == [r.trace_hash for r in parallel]


def test_report_fields_cover_efficiency_metrics(make_cfg):
    cfg = make_cfg(horizon_s=4.0, pue_overhead=1.5)
    rep = run_scenario(cfg)
    assert rep.pue == pytest.approx(1.5)
    assert rep.dcie == pytest.approx(1 / 1.5)
    assert rep.annual_cost_usd > 0
    assert 0.0 < rep.awake_fraction <= 1.0
    assert rep.mean_power_w["total"] == pytest.approx(
        rep.energy.total_wh * 3600.0 / cfg.horizon_s, rel=1e-9)


def test_report_json_and_timeseries_files(make_cfg, tmp_path):
    rep = run_scenario(make_cfg(horizon_s=4.0))
    jpath = tmp_path / "report.json"
    write_report_json(rep, str(jpath))
    data = json.loads(jpath.read_text())
    assert data["label"] == "small"
    assert data["energy"]["total_wh"] == pytest.approx(rep.energy.total_wh)
    assert data["scenario"]["seed"] == rep.seed
    cpath = tmp_path / "ts.csv"
    write_timeseries_csv(rep, str(cpath))
    rows = list(csv.DictReader(cpath.open()))
    assert rows, "timeseries should have at least the boundary samples"
    assert float(rows[0]["t"]) == 0.0
    assert {"servers_w", "awake_servers"} <= set(rows[0])


def test_experiment_matrix_and_table_writers(make_cfg, tmp_path):
    cfg = make_cfg(horizon_s=3.0)
    pocket = {"three_tier": _POCKET_FABRICS["three_tier"]}
    results = run_experiment_matrix(experiment_cells(cfg, pocket, ["none", "dns"]))
    assert set(results) == {("three_tier", "none"), ("three_tier", "dns")}

    epath = tmp_path / "by_arch.csv"
    write_energy_by_architecture_csv(results, str(epath))
    erows = list(csv.DictReader(epath.open()))
    assert [r["architecture"] for r in erows] == ["three_tier"]
    none_total = results[("three_tier", "none")].energy.total_wh
    assert float(erows[0]["total_wh"]) == pytest.approx(none_total, abs=5e-4)

    spath = tmp_path / "by_scheme.csv"
    write_savings_by_scheme_csv(results, str(spath))
    srows = {r["scheme"]: r for r in csv.DictReader(spath.open())}
    assert set(srows) == {"none", "dns"}
    assert float(srows["none"]["total_saving_fraction"]) == 0.0
    dns_total = results[("three_tier", "dns")].energy.total_wh
    assert float(srows["dns"]["total_saving_fraction"]) == pytest.approx(
        1.0 - dns_total / none_total, abs=5e-5)


def test_matrix_workers_agree_with_serial(make_cfg):
    cfg = make_cfg(horizon_s=3.0)
    pocket = {"three_tier": _POCKET_FABRICS["three_tier"]}
    cells = experiment_cells(cfg, pocket, ["none", "dvfs"])
    serial = run_experiment_matrix(cells)
    parallel = run_experiment_matrix(cells, workers=2)
    for key in serial:
        assert serial[key].trace_hash == parallel[key].trace_hash


# -- metamorphic relations: what the power and pricing terms may change -------

_POCKET_FABRICS = {
    "three_tier": small_scenario()["architecture"],
    "two_tier": {"kind": "two_tier", "core_count": 2, "agg_count": 0,
                 "access_count": 4, "servers_per_access": 2},
}


def _pocket(scheme, arch):
    """The pocket scenario with every job class, as a full document."""
    return config.to_dict(config.from_dict(small_scenario(
        architecture=_POCKET_FABRICS[arch], policy={"scheme": scheme}, horizon_s=4.0,
        workload={"class_mix": [0.3, 0.3, 0.4], "deadline_slack": 2.5,
                  "mean_compute": 0.1})))


def _doubled_watts(data):
    data = copy.deepcopy(data)
    server = data["server_power"]
    for key in ("p_fixed_w", "p_f_w", "p_idle_cpu_w", "p_sleep_w"):
        server[key] *= 2
    for switch in data["switch_power"].values():
        for key in ("p_chassis_w", "p_linecard_w", "p_sleep_w"):
            switch[key] *= 2
        switch["port_power_by_rate"] = {rate: 2 * w for rate, w
                                        in switch["port_power_by_rate"].items()}
    return data


def _run(data):
    """report.json's content plus the power samples, of one run."""
    rep = run_scenario(config.from_dict(data))
    return dict(rep.as_dict(), timeseries=rep.timeseries)


@pytest.mark.parametrize("arch", sorted(_POCKET_FABRICS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_doubling_every_wattage_doubles_every_energy_figure(scheme, arch):
    """No power term steers a decision, and the ledger is linear in watts:
    the trace, the SLA counts and every other figure stay as they are, and
    every energy, mean power, cost and power sample doubles bit for bit."""
    data = _pocket(scheme, arch)
    base, doubled = _run(data), _run(_doubled_watts(data))
    assert base["energy"]["total_wh"] > 0 and base["sla"]["admitted"] > 0
    for key in ("energy", "mean_power_w"):
        assert {k: 2 * v for k, v in base.pop(key).items()} == doubled.pop(key)
    assert 2 * base.pop("annual_cost_usd") == doubled.pop("annual_cost_usd")
    for row in base["timeseries"]:
        for key in ("servers_w", "core_w", "aggregation_w", "access_w"):
            row[key] *= 2
    assert base.pop("scenario") != doubled.pop("scenario")
    assert base == doubled


@pytest.mark.parametrize("arch", sorted(_POCKET_FABRICS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_facility_overhead_and_price_change_only_their_figures(scheme, arch):
    data = _pocket(scheme, arch)
    base = _run(data)
    other = _run(dict(data, pue_overhead=1.7, price_per_kwh=0.31))
    changed = ("pue", "dcie", "annual_cost_usd", "scenario")
    assert all(base[key] != other[key] for key in changed)
    assert ({k: v for k, v in base.items() if k not in changed}
            == {k: v for k, v in other.items() if k not in changed})
