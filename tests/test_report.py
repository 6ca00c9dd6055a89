"""Efficiency metrics, replication statistics and table writers."""

import csv
import json
import math

import pytest

from greendc.report import (
    EnergyLedger, ZeroItEnergy, annualize_cost, compute_pue_dcie,
    run_experiment_matrix, run_replications, run_scenario, summarize,
    summarize_replications, t_quantile_95, write_energy_by_architecture_csv,
    write_report_json, write_savings_by_scheme_csv, write_timeseries_csv,
)


def test_pue_dcie_pair():
    pue, dcie = compute_pue_dcie(100.0, 160.0)
    assert pue == pytest.approx(1.6)
    assert dcie == pytest.approx(0.625)
    assert compute_pue_dcie(50.0, 50.0) == (1.0, 1.0)


def test_pue_rejects_degenerate_inputs():
    with pytest.raises(ZeroItEnergy):
        compute_pue_dcie(0.0, 10.0)
    with pytest.raises(ValueError):
        compute_pue_dcie(100.0, 90.0)


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
    results = run_experiment_matrix(cfg, ["three_tier"], ["none", "dns"])
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
    serial = run_experiment_matrix(cfg, ["three_tier"], ["none", "dvfs"])
    parallel = run_experiment_matrix(cfg, ["three_tier"], ["none", "dvfs"],
                                     workers=2)
    for key in serial:
        assert serial[key].trace_hash == parallel[key].trace_hash
