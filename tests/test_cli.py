"""Command line and package surface: flags, output files, exit codes and the
public names."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import greendc
from greendc import cli, engine
from greendc.config import MAX_REPLICATIONS
from greendc.engine import InternalInvariantViolation
from greendc.presets import ARCHITECTURES

from conftest import small_scenario


def write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_scenario(**overrides)))
    return str(path)


def test_validate_accepts_scenario_file(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli.main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: small (three_tier")


def test_validate_writes_dot_export(tmp_path, capsys):
    path = write_scenario(tmp_path)
    dot = tmp_path / "fabric.dot"
    assert cli.main(["validate", "--scenario", path, "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph datacenter {")
    assert "n8 -- n4" in text or "n4 -- n8" in text


def test_validate_accepts_named_presets(capsys):
    assert cli.main(["validate", "--preset", "diw-30"]) == 0
    assert "diw-30" in capsys.readouterr().out


def test_simulate_writes_result_files(tmp_path, capsys):
    path = write_scenario(tmp_path, horizon_s=3.0)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["label"] == "small"
    assert report["scheme"] == "none"
    ts = (out / "timeseries.csv").read_text().splitlines()
    assert ts[0].startswith("t,servers_w")
    assert len(ts) > 2
    digest = (out / "trace_hash.txt").read_text().strip()
    assert digest == report["trace_hash"]
    assert len(digest) == 64
    stdout = capsys.readouterr().out
    assert "energy (Wh)" in stdout and "trace" in stdout


def test_simulate_override_flags_reach_the_run(tmp_path):
    path = write_scenario(tmp_path, horizon_s=3.0)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out),
                     "--scheme", "dns", "--seed", "99", "--horizon", "2",
                     "--label", "renamed"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scheme"] == "dns"
    assert report["seed"] == 99
    assert report["horizon_s"] == 2.0
    assert report["label"] == "renamed"


def test_simulate_replications_write_summary(tmp_path, capsys):
    path = write_scenario(tmp_path, horizon_s=2.0)
    out = tmp_path / "reps"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out),
                     "--replications", "3"]) == 0
    for i in range(3):
        assert (out / f"report-{i}.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_wh"]["n"] == 3
    assert "95% CI" in capsys.readouterr().out
    first = json.loads((out / "report-0.json").read_text())
    assert first == json.loads((out / "report.json").read_text())


def test_simulate_is_reproducible_across_invocations(tmp_path):
    path = write_scenario(tmp_path, horizon_s=2.0)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--scenario", path, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--scenario", path, "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "trace_hash.txt").read_text() == (b / "trace_hash.txt").read_text()


def test_sweep_writes_cell_reports_and_tables(tmp_path, capsys):
    path = write_scenario(tmp_path, horizon_s=2.0)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", path, "--out", str(out),
                     "--archs", "three_tier", "--schemes", "none,dns"]) == 0
    assert (out / "three_tier-none.json").exists()
    assert (out / "three_tier-dns.json").exists()
    arch_rows = (out / "energy_by_architecture.csv").read_text().splitlines()
    assert arch_rows[0].startswith("architecture,servers_wh")
    assert len(arch_rows) == 2
    scheme_rows = (out / "savings_by_scheme.csv").read_text().splitlines()
    assert len(scheme_rows) == 3   # header + none + dns
    stdout = capsys.readouterr().out
    assert "three_tier" in stdout and "dns" in stdout


def test_sweep_reads_matrix_file(tmp_path):
    path = write_scenario(tmp_path, horizon_s=2.0)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(
        {"architectures": ["three_tier"], "schemes": ["none"]}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", path, "--matrix", str(matrix),
                     "--out", str(out)]) == 0
    assert (out / "three_tier-none.json").exists()


def test_sweep_rejects_bad_matrix_and_names(tmp_path, capsys):
    path = write_scenario(tmp_path)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"fabrics": ["three_tier"]}))
    assert cli.main(["sweep", "--scenario", path,
                     "--matrix", str(matrix)]) == 1
    assert "unknown key fabrics" in capsys.readouterr().err
    assert cli.main(["sweep", "--scenario", path, "--archs", "fat_tree"]) == 1
    assert cli.main(["sweep", "--scenario", path, "--schemes", "turbo"]) == 1


def test_sweep_checks_every_cell_before_it_runs_one(tmp_path, monkeypatch, capsys):
    """A cell the base document cannot make fails the sweep before any cell
    runs or any output is made: here the high-speed fabric's 100G trunks,
    which the base's core and aggregation port tables do not price."""
    ports = {"port_power_by_rate": {"1e9": 0.4, "1e10": 1.0}}
    path = write_scenario(tmp_path, switch_power={"core": ports, "aggregation": ports})
    ran = []
    monkeypatch.setattr(engine, "run", lambda *a, **k: ran.append(a))
    assert cli.main(["sweep", "--scenario", path, "--out", str(tmp_path / "out"),
                     "--archs", "three_tier,three_tier_hs", "--schemes", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: switch_power.core.port_power_by_rate: ")
    assert "1e+11" in err and err.count("\n") == 1
    assert ran == [] and not (tmp_path / "out").exists()


def test_batch_size_and_worker_count_are_bounded(tmp_path, monkeypatch, capsys):
    """A replication count past MAX_REPLICATIONS fails validation, and a
    worker count outside 1..os.cpu_count() is a config error before any
    output is made or any run starts."""
    path = write_scenario(tmp_path, replications=MAX_REPLICATIONS + 1)
    assert cli.main(["validate", "--scenario", path]) == 1
    assert capsys.readouterr().err == (
        f"config error: replications must be in 1..{MAX_REPLICATIONS:,}\n")
    path = write_scenario(tmp_path)
    ran = []
    monkeypatch.setattr(engine, "run", lambda *a, **k: ran.append(a))
    cpus = os.cpu_count() or 1
    for workers in (0, -1, cpus + 1):
        for command in ("simulate", "sweep"):
            assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "out"),
                             "--workers", str(workers)]) == 1
            assert capsys.readouterr().err == (
                f"config error: --workers must be in 1..{cpus}, got {workers}\n")
    assert ran == [] and not (tmp_path / "out").exists()


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert cli.main(["validate", "--scenario", str(missing)]) == 1

    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1, 2]")
    assert cli.main(["validate", "--scenario", str(listdoc)]) == 1

    unknown_key = tmp_path / "extra.json"
    unknown_key.write_text(json.dumps(small_scenario(colour="green")))
    assert cli.main(["validate", "--scenario", str(unknown_key)]) == 1
    assert "colour" in capsys.readouterr().err


def test_unknown_preset_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        cli.main(["validate", "--preset", "mystery-run"])


def test_invariant_violations_exit_two(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path)

    def boom(cfg):
        raise InternalInvariantViolation("ledger drift")

    monkeypatch.setattr(engine, "run", boom)
    assert cli.main(["simulate", "--scenario", path,
                     "--out", str(tmp_path / "x")]) == 2
    assert "ledger drift" in capsys.readouterr().err


def test_unexpected_exceptions_exit_two_on_one_line(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("heap\ncorrupted")

    monkeypatch.setattr(engine, "run", boom)
    assert cli.main(["simulate", "--scenario", path,
                     "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: heap corrupted\n"

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["simulate", "--scenario", path, "--out", str(tmp_path / "y")])


# written as JSON text: Python's JSON reader turns 1e400 into inf and
# accepts the NaN and Infinity tokens
@pytest.mark.parametrize("text", [
    '{"horizon_s": 1e400}',
    '{"policy": {"tick_interval_s": NaN}}',
    '{"workload": {"mean_compute": -Infinity}}',
    '{"price_per_kwh": 1%s}' % ("0" * 400),
    '{"workload": {"class_mix": [NaN, 0, 1]}}',
    '{"switch_power": {"access": {"port_power_by_rate": {"1e9": Infinity}}}}',
], ids=["overflowing-horizon", "nan-tick", "minus-infinity", "huge-integer",
        "nan-class-mix", "infinite-port-power"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, text, command):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [command, "--scenario", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "finite number" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc", [
    {"seed": 1.5},
    {"seed": -1},
    {"replications": 1.5},
    {"architecture": {"preset": "three_tier", "access_count": 2}},
    {"architecture": {"preset": "three_tier", "server_rate_bps": 2.5e9}},
    {"switch_power": {"core": {"p_chassis_w": -1.0}}},
    {"switch_power": {"aggregation": {"p_linecard_w": -1.0}}},
    {"switch_power": {"access": {"p_sleep_w": -1.0}}},
    {"switch_power": {"core": {"n_linecards": -1}}},
    {"switch_power": {"access": {"port_power_by_rate": {"1e9": -0.4, "1e10": 1.0}}}},
    # a zero NIC rate made every deadline infinite; negative bytes made
    # negative transfers and deadlines shorter than the compute
    {"workload": {"nic_rate_bps": 0}},
    {"workload": {"bytes_per_cpu_second": -1e6}},
    # a fabric count past any run's memory made range() overflow
    {"architecture": {"preset": "three_tier", "servers_per_access": 1e300}},
    # fields that steered nothing, or did so only in part, are unknown keys
    {"server_power": {"f_max": 1.0}},
    {"architecture": {"preset": "two_tier", "link_delay_s": 1e-8}},
    {"architecture": {"preset": "three_tier", "uplinks_per_access": 2}},
    # finite wattages whose sum, the idle draw, overflows to an infinity
    {"architecture": {"kind": "two_tier", "core_count": 2, "agg_count": 0,
                      "access_count": 2, "servers_per_access": 2},
     "switch_power": {"core": {"port_power_by_rate": {"1e9": 0.4, "1e10": 1.0}}},
     "server_power": {"p_fixed_w": 1e308, "p_idle_cpu_w": 1e308}},
    # finite draws whose sum over the fleet, or whose annual cost, overflows
    {"server_power": {"p_fixed_w": 1e306}, "horizon_s": 0.2},
    {"price_per_kwh": 1e305, "horizon_s": 0.2},
    {"pue_overhead": 1e306, "horizon_s": 0.2},
], ids=["fractional-seed", "negative-seed", "fractional-replications",
        "fewer-racks-than-pods", "rate-without-port-power", "negative-chassis-power",
        "negative-linecard-power", "negative-sleep-power", "negative-linecards",
        "negative-port-power", "zero-nic-rate", "negative-bytes-per-cpu-second",
        "too-many-links", "removed-f_max", "removed-link_delay_s",
        "removed-uplinks_per_access", "overflowing-server-draw", "overflowing-fleet-draw",
        "overflowing-price", "overflowing-pue"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_documents_that_cannot_run_are_config_errors(tmp_path, capsys, doc, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--scenario", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("policy", [{"scheme": "dns", "tick_interval_s": 1e-9},
                                    {"stats_interval_s": 1e-9}], ids=["tick", "stats"])
def test_intervals_too_fine_for_the_horizon_are_config_errors(tmp_path, capsys, policy):
    """A management or sampling interval that fills the horizon with more
    events than a run may hold is a one-line config error, from validate
    and from simulate alike (validate goes first: the run would not end)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"target_load": 0.05, "horizon_s": 2, "policy": policy}))
    for argv in (["validate"], ["simulate", "--out", str(tmp_path / "run")]):
        assert cli.main(argv + ["--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: policy.") and "intervals a run may hold" in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc", [
    {"workload": {"mean_interarrival": 1e-300}},
    {"workload": {"job_count": 10**9}},
    # the bound applies to the effective workload, after target_load has
    # set the arrival rate
    {"target_load": 1.0, "workload": {"mean_compute": 1e-9}},
], ids=["tiny-interarrival", "huge-job-count", "rate-from-target-load"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_workloads_expecting_too_many_jobs_are_config_errors(tmp_path, capsys, doc, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--scenario", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "jobs" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "afile/x"],
    ["sweep", "--out", "afile/y"],
    ["validate", "--dot", "afile/x.dot"],
], ids=["simulate-out", "sweep-out", "validate-dot"])
def test_output_paths_that_cannot_be_created_are_config_errors(tmp_path, capsys, argv):
    path = write_scenario(tmp_path)
    (tmp_path / "afile").write_text("a regular file\n")
    argv = [argv[0], "--scenario", path, argv[1], str(tmp_path / argv[2])]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, target", [
    (["simulate"], "report.json"),
    (["simulate", "--replications", "2"], "report-1.json"),
    (["sweep", "--archs", "three_tier", "--schemes", "none,dns"], "savings_by_scheme.csv"),
], ids=["simulate", "simulate-replications", "sweep"])
def test_result_files_that_are_directories_fail_before_the_run(tmp_path, monkeypatch,
                                                                 capsys, argv, target):
    path = write_scenario(tmp_path, horizon_s=2.0)
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    ran = []
    monkeypatch.setattr(engine, "run", lambda *a, **k: ran.append(a))
    assert cli.main([argv[0], "--scenario", path, "--out", str(out), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot write {out / target}: it is a directory\n"
    assert captured.out == "" and ran == []


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_result_files_that_cannot_be_written_are_config_errors(tmp_path, monkeypatch,
                                                                capsys, command):
    def refuse(rep, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli.reporting, "write_report_json", refuse)
    path = write_scenario(tmp_path, horizon_s=0.5)
    argv = [command, "--scenario", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv + (["--archs", "three_tier", "--schemes", "none"] if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write results in {tmp_path / 'out'}: ")
    assert "Permission denied" in err and err.count("\n") == 1


def _zero_power(**overrides):
    """A pocket scenario whose every server and switch power term is 0."""
    ports = {"1e9": 0.0, "1e10": 0.0}
    switch = {"p_chassis_w": 0.0, "p_linecard_w": 0.0, "port_power_by_rate": ports,
              "p_sleep_w": 0.0}
    return small_scenario(
        horizon_s=1.0,
        server_power={"p_fixed_w": 0.0, "p_f_w": 0.0, "p_idle_cpu_w": 0.0, "p_sleep_w": 0.0},
        switch_power={role: switch for role in ("core", "aggregation", "access")},
        **overrides)


def test_a_fabric_that_draws_nothing_runs(tmp_path, capsys):
    """Zero IT energy leaves PUE at the facility overhead, and a savings
    fraction against a zero baseline is nan, not a crash."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_zero_power(pue_overhead=1.5)))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy"]["total_wh"] == 0.0
    assert (report["pue"], report["dcie"]) == (1.5, 1.0 / 1.5)
    sweep = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", str(path), "--out", str(sweep),
                     "--archs", "three_tier", "--schemes", "none,dns"]) == 0
    rows = (sweep / "savings_by_scheme.csv").read_text().splitlines()
    assert rows[1].split(",")[4:7] == ["nan", "nan", "nan"]
    assert capsys.readouterr().err == ""


# -- any scenario document runs or is a one-line config error ------------------

_WATTS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3000.0))
# link rates every port table below covers
_LINK_RATES = {name: st.sampled_from([1e9, 1e10]) for name in (
    "server_rate_bps", "access_uplink_bps", "agg_core_bps", "core_mesh_bps")}
_VALID_DOCUMENTS = st.fixed_dictionaries({
    "architecture": st.one_of(
        st.fixed_dictionaries({
            "kind": st.sampled_from(["three_tier", "three_tier_hs"]),
            "core_count": st.integers(1, 3), "agg_count": st.sampled_from([2, 4]),
            "access_count": st.integers(2, 5), "servers_per_access": st.integers(1, 3)},
            optional=_LINK_RATES),
        st.fixed_dictionaries({
            "kind": st.just("two_tier"), "core_count": st.integers(1, 3),
            "agg_count": st.just(0), "access_count": st.integers(1, 5),
            "servers_per_access": st.integers(1, 3)}, optional=_LINK_RATES)),
    "horizon_s": st.floats(min_value=1e-3, max_value=1.0),
}, optional={
    "seed": st.integers(0, 2**40),
    "target_load": st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
    "pue_overhead": st.floats(min_value=1.0, max_value=3.0),
    "price_per_kwh": st.floats(min_value=0.0, max_value=1.0),
    "workload": st.fixed_dictionaries({}, optional={
        "class_mix": st.sampled_from([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                      [0.3, 0.3, 0.4]]),
        "mean_compute": st.floats(min_value=0.01, max_value=2.0),
        "deadline_slack": st.floats(min_value=0.1, max_value=5.0),
        "internal_fraction": st.floats(min_value=0.0, max_value=1.0),
        "bytes_per_cpu_second": st.sampled_from([0.0, 1e6, 1e8, 1e9]),
        "nic_rate_bps": st.sampled_from([1e6, 1e9]),
    }),
    "policy": st.fixed_dictionaries({}, optional={
        "scheme": st.sampled_from(["none", "dvfs", "dns", "dvfs+dns"]),
        "congestion_threshold": st.floats(min_value=0.01, max_value=1.0),
        "idle_timeout_s": st.floats(min_value=0.0, max_value=1.0),
        "dvfs_headroom": st.floats(min_value=0.0, max_value=1.0),
        "f_min": st.floats(min_value=0.01, max_value=1.0),
        "tick_interval_s": st.floats(min_value=0.01, max_value=1.0),
        "stats_interval_s": st.floats(min_value=0.01, max_value=1.0),
    }),
    "server_power": st.fixed_dictionaries({}, optional={
        "p_fixed_w": _WATTS, "p_f_w": _WATTS, "p_idle_cpu_w": _WATTS, "p_sleep_w": _WATTS,
    }),
    "switch_power": st.fixed_dictionaries({}, optional={
        role: st.fixed_dictionaries({}, optional={
            "p_chassis_w": _WATTS, "p_linecard_w": _WATTS, "p_sleep_w": _WATTS,
            "n_linecards": st.integers(0, 4),
            "port_power_by_rate": st.fixed_dictionaries(
                {"1e9": _WATTS, "1e10": _WATTS}, optional={"1e11": _WATTS}),
        }) for role in ("core", "aggregation", "access")
    }),
})
_BAD_VALUES = (-1, 0, -1e-9, 1e300, "x", None, [], {}, True)


def _leaves(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# half the documents valid, the other half with one value replaced by a bad one
_DOCUMENTS = st.one_of(_VALID_DOCUMENTS, _VALID_DOCUMENTS.flatmap(
    lambda doc: st.builds(_with, st.just(doc), st.sampled_from(list(_leaves(doc))),
                          st.sampled_from(_BAD_VALUES))))


@settings(max_examples=30, deadline=None)
@given(doc=_DOCUMENTS)
@example(doc=_zero_power())
@example(doc={"architecture": {"kind": "two_tier", "core_count": 1e300, "agg_count": 0,
                               "access_count": 1, "servers_per_access": 1},
              "horizon_s": 1.0})
# a zero core mesh rate, priced by a zero-rate port entry, divided by zero
@example(doc={"architecture": {"kind": "two_tier", "core_count": 2, "agg_count": 0,
                               "access_count": 2, "servers_per_access": 1,
                               "core_mesh_bps": 0},
              "horizon_s": 0.5,
              "switch_power": {"core": {"port_power_by_rate": {"1e9": 0.4, "1e10": 1.0,
                                                               "0": 1.0}}}})
# a linecard count past the float range overflowed the switch's draw
@example(doc={"architecture": {"kind": "two_tier", "core_count": 1, "agg_count": 0,
                               "access_count": 1, "servers_per_access": 1},
              "horizon_s": 0.5, "switch_power": {"core": {"n_linecards": 10 ** 400}}})
# two replications' annual costs near 1e300 overflowed the square in their
# standard deviation
@example(doc={"architecture": {"kind": "two_tier", "core_count": 1, "agg_count": 0,
                               "access_count": 1, "servers_per_access": 1},
              "horizon_s": 1.0, "pue_overhead": 1e300})
def test_any_document_runs_or_is_a_config_error(doc):
    """validate, simulate (once and with two replications) and a sweep exit
    0 or 1 on any document over a pocket fabric and a horizon of at most a
    second, with at most one line on stderr and never a traceback; a
    document validate accepts, simulate runs.  The sweep puts the document
    on the preset fabric of its kind (three-tier when the kind is not one)
    under two schemes, for a hundredth of a second so that the 1,536-server
    cells stay quick; the preset fabric may need port rates the document's
    tables lack, so it may refuse a document validate accepts."""
    kind = doc["architecture"].get("kind") if isinstance(doc["architecture"], dict) else None
    fabric = kind if isinstance(kind, str) and kind in ARCHITECTURES else "three_tier"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        codes = []
        for argv in (["validate"], ["simulate", "--out", os.path.join(tmp, "run")],
                     ["simulate", "--replications", "2", "--out", os.path.join(tmp, "reps")],
                     ["sweep", "--archs", fabric, "--schemes", "none,dvfs+dns",
                      "--horizon", "0.01", "--out", os.path.join(tmp, "sweep")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(cli.main([argv[0], "--scenario", path, *argv[1:]]))
            text = err.getvalue()
            assert codes[-1] in (0, 1), text
            assert text.count("\n") <= 1 and "Traceback" not in text
        assert codes[0] == codes[1] == codes[2]
        assert os.path.exists(os.path.join(tmp, "run", "report.json")) == (codes[1] == 0)
        assert os.path.exists(os.path.join(tmp, "reps", "summary.json")) == (codes[2] == 0)
        assert os.path.exists(os.path.join(tmp, "sweep", f"{fabric}-none.json")) == (codes[3] == 0)


def test_public_names_resolve():
    missing = [name for name in greendc.__all__ if not hasattr(greendc, name)]
    assert missing == []
