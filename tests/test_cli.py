"""Command line behavior: flags, output files, exit codes."""

import json

import pytest

from greendc import cli, engine
from greendc.engine import InternalInvariantViolation

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

    monkeypatch.setattr(cli.reporting, "run_scenario", boom)
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
], ids=["fractional-seed", "negative-seed", "fractional-replications",
        "fewer-racks-than-pods", "rate-without-port-power"])
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
