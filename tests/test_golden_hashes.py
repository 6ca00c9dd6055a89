"""Pinned trace hashes and output bytes: the simulator's behavioural contract.

Every event, its time and its arguments feed the trace hash, so a change
that alters any routing pick, placement or event order changes one of
these.  The energy ledger, the counters and the power samples do not feed
it, so the sha256 of each case's report.json and timeseries.csv is pinned
too.  A change that means to alter behaviour must say why and re-pin
them; a change that only makes the simulator faster must leave them as
they are.
"""

import copy
import functools
import hashlib

import pytest

from greendc import config, presets
from greendc.report import run_scenario, write_report_json, write_timeseries_csv

# (preset, scheme, architecture, horizon) -> (trace hash, sha256 of
# report.json, sha256 of timeseries.csv)
GOLDEN = {
    ("reference-30", "none", "three_tier", 2.0): (
        "0e06e2e59c0c0212fa1313e278a87b16ef6c8ade1dbee15c81f65bea606194bf",
        "975dc5d190f2fcca1ea5997a7cd6c75a1dbd19531a809b4a4109227ebe75a403",
        "727a59f2e56ef8633088a07e4503fe275cc6904a35adb1be6ea8b2685e7cd0ce"),
    ("reference-30", "none", "two_tier", 2.0): (
        "3b6e34eb4a9fdcd0a1c8d4ef04c4a0a286dd9c1f149e412e880ba6df17243c42",
        "52fcd68f7f57105e676a0968707492ddb75642737380f9c91e6b6e137756ef5f",
        "f5bf40e2de67f9ae6915accc55883efe4e036c53fa86ad2ca05baed7c5e037c0"),
    ("reference-30", "none", "three_tier_hs", 2.0): (
        "9daec1c0c8f999314fbb9b58fcd5ed67180fda9d99413dda8574705bd6474bd4",
        "4356341aa1f7b6655445673d9c65c9f1dded8f0d7bd774e59ce3fcea277bea20",
        "1cb60ddc23da218378e9a7a812dcd1653da440979236d6164bb9d8be97c40ce1"),
    ("reference-30", "dvfs+dns", "three_tier", 2.0): (
        "d9f18b31995a076b377fcf797799ff6d68a7c732fb31717f8c354ca2de4c2960",
        "6ef2472cf54309ec1dd32911776338f3a441499b72afaba7944d9fc1d96f919b",
        "66407fc5758a04762d25f9b093a39304e94990e3da840b83a04901d1b418783f"),
    ("reference-30", "dvfs+dns", "two_tier", 2.0): (
        "854ac10ced413cd384ba8491f3cd7637b3e45df63e14825985e2a88ad9b83d6f",
        "7cd0b3da4a0ea8133fc5f5b118738d12154928ac7bf91fe843958b33076cfbf4",
        "1d485e47a7e5bcb48d16ae675863212980ef38396edde35ac8b429d617440d8f"),
    ("reference-30", "dvfs+dns", "three_tier_hs", 2.0): (
        "7694e0b9525af5e87035dc67d7e4fcc935e8e052671896016ac1ce8820327910",
        "c47388e4ba7c5763ad806a2415a44240c74647bb9f20b82fbcce792d17f4e024",
        "a8e85e6924841fddd9142d1d2fcd6b28cbdcb9cab3e2652659b680cbf3f50901"),
    # data-intensive placement routes every candidate server around dark
    # switches, so this case pins the live-path choice hardest
    ("diw-30", "dvfs+dns", "three_tier", 2.0): (
        "39158140cd988135939d82d18764d9369a959ec760e9dcee4cfe06ed206079d5",
        "35ce72ff058bd6ef763d22385e51b479b05e47278cd15411935406c8b668c24c",
        "8152ef6b46bdc49edbf972adb4cf4ab2b82f7428a4a0fe37fb793a1e9e777458"),
}


@functools.cache
def _report(case):
    preset, scheme, arch, horizon = case
    data = copy.deepcopy(presets.SCENARIOS[preset])
    data.update(architecture=arch, horizon_s=horizon, policy={"scheme": scheme})
    return run_scenario(config.from_dict(data))


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_trace_hash_is_pinned(case):
    assert _report(case).trace_hash == GOLDEN[case][0]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_report_and_timeseries_bytes_are_pinned(case, tmp_path):
    rep = _report(case)
    write_report_json(rep, tmp_path / "report.json")
    write_timeseries_csv(rep, tmp_path / "timeseries.csv")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("report.json", "timeseries.csv"))
    assert digests == GOLDEN[case][1:]
