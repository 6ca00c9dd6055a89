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

from greendc import config, engine, presets
from greendc.report import write_report_json, write_timeseries_csv

# (preset, scheme, architecture, horizon) -> (trace hash, sha256 of
# report.json, sha256 of timeseries.csv)
GOLDEN = {
    ("reference-30", "none", "three_tier", 2.0): (
        "0e06e2e59c0c0212fa1313e278a87b16ef6c8ade1dbee15c81f65bea606194bf",
        "2204ca4b8b9ebfba29a9354c2a4570a98579ed2de991fa69026b5046057fc1ec",
        "727a59f2e56ef8633088a07e4503fe275cc6904a35adb1be6ea8b2685e7cd0ce"),
    ("reference-30", "none", "two_tier", 2.0): (
        "3b6e34eb4a9fdcd0a1c8d4ef04c4a0a286dd9c1f149e412e880ba6df17243c42",
        "d6037b969defd6b77788314b64ea8a79adcdd161162a9e9e240e25aeb6049228",
        "f5bf40e2de67f9ae6915accc55883efe4e036c53fa86ad2ca05baed7c5e037c0"),
    ("reference-30", "none", "three_tier_hs", 2.0): (
        "9daec1c0c8f999314fbb9b58fcd5ed67180fda9d99413dda8574705bd6474bd4",
        "3b0878bf38c73be1b1fe370322ff4eda100736a1e12ca7c97e7bdb1630cfce31",
        "1cb60ddc23da218378e9a7a812dcd1653da440979236d6164bb9d8be97c40ce1"),
    ("reference-30", "dvfs+dns", "three_tier", 2.0): (
        "d9f18b31995a076b377fcf797799ff6d68a7c732fb31717f8c354ca2de4c2960",
        "817f398d80b20394225dd9d23bd9dae4eed03c58b1c68ef55440e626f9e7fa19",
        "66407fc5758a04762d25f9b093a39304e94990e3da840b83a04901d1b418783f"),
    ("reference-30", "dvfs+dns", "two_tier", 2.0): (
        "854ac10ced413cd384ba8491f3cd7637b3e45df63e14825985e2a88ad9b83d6f",
        "f7b1b5488048f9efa2b0dfa0f7d0f43501a95e7a353d6998fd644c3f9ac6edc5",
        "1d485e47a7e5bcb48d16ae675863212980ef38396edde35ac8b429d617440d8f"),
    ("reference-30", "dvfs+dns", "three_tier_hs", 2.0): (
        "7694e0b9525af5e87035dc67d7e4fcc935e8e052671896016ac1ce8820327910",
        "6ab37c2d6aae4cda266befeb464c147afc89a2730c26524e5e916f016ed57295",
        "a8e85e6924841fddd9142d1d2fcd6b28cbdcb9cab3e2652659b680cbf3f50901"),
    # data-intensive placement routes every candidate server around dark
    # switches, so this case pins the live-path choice hardest
    ("diw-30", "dvfs+dns", "three_tier", 2.0): (
        "39158140cd988135939d82d18764d9369a959ec760e9dcee4cfe06ed206079d5",
        "c6afbeaa224f40f240b38be3d95944e735f7005a9c4d7d527f08fc5b1936b9c5",
        "8152ef6b46bdc49edbf972adb4cf4ab2b82f7428a4a0fe37fb793a1e9e777458"),
}


@functools.cache
def _report(case):
    preset, scheme, arch, horizon = case
    data = copy.deepcopy(presets.SCENARIOS[preset])
    data.update(architecture=arch, horizon_s=horizon, policy={"scheme": scheme})
    return engine.run(config.from_dict(data))


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
