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
        "b360fcb62a3f73fcdeb0f59e88a2f8152fa9cea063b033fa2712cd205e21657e",
        "9048a56a92828206e78d61f379ad8312ba749b30c8da3eb226428da3eb72c631",
        "727a59f2e56ef8633088a07e4503fe275cc6904a35adb1be6ea8b2685e7cd0ce"),
    ("reference-30", "none", "two_tier", 2.0): (
        "d7695ab3e38e39976c86006040e0f3a1c2ee5f65a912e1f7c7bf0bf7901adb32",
        "9b65f9260e29ef3ff7a13e8e9a5c4337184a4944f6125e757eb211c71fe26f82",
        "f5bf40e2de67f9ae6915accc55883efe4e036c53fa86ad2ca05baed7c5e037c0"),
    ("reference-30", "none", "three_tier_hs", 2.0): (
        "4acf9dd286ef69d681131f92674509a4ca2c1ba15e6a5a22f4fd7677e6604538",
        "a7ded4c33c8598d6cad4cb0eb0f5923f0881a4366d4fb528bcea2cee9ec5b36f",
        "1cb60ddc23da218378e9a7a812dcd1653da440979236d6164bb9d8be97c40ce1"),
    ("reference-30", "dvfs+dns", "three_tier", 2.0): (
        "13ccbd25b7e22e7befdf4e205df8d0c97d97836e4f94250cdf3fdefd811839e7",
        "83accd0714ce49ec42d1b1bf5cd8a1603c11066cd3875978ee12a2fcca854236",
        "66407fc5758a04762d25f9b093a39304e94990e3da840b83a04901d1b418783f"),
    ("reference-30", "dvfs+dns", "two_tier", 2.0): (
        "9730c05c68178a839daf1d700e8b66f04592d6328312fc5608073f0920f95600",
        "790b2044e29b0ee4f9609014382174eae1f5b1f0211fe172998ccc5daa5783bf",
        "1d485e47a7e5bcb48d16ae675863212980ef38396edde35ac8b429d617440d8f"),
    ("reference-30", "dvfs+dns", "three_tier_hs", 2.0): (
        "bfa36fff25cf7ed4ee75ed1288a88ae79078ac5dd88360ebdf889eb1d3e376ff",
        "6779075b4b2a8bae441308246967e7867c3c1adc42f4d047ba078cacead3382d",
        "a8e85e6924841fddd9142d1d2fcd6b28cbdcb9cab3e2652659b680cbf3f50901"),
    # data-intensive placement routes every candidate server around dark
    # switches, so this case pins the live-path choice hardest
    ("diw-30", "dvfs+dns", "three_tier", 2.0): (
        "3e5795233ec478384af0fe22ec573552406f701e023e2f44bd1130e4cafb38f0",
        "2fc01cb86d278453412dd5b4bed0e4ca9f093751dbb3354cbf4cd971023e46dd",
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
