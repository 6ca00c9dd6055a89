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
        "eeb0c54311d916abb84075b298a590ea8012947db7400629dbbc169656d7cf49",
        "391e8e54691a1413efafae8c666451dc04298b237fb880e107850c22fa2f6397",
        "6ed78297e93da9d627e9481d9672f33401069521e7a104a7b2ec794cf9b5c36c"),
    ("reference-30", "none", "two_tier", 2.0): (
        "fa3a44265997fbc0fb24835eeac8aeb25e94d90af0ca05cc584df505c8fa632a",
        "d9022bd5a67ea7cb176cdc25ed7a1dc58c47f38de8e26e722b0c8f2f60e7f18b",
        "b152ae40d3b227f88e88f56db01b10c7fb3490e13eb011fcf56c5fafa20f57cf"),
    ("reference-30", "none", "three_tier_hs", 2.0): (
        "77cb93e531c899cc331fb0eb516133e20cca76e503949bf2e3fbec0d8b3cd3d3",
        "4cc1ba04d95d2f94f0ebbc690465b22523050f97ad423009d7b981bf55acd446",
        "e9a2eb5415cbe73ae2b0d0138db6d74c74fc703de6b599cf948b5fab665c42ba"),
    ("reference-30", "dvfs+dns", "three_tier", 2.0): (
        "fc51cc4a9137813217ba0f3d5cd6c28b6f42afabd054322f9a8645470f62b3d6",
        "2e99645047f8129bf6aed77ef53951e589742efaeb97a42b728ade4a3c054b43",
        "8d94429af4ae5d8f8020b75f98ca3525d1a8fb9224a0bcf567f76d04b3fa3480"),
    ("reference-30", "dvfs+dns", "two_tier", 2.0): (
        "2399741859a515c1f06ca176e361096564887a5dac91a426a1fb11f1c1762d54",
        "cd1d6b4327aa2e38cf6777a4ed7e034557c471aaf6191c493567504ea433021d",
        "615f84d7506d09e4911d50e27019615184fc0626e1f8ab39487b21ce2fcc2c6a"),
    ("reference-30", "dvfs+dns", "three_tier_hs", 2.0): (
        "c6ebf1224efce25a672c7aca6ce6605f503986cc9d7e3abce3326f5757137cf9",
        "7e14b6012824e3281bcb713935a3f1e06722e173d1fda8e0282b01cf43b139f4",
        "363ff64c1624201d2230555ce1ffbf71dec3e7891973bcca748ebb901decc21e"),
    # data-intensive placement routes every candidate server around dark
    # switches, so this case pins the live-path choice hardest
    ("diw-30", "dvfs+dns", "three_tier", 2.0): (
        "ca27b4a71968eb816fa03e0a03c1aec4dc47b218f562adb2cec5ca5a8bb30902",
        "1378099859ec977ae42299c28fb3aa52b11d2465c0fe4788ae38a7a81aad162f",
        "d62816e7c879ad3cd54d067d9027b2f0622c3340a389b18487d1815db62964b8"),
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
