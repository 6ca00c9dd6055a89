"""Pinned trace hashes: the simulator's behavioural contract.

Every event, its time and its arguments feed the trace hash, so a change
that alters any routing pick, placement or event order changes one of
these.  A change that means to alter behaviour must say why and re-pin
them; a change that only makes the simulator faster must leave them as
they are.
"""

import copy

import pytest

from greendc import config, presets
from greendc.report import run_scenario

GOLDEN = {
    ("reference-30", "none", "three_tier", 2.0):
        "0e06e2e59c0c0212fa1313e278a87b16ef6c8ade1dbee15c81f65bea606194bf",
    ("reference-30", "none", "two_tier", 2.0):
        "3b6e34eb4a9fdcd0a1c8d4ef04c4a0a286dd9c1f149e412e880ba6df17243c42",
    ("reference-30", "none", "three_tier_hs", 2.0):
        "9daec1c0c8f999314fbb9b58fcd5ed67180fda9d99413dda8574705bd6474bd4",
    ("reference-30", "dvfs+dns", "three_tier", 2.0):
        "d9f18b31995a076b377fcf797799ff6d68a7c732fb31717f8c354ca2de4c2960",
    ("reference-30", "dvfs+dns", "two_tier", 2.0):
        "854ac10ced413cd384ba8491f3cd7637b3e45df63e14825985e2a88ad9b83d6f",
    ("reference-30", "dvfs+dns", "three_tier_hs", 2.0):
        "7694e0b9525af5e87035dc67d7e4fcc935e8e052671896016ac1ce8820327910",
    # data-intensive placement routes every candidate server around dark
    # switches, so this case pins the live-path choice hardest
    ("diw-30", "dvfs+dns", "three_tier", 2.0):
        "39158140cd988135939d82d18764d9369a959ec760e9dcee4cfe06ed206079d5",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_trace_hash_is_pinned(case):
    preset, scheme, arch, horizon = case
    data = copy.deepcopy(presets.SCENARIOS[preset])
    data.update(architecture=arch, horizon_s=horizon, policy={"scheme": scheme})
    assert run_scenario(config.from_dict(data)).trace_hash == GOLDEN[case]
