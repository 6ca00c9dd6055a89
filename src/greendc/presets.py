"""Ready-made fabric and power parameter sets.

The fabrics host 1536 servers behind 512 access switches (three servers
per rack uplinked at gigabit rates).  The two-tier fabric meshes the
access layer straight into sixteen core switches; the three-tier fabric
adds an aggregation layer (eight plus eight switches); the high-speed
variant keeps the three-tier shape with two core and four aggregation
switches and ten times the trunk rates.

Power figures: a server draws 171 W of platform power plus a cubic
frequency term peaking at 130 W, and 27 W of CPU idle overhead when
awake but unloaded.  Switch chassis/linecard draws are sized so that, at
the reference 30% load, servers account for roughly seventy percent of
total consumption and the access layer dominates switching costs, with
per-port transceiver power anchored at 0.4 W (1 GE) and 1 W (10 GE).
"""

from .powermodel import DEFAULT_PORT_POWER_W, ServerPowerParams, SwitchPowerParams
from .topology import THREE_TIER, THREE_TIER_HS, TWO_TIER, ArchitectureSpec

ARCHITECTURES = {
    "two_tier": ArchitectureSpec(
        kind=TWO_TIER, core_count=16, agg_count=0, access_count=512),
    "three_tier": ArchitectureSpec(
        kind=THREE_TIER, core_count=8, agg_count=8, access_count=512),
    "three_tier_hs": ArchitectureSpec(
        kind=THREE_TIER_HS, core_count=2, agg_count=4, access_count=512,
        access_uplink_bps=1e10, agg_core_bps=1e11, core_mesh_bps=1e11),
}

SERVER_POWER = ServerPowerParams()

SWITCH_POWER = {
    "core": SwitchPowerParams(p_chassis_w=1150.0, p_linecard_w=1000.0,
                              n_linecards=2,
                              port_power_by_rate=dict(DEFAULT_PORT_POWER_W)),
    "aggregation": SwitchPowerParams(p_chassis_w=2400.0, p_linecard_w=1900.0,
                                     n_linecards=2,
                                     port_power_by_rate=dict(DEFAULT_PORT_POWER_W)),
    "access": SwitchPowerParams(p_chassis_w=145.0,
                                port_power_by_rate=dict(DEFAULT_PORT_POWER_W)),
}

# named starting points for the command line; plain data, merged and
# validated by the config layer
SCENARIOS = {
    "reference-30": {
        "label": "reference-30",
        "architecture": "three_tier",
        "target_load": 0.30,
        "workload": {"class_mix": [0.0, 0.0, 1.0], "deadline_slack": 2.5},
        "policy": {"scheme": "none"},
        "horizon_s": 60.0,
        "seed": 1,
    },
    "ciw-30": {
        "label": "ciw-30",
        "architecture": "three_tier",
        "target_load": 0.30,
        "workload": {"class_mix": [1.0, 0.0, 0.0], "deadline_slack": 2.5},
        "policy": {"scheme": "none"},
        "horizon_s": 60.0,
        "seed": 1,
    },
    "diw-30": {
        "label": "diw-30",
        "architecture": "three_tier",
        "target_load": 0.30,
        "workload": {"class_mix": [0.0, 1.0, 0.0], "deadline_slack": 2.5},
        "policy": {"scheme": "none"},
        "horizon_s": 60.0,
        "seed": 1,
    },
}
