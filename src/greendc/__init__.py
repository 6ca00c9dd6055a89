"""Energy-aware data center simulator.

Discrete-event simulation of two- and three-tier switching fabrics with
per-component energy accounting, deadline-constrained workload classes,
and DVFS / sleep-state power management schemes.
"""

from .config import ConfigError, ScenarioConfig, from_dict, scenario_preset, to_dict
from .engine import InternalInvariantViolation, run
from .powermodel import ServerPowerParams, SwitchPowerParams
from .report import (
    EnergyLedger,
    SimReport,
    annualize_cost,
    experiment_cells,
    run_experiment_matrix,
    run_replications,
    run_scenario,
    summarize_replications,
)
from .scheduler import SCHEMES, SchedulerPolicy
from .topology import ArchitectureSpec, Topology, build_topology
from .workload import Job, WorkloadSpec, generate, load_for_target

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "ConfigError",
    "EnergyLedger",
    "InternalInvariantViolation",
    "Job",
    "SCHEMES",
    "ScenarioConfig",
    "SchedulerPolicy",
    "ServerPowerParams",
    "SimReport",
    "SwitchPowerParams",
    "Topology",
    "WorkloadSpec",
    "annualize_cost",
    "build_topology",
    "experiment_cells",
    "from_dict",
    "generate",
    "load_for_target",
    "run",
    "run_experiment_matrix",
    "run_replications",
    "run_scenario",
    "scenario_preset",
    "summarize_replications",
    "to_dict",
    "__version__",
]
