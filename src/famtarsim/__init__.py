"""famtarsim — flow-aware adaptive multipath routing, simulated at desk scale.

Routers pin each flow to the path chosen when its first packet arrives,
measure per-interface load once a second, and flood a prohibitive link cost
when an interface saturates so that *new* flows route around it while
established flows stay put.  The package bundles the canonical experiment
scenarios and a CLI for running them reproducibly.
"""

from .engine import Engine, EventLog
from .flowtable import FlowTable, FlowTableError
from .metrics import MetricsReport, collect
from .model import (FlowKey, FlowValue, Link, Packet, SimTime, Topology,
                    TopologyError, make_flow_key, seconds)
from .router import FamtarConfig, Router
from .routing import LinkStateDb, Route, RoutingConfig, flood_plan, spf
from .scenario import (ExperimentResult, ScenarioError, ScenarioSpec,
                       build_parallel_paths_topology, bundled_scenario_names,
                       emit_summary, load_bundled, run_experiment,
                       run_scenario)
from .traffic import (FlowSpec, ParetoBatch, WorkloadSpec,
                      elastic_batch_workload, materialize,
                      single_cbr_workload, voip_vs_waves_workload)

__version__ = "0.1.0"

__all__ = [
    "Engine", "EventLog",
    "FlowTable", "FlowTableError",
    "MetricsReport", "collect",
    "FlowKey", "FlowValue", "Link", "Packet", "SimTime", "Topology",
    "TopologyError", "make_flow_key", "seconds",
    "FamtarConfig", "Router",
    "LinkStateDb", "Route", "RoutingConfig", "flood_plan", "spf",
    "ExperimentResult", "ScenarioError", "ScenarioSpec",
    "build_parallel_paths_topology", "bundled_scenario_names", "emit_summary",
    "load_bundled", "run_experiment", "run_scenario",
    "FlowSpec", "ParetoBatch", "WorkloadSpec", "elastic_batch_workload",
    "materialize", "single_cbr_workload", "voip_vs_waves_workload",
    "__version__",
]
