"""Fleet layer: many nodes, one scheduler (DESIGN.md §7).

A simulated cluster of N nodes — each an unchanged single-box
machine/policy/scenario stack — under a global placer that assigns and
live-migrates workloads across nodes using per-node CBFRP credit
balances and FTHR telemetry.  Nodes advance in lock-step *sync rounds*,
one after another in the fleet's own process; each node-round draws a
seed derived from its canonical cell description, so a same-seed fleet
is bit-identical run to run.
"""

from repro.fleet.events import FLEET_ACTIONS, FleetEvent
from repro.fleet.experiment import FleetExperiment, FleetResult, run_fleet
from repro.fleet.library import FLEET_SCENARIOS, fleet_scenario_names, get_fleet_scenario
from repro.fleet.metrics import oracle_assignment, placement_score
from repro.fleet.placer import PLACER_REGISTRY
from repro.fleet.spec import FleetSpec, FleetSpecError, NodeDef

__all__ = [
    "FLEET_ACTIONS",
    "FLEET_SCENARIOS",
    "FleetEvent",
    "FleetExperiment",
    "FleetResult",
    "FleetSpec",
    "FleetSpecError",
    "NodeDef",
    "PLACER_REGISTRY",
    "fleet_scenario_names",
    "get_fleet_scenario",
    "oracle_assignment",
    "placement_score",
    "run_fleet",
]
