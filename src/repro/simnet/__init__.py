"""Flow-level (fluid) datacenter network simulator.

The simulator models the network as a graph of directed links with
capacities.  Active flows are assigned instantaneous rates by a
*scheduler* installed at every link (fair, weighted-fair, or
strict-priority), combined across the network by progressive
residual filling (:mod:`repro.simnet.fairness`).  A
discrete-event loop (:mod:`repro.simnet.engine`,
:mod:`repro.simnet.fabric`) advances time between flow completions and
user timers, which is exact for fluid flows because rates are piecewise
constant between events.
"""

from repro.simnet.engine import Simulator, Event
from repro.simnet.topology import Topology, fat_tree, single_switch, spine_leaf
from repro.simnet.links import Link
from repro.simnet.switch import Switch, OutputPort, QueueTable
from repro.simnet.flows import Flow
from repro.simnet.fairness import (
    FairScheduler,
    WFQScheduler,
    PriorityScheduler,
    max_min_rates,
    network_rates,
)
from repro.simnet.fabric import FluidFabric
from repro.simnet.telemetry import UtilizationRecorder
from repro.simnet.packetsim import (
    DeficitRoundRobin,
    PortSimulator,
    StrictPriority,
)
from repro.simnet.trace import (
    FctSummary,
    cdf_points,
    flow_records,
    summarize_fct,
    write_csv,
    write_json,
)

__all__ = [
    "Simulator",
    "Event",
    "Topology",
    "single_switch",
    "spine_leaf",
    "fat_tree",
    "Link",
    "Switch",
    "OutputPort",
    "QueueTable",
    "Flow",
    "FairScheduler",
    "WFQScheduler",
    "PriorityScheduler",
    "max_min_rates",
    "network_rates",
    "FluidFabric",
    "UtilizationRecorder",
    "DeficitRoundRobin",
    "PortSimulator",
    "StrictPriority",
    "FctSummary",
    "cdf_points",
    "flow_records",
    "summarize_fct",
    "write_csv",
    "write_json",
]
