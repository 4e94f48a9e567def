"""Application workload models.

The paper's workloads are Spark/Flink jobs from Intel HiBench
(Table 1).  Saba never looks inside an application -- it only observes
completion time as a function of available bandwidth -- so any workload
with the same bandwidth-sensitivity curve exercises Saba identically.
We therefore model each workload as a bulk-synchronous sequence of
stages, each combining a compute phase, a shuffle of known volume, and
an optional compute/communication overlap window (the mechanism the
paper identifies in Section 2.3 as the source of PR's insensitivity).

``catalog`` provides the ten named workloads with stage mixes tuned so
their standalone slowdown curves match Figure 1a/Figure 5;
``synthetic`` provides the twenty synthetic simulator workloads of
Section 8.1.
"""

from repro.workloads.model import Stage, ApplicationSpec
from repro.workloads.catalog import (
    WorkloadTemplate,
    CATALOG,
    workload_names,
    get_template,
)
from repro.workloads.synthetic import synthetic_workloads

__all__ = [
    "Stage",
    "ApplicationSpec",
    "WorkloadTemplate",
    "CATALOG",
    "workload_names",
    "get_template",
    "synthetic_workloads",
]
