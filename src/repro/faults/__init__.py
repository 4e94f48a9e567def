"""Deterministic fault injection (``repro.faults``).

Declarative, seeded fault schedules (:class:`FaultSpec`,
:class:`FaultPlan`) of two kinds: controller crashes, evaluated
against the simulated clock by a :class:`FaultInjector` that the RPC
bus consults on every call, and link outages, which a
:class:`LinkFaultDriver` applies to a fabric.  See ``DESIGN.md`` §5e
for the fault model.
"""

from repro.faults.injector import CLEAN_FATE, CallFate, FaultInjector
from repro.faults.links import LinkFaultDriver
from repro.faults.spec import (
    FAULT_KINDS,
    KIND_CRASH,
    KIND_LINK_DOWN,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "CLEAN_FATE",
    "CallFate",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "KIND_CRASH",
    "KIND_LINK_DOWN",
    "LinkFaultDriver",
]
