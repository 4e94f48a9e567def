"""Typed, timestamped event records and a lightweight pub/sub bus.

Every decision the reproduction takes -- a connection registering, the
controller re-solving Eq. 2, a port's WFQ weights being reprogrammed --
is announced as an :class:`EventRecord` on an :class:`EventBus`.
Subscribers (the JSONL trace writer, tests, ad-hoc probes) see records
in publication order; ``seq`` is a per-bus monotonic tiebreaker for
events sharing a simulated timestamp, mirroring the engine's FIFO rule.

Instrumented call sites hold an :class:`Observer` (bus + metrics
registry).  The default is :data:`NULL_OBSERVER`, whose ``enabled``
flag is ``False`` and whose ``emit`` is a no-op, so observability
disabled costs one attribute check per site.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

# -- event taxonomy --------------------------------------------------------
#
# Fabric / engine
FLOW_STARTED = "flow.started"          # flow entered the network
FLOW_FINISHED = "flow.finished"        # flow delivered its last byte
PORT_UTILIZATION = "port.utilization"  # a link's utilization changed
SIM_RUN = "sim.run"                    # an event-loop run completed
RATE_SOLVE = "fabric.rate_solve"       # dirty congestion components re-solved
# Controller lifecycle (centralized and distributed)
APP_REGISTERED = "app.registered"
APP_DEREGISTERED = "app.deregistered"
CONN_CREATED = "conn.created"
CONN_DESTROYED = "conn.destroyed"
REALLOCATION = "realloc.triggered"     # ports re-enforced after a change
SOLVE_BEGIN = "solve.begin"            # Eq. 2 optimiser invoked
SOLVE_END = "solve.end"                # ... returned (iterations, objective)
PORT_PROGRAMMED = "port.programmed"    # PL->queue map + WFQ weights installed
PORT_RESET = "port.reset"              # port returned to unprogrammed state
# Saba library (application-side view)
LIB_REGISTERED = "lib.registered"
LIB_DEREGISTERED = "lib.deregistered"
LIB_CONN_OPENED = "lib.conn_opened"
LIB_REREGISTERED = "lib.reregistered"  # queued registration drained
LIB_FAILOVER = "lib.failover"          # promoted the standby controller
# Fault injection (repro.faults)
FAULT_CRASH = "faults.crash"           # endpoint entered a down window
FAULT_RECOVER = "faults.recover"       # ... and came back
# Dynamic topology (repro.simnet under link faults)
LINK_DOWN = "link.down"                # a link transitioned down
LINK_UP = "link.up"                    # ... and came back up
FLOW_REROUTED = "flow.rerouted"        # an active flow changed path
# Allocation service (repro.service)
SERVICE_REQUEST = "service.request"    # an admitted API request
SERVICE_REJECTED = "service.rejected"  # a request rejected (quota/queue/drain)
SERVICE_DRAIN = "service.drain"        # graceful shutdown drained
# Online sensitivity estimation (repro.online)
ONLINE_SAMPLE = "online.sample"        # one (fraction, slowdown) observation
ONLINE_REFIT = "online.refit"          # window re-fitted (accepted or not)
ONLINE_DRIFT = "online.drift"          # Page-Hinkley tripped; window shrunk
ONLINE_FALLBACK = "online.fallback"    # provider served offline/prior model
MODEL_LOW_FIT = "model.low_fit"        # a consumed fit's R^2 is below gate
# Storm traffic generator + scenario fuzzer (repro.storm)
STORM_STARTED = "storm.started"        # an open-loop run began
STORM_FINISHED = "storm.finished"      # ... and completed (offered/admitted)
STORM_FLASH_CROWD = "storm.flash_crowd"  # a scripted arrival surge began
STORM_VIOLATION = "storm.violation"    # an invariant probe failed
# Cluster runtime
JOB_STARTED = "job.started"
JOB_FINISHED = "job.finished"
STAGE_STARTED = "stage.started"
STAGE_FINISHED = "stage.finished"
# Sweep orchestration (repro.sweep).  Sweeps happen in wall-clock, not
# simulated, time: their ``time`` field is seconds since sweep start.
SWEEP_STARTED = "sweep.started"
SWEEP_FINISHED = "sweep.finished"
SWEEP_TASK_STARTED = "sweep.task_started"
SWEEP_TASK_FINISHED = "sweep.task_finished"
SWEEP_TASK_FAILED = "sweep.task_failed"
SWEEP_CACHE_HIT = "sweep.cache_hit"

#: Every event type the instrumentation emits.  Buses are strict by
#: default: publishing an unknown type raises, catching taxonomy typos
#: at the call site instead of in post-hoc analysis.
EVENT_TYPES = frozenset({
    FLOW_STARTED, FLOW_FINISHED, PORT_UTILIZATION, SIM_RUN, RATE_SOLVE,
    APP_REGISTERED, APP_DEREGISTERED, CONN_CREATED, CONN_DESTROYED,
    REALLOCATION, SOLVE_BEGIN, SOLVE_END, PORT_PROGRAMMED, PORT_RESET,
    LIB_REGISTERED, LIB_DEREGISTERED, LIB_CONN_OPENED,
    LIB_REREGISTERED, LIB_FAILOVER,
    FAULT_CRASH, FAULT_RECOVER,
    LINK_DOWN, LINK_UP, FLOW_REROUTED,
    SERVICE_REQUEST, SERVICE_REJECTED, SERVICE_DRAIN,
    ONLINE_SAMPLE, ONLINE_REFIT, ONLINE_DRIFT, ONLINE_FALLBACK,
    MODEL_LOW_FIT,
    STORM_STARTED, STORM_FINISHED, STORM_FLASH_CROWD, STORM_VIOLATION,
    JOB_STARTED, JOB_FINISHED, STAGE_STARTED, STAGE_FINISHED,
    SWEEP_STARTED, SWEEP_FINISHED, SWEEP_TASK_STARTED,
    SWEEP_TASK_FINISHED, SWEEP_TASK_FAILED,
    SWEEP_CACHE_HIT,
})


@dataclass(frozen=True)
class EventRecord:
    """One observed decision or state change.

    ``time`` is the *simulated* clock; wall-clock durations (solver
    latency) travel inside ``fields``.
    """

    type: str
    time: float
    seq: int
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-ready form; field keys must not collide with the
        envelope keys (enforced at publish time)."""
        out: Dict[str, object] = {
            "type": self.type, "time": self.time, "seq": self.seq,
        }
        out.update(self.fields)
        return out


_ENVELOPE_KEYS = frozenset({"type", "time", "seq"})


class EventBus:
    """Synchronous pub/sub with optional per-subscriber type filters.

    >>> bus = EventBus()
    >>> seen = []
    >>> unsubscribe = bus.subscribe(seen.append, types=[FLOW_STARTED])
    >>> _ = bus.publish(FLOW_STARTED, time=1.0, flow_id=7)
    >>> _ = bus.publish(FLOW_FINISHED, time=2.0, flow_id=7)
    >>> [r.type for r in seen]
    ['flow.started']
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._seq = itertools.count()
        self._subscribers: List[tuple] = []  # (callback, frozenset | None)
        self.counts: Dict[str, int] = {}

    def subscribe(
        self,
        callback: Callable[[EventRecord], None],
        types: Optional[Iterable[str]] = None,
    ) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe function."""
        type_filter = None if types is None else frozenset(types)
        if self.strict and type_filter is not None:
            unknown = type_filter - EVENT_TYPES
            if unknown:
                raise ValueError(f"unknown event types: {sorted(unknown)}")
        entry = (callback, type_filter)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, type: str, time: float, **fields) -> EventRecord:
        """Create a record and deliver it to matching subscribers."""
        if self.strict and type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}")
        collision = _ENVELOPE_KEYS.intersection(fields)
        if collision:
            raise ValueError(
                f"event fields shadow envelope keys: {sorted(collision)}"
            )
        record = EventRecord(
            type=type, time=float(time), seq=next(self._seq), fields=fields,
        )
        self.counts[type] = self.counts.get(type, 0) + 1
        for callback, type_filter in list(self._subscribers):
            if type_filter is None or type in type_filter:
                callback(record)
        return record

    @property
    def total_published(self) -> int:
        return sum(self.counts.values())


class Observer:
    """Bus + metrics registry, handed to every instrumented component.

    One observer is shared across the engine, fabric, controller,
    library, and cluster runtime of a run, so their events interleave
    on a single sequence and their metrics land in one registry.
    """

    enabled = True

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def emit(self, type: str, time: float, **fields) -> Optional[EventRecord]:
        """Publish one event (sugar for ``observer.bus.publish``)."""
        return self.bus.publish(type, time, **fields)


class NullObserver(Observer):
    """Disabled observability: ``emit`` does nothing.

    Instrumented hot paths guard non-trivial work (building event
    fields, touching metrics) behind ``observer.enabled``; bare
    ``emit`` calls on this class are single no-op method calls.
    """

    enabled = False

    def emit(self, type: str, time: float, **fields) -> None:  # noqa: D102
        return None


#: Shared default for every instrumented component.
NULL_OBSERVER = NullObserver()
