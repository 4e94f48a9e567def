"""Span tracing around the simulator's layer entry points.

The traced run of a workload installs a :class:`Tracer` over the public
entry points listed in :data:`LAYERS`: each call through one of them
records a span (layer name, start, end, parent span, request id) in
flat in-memory arrays.  Spans opened by an ``AllocationService`` call
start a new request id that every nested span inherits, so one
request's whole path through library, RPC, pipeline and fabric can be
read back.

A layer's *self time* is the duration of its spans minus the time
covered by their child spans (:func:`self_times`).  Each timed region
runs under exactly one root span (the executor or the fabric's event
loop), so the self times of all layers -- the engine's self time being
the residual the loop spends outside every named layer -- add up to the
traced wall time.

Nothing under ``src/`` is modified: the tracer swaps class and module
attributes for the duration of :meth:`Tracer.installed` and restores
them on exit.  Install it *before* building a scenario, because some
objects capture bound methods at construction (the controller's RPC
handlers).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (layer, module, owner attribute or None for a module function,
#: function name, starts a request).  The order is the call hierarchy,
#: top to bottom.
LAYERS: Tuple[Tuple[str, str, Optional[str], str, bool], ...] = (
    ("service", "repro.service.service", "AllocationService", "register_app", True),
    ("service", "repro.service.service", "AllocationService", "deregister", True),
    ("service", "repro.service.service", "AllocationService", "conn_create", True),
    ("service", "repro.service.service", "AllocationService", "conn_destroy", True),
    ("core.library", "repro.core.library", "SabaLibrary", "saba_app_register", False),
    ("core.library", "repro.core.library", "SabaLibrary", "saba_app_deregister", False),
    ("core.library", "repro.core.library", "SabaLibrary", "saba_conn_create", False),
    # The library's flow-teardown hook is a closure; its control
    # messages all leave through this method.
    ("core.library", "repro.core.library", "SabaLibrary", "_call_controller", False),
    ("core.rpc", "repro.core.rpc", "RpcBus", "submit", False),
    ("core.controller", "repro.core.controller", "SabaController", "app_register", False),
    ("core.controller", "repro.core.controller", "SabaController", "app_deregister", False),
    ("core.controller", "repro.core.controller", "SabaController", "conn_create", False),
    ("core.controller", "repro.core.controller", "SabaController", "conn_destroy", False),
    ("core.pipeline", "repro.core.pipeline", "AllocationPipeline", "reallocate", False),
    ("core.pipeline", "repro.core.pipeline", "AllocationPipeline", "flush_pending", False),
    ("core.clustering", "repro.core.clustering", "PLHierarchy", "best_clustering", False),
    ("core.allocation", "repro.core.pipeline", None, "optimize_weights", False),
    ("cluster.runtime", "repro.cluster.runtime", "CoRunExecutor", "run", False),
    # The runtime's per-job work runs as engine callbacks.
    ("cluster.runtime", "repro.cluster.runtime", "_JobExecution", "_launch", False),
    ("cluster.runtime", "repro.cluster.runtime", "_JobExecution", "_compute_done", False),
    ("cluster.runtime", "repro.cluster.runtime", "_JobExecution", "_release_flows", False),
    ("cluster.runtime", "repro.cluster.runtime", "_JobExecution", "_flow_done", False),
    ("cluster.runtime", "repro.cluster.runtime", "_InstanceExecution", "_compute_done", False),
    ("cluster.runtime", "repro.cluster.runtime", "_InstanceExecution", "_release_flows", False),
    ("cluster.runtime", "repro.cluster.runtime", "_InstanceExecution", "_flow_done", False),
    ("simnet.routing", "repro.simnet.routing", "Router", "path_for_flow", False),
    ("simnet.fabric", "repro.simnet.fabric", "FluidFabric", "start_flow", False),
    ("simnet.fabric", "repro.simnet.fabric", "FluidFabric", "cancel_flow", False),
    ("simnet.fabric", "repro.simnet.fabric", "FluidFabric", "recompute_rates", False),
    ("simnet.engine", "repro.simnet.fabric", "FluidFabric", "run", False),
)

#: Every layer name, in :data:`LAYERS` order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYERS))


class Tracer:
    """Records spans into flat arrays; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._requests = 0
        #: Solver kind chosen by each ``optimize_weights`` call.
        self.solver_kinds: Counter = Counter()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, new_request: bool = False) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if new_request:
            self._requests += 1
            request = self._requests
        else:
            request = self.request[parent] if parent >= 0 else 0
        self.name_id.append(nid)
        self.parent.append(parent)
        self.request.append(request)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def traced(self, fn: Callable, name: str, new_request: bool = False) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid, new_request)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _count_solver(self, fn: Callable) -> Callable:
        """``optimize_weights`` that records which solver it used."""
        kinds = self.solver_kinds

        @functools.wraps(fn)
        def optimize_weights(*args, stats=None, **kwargs):
            if stats is None:
                stats = {}
            weights = fn(*args, stats=stats, **kwargs)
            kinds[stats.get("solver", "unknown")] += 1
            return weights

        return optimize_weights

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point in :data:`LAYERS` until the block exits."""
        patches: List[Tuple[object, str, object]] = []
        try:
            for name, module_name, owner_name, attr, new_request in LAYERS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attr]
                fn = original
                if owner_name is None and attr == "optimize_weights":
                    fn = self._count_solver(fn)
                setattr(owner, attr, self.traced(fn, name, new_request))
                patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reading the spans back ------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Wall duration of every span of one layer."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == nid
        ]

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.name_id.count(nid)

    def ledger(self) -> Dict[str, float]:
        """Self seconds per layer name."""
        own = self_times(self.start, self.end, self.parent)
        out: Dict[str, float] = {name: 0.0 for name in self.names}
        for i, secs in enumerate(own):
            out[self.names[self.name_id[i]]] += secs
        return out


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest properly (a child opens and closes inside its parent),
    so the children's durations are exactly the part of the parent's
    interval they cover, and the self times of a tree sum to its root's
    duration.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
