"""In-process RPC bus for control-plane traffic.

The paper's connection manager "uses RPC operations for all
control-plane activities" (Section 7.3).  Within the simulator the
same structure is kept -- the Saba library never touches controller
state directly; every interaction is a named call through this bus --
so the message flow of Figure 7 is observable: tests assert on call
counts, and the distributed-controller experiment counts forwarding
hops.

Each call is one attempt: it reaches its handler, or it raises
:class:`RpcUnavailable` because the endpoint is missing or, with a
:class:`~repro.faults.injector.FaultInjector` plugged in, inside a
crash window (``recover_at`` then carries the window's end).  Nothing
is retried: the simulated clock does not move during a call, so a
retry would meet the same crash window, and a missing endpoint stays
missing.  A refused call never reached its handler, so the Saba
library's fail-open replay of it is always a first delivery.  Without
an injector the bus is plain synchronous dispatch.  See DESIGN.md §5e.

Registration contract: :meth:`RpcBus.register` raises on a duplicate
endpoint (two owners for one name is a programming error) unless
``replace=True``; :meth:`RpcBus.unregister` returns whether an
endpoint was actually removed (a missing endpoint is an expected
race while the library tears down a crashed controller, not an
error).  The Saba library drives crash/recovery and failover
promotion through exactly this pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class RpcError(ReproError):
    """Unknown method, or a handler raised; base of transport errors."""


class RpcUnavailable(RpcError):
    """No such endpoint: never registered, unregistered, or crashed.

    ``recover_at`` is the simulated time the fault model expects the
    endpoint back (``None`` when unknown) -- callers use it to
    schedule recovery work instead of polling.
    """

    def __init__(self, message: str, target: str = "",
                 recover_at: Optional[float] = None) -> None:
        super().__init__(message)
        self.target = target
        self.recover_at = recover_at


@dataclass
class RpcStats:
    """Bus-wide transport accounting (tests, the faults experiment)."""

    submitted: int = 0
    delivered: int = 0
    unavailable: int = 0
    #: Always 0, since each call is one attempt; perfbench's
    #: ``core.rpc.retries`` metric reads it.
    retries: int = 0


class RpcBus:
    """A synchronous, named-endpoint message bus.

    ``faults`` plugs in a :class:`~repro.faults.injector.FaultInjector`
    whose crash windows refuse calls to their endpoint.
    """

    def __init__(self, faults: Optional[FaultInjector] = None) -> None:
        self._endpoints: Dict[str, Dict[str, Callable[..., Any]]] = {}
        #: Delivered handler invocations per (target, method) -- a
        #: refused call is *not* counted, which is what lets tests
        #: assert the controller never saw it.
        self.call_counts: Counter = Counter()
        self.faults = faults
        self.stats = RpcStats()

    # -- endpoint registry -------------------------------------------------

    def register(self, target: str, methods: Dict[str, Callable[..., Any]],
                 replace: bool = False) -> None:
        """Expose ``methods`` under endpoint name ``target``.

        A duplicate name raises :class:`RpcError` -- two owners for
        one endpoint is a programming error -- unless ``replace=True``
        (failover promotion installing a standby).
        """
        if target in self._endpoints and not replace:
            raise RpcError(f"endpoint {target!r} already registered")
        self._endpoints[target] = dict(methods)

    def unregister(self, target: str) -> bool:
        """Remove ``target``; returns whether it was registered.

        Deliberately not an error when absent: tearing down an
        endpoint that already crashed away is an expected race, and
        the boolean lets the caller distinguish the two cases.
        """
        return self._endpoints.pop(target, None) is not None

    def has_endpoint(self, target: str) -> bool:
        return target in self._endpoints

    def endpoints(self) -> Dict[str, int]:
        """Live endpoints and their method counts, in registration
        order (the allocation service reports this from ``health``)."""
        return {
            target: len(methods)
            for target, methods in self._endpoints.items()
        }

    # -- calls -------------------------------------------------------------

    def call(self, target: str, method: str, **kwargs: Any) -> Any:
        """Invoke ``method`` on ``target``; sugar for :meth:`submit`."""
        return self.submit(target, method, kwargs)

    def submit(self, target: str, method: str,
               kwargs: Mapping[str, Any]) -> Any:
        """Deliver one call and return the handler's result.

        Raises :class:`RpcUnavailable` when ``target`` is inside a
        crash window or not registered, and a plain :class:`RpcError`
        when it has no such method; the handler then never runs.
        """
        self.stats.submitted += 1
        if self.faults is not None:
            down_until = self.faults.fate_of(target).down_until
            if down_until is not None:
                self.stats.unavailable += 1
                raise RpcUnavailable(f"endpoint {target!r} is down",
                                     target=target, recover_at=down_until)
        endpoint = self._endpoints.get(target)
        if endpoint is None:
            self.stats.unavailable += 1
            raise RpcUnavailable(f"no endpoint {target!r}", target=target)
        handler = endpoint.get(method)
        if handler is None:
            raise RpcError(f"endpoint {target!r} has no method {method!r}")
        self.call_counts[(target, method)] += 1
        value = handler(**kwargs)
        self.stats.delivered += 1
        return value

    # -- accounting --------------------------------------------------------

    def calls_to(self, target: str) -> int:
        """Total calls delivered to ``target`` (all methods)."""
        return sum(
            count for (t, _m), count in self.call_counts.items() if t == target
        )
