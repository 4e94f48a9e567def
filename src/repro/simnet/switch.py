"""Switches, output ports, and the SL/VL-style queue tables.

InfiniBand terminology from the paper maps onto this module as follows:

* *Service Level (SL)* -> a flow's priority level (``Flow.pl``); the
  fabric carries it end to end.
* *Virtual Lane (VL)*  -> a queue at an output port; each port owns a
  :class:`QueueTable` that maps PLs to queue indices and holds a weight
  per queue.
* The *SL-to-VL table with weights* that operators program on real
  switches is exactly what :meth:`QueueTable.program` installs; Saba's
  controller rewrites it on every (de)registration and connection
  create/destroy event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import TopologyError

#: Default number of per-port queues in a datacenter-grade switch
#: (Section 5.3: "a typical datacenter-grade switch supports 4-8
#: queues"; the testbed's SX6036G offers 9 VLs of which Saba uses 8).
DEFAULT_NUM_QUEUES = 8

#: Number of priority levels exposed by InfiniBand (Section 5.3).
NUM_PRIORITY_LEVELS = 16


class QueueTable:
    """Per-output-port mapping of priority levels to weighted queues.

    The table starts out with every PL mapped to queue 0 and uniform
    weights, which makes an unprogrammed port behave like a single
    FIFO -- matching a switch before any Saba configuration.
    """

    def __init__(self, num_queues: int = DEFAULT_NUM_QUEUES) -> None:
        if num_queues < 1:
            raise TopologyError(f"num_queues must be >= 1, got {num_queues}")
        self.num_queues = num_queues
        self._pl_to_queue: Dict[int, int] = {}
        self._weights: List[float] = [1.0] * num_queues
        #: Queue for untagged traffic (PL None / unmapped PLs).  The
        #: operator can point this at a statically reserved queue to
        #: isolate non-Saba-compliant applications (Section 3).
        self.default_queue = 0
        self.generation = 0

    def queue_of(self, pl: Optional[int]) -> int:
        """Queue index serving priority level ``pl``."""
        if pl is None:
            return self.default_queue
        return self._pl_to_queue.get(pl, self.default_queue)

    def weight_of(self, queue: int) -> float:
        """Configured weight of ``queue``."""
        return self._weights[queue]

    @property
    def weights(self) -> List[float]:
        return list(self._weights)

    def program(
        self,
        pl_to_queue: Mapping[int, int],
        weights: Mapping[int, float],
    ) -> None:
        """Install a new PL->queue mapping and queue weights atomically.

        ``weights`` maps queue index -> weight; unmentioned queues keep
        weight 0 so they cannot silently absorb bandwidth.  Raises
        :class:`TopologyError` on out-of-range queues or negative
        weights.
        """
        for pl, q in pl_to_queue.items():
            if not 0 <= q < self.num_queues:
                raise TopologyError(
                    f"PL {pl} mapped to queue {q}, but port has "
                    f"{self.num_queues} queues"
                )
        new_weights = [0.0] * self.num_queues
        for q, w in weights.items():
            if not 0 <= q < self.num_queues:
                raise TopologyError(f"weight for unknown queue {q}")
            if w < 0:
                raise TopologyError(f"negative weight {w} for queue {q}")
            new_weights[q] = float(w)
        self._pl_to_queue = dict(pl_to_queue)
        self._weights = new_weights
        self.generation += 1

    def reset(self) -> None:
        """Return to the unprogrammed state (single effective queue)."""
        self._pl_to_queue = {}
        self._weights = [1.0] * self.num_queues
        self.default_queue = 0
        self.generation += 1

    def snapshot(self) -> Dict[str, object]:
        """The programmed state as plain data (for event records)."""
        return {
            "mapping": dict(self._pl_to_queue),
            "weights": list(self._weights),
            "default_queue": self.default_queue,
            "generation": self.generation,
        }


@dataclass
class OutputPort:
    """An output port: the egress side of one directed link."""

    link_id: str
    switch_id: str
    table: QueueTable = field(default_factory=QueueTable)


class Switch:
    """A switch with one weighted-queue table per output port.

    ``num_queues`` may differ between switches (Section 5.3.2 notes
    that "the number of queues in different switches varies"), which is
    why the PL-to-queue clustering must pick a hierarchy level per
    port.
    """

    def __init__(self, switch_id: str, num_queues: int = DEFAULT_NUM_QUEUES) -> None:
        self.switch_id = switch_id
        self.num_queues = num_queues
        self._ports: Dict[str, OutputPort] = {}

    def add_port(self, link_id: str) -> OutputPort:
        """Create the output port driving ``link_id``."""
        if link_id in self._ports:
            raise TopologyError(
                f"switch {self.switch_id}: duplicate port for {link_id}"
            )
        port = OutputPort(
            link_id=link_id,
            switch_id=self.switch_id,
            table=QueueTable(self.num_queues),
        )
        self._ports[link_id] = port
        return port

    def port(self, link_id: str) -> OutputPort:
        try:
            return self._ports[link_id]
        except KeyError:
            raise TopologyError(
                f"switch {self.switch_id} has no port for link {link_id}"
            ) from None

    @property
    def ports(self) -> Iterable[OutputPort]:
        return self._ports.values()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Switch({self.switch_id!r}, ports={len(self._ports)})"
