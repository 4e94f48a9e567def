"""Network topologies.

Two builders cover the paper's setups:

* :func:`single_switch` -- the 32-server testbed: every server hangs
  off one switch (Section 8.1, "NICs are interconnected via a Mellanox
  SX6036G").  Also used by the profiler's 8-server pod.
* :func:`spine_leaf` -- the simulated three-tier Clos: 54 spine, 102
  leaf and 108 top-of-rack switches with 18 servers per ToR, 1,944
  servers total (Section 8.1).  The builder is parametric so tests and
  benchmarks can run scaled-down instances with the same shape.

A :class:`Topology` owns nodes (servers and switches), directed links,
and the per-link :class:`~repro.simnet.links.LinkState`; it also knows
which switch drives each link so policies can find the queue table of
any output port.  Server NICs are modelled as single-queue output
ports of the server node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import TopologyError
from repro.simnet.links import Link, LinkState
from repro.simnet.switch import Switch, QueueTable, DEFAULT_NUM_QUEUES
from repro.units import GBPS_56


class Topology:
    """A directed-graph view of the datacenter network."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.servers: List[str] = []
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[str, Link] = {}
        self.link_states: Dict[str, LinkState] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: link_id -> QueueTable of the port driving that link (server
        #: NIC ports included).
        self._port_tables: Dict[str, QueueTable] = {}
        #: Currently-down links (insertion order, for determinism).
        self._down_links: Dict[str, None] = {}
        #: Bumped on every mutation of the routable graph (link added,
        #: link up/down).  Consumers that cache derived routing state
        #: (:class:`repro.simnet.routing.Router`) compare it to detect
        #: unacknowledged staleness.
        self.generation = 0

    # -- construction ---------------------------------------------------

    def add_server(self, name: str) -> None:
        if name in self._adjacency:
            raise TopologyError(f"duplicate node {name!r}")
        self.servers.append(name)
        self._adjacency[name] = []

    def add_switch(self, name: str, num_queues: int = DEFAULT_NUM_QUEUES) -> Switch:
        if name in self._adjacency:
            raise TopologyError(f"duplicate node {name!r}")
        switch = Switch(name, num_queues=num_queues)
        self.switches[name] = switch
        self._adjacency[name] = []
        return switch

    def add_link(self, src: str, dst: str, capacity: float) -> Link:
        """Add a single directed link ``src -> dst``."""
        for node in (src, dst):
            if node not in self._adjacency:
                raise TopologyError(f"unknown node {node!r}")
        link_id = f"{src}->{dst}"
        if link_id in self.links:
            raise TopologyError(f"duplicate link {link_id}")
        link = Link(link_id=link_id, src=src, dst=dst, capacity=capacity)
        self.links[link_id] = link
        self.link_states[link_id] = LinkState(link=link)
        self._adjacency[src].append(dst)
        self.generation += 1
        if src in self.switches:
            port = self.switches[src].add_port(link_id)
            self._port_tables[link_id] = port.table
        else:
            # Server NIC egress: single logical port, full queue table
            # so host-side PL differentiation also works (InfiniBand
            # NICs implement VLs too).
            self._port_tables[link_id] = QueueTable(DEFAULT_NUM_QUEUES)
        return link

    def add_duplex(self, a: str, b: str, capacity: float) -> Tuple[Link, Link]:
        """Add both directions between ``a`` and ``b``."""
        return self.add_link(a, b, capacity), self.add_link(b, a, capacity)

    # -- dynamic link state ------------------------------------------------

    def set_link_up(self, link_id: str, up: bool = True) -> bool:
        """Transition one directed link up or down.

        Returns ``True`` if the state actually changed.  The link stays
        in the topology (its port table, queue programming and
        :class:`~repro.simnet.links.LinkState` survive the outage); it
        merely stops being routable -- :meth:`neighbors` hides the far
        end and :meth:`~repro.simnet.links.LinkState.effective_capacity`
        reports zero -- until it comes back.  Bumps :attr:`generation`
        so routers can detect the mutation.
        """
        state = self.link_states.get(link_id)
        if state is None:
            raise TopologyError(f"unknown link {link_id!r}")
        if state.up == up:
            return False
        state.up = up
        if up:
            self._down_links.pop(link_id, None)
        else:
            self._down_links[link_id] = None
        self.generation += 1
        return True

    def link_is_up(self, link_id: str) -> bool:
        state = self.link_states.get(link_id)
        if state is None:
            raise TopologyError(f"unknown link {link_id!r}")
        return state.up

    def down_links(self) -> List[str]:
        """Currently-down link ids, in the order they went down."""
        return list(self._down_links)

    # -- queries ----------------------------------------------------------

    def neighbors(self, node: str) -> List[str]:
        """Destinations reachable over *up* links out of ``node``.

        With no outages this is the construction-order adjacency list
        itself (zero overhead on the routing hot path); during an
        outage the down destinations are filtered out, preserving
        order, so BFS path enumeration stays deterministic.
        """
        try:
            base = self._adjacency[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None
        if not self._down_links:
            return base
        down = self._down_links
        return [dst for dst in base if f"{node}->{dst}" not in down]

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def link(self, link_id: str) -> Link:
        try:
            return self.links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id!r}") from None

    def port_table(self, link_id: str) -> QueueTable:
        """Queue table of the output port driving ``link_id``."""
        try:
            return self._port_tables[link_id]
        except KeyError:
            raise TopologyError(f"no port drives link {link_id!r}") from None

    def switch_of_link(self, link_id: str) -> Optional[Switch]:
        """Switch owning the port for ``link_id`` (None for server NICs)."""
        link = self.link(link_id)
        return self.switches.get(link.src)

    def nic_link(self, server: str) -> Link:
        """The server's single egress link (server -> first hop)."""
        if server not in self._adjacency:
            raise TopologyError(f"unknown server {server!r}")
        for dst in self._adjacency[server]:
            return self.links[f"{server}->{dst}"]
        raise TopologyError(f"server {server!r} has no egress link")

    def set_uniform_throttle(self, servers: Iterable[str], fraction: float) -> None:
        """Throttle the NIC links (both directions) of ``servers``.

        This is the token-bucket rate-limiting step of the profiler
        (Section 7.1): the profiler "limits the bandwidth of NICs of
        all nodes to a certain percentage of link capacity".
        """
        for server in servers:
            nic = self.nic_link(server)
            self.link_states[nic.link_id].set_throttle(fraction)
            reverse = nic.reverse_id()
            if reverse in self.link_states:
                self.link_states[reverse].set_throttle(fraction)

    def clear_throttles(self) -> None:
        for state in self.link_states.values():
            state.throttle = 1.0


def single_switch(
    n_servers: int,
    capacity: float = GBPS_56,
    num_queues: int = DEFAULT_NUM_QUEUES,
    name: str = "testbed",
) -> Topology:
    """One switch with ``n_servers`` directly attached (the testbed).

    >>> topo = single_switch(4)
    >>> sorted(topo.servers)
    ['server0', 'server1', 'server2', 'server3']
    """
    if n_servers < 2:
        raise TopologyError("need at least two servers")
    topo = Topology(name=name)
    topo.add_switch("switch0", num_queues=num_queues)
    for i in range(n_servers):
        server = f"server{i}"
        topo.add_server(server)
        topo.add_duplex(server, "switch0", capacity)
    return topo


def fat_tree(
    k: int = 4,
    capacity: float = GBPS_56,
    num_queues: int = DEFAULT_NUM_QUEUES,
    name: str = "fat-tree",
) -> Topology:
    """A k-ary fat-tree (Al-Fares et al.): ``k`` pods of ``k/2`` edge
    and ``k/2`` aggregation switches, ``(k/2)^2`` core switches, and
    ``k^3/4`` servers.

    Not used by the paper's evaluation, but a standard datacenter
    fabric for exploring Saba on alternative topologies (it is fully
    rearrangeably non-blocking, unlike an oversubscribed spine-leaf).

    >>> topo = fat_tree(4)
    >>> len(topo.servers)
    16
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity must be even and >= 2: {k}")
    topo = Topology(name=name)
    half = k // 2
    cores = [f"core{i}" for i in range(half * half)]
    for core in cores:
        topo.add_switch(core, num_queues=num_queues)
    server_index = 0
    for pod in range(k):
        edges = [f"pod{pod}-edge{e}" for e in range(half)]
        aggs = [f"pod{pod}-agg{a}" for a in range(half)]
        for sw in edges + aggs:
            topo.add_switch(sw, num_queues=num_queues)
        # Edge <-> aggregation full mesh within the pod.
        for edge in edges:
            for agg in aggs:
                topo.add_duplex(edge, agg, capacity)
        # Aggregation a connects to cores [a*half, (a+1)*half).
        for a, agg in enumerate(aggs):
            for j in range(half):
                topo.add_duplex(agg, cores[a * half + j], capacity)
        # Servers under each edge switch.
        for edge in edges:
            for _ in range(half):
                server = f"server{server_index}"
                server_index += 1
                topo.add_server(server)
                topo.add_duplex(server, edge, capacity)
    return topo


def spine_leaf(
    n_spine: int = 54,
    n_leaf: int = 102,
    n_tor: int = 108,
    servers_per_tor: int = 18,
    capacity: float = GBPS_56,
    num_queues: int = DEFAULT_NUM_QUEUES,
    name: str = "spine-leaf",
) -> Topology:
    """Three-tier spine/leaf/ToR Clos topology (Section 8.1).

    Defaults reproduce the paper's simulated cluster: 54 spine, 102
    leaf, 108 ToR switches and 18 servers per ToR = 1,944 servers.
    ToRs connect to every leaf in their pod and leaves connect to every
    spine; pods are formed by dividing ToRs evenly among leaves in
    round-robin blocks.

    All inter-switch links share the server link ``capacity``, matching
    the simulator configuration ("56Gbps link capacity per port").
    """
    if min(n_spine, n_leaf, n_tor, servers_per_tor) < 1:
        raise TopologyError("all tier sizes must be >= 1")
    topo = Topology(name=name)
    spines = [f"spine{i}" for i in range(n_spine)]
    leaves = [f"leaf{i}" for i in range(n_leaf)]
    tors = [f"tor{i}" for i in range(n_tor)]
    for sw in spines + leaves + tors:
        topo.add_switch(sw, num_queues=num_queues)
    # Leaf <-> spine full mesh.
    for leaf in leaves:
        for spine in spines:
            topo.add_duplex(leaf, spine, capacity)
    # Each ToR connects to a fixed fan-out of leaves, striped so the
    # leaf tier is evenly loaded regardless of the tier-size ratio.
    fanout = max(2, min(4, n_leaf))
    for t, tor in enumerate(tors):
        for j in range(fanout):
            leaf = leaves[(t + j * max(1, n_tor // fanout)) % n_leaf]
            try:
                topo.add_duplex(tor, leaf, capacity)
            except TopologyError:
                # Wrap-around collisions in tiny configurations: pick
                # the next free leaf deterministically.
                for step in range(1, n_leaf):
                    alt = leaves[(t + j + step) % n_leaf]
                    if f"{tor}->{alt}" not in topo.links:
                        topo.add_duplex(tor, alt, capacity)
                        break
    # Servers under each ToR.
    for t, tor in enumerate(tors):
        for s in range(servers_per_tor):
            server = f"server{t * servers_per_tor + s}"
            topo.add_server(server)
            topo.add_duplex(server, tor, capacity)
    return topo
