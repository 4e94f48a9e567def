"""Rate allocation: per-link schedulers and the network-wide solver.

Three per-link disciplines cover every policy in the paper:

* :class:`FairScheduler` -- per-flow max-min within a link (InfiniBand
  FECN baseline and the *ideal max-min* baseline).
* :class:`WFQScheduler` -- two-level weighted fair queueing: link
  capacity is divided among the port's queues in proportion to their
  weights (work-conserving), then max-min within each queue.  This is
  the discipline Saba programs (Section 5.2).
* :class:`PriorityScheduler` -- strict priority across queues, max-min
  within a queue (fluid approximations of Homa and Sincronia).

Network-wide rates come from progressive residual filling
(:func:`network_rates`): starting from zero, each round offers every
link's unclaimed capacity to the flows that can still grow, divided by
the link's discipline, and each flow claims the minimum offer along
its path.  For unweighted fair queueing the result equals classic
max-min fairness -- :func:`max_min_rates` implements exact progressive
filling independently, the test suite pins the two against each other
on random networks, and an all-:class:`FairScheduler` network
short-circuits to it directly.

The per-component solver (:func:`solve_component`, which the fabric
calls on every flow start, finish and port reprogram) binds each
link's discipline once per solve through ``kernel_spec``: member
queues and weights are read once, and targets come from the same fill
functions (:func:`_wfq_fill`, :func:`_priority_fill`) as the
schedulers' ``allocate``, so each discipline's arithmetic exists once.
It reuses a link's targets while its candidate count is unchanged and,
when no member has a finite demand limit, replays the water-filling
operations without sorts.  Neither shortcut changes a bit: the rules
that make that true are in :func:`solve_component`, and
``tests/simnet/test_solver_oracle.py`` holds the solver as it was
before them and requires equal rates on random components.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.errors import SimulationError
from repro.simnet.flows import Flow

#: Maps a flow to the queue index it occupies at a given link, or to a
#: priority for strict-priority disciplines.
QueueOfFlow = Callable[[str, Flow], int]

#: How a scheduler exposes its discipline to :func:`solve_component`:
#: a ``(kind, per-member group ids, group weights)`` triple.  ``kind``
#: is ``"fair"`` (one shared queue, per-flow max-min), ``"wfq"``
#: (weighted fair queueing: group ids are queue indices, weights map
#: queue -> WFQ weight) or ``"prio"`` (strict priority: group ids are
#: priority classes, lower served first).  ``None`` means the
#: discipline has no such form, and the solver calls the scheduler's
#: ``allocate`` instead.
KernelSpec = Tuple[str, Optional[List[int]], Optional[Dict[int, float]]]

_EPS = 1e-9
_INF = float("inf")


def water_fill(capacity: float, demands: Sequence[float]) -> List[float]:
    """Max-min allocation of ``capacity`` among flows capped at ``demands``.

    Classic bounded water-filling: repeatedly grant the smallest
    unsatisfied demand its cap if the equal share exceeds it, otherwise
    split the remaining capacity equally.  Runs in O(n log n).

    >>> water_fill(10.0, [2.0, 100.0, 100.0])
    [2.0, 4.0, 4.0]
    """
    n = len(demands)
    if n == 0:
        return []
    if capacity <= 0:
        return [0.0] * n
    if n == 1:
        return [min(demands[0], capacity)]  # capacity / 1 is capacity
    order = sorted(range(n), key=lambda i: demands[i])
    alloc = [0.0] * n
    remaining = capacity
    left = n
    for i in order:
        share = remaining / left
        grant = min(demands[i], share)
        alloc[i] = grant
        remaining -= grant
        left -= 1
    return alloc


def weighted_water_fill(
    capacity: float, demands: Sequence[float], weights: Sequence[float]
) -> List[float]:
    """Weighted max-min allocation of ``capacity``.

    Each entry receives capacity in proportion to its weight, capped at
    its demand, with unused share redistributed (work conservation).

    >>> weighted_water_fill(13.0, [100.0, 100.0, 1.0], [1.0, 2.0, 1.0])
    [4.0, 8.0, 1.0]
    """
    n = len(demands)
    if n != len(weights):
        raise ValueError("demands and weights must have equal length")
    if n == 0:
        return []
    if capacity <= 0:
        return [0.0] * n
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    alloc = [0.0] * n
    active = [i for i in range(n) if weights[i] > 0]
    # Zero-weight entries get capacity only if everyone else is satisfied;
    # handle them by a final unweighted fill over the leftovers.
    remaining = capacity
    while active:
        total_w = sum([weights[i] for i in active])
        # Find the smallest normalised demand; grant every entry whose
        # demand is below its proportional share, then recurse.
        fill_level = remaining / total_w
        satisfied = [i for i in active if demands[i] - alloc[i] <= fill_level * weights[i] + _EPS]
        if not satisfied:
            for i in active:
                alloc[i] += fill_level * weights[i]
            remaining = 0.0
            break
        for i in satisfied:
            grant = min(demands[i] - alloc[i], remaining)
            alloc[i] += grant
            remaining -= grant
        satisfied_set = set(satisfied)
        active = [i for i in active if i not in satisfied_set]
        if remaining <= _EPS:
            break
    if remaining > _EPS:
        zero_w = [i for i in range(n) if weights[i] == 0]
        if zero_w:
            extra = water_fill(remaining, [demands[i] - alloc[i] for i in zero_w])
            for j, i in enumerate(zero_w):
                alloc[i] += extra[j]
    return alloc


#: A link's entries grouped by queue (WFQ) or class (priority) in
#: service order: ``(weight, entries)`` pairs, ascending group id,
#: entries in input order (the weight is 0.0 for priority classes).
#: An entry is a position in ``allocate``'s flow list, or a flow id in
#: the solver; demands and shares are indexed by entry.
Groups = List[Tuple[float, List]]
Demands = Union[Sequence[float], Mapping[int, float]]
Shares = Union[List[float], Dict[int, float]]


def _grouped(
    ids: Sequence[int],
    entries: Sequence,
    weights: Optional[Mapping[int, float]] = None,
) -> Groups:
    """``entries`` grouped by their parallel group ``ids``; ``weights``
    (WFQ) must cover every id."""
    if ids and ids.count(ids[0]) == len(ids):  # one group
        g = ids[0]
        return [(weights[g] if weights is not None else 0.0, list(entries))]
    by_group: Dict[int, List] = {}
    for entry, g in zip(entries, ids):
        by_group.setdefault(g, []).append(entry)
    return [
        (weights[g] if weights is not None else 0.0, by_group[g])
        for g in sorted(by_group)
    ]


def _equal_shares(capacity: float, n: int) -> List[float]:
    """``water_fill(capacity, [inf] * n)``, operation for operation:
    with equal demands its sort is the identity and, for a finite
    positive ``capacity``, every grant is the running
    ``remaining / left``."""
    if not 0.0 < capacity < _INF:
        return water_fill(capacity, [_INF] * n)
    shares: List[float] = []
    for left in range(n, 0, -1):
        share = capacity / left
        shares.append(share)
        capacity -= share
    return shares


def _wfq_fill(
    capacity: float,
    groups: Groups,
    demand: Demands,
    out: Shares,
    unbounded: bool = False,
) -> None:
    """Two-level WFQ: weighted max-min of ``capacity`` across the
    queues (a queue demands the sum of its entries' ``demand``), then
    max-min within each queue; writes ``out[entry]``.

    ``unbounded`` (every demand is ``inf``) replays the same
    operations without sorts: no queue is ever satisfied, so each
    weighted queue gets ``fill * weight`` in one round, and the
    zero-weight queues split ``capacity`` only when no weighted queue
    is present.  That needs every ``fill * weight`` finite; otherwise
    the queue level runs ``weighted_water_fill`` itself.

    >>> out = [0.0] * 3
    >>> _wfq_fill(12.0, [(1.0, [0]), (2.0, [1, 2])], [100.0, 100.0, 1.0], out)
    >>> out
    [4.0, 7.0, 1.0]
    """
    q_alloc: Optional[List[float]] = None
    if unbounded:
        weighted = [w for w, _ in groups if w > 0]
        if capacity > 0 and weighted:
            fill = capacity / sum(weighted)
            q_alloc = [fill * w if w > 0 else 0.0 for w, _ in groups]
            if not sum(q_alloc) < _INF:  # an inf or nan share
                q_alloc = None
        elif capacity > _EPS:
            q_alloc = _equal_shares(capacity, len(groups))
        else:
            q_alloc = [0.0] * len(groups)
    if q_alloc is None:
        q_alloc = weighted_water_fill(
            capacity,
            [sum([demand[e] for e in entries]) for _, entries in groups],
            [w for w, _ in groups],
        )
    for (_, entries), q_capacity in zip(groups, q_alloc):
        if unbounded:
            inner = _equal_shares(q_capacity, len(entries))
        else:
            inner = water_fill(q_capacity, [demand[e] for e in entries])
        for e, share in zip(entries, inner):
            out[e] = share


def _priority_fill(
    capacity: float,
    groups: Groups,
    demand: Demands,
    out: Shares,
    unbounded: bool = False,
) -> None:
    """Strict priority: each class in turn is max-min filled from what
    the classes before it left; writes ``out[entry]``.  ``unbounded``
    as in :func:`_wfq_fill`.

    >>> out = [0.0] * 3
    >>> _priority_fill(10.0, [(0.0, [1]), (0.0, [0, 2])], [100.0, 4.0, 100.0], out)
    >>> out
    [3.0, 4.0, 3.0]
    """
    remaining = capacity
    for _, entries in groups:
        if unbounded:
            inner = _equal_shares(remaining, len(entries))
        else:
            inner = water_fill(remaining, [demand[e] for e in entries])
        for e, share in zip(entries, inner):
            out[e] = share
        remaining -= sum(inner)
        if remaining <= _EPS:
            remaining = 0.0  # lower priorities receive zero


#: Maps the number of flows sharing one congestion-control domain (a
#: queue) to the fraction of its bandwidth the transport actually
#: delivers.  ``None`` models an ideal transport.
EfficiencyFn = Optional[Callable[[int], float]]


def fecn_collapse(alpha: float) -> Callable[[int], float]:
    """FECN-style congestion-control throughput collapse.

    ``efficiency(n) = 1 / (1 + alpha * (n - 1))``: a single flow uses
    the full queue bandwidth; every additional flow sharing the
    control loop adds rate-hunting losses.  The shape follows the
    authors' own switch measurement study (Katebzadeh et al.,
    ISPASS'20), which found InfiniBand throughput degrading steadily
    with the number of competing flows per queue.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0: {alpha}")

    def efficiency(n_flows: int) -> float:
        if n_flows <= 1:
            return 1.0
        return 1.0 / (1.0 + alpha * (n_flows - 1))

    return efficiency


def _efficient(capacity: float, n_flows: int, efficiency_fn: EfficiencyFn) -> float:
    if efficiency_fn is None or n_flows <= 0:
        return capacity
    return capacity * min(1.0, max(0.0, efficiency_fn(n_flows)))


class LinkScheduler:
    """Interface: divide one link's capacity among traversing flows.

    Schedulers own the congestion-control efficiency model: real
    transports lose throughput as more flows share one queue (sources
    hunting for the fair rate under FECN marking; see the InfiniBand
    baseline), and the loss applies *per queue* because each VL is an
    independent congestion-control domain.  Splitting flows across
    queues therefore mitigates the collapse -- one of the effects that
    separates the baseline from every queue-using policy in Figure 10.

    The loss derates the link's *usable capacity*, evaluated once per
    rate recomputation over the link's full flow population
    (:meth:`usable_capacity`); :meth:`allocate` itself is loss-free.
    Applying the loss inside the allocation rounds instead would
    compound it across progressive-filling iterations.
    """

    #: True when :meth:`allocate` is exactly unweighted per-flow
    #: max-min (``water_fill`` over all traversing flows).  Components
    #: whose links all claim this short-circuit to the exact
    #: progressive-filling solver (:func:`max_min_rates`).  Subclasses
    #: that override :meth:`allocate` with anything else must leave
    #: this False.
    uniform_fair: bool = False

    def usable_capacity(self, capacity: float, flows: Sequence[Flow]) -> float:
        """Line rate minus congestion-control losses for ``flows``."""
        return capacity

    def kernel_spec(self, flows: Sequence[Flow]) -> Optional[KernelSpec]:
        """Describe this link's discipline as a :data:`KernelSpec`,
        which :func:`solve_component` binds once per solve and computes
        from instead of calling :meth:`allocate`.

        Returns ``None`` when the discipline is not one of the three
        spec kinds; the solver then calls :meth:`allocate` each round.
        Called once per solve; the returned group ids must stay valid
        for the solve's duration (flow state is frozen between events,
        so disciplines keyed on e.g. ``flow.remaining`` are safe).
        """
        if self.uniform_fair:
            return ("fair", None, None)
        return None

    def allocate(
        self, capacity: float, flows: Sequence[Flow], demands: Sequence[float]
    ) -> List[float]:
        """Return a per-flow share of ``capacity``.

        ``demands[i]`` is an upper bound on what flow ``i`` can use
        (its bottleneck elsewhere); shares must not exceed demands and
        must sum to at most ``capacity``.
        """
        raise NotImplementedError


class FairScheduler(LinkScheduler):
    """Per-flow max-min within the link (one shared queue)."""

    uniform_fair = True

    def __init__(self, efficiency_fn: EfficiencyFn = None) -> None:
        self._efficiency_fn = efficiency_fn

    def usable_capacity(self, capacity: float, flows: Sequence[Flow]) -> float:
        return _efficient(capacity, len(flows), self._efficiency_fn)

    def allocate(
        self, capacity: float, flows: Sequence[Flow], demands: Sequence[float]
    ) -> List[float]:
        return water_fill(capacity, demands)


class WFQScheduler(LinkScheduler):
    """Weighted fair queueing across queues, max-min within a queue.

    ``queue_of`` maps a flow to its queue index at this link;
    ``weight_of`` maps a queue index to its configured weight.  Both are
    late-bound callables so the controller can reprogram ports without
    rebuilding schedulers.  Congestion-control losses apply per queue
    (each VL runs its own control loop): the link's usable capacity is
    the weight-proportional mix of its populated queues' efficiencies.
    """

    def __init__(
        self,
        queue_of: Callable[[Flow], int],
        weight_of: Callable[[int], float],
        efficiency_fn: EfficiencyFn = None,
    ) -> None:
        self._queue_of = queue_of
        self._weight_of = weight_of
        self._efficiency_fn = efficiency_fn

    def usable_capacity(self, capacity: float, flows: Sequence[Flow]) -> float:
        if self._efficiency_fn is None or not flows:
            return capacity
        counts: Dict[int, int] = {}
        for flow in flows:
            q = self._queue_of(flow)
            counts[q] = counts.get(q, 0) + 1
        weights = {
            q: max(0.0, float(self._weight_of(q))) for q in counts
        }
        total_w = sum(weights.values())
        if total_w <= 0:
            # Unweighted port: flows share one effective control loop
            # per queue; use the population-weighted mix.
            total_n = sum(counts.values())
            mix = sum(
                n * self._efficiency_fn(n) for n in counts.values()
            ) / total_n
            return capacity * mix
        mix = sum(
            weights[q] * self._efficiency_fn(n) for q, n in counts.items()
        ) / total_w
        return capacity * mix

    def kernel_spec(self, flows: Sequence[Flow]) -> Optional[KernelSpec]:
        queues, weights = self._queues(flows)
        return ("wfq", queues, weights)

    def _queues(
        self, flows: Sequence[Flow]
    ) -> Tuple[List[int], Dict[int, float]]:
        """Each flow's queue, and each of those queues' weight."""
        queues = [self._queue_of(f) for f in flows]
        weights = {
            q: max(0.0, float(self._weight_of(q))) for q in set(queues)
        }
        return queues, weights

    def allocate(
        self, capacity: float, flows: Sequence[Flow], demands: Sequence[float]
    ) -> List[float]:
        queues, weights = self._queues(flows)
        shares = [0.0] * len(flows)
        groups = _grouped(queues, range(len(flows)), weights)
        _wfq_fill(capacity, groups, demands, shares)
        return shares


class PriorityScheduler(LinkScheduler):
    """Strict priority across classes, max-min within a class.

    ``priority_of`` maps a flow to an integer class; *lower* values are
    served first (priority 0 preempts priority 1).  This is the fluid
    limit of priority queueing used to approximate Homa and Sincronia.
    Congestion-control losses apply per class (one queue per class);
    the link's usable capacity mixes class efficiencies by population.
    """

    def __init__(
        self,
        priority_of: Callable[[Flow], int],
        efficiency_fn: EfficiencyFn = None,
    ) -> None:
        self._priority_of = priority_of
        self._efficiency_fn = efficiency_fn

    def usable_capacity(self, capacity: float, flows: Sequence[Flow]) -> float:
        if self._efficiency_fn is None or not flows:
            return capacity
        counts: Dict[int, int] = {}
        for flow in flows:
            c = self._priority_of(flow)
            counts[c] = counts.get(c, 0) + 1
        total_n = sum(counts.values())
        mix = sum(
            n * self._efficiency_fn(n) for n in counts.values()
        ) / total_n
        return capacity * mix

    def kernel_spec(self, flows: Sequence[Flow]) -> Optional[KernelSpec]:
        return ("prio", [self._priority_of(f) for f in flows], None)

    def allocate(
        self, capacity: float, flows: Sequence[Flow], demands: Sequence[float]
    ) -> List[float]:
        classes = [self._priority_of(f) for f in flows]
        shares = [0.0] * len(flows)
        groups = _grouped(classes, range(len(flows)))
        _priority_fill(capacity, groups, demands, shares)
        return shares


def max_min_rates(
    flows: Sequence[Flow],
    capacities: Mapping[str, float],
    weights: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Exact (weighted) max-min fairness by progressive filling.

    ``capacities`` maps link id -> capacity; each flow's ``path`` lists
    the link ids it traverses.  ``weights`` optionally assigns a scalar
    weight per ``flow_id`` (default 1.0).  Returns flow_id -> rate.

    This is the reference implementation of the *ideal max-min
    fairness* baseline (Section 8.4 study 4): it is what a round-robin
    scheduler with per-flow queues achieves in the fluid limit.
    """
    active = {f.flow_id: f for f in flows if not f.done}
    rates: Dict[int, float] = {fid: 0.0 for fid in active}
    if not active:
        return rates
    w = {fid: (weights.get(fid, 1.0) if weights else 1.0) for fid in active}
    headroom = dict(capacities)
    unfrozen = set(active)
    for f in active.values():
        for lid in f.path:
            if lid not in headroom:
                raise SimulationError(f"flow {f.flow_id} uses unknown link {lid}")
    while unfrozen:
        # Fill level each link supports for its unfrozen flows.
        link_weight: Dict[str, float] = {}
        for fid in unfrozen:
            for lid in active[fid].path:
                link_weight[lid] = link_weight.get(lid, 0.0) + w[fid]
        if not link_weight:
            break
        bottleneck = None
        best_level = float("inf")
        for lid, total_w in link_weight.items():
            if total_w <= 0:
                continue
            level = headroom[lid] / total_w
            if level < best_level - _EPS:
                best_level = level
                bottleneck = lid
        if bottleneck is None:
            break
        # Application-limited flows saturate at their demand cap before
        # the bottleneck fill level: freeze those first and re-derive
        # the bottleneck with the freed capacity (bounded max-min).
        capped_now = [
            fid
            for fid in unfrozen
            if w[fid] > 0
            and active[fid].demand_limit / w[fid] <= best_level + _EPS
        ]
        if capped_now:
            for fid in capped_now:
                rates[fid] = min(
                    active[fid].demand_limit, best_level * w[fid]
                )
                unfrozen.discard(fid)
                for lid in active[fid].path:
                    headroom[lid] = max(0.0, headroom[lid] - rates[fid])
            continue
        frozen_now = [
            fid for fid in unfrozen if bottleneck in active[fid].path
        ]
        if not frozen_now:
            break
        for fid in frozen_now:
            rates[fid] = best_level * w[fid]
            unfrozen.discard(fid)
            for lid in active[fid].path:
                headroom[lid] -= rates[fid]
                if headroom[lid] < 0:
                    headroom[lid] = 0.0
    return rates


def network_rates(
    flows: Sequence[Flow],
    capacity_of: Callable[[str, int], float],
    scheduler_of: Callable[[str], LinkScheduler],
    max_rounds: int = 80,
    tol: float = 1e-4,
) -> Dict[int, float]:
    """Network-wide rate allocation by progressive residual filling.

    Starting from zero, each round recomputes every link's *target*
    allocation over the flows that can still grow (their own rate cap
    not reached and no link on their path saturated): the link's
    capacity, minus what blocked flows already hold, is divided among
    the growing flows by the link's scheduling discipline, and each
    flow is offered ``max(0, target - current)``.  A flow then claims
    the minimum offer along its path.  Rates grow monotonically, so
    the procedure terminates when every flow is either cap-limited or
    blocked by a saturated link -- which is exactly the
    work-conserving (weighted/prioritised) max-min allocation.  For
    per-flow fair queueing it reproduces classic progressive filling
    (the test suite pins it against :func:`max_min_rates` on random
    networks).  Recomputing full targets rather than splitting the
    residual evenly is what keeps it exact: flows held back by another
    link do not permanently forfeit their share here.

    A naive demand-coupled fixed point is *not* used because any
    mutually-consistent under-allocation is a fixed point of that map;
    residual filling cannot stall below the work-conserving optimum.

    Args:
        flows: active flows; each must have a non-empty ``path``.
        capacity_of: ``(link_id, n_flows_on_link) -> capacity`` in
            bytes/s.  The flow count lets the InfiniBand baseline model
            fan-in-dependent congestion-control inefficiency.
        scheduler_of: returns the discipline installed at a link.
        max_rounds: safety cap on filling rounds.
        tol: stop once a round adds less than ``tol`` of the largest
            link capacity.  The default trades the last 0.01 % of rate
            precision for far fewer trickle rounds; completion times
            are insensitive at that scale.

    Returns:
        flow_id -> rate (bytes/s).
    """
    active = [f for f in flows if not f.done]
    if not active:
        return {}
    for f in active:
        if not f.path:
            raise SimulationError(f"flow {f.flow_id} has no path")
    # Solve each congestion component independently: allocations are
    # link-local, so link-disjoint flow sets never interact and the
    # joint solution is the union of per-component solutions.  This is
    # the same decomposition the incremental fabric uses to re-solve
    # only disturbed components (DESIGN.md 5d), so incremental and
    # full solves agree exactly by construction.
    from repro.simnet.incidence import split_components

    rates: Dict[int, float] = {}
    for comp in split_components(active):
        on_link: Dict[str, List[Flow]] = {}
        for f in comp:
            for lid in f.path:
                on_link.setdefault(lid, []).append(f)
        schedulers = {lid: scheduler_of(lid) for lid in on_link}
        caps = {
            lid: schedulers[lid].usable_capacity(capacity_of(lid, len(fl)), fl)
            for lid, fl in on_link.items()
        }
        rates.update(solve_component(
            comp, on_link, schedulers, caps, max_rounds=max_rounds, tol=tol,
        ))
    return rates


class _BoundLink:
    """One link's discipline, bound once per component solve.

    The link's ``kernel_spec`` over its members becomes ``groups`` of
    member flow ids (:data:`Groups`) and the fill that divides a
    capacity among them: WFQ queues with their weights, priority
    classes, or -- for a fair link -- one priority class (whose
    arithmetic is exactly ``water_fill``).  A scheduler whose
    ``kernel_spec`` is ``None`` keeps its ``allocate``.
    """

    __slots__ = (
        "fids", "members", "scheduler", "fill", "groups", "unbounded",
        "n_cand", "targets",
    )
    groups: Groups
    #: Targets of the last weighted evaluation (see ``n_cand``).
    targets: Dict[int, float]

    def __init__(
        self,
        scheduler: LinkScheduler,
        members: Sequence[Flow],
        capped: Set[int],
    ) -> None:
        self.fids = fids = [f.flow_id for f in members]
        self.members = members
        self.scheduler = scheduler
        #: No member has a finite demand limit (``capped`` holds the
        #: component's flows that do).
        self.unbounded = not capped or capped.isdisjoint(fids)
        #: Candidate count and targets of the last weighted evaluation.
        self.n_cand = -1
        self.fill: Optional[Callable[..., None]] = None
        extract = getattr(scheduler, "kernel_spec", None)
        spec = None if extract is None else extract(members)
        if spec is None:
            return
        kind, ids, weights = spec
        if kind == "fair":
            self.fill, self.groups = _priority_fill, [(0.0, fids)]
        elif kind == "wfq":
            assert ids is not None and weights is not None
            self.fill, self.groups = _wfq_fill, _grouped(ids, fids, weights)
        elif kind == "prio":
            assert ids is not None
            self.fill, self.groups = _priority_fill, _grouped(ids, fids)
        else:
            raise SimulationError(f"unknown kernel spec kind {kind!r}")

    def targets_of(
        self, usable: float, cand: List[int], limit: Mapping[int, float],
        growing: Set[int],
    ) -> Dict[int, float]:
        """What the scheduler's ``allocate`` grants the candidates
        ``cand`` (growing members, in member order) out of ``usable``,
        by flow id in ``cand`` order."""
        every = len(cand) == len(self.fids)
        if self.fill is None:
            flows = self.members if every else [
                f for f in self.members if f.flow_id in growing
            ]
            demands = [limit[fid] for fid in cand]
            shares = self.scheduler.allocate(usable, flows, demands)
            return dict(zip(cand, shares))
        groups = self.groups
        if not every:
            groups = []
            for weight, fids in self.groups:
                in_cand = [fid for fid in fids if fid in growing]
                if in_cand:
                    groups.append((weight, in_cand))
        targets = dict.fromkeys(cand, 0.0)
        self.fill(usable, groups, limit, targets, self.unbounded)
        return targets


def solve_component(
    flows: Sequence[Flow],
    on_link: Mapping[str, Sequence[Flow]],
    schedulers: Mapping[str, LinkScheduler],
    caps: Mapping[str, float],
    max_rounds: int = 80,
    tol: float = 1e-4,
) -> Dict[int, float]:
    """Progressive residual filling over one congestion component.

    ``flows`` must be the component's active flows in a stable order
    (the fabric passes start order), ``on_link`` its link -> member
    lists in that same order, and ``caps`` the already-derated usable
    capacity per link.  The component must be closed: every link on
    every member's path appears in all three maps.  The stopping
    tolerance is *local* (``tol`` of the component's largest link
    capacity), so the solution is independent of any other traffic --
    the property that makes incremental re-solving exact.

    Each link's discipline is bound once per solve through
    ``kernel_spec`` (:class:`_BoundLink`): member queues and weights
    are read once, not once per candidate per round, and the targets
    come from the same fill functions as the schedulers' ``allocate``.
    Flow state is frozen during a solve, so every round would read the
    same values.  A scheduler whose ``kernel_spec`` is ``None`` keeps
    its ``allocate``.  Two shortcuts change no bit:

    * *Target reuse.*  In the weighted phase a link's targets are
      recomputed only when its candidate count changed.  ``growing``
      only shrinks there and blocked flows never gain rate, so an
      unchanged count means the same candidates, the same blocked
      usage, hence the same usable capacity and the same targets.
    * *Unbounded demands.*  When no member of a link has a finite
      demand limit, its targets (and its mop-up grants) replay the
      water-filling operations in order without sorts
      (``unbounded`` in :func:`_wfq_fill` and :func:`_equal_shares`).

    Exactness also rests on order: ``growing`` is a set of flow ids
    changed in a fixed order (its iteration order fixes the order of
    the ``used`` accumulations), each queue's share is split one member
    at a time (``remaining / left``), and every total is a ``sum()``
    over the same values in the same order (CPython 3.12 compensates
    float sums, so a hand-rolled loop would round differently).
    """
    # Fast path: unweighted per-flow fairness everywhere (the
    # InfiniBand baseline and ideal max-min) is solved exactly by
    # classic progressive filling in one pass.  ``uniform_fair`` is an
    # explicit declaration, so FairScheduler subclasses that keep the
    # allocate contract stay on this path (a ``type is`` check used to
    # silently route them onto the slower weighted rounds).  Duck-typed
    # schedulers without the attribute take the general path.
    if all(
        getattr(s, "uniform_fair", False) for s in schedulers.values()
    ):
        return max_min_rates(flows, caps)
    max_cap = max(caps.values())
    eps = tol * max_cap
    rate: Dict[int, float] = {f.flow_id: 0.0 for f in flows}
    used: Dict[str, float] = {lid: 0.0 for lid in on_link}
    limit: Dict[int, float] = {
        f.flow_id: f.demand_limit for f in flows
    }
    path_of: Dict[int, tuple] = {f.flow_id: tuple(f.path) for f in flows}
    capped = {fid for fid, lim in limit.items() if lim != _INF}
    links = {
        lid: _BoundLink(schedulers[lid], members, capped)
        for lid, members in on_link.items()
    }
    growing = set(rate)

    def _run_rounds(compute_offers) -> None:
        """Shared grant loop with touched-link offer caching.

        A link's cached offers stay valid until a rate on it changes
        (every granted flow marks its whole path touched) or its
        blocked set changes (newly saturated links untrack their
        flows, whose other links get touched too).
        """
        offer_at: Dict[str, Dict[int, float]] = {}
        touched = set(on_link)
        for _ in range(max_rounds):
            if not growing:
                return
            for lid in touched:
                link = links[lid]
                cand = [fid for fid in link.fids if fid in growing]
                if cand:
                    offer_at[lid] = compute_offers(lid, link, cand)
            touched = set()
            added = 0.0
            granted: List[int] = []
            for fid in growing:
                # min() of the flow's offers along its path, unrolled.
                # Every link on a growing flow's path holds an offer for
                # it: the link was evaluated while the flow was growing
                # (all links are in round one), and any later change to
                # its candidates touched it.
                path = path_of[fid]
                extra = offer_at[path[0]][fid]
                for lid in path:
                    offer = offer_at[lid][fid]
                    if offer < extra:
                        extra = offer
                if extra <= 0.0:
                    continue
                rate[fid] += extra
                if extra > added:
                    added = extra
                granted.append(fid)
                for lid in path:
                    used[lid] += extra
                    touched.add(lid)
            # Retire flows that reached their own cap, and flows
            # blocked by links that just saturated.
            for fid in granted:
                if rate[fid] >= limit[fid] - eps:
                    growing.discard(fid)
            for lid in list(touched):
                if used[lid] >= caps[lid] - eps:
                    for fid in links[lid].fids:
                        if fid in growing:
                            growing.discard(fid)
                            touched.update(path_of[fid])
            if added <= eps:
                return

    def _weighted_offers(lid, link, cand):
        """Main phase: discipline targets minus current holdings."""
        if len(cand) != link.n_cand:  # else the targets still hold
            blocked_usage = 0.0
            for fid in link.fids:
                if fid not in growing:
                    blocked_usage += rate[fid]
            usable = max(0.0, caps[lid] - blocked_usage)
            link.n_cand = len(cand)
            link.targets = link.targets_of(usable, cand, limit, growing)
        # ``d if d > 0.0 else 0.0`` is ``max(0.0, d)``, bit for bit.
        offers = {}
        for fid, target in link.targets.items():
            d = target - rate[fid]
            offers[fid] = d if d > 0.0 else 0.0
        # A flow may already hold more than this round's target for it
        # (targets shrink as the candidate set changes), and held
        # bandwidth is never reclaimed -- so cap the round's total
        # hand-out at the link's true residual.
        residual = max(0.0, caps[lid] - used[lid])
        total_offer = sum(offers.values())
        if total_offer > residual and total_offer > 0.0:
            factor = residual / total_offer
            offers = {fid: o * factor for fid, o in offers.items()}
        return offers

    def _mopup_offers(lid, link, cand):
        """Mop-up phase: leftover capacity, per-flow fair."""
        residual = max(0.0, caps[lid] - used[lid])
        if link.unbounded:
            grants = _equal_shares(residual, len(cand))
        else:
            grants = water_fill(
                residual, [limit[fid] - rate[fid] for fid in cand]
            )
        return dict(zip(cand, grants))

    _run_rounds(_weighted_offers)

    # -- work-conserving mop-up -----------------------------------------
    # The weighted rounds above can stall with residual capacity left:
    # a queue's share may be unclaimable because its members are
    # limited elsewhere, while sibling-queue flows still hunger.  A
    # real WRR scheduler grants unclaimed slots to whichever backlogged
    # queue is next, so leftover capacity is distributed per-flow fair
    # to any unblocked, under-cap flow.
    growing = {
        fid
        for fid in rate
        if rate[fid] < limit[fid] - eps
        and all(used[lid] < caps[lid] - eps for lid in path_of[fid])
    }
    _run_rounds(_mopup_offers)
    return rate
