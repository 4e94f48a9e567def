"""Differential suite: the bound object solver against its former self.

:func:`repro.simnet.fairness.solve_component` binds each link's
discipline once per solve, reuses a link's targets while its candidate
set is unchanged, and replays the water-filling arithmetic without
sorts when every demand limit is infinite.  None of that may move a
bit.  The oracle below is the solver as it was before those changes:
``reference_solve_component`` and the ``water_fill``,
``weighted_water_fill`` and WFQ / priority ``allocate`` arithmetic it
calls, copied verbatim; only the dispatch from a scheduler to its
``allocate`` arithmetic (:func:`_reference_allocate`) is new.  The
property drives both over random closed components and requires equal
rates, in equal key order.
"""

import math
from typing import Callable, Dict, List, Mapping, Sequence

from hypothesis import given, settings, strategies as st

from repro.simnet.fairness import (
    FairScheduler,
    LinkScheduler,
    PriorityScheduler,
    WFQScheduler,
    max_min_rates,
    solve_component,
)
from repro.simnet.flows import Flow

_EPS = 1e-9

#: Shared empty offer map (links with no growing candidates).
_NO_OFFERS: Dict[int, float] = {}


# -- the reference: the solver before per-solve binding -----------------


def reference_water_fill(capacity: float, demands: Sequence[float]) -> List[float]:
    n = len(demands)
    if n == 0:
        return []
    if capacity <= 0:
        return [0.0] * n
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


def reference_weighted_water_fill(
    capacity: float, demands: Sequence[float], weights: Sequence[float]
) -> List[float]:
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
        total_w = sum(weights[i] for i in active)
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
            extra = reference_water_fill(remaining, [demands[i] - alloc[i] for i in zero_w])
            for j, i in enumerate(zero_w):
                alloc[i] += extra[j]
    return alloc


def reference_wfq_allocate(
    queue_of: Callable[[Flow], int],
    weight_of: Callable[[int], float],
    capacity: float, flows: Sequence[Flow], demands: Sequence[float],
) -> List[float]:
    by_queue: Dict[int, List[int]] = {}
    for i, flow in enumerate(flows):
        by_queue.setdefault(queue_of(flow), []).append(i)
    queues = sorted(by_queue)
    q_weights = [max(0.0, float(weight_of(q))) for q in queues]
    q_demands = [sum(demands[i] for i in by_queue[q]) for q in queues]
    q_alloc = reference_weighted_water_fill(capacity, q_demands, q_weights)
    shares = [0.0] * len(flows)
    for q_idx, q in enumerate(queues):
        members = by_queue[q]
        inner = reference_water_fill(q_alloc[q_idx], [demands[i] for i in members])
        for j, i in enumerate(members):
            shares[i] = inner[j]
    return shares


def reference_priority_allocate(
    priority_of: Callable[[Flow], int],
    capacity: float, flows: Sequence[Flow], demands: Sequence[float],
) -> List[float]:
    by_prio: Dict[int, List[int]] = {}
    for i, flow in enumerate(flows):
        by_prio.setdefault(priority_of(flow), []).append(i)
    shares = [0.0] * len(flows)
    remaining = capacity
    for prio in sorted(by_prio):
        members = by_prio[prio]
        inner = reference_water_fill(remaining, [demands[i] for i in members])
        for j, i in enumerate(members):
            shares[i] = inner[j]
        remaining -= sum(inner)
        if remaining <= _EPS:
            remaining = 0.0  # lower priorities receive zero
    return shares


def _reference_allocate(scheduler, capacity, flows, demands):
    """A scheduler's ``allocate``, with the library disciplines routed
    to the reference arithmetic above."""
    if type(scheduler) is WFQScheduler:
        return reference_wfq_allocate(
            scheduler._queue_of, scheduler._weight_of, capacity, flows, demands
        )
    if type(scheduler) is PriorityScheduler:
        return reference_priority_allocate(
            scheduler._priority_of, capacity, flows, demands
        )
    if type(scheduler) is FairScheduler:
        return reference_water_fill(capacity, demands)
    return scheduler.allocate(capacity, flows, demands)


def reference_solve_component(
    flows: Sequence[Flow],
    on_link: Mapping[str, Sequence[Flow]],
    schedulers: Mapping[str, LinkScheduler],
    caps: Mapping[str, float],
    max_rounds: int = 80,
    tol: float = 1e-4,
) -> Dict[int, float]:
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
    growing = set(rate)

    def _run_rounds(compute_offers) -> None:
        offer_at: Dict[str, Dict[int, float]] = {}
        touched = set(on_link)
        for _ in range(max_rounds):
            if not growing:
                return
            for lid in touched:
                members = on_link[lid]
                candidates = [
                    f for f in members if f.flow_id in growing
                ]
                if not candidates:
                    offer_at.pop(lid, None)
                    continue
                offer_at[lid] = compute_offers(lid, members, candidates)
            touched = set()
            added = 0.0
            granted: List[int] = []
            for fid in growing:
                path = path_of[fid]
                extra = min(
                    offer_at.get(lid, _NO_OFFERS).get(fid, 0.0)
                    for lid in path
                )
                if extra <= 0.0:
                    continue
                rate[fid] += extra
                added = max(added, extra)
                granted.append(fid)
                for lid in path:
                    used[lid] += extra
                    touched.add(lid)
            for fid in granted:
                if rate[fid] >= limit[fid] - eps:
                    growing.discard(fid)
            for lid in list(touched):
                if used[lid] >= caps[lid] - eps:
                    for f in on_link[lid]:
                        if f.flow_id in growing:
                            growing.discard(f.flow_id)
                            touched.update(path_of[f.flow_id])
            if added <= eps:
                return

    def _weighted_offers(lid, members, candidates):
        blocked_usage = 0.0
        for f in members:
            if f.flow_id not in growing:
                blocked_usage += rate[f.flow_id]
        usable = max(0.0, caps[lid] - blocked_usage)
        demands = [limit[f.flow_id] for f in candidates]
        targets = _reference_allocate(schedulers[lid], usable, candidates, demands)
        offers = {
            f.flow_id: max(0.0, targets[i] - rate[f.flow_id])
            for i, f in enumerate(candidates)
        }
        residual = max(0.0, caps[lid] - used[lid])
        total_offer = sum(offers.values())
        if total_offer > residual and total_offer > 0.0:
            factor = residual / total_offer
            offers = {fid: o * factor for fid, o in offers.items()}
        return offers

    def _mopup_offers(lid, members, candidates):
        residual = max(0.0, caps[lid] - used[lid])
        headrooms = [
            limit[f.flow_id] - rate[f.flow_id] for f in candidates
        ]
        grants = reference_water_fill(residual, headrooms)
        return {f.flow_id: grants[i] for i, f in enumerate(candidates)}

    _run_rounds(_weighted_offers)
    growing = {
        fid
        for fid in rate
        if rate[fid] < limit[fid] - eps
        and all(used[lid] < caps[lid] - eps for lid in path_of[fid])
    }
    _run_rounds(_mopup_offers)
    return rate


# -- random closed components -------------------------------------------


class _AllocateOnly:
    """A discipline with no kernel form: the solver must call its
    ``allocate`` (here: equal split of the link, capped at demand, the
    unclaimed rest re-offered to the largest demand)."""

    def usable_capacity(self, capacity, flows):
        return capacity

    def allocate(self, capacity, flows, demands):
        share = capacity / len(flows)
        grants = [min(share, d) for d in demands]
        spare = capacity - sum(grants)
        big = max(range(len(demands)), key=lambda i: demands[i])
        grants[big] = min(demands[big], grants[big] + spare)
        return grants


#: Queue weights: zero-weight queues, and a subnormal weight whose
#: ``capacity / weight`` overflows to ``inf``.
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 5e-324]),
)


def _scheduler(draw, n_pl):
    kind = draw(st.sampled_from(["wfq", "wfq", "wfq", "prio", "fair", "alloc"]))
    if kind == "wfq":
        n_queues = draw(st.integers(min_value=1, max_value=4))
        queue = [draw(st.integers(0, n_queues - 1)) for _ in range(n_pl)]
        weight = [draw(_WEIGHTS) for _ in range(n_queues)]
        return WFQScheduler(
            queue_of=lambda f, m=queue: m[f.pl], weight_of=weight.__getitem__,
        )
    if kind == "prio":
        prio = [draw(st.integers(0, 3)) for _ in range(n_pl)]
        return PriorityScheduler(priority_of=lambda f, m=prio: m[f.pl])
    if kind == "fair":
        return FairScheduler()
    return _AllocateOnly()


@st.composite
def components(draw):
    n_links = draw(st.integers(min_value=1, max_value=12))
    n_pl = 4
    links = [f"L{i}" for i in range(n_links)]
    exponent = st.floats(min_value=2.0, max_value=10.0)
    caps = {lid: 10.0 ** draw(exponent) for lid in links}
    # Some links share a scheduler instance, as fabric-wide policies do.
    pool = [_scheduler(draw, n_pl) for _ in range(draw(st.integers(1, n_links)))]
    schedulers = {lid: pool[draw(st.integers(0, len(pool) - 1))] for lid in links}
    cap_share = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=min(4, n_links),
                     unique=True)
        )
        capped = draw(st.floats(min_value=0.0, max_value=1.0)) < cap_share
        flow = Flow(
            src="s", dst="d", size=1e9, pl=draw(st.integers(0, n_pl - 1)),
            rate_cap=10.0 ** draw(exponent) if capped else None,
        )
        flow.path = tuple(path)
        flows.append(flow)
    # Closed: the links the flows use, members in flow order.
    on_link: Dict[str, List[Flow]] = {}
    for flow in flows:
        for lid in flow.path:
            on_link.setdefault(lid, []).append(flow)
    return (
        flows, on_link,
        {lid: schedulers[lid] for lid in on_link},
        {lid: caps[lid] for lid in on_link},
    )


@given(components())
@settings(max_examples=300, deadline=None)
def test_solve_component_matches_reference(component):
    flows, on_link, schedulers, caps = component
    want = reference_solve_component(flows, on_link, schedulers, caps)
    got = solve_component(flows, on_link, schedulers, caps)
    assert got == want
    assert list(got) == list(want)
    assert all(math.isfinite(r) for r in got.values())


def test_unbounded_wfq_with_zero_weight_queue():
    """The regime Saba runs in: every limit infinite, one populated
    zero-weight queue, shared links."""
    queue = {0: 0, 1: 1, 2: 2, 3: 1}
    weight = [0.0, 0.25, 0.75]
    sched = WFQScheduler(queue_of=lambda f: queue[f.pl], weight_of=weight.__getitem__)
    flows = []
    for i in range(9):
        flow = Flow(src="s", dst="d", size=1e9, pl=i % 4)
        flow.path = ("A", "B") if i % 3 else ("A", "C")
        flows.append(flow)
    on_link: Dict[str, List[Flow]] = {}
    for flow in flows:
        for lid in flow.path:
            on_link.setdefault(lid, []).append(flow)
    schedulers = {lid: sched for lid in on_link}
    caps = {"A": 7e9, "B": 3e9, "C": 5e9}
    want = reference_solve_component(flows, on_link, schedulers, caps)
    got = solve_component(flows, on_link, schedulers, caps)
    assert got == want and list(got) == list(want)
    assert sum(got.values()) > 0.0
