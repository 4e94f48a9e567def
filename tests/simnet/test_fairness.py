"""Unit + property tests for water-filling, the network fixed point
and the per-component solver's scheduler dispatch."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.fairness import (
    FairScheduler,
    LinkScheduler,
    PriorityScheduler,
    WFQScheduler,
    max_min_rates,
    network_rates,
    solve_component,
    water_fill,
    weighted_water_fill,
)
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.incidence import split_components

INF = float("inf")


def _flow(src: str, dst: str, path, size=1e9, **kwargs) -> Flow:
    flow = Flow(src=src, dst=dst, size=size, **kwargs)
    flow.path = tuple(path)
    return flow


# -- water_fill ---------------------------------------------------------------


def test_water_fill_equal_split():
    assert water_fill(9.0, [INF, INF, INF]) == [3.0, 3.0, 3.0]


def test_water_fill_respects_demands():
    assert water_fill(10.0, [2.0, INF, INF]) == [2.0, 4.0, 4.0]


def test_water_fill_total_demand_below_capacity():
    assert water_fill(10.0, [1.0, 2.0]) == [1.0, 2.0]


def test_water_fill_zero_capacity():
    assert water_fill(0.0, [1.0, 2.0]) == [0.0, 0.0]


def test_water_fill_empty():
    assert water_fill(5.0, []) == []


@given(
    st.floats(min_value=0.1, max_value=1e6),
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
)
@settings(max_examples=200)
def test_water_fill_properties(capacity, demands):
    alloc = water_fill(capacity, demands)
    assert all(a >= -1e-9 for a in alloc)
    assert all(a <= d + 1e-6 for a, d in zip(alloc, demands))
    total = sum(alloc)
    assert total <= capacity + 1e-6
    # Work conservation: either capacity is exhausted or every demand met.
    if sum(demands) >= capacity:
        assert total == pytest.approx(capacity, rel=1e-6)
    else:
        assert total == pytest.approx(sum(demands), rel=1e-6)


@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=100)
def test_water_fill_max_min_property(capacity, n):
    """No allocation can be raised without lowering a smaller one."""
    demands = [INF] * n
    alloc = water_fill(capacity, demands)
    assert all(a == pytest.approx(capacity / n) for a in alloc)


# -- weighted_water_fill ----------------------------------------------------------


def test_weighted_split_proportional():
    alloc = weighted_water_fill(12.0, [INF, INF, INF], [1.0, 2.0, 3.0])
    assert alloc == pytest.approx([2.0, 4.0, 6.0])


def test_weighted_redistributes_unused_share():
    # Entry 1 is demand-capped; its unused share goes to the others.
    alloc = weighted_water_fill(13.0, [100.0, 100.0, 1.0], [1.0, 2.0, 1.0])
    assert alloc == pytest.approx([4.0, 8.0, 1.0])


def test_weighted_zero_weight_gets_leftovers_only():
    alloc = weighted_water_fill(10.0, [INF, 3.0], [0.0, 1.0])
    assert alloc == pytest.approx([7.0, 3.0])


def test_weighted_mismatched_lengths():
    with pytest.raises(ValueError):
        weighted_water_fill(1.0, [1.0], [1.0, 2.0])


def test_weighted_negative_weight_rejected():
    with pytest.raises(ValueError):
        weighted_water_fill(1.0, [1.0], [-1.0])


@given(
    st.floats(min_value=0.5, max_value=1e5),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200)
def test_weighted_water_fill_properties(capacity, pairs):
    demands = [p[0] for p in pairs]
    weights = [p[1] for p in pairs]
    alloc = weighted_water_fill(capacity, demands, weights)
    assert all(a >= -1e-9 for a in alloc)
    assert all(a <= d + 1e-6 * max(1.0, d) for a, d in zip(alloc, demands))
    total = sum(alloc)
    assert total <= capacity * (1 + 1e-9) + 1e-6
    expected = min(capacity, sum(demands))
    assert total == pytest.approx(expected, rel=1e-6, abs=1e-6)


# -- exact max-min (progressive filling) ----------------------------------------------


def test_max_min_single_bottleneck():
    flows = [
        _flow("a", "x", ["L"]),
        _flow("b", "x", ["L"]),
    ]
    rates = max_min_rates(flows, {"L": 10.0})
    assert rates[flows[0].flow_id] == pytest.approx(5.0)
    assert rates[flows[1].flow_id] == pytest.approx(5.0)


def test_max_min_classic_parking_lot():
    # f0 crosses both links; f1 only L1; f2 only L2.
    f0 = _flow("a", "c", ["L1", "L2"])
    f1 = _flow("a", "b", ["L1"])
    f2 = _flow("b", "c", ["L2"])
    rates = max_min_rates([f0, f1, f2], {"L1": 10.0, "L2": 10.0})
    assert rates[f0.flow_id] == pytest.approx(5.0)
    assert rates[f1.flow_id] == pytest.approx(5.0)
    assert rates[f2.flow_id] == pytest.approx(5.0)


def test_max_min_unequal_links():
    f0 = _flow("a", "c", ["L1", "L2"])
    f1 = _flow("a", "b", ["L1"])
    rates = max_min_rates([f0, f1], {"L1": 10.0, "L2": 2.0})
    assert rates[f0.flow_id] == pytest.approx(2.0)
    assert rates[f1.flow_id] == pytest.approx(8.0)


def test_max_min_weighted():
    f0 = _flow("a", "b", ["L"])
    f1 = _flow("a", "b", ["L"])
    rates = max_min_rates(
        [f0, f1], {"L": 12.0}, weights={f0.flow_id: 1.0, f1.flow_id: 3.0}
    )
    assert rates[f0.flow_id] == pytest.approx(3.0)
    assert rates[f1.flow_id] == pytest.approx(9.0)


def test_max_min_respects_rate_cap():
    f0 = _flow("a", "b", ["L"], rate_cap=1.0)
    f1 = _flow("a", "b", ["L"])
    rates = max_min_rates([f0, f1], {"L": 10.0})
    assert rates[f0.flow_id] == pytest.approx(1.0)
    assert rates[f1.flow_id] == pytest.approx(9.0)


def test_max_min_done_flows_excluded():
    f0 = _flow("a", "b", ["L"])
    f0.remaining = 0.0
    f1 = _flow("a", "b", ["L"])
    rates = max_min_rates([f0, f1], {"L": 10.0})
    assert rates[f1.flow_id] == pytest.approx(10.0)
    assert rates.get(f0.flow_id, 0.0) == 0.0


# -- network_rates fixed point --------------------------------------------------------


def _fair(link_id):
    return FairScheduler()


def _caps(caps):
    return lambda link_id, n: caps[link_id]


def test_network_rates_matches_exact_max_min_parking_lot():
    f0 = _flow("a", "c", ["L1", "L2"])
    f1 = _flow("a", "b", ["L1"])
    f2 = _flow("b", "c", ["L2"])
    flows = [f0, f1, f2]
    caps = {"L1": 10.0, "L2": 6.0}
    iterative = network_rates(flows, _caps(caps), _fair)
    exact = max_min_rates(flows, caps)
    for f in flows:
        assert iterative[f.flow_id] == pytest.approx(exact[f.flow_id], rel=1e-4)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_network_rates_agrees_with_progressive_filling(data):
    """On random single-switch style networks, the iterative fixed
    point must match exact progressive filling for fair queueing."""
    n_links = data.draw(st.integers(min_value=2, max_value=6))
    caps = {
        f"L{i}": data.draw(st.floats(min_value=1.0, max_value=100.0))
        for i in range(n_links)
    }
    n_flows = data.draw(st.integers(min_value=1, max_value=10))
    flows = []
    for i in range(n_flows):
        length = data.draw(st.integers(min_value=1, max_value=min(3, n_links)))
        start = data.draw(st.integers(min_value=0, max_value=n_links - length))
        path = [f"L{j}" for j in range(start, start + length)]
        flows.append(_flow("a", "b", path))
    iterative = network_rates(flows, _caps(caps), _fair)
    exact = max_min_rates(flows, caps)
    for f in flows:
        assert iterative[f.flow_id] == pytest.approx(
            exact[f.flow_id], rel=1e-3, abs=1e-6
        )


def test_network_rates_work_conservation_single_link():
    flows = [_flow("a", "b", ["L"]) for _ in range(5)]
    rates = network_rates(flows, _caps({"L": 10.0}), _fair)
    assert sum(rates.values()) == pytest.approx(10.0)


def test_network_rates_honours_rate_caps():
    f0 = _flow("a", "b", ["L"], rate_cap=2.0)
    f1 = _flow("a", "b", ["L"])
    rates = network_rates([f0, f1], _caps({"L": 10.0}), _fair)
    assert rates[f0.flow_id] == pytest.approx(2.0, rel=1e-4)
    assert rates[f1.flow_id] == pytest.approx(8.0, rel=1e-4)


def test_network_rates_empty():
    assert network_rates([], _caps({}), _fair) == {}


# -- WFQ scheduler ---------------------------------------------------------------------


def test_wfq_two_queues_weighted_shares():
    f0 = _flow("a", "b", ["L"], pl=0)
    f1 = _flow("a", "b", ["L"], pl=1)
    sched = WFQScheduler(
        queue_of=lambda f: f.pl, weight_of=lambda q: [3.0, 1.0][q]
    )
    shares = sched.allocate(8.0, [f0, f1], [INF, INF])
    assert shares == pytest.approx([6.0, 2.0])


def test_wfq_work_conserving_when_queue_idle():
    f0 = _flow("a", "b", ["L"], pl=0)
    f1 = _flow("a", "b", ["L"], pl=1)
    sched = WFQScheduler(
        queue_of=lambda f: f.pl, weight_of=lambda q: [3.0, 1.0][q]
    )
    # Queue 0's flow only wants 1.0; queue 1 absorbs the rest.
    shares = sched.allocate(8.0, [f0, f1], [1.0, INF])
    assert shares == pytest.approx([1.0, 7.0])


def test_wfq_fair_within_queue():
    flows = [_flow("a", "b", ["L"], pl=0) for _ in range(4)]
    sched = WFQScheduler(queue_of=lambda f: 0, weight_of=lambda q: 1.0)
    shares = sched.allocate(8.0, flows, [INF] * 4)
    assert shares == pytest.approx([2.0] * 4)


def test_wfq_via_network_rates():
    f0 = _flow("a", "b", ["L"], pl=0)
    f1 = _flow("a", "b", ["L"], pl=1)
    sched = WFQScheduler(
        queue_of=lambda f: f.pl, weight_of=lambda q: [0.75, 0.25][q]
    )
    rates = network_rates([f0, f1], _caps({"L": 10.0}), lambda lid: sched)
    assert rates[f0.flow_id] == pytest.approx(7.5, rel=1e-3)
    assert rates[f1.flow_id] == pytest.approx(2.5, rel=1e-3)


# -- strict priority ----------------------------------------------------------------------


def test_priority_preempts_lower_classes():
    hi = _flow("a", "b", ["L"], pl=0)
    lo = _flow("a", "b", ["L"], pl=1)
    sched = PriorityScheduler(priority_of=lambda f: f.pl)
    shares = sched.allocate(10.0, [hi, lo], [INF, INF])
    assert shares == pytest.approx([10.0, 0.0])


def test_priority_lower_class_gets_leftover():
    hi = _flow("a", "b", ["L"], pl=0)
    lo = _flow("a", "b", ["L"], pl=1)
    sched = PriorityScheduler(priority_of=lambda f: f.pl)
    shares = sched.allocate(10.0, [hi, lo], [4.0, INF])
    assert shares == pytest.approx([4.0, 6.0])


def test_priority_fair_within_class():
    flows = [_flow("a", "b", ["L"], pl=0) for _ in range(2)]
    sched = PriorityScheduler(priority_of=lambda f: 0)
    shares = sched.allocate(10.0, flows, [INF, INF])
    assert shares == pytest.approx([5.0, 5.0])


def test_weighted_all_zero_weights_fall_back_to_fair():
    # Zero-weight entries share leftovers fairly when nothing else
    # claims the capacity.
    alloc = weighted_water_fill(10.0, [INF, INF], [0.0, 0.0])
    assert sum(alloc) == pytest.approx(10.0)
    assert alloc[0] == pytest.approx(alloc[1])


def test_weighted_zero_capacity():
    assert weighted_water_fill(0.0, [1.0, 2.0], [1.0, 1.0]) == [0.0, 0.0]


def test_weighted_empty():
    assert weighted_water_fill(5.0, [], []) == []


def test_max_min_weighted_with_caps_interact():
    f0 = _flow("a", "b", ["L"], rate_cap=2.0)
    f1 = _flow("a", "b", ["L"])
    rates = max_min_rates(
        [f0, f1], {"L": 12.0}, weights={f0.flow_id: 3.0, f1.flow_id: 1.0}
    )
    # f0's weighted share (9) exceeds its cap: it freezes at 2 and the
    # rest goes to f1.
    assert rates[f0.flow_id] == pytest.approx(2.0)
    assert rates[f1.flow_id] == pytest.approx(10.0)


def test_network_rates_multi_hop_with_aux_unchanged():
    """aux drain lives on the flow, not the network: rates are pure
    network shares regardless of aux."""
    f0 = _flow("a", "b", ["L1", "L2"])
    f0.aux_rate = 5.0
    f1 = _flow("a", "b", ["L1"])
    rates = network_rates([f0, f1], _caps({"L1": 10.0, "L2": 4.0}), _fair)
    assert rates[f0.flow_id] == pytest.approx(4.0, rel=1e-3)
    assert rates[f1.flow_id] == pytest.approx(6.0, rel=1e-3)


# -- solve_component: scheduler dispatch and edge cases ---------------------------------


def _component_views(flows, caps, schedulers):
    """(members, on_link, caps, schedulers) per congestion component,
    built the way the fabric builds them."""
    views = []
    for comp in split_components(flows):
        on_link = {}
        for flow in comp:
            for lid in flow.path:
                on_link.setdefault(lid, []).append(flow)
        views.append((
            comp, on_link,
            {lid: caps[lid] for lid in on_link},
            {lid: schedulers[lid] for lid in on_link},
        ))
    return views


def test_all_fair_at_datacenter_scale_regression():
    """Regression: 36 uniform-fair flows over 16 links at 1-5 GB/s
    capacities.  ``level < m + _EPS`` with ``_EPS = 1e-9`` is sub-ulp
    at this scale (one ulp of 5e9 is ~1e-6): a bottleneck filter that
    rounds back to ``level < m`` finds no bottleneck and caps every
    unlimited flow at infinity."""
    rng = random.Random(20230)
    reset_flow_ids()
    links = [f"L{i}" for i in range(16)]
    flows = []
    for _ in range(36):
        path = rng.sample(links, rng.randint(1, 4))
        flows.append(Flow(src="s", dst="d", size=1e9, app="a",
                          pl=0, path=tuple(path)))
    caps = {lid: rng.uniform(1e9, 5e9) for lid in links}
    schedulers = {lid: FairScheduler() for lid in links}
    solved = 0
    for comp, on_link, ccaps, cscheds in _component_views(
        flows, caps, schedulers
    ):
        rates = solve_component(comp, on_link, cscheds, ccaps)
        assert all(math.isfinite(r) for r in rates.values())
        assert rates == max_min_rates(comp, ccaps)
        solved += len(rates)
    assert solved == 36


def test_zero_weight_wfq_queue_gets_zero_rate():
    """Flows in a zero-weight WFQ queue starve (weight 0 means no
    service, not a division blowup); the weighted flow takes the link."""
    reset_flow_ids()
    flows = [
        Flow(src="s", dst="d", size=1.0, app="a", pl=pl, path=("L0",))
        for pl in (0, 0, 1)
    ]
    schedulers = {
        "L0": WFQScheduler(
            queue_of=lambda f: f.pl,
            weight_of=lambda q: 0.0 if q == 0 else 1.0,
        )
    }
    (comp, on_link, ccaps, cscheds), = _component_views(
        flows, {"L0": 10.0}, schedulers
    )
    rates = solve_component(comp, on_link, cscheds, ccaps)
    assert [rates[f.flow_id] for f in flows] == [0.0, 0.0, 10.0]


class _TaggedFairScheduler(FairScheduler):
    """A FairScheduler subclass that keeps the allocate contract.

    Historically ``solve_component`` dispatched the exact
    progressive-filling fast path on ``type(s) is FairScheduler``,
    silently routing subclasses like this onto the slower weighted
    rounds.  The explicit ``uniform_fair`` declaration keeps them on
    the fast path.
    """


class _CountingScheduler(FairScheduler):
    """Fast-path detector: allocate must never run on the fast path."""

    def allocate(self, capacity, flows, demands):
        raise AssertionError(
            "allocate() called: the uniform_fair fast path was skipped"
        )


class _DuckScheduler:
    """Duck-typed scheduler with no LinkScheduler ancestry and no
    ``uniform_fair`` attribute; must take the general path safely."""

    def usable_capacity(self, capacity, flows):
        return capacity

    def allocate(self, capacity, flows, demands):
        share = capacity / len(flows)
        return [min(share, d) for d in demands]


def _single_link_view(scheduler, n_flows=4, cap=8.0):
    reset_flow_ids()
    flows = [
        Flow(src="s", dst="d", size=1.0, app="a", pl=i, path=("L0",))
        for i in range(n_flows)
    ]
    (view,) = _component_views(flows, {"L0": cap}, {"L0": scheduler})
    return view


def test_fair_subclass_stays_on_fast_path():
    comp, on_link, ccaps, cscheds = _single_link_view(_TaggedFairScheduler())
    assert solve_component(comp, on_link, cscheds, ccaps) == (
        max_min_rates(comp, ccaps)
    )
    # The declaration, not the concrete type, selects the path:
    # allocate is never consulted.
    comp, on_link, ccaps, cscheds = _single_link_view(_CountingScheduler())
    rates = solve_component(comp, on_link, cscheds, ccaps)
    assert rates == max_min_rates(comp, ccaps)


def test_duck_typed_scheduler_takes_general_path():
    comp, on_link, ccaps, cscheds = _single_link_view(
        _DuckScheduler(), n_flows=4, cap=8.0
    )
    rates = solve_component(comp, on_link, cscheds, ccaps)
    assert rates == pytest.approx(
        {f.flow_id: 2.0 for f in comp}, rel=1e-4
    )


def test_base_scheduler_declares_no_uniform_fairness():
    assert LinkScheduler.uniform_fair is False
    assert FairScheduler.uniform_fair is True
    assert _TaggedFairScheduler.uniform_fair is True
