"""Differential suite: :class:`ArrayIncidence` against index-free oracles.

The flow index is a performance substrate, not a semantics: every
observable -- per-link membership and counts, component discovery, and
end-to-end fabric results -- must equal what a from-scratch build over
the active flows gives.  The oracle here keeps no index at all:
:func:`split_components` (union-find over the active flows in start
order, the partition the full-solve oracle ``network_rates`` uses).
These tests pin that contract three ways:

* randomized add/remove/reroute churn (hypothesis) with periodic
  :meth:`FlowTable.compact` + :meth:`ArrayIncidence.remap`, comparing
  counts, memberships, and the components of both full and seeded
  discovery;
* deterministic edge cases for slot recycling, re-adds, adjacency
  segment relocation and buffer compaction;
* end-to-end fabric runs (fair, WFQ and Saba-shaped policies, link
  faults via ``set_link_state``) whose finish times are pinned bit for
  bit.
"""

import json
import os
import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import make_port_scheduler
from repro.errors import SimulationError
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import WFQScheduler
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.flowtable import FlowTable
from repro.simnet.incidence import ArrayIncidence, split_components
from repro.simnet.topology import spine_leaf


def _oracle_components(active, seeds=None):
    """Components of the active flows (start order) reachable from
    ``seeds`` (all when ``None``), without any index."""
    comps = split_components(sorted(active, key=lambda f: f._seq))
    if seeds is not None:
        seeds = set(seeds)
        comps = [
            c for c in comps if any(lid in seeds for f in c for lid in f.path)
        ]
    return comps


def _assert_matches(arr, active, seeds=None):
    """The index agrees with the active flows: membership, counts, and
    full and seeded discovery against the oracle."""
    members: Dict[str, List[int]] = {}
    for flow in sorted(active, key=lambda f: f._seq):
        for lid in flow.path:
            members.setdefault(lid, []).append(flow.flow_id)
    assert set(arr.links()) == set(members)
    for lid in set(arr.link_ids) | set(members):
        assert arr.count(lid) == len(members.get(lid, []))
        assert [f.flow_id for f in arr.flows_on(lid)] == members.get(lid, [])

    for seed_set in [None] if seeds is None else [None, seeds]:
        comps = arr.discover(seed_set)
        ref = _oracle_components(active, seed_set)
        assert [[f.flow_id for f in c] for c in comps] == [
            [f.flow_id for f in c] for c in ref
        ]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_churn_differential(data):
    """Random add/remove/reroute churn with compaction: membership
    and full and seeded discovery track the oracle."""
    table = FlowTable()
    arr = ArrayIncidence(table)
    n_links = data.draw(st.integers(min_value=2, max_value=16))
    links = [f"L{i}" for i in range(n_links)]
    paths = st.lists(
        st.sampled_from(links), min_size=1, max_size=4, unique=True
    )
    seq = iter(range(10**9))
    active: List[Flow] = []
    n_steps = data.draw(st.integers(min_value=10, max_value=120))
    for step in range(n_steps):
        op = data.draw(st.integers(min_value=0, max_value=9))
        if op < 5 or not active:
            flow = Flow(src="a", dst="b", size=1.0)
            flow.path = tuple(data.draw(paths))
            table.bind(flow, next(seq), 0.0)
            arr.add(flow)
            active.append(flow)
        elif op < 8:
            idx = data.draw(st.integers(min_value=0, max_value=len(active) - 1))
            flow = active.pop(idx)
            arr.remove(flow)
            table.unbind(flow)
        else:  # reroute: remove, change path, re-add
            idx = data.draw(st.integers(min_value=0, max_value=len(active) - 1))
            flow = active[idx]
            arr.remove(flow)
            flow.path = tuple(data.draw(paths))
            arr.add(flow)
        if step % 17 == 16:
            arr.remap(table.compact())
        if step % 11 == 10:
            seeds = data.draw(
                st.lists(st.sampled_from(links), min_size=1, unique=True)
            )
            _assert_matches(arr, active, seeds)
    arr.remap(table.compact())
    _assert_matches(arr, active, links[: n_links // 2])


def _bound_flow(table, path, seq):
    flow = Flow(src="a", dst="b", size=1.0)
    flow.path = tuple(path)
    table.bind(flow, seq, 0.0)
    return flow


class TestSlotRecycling:
    """Deterministic edge cases around slot reuse and buffer motion."""

    def test_slot_reuse_after_remove(self):
        table = FlowTable()
        arr = ArrayIncidence(table)
        a = _bound_flow(table, ["L0", "L1"], 0)
        arr.add(a)
        slot = a._slot
        arr.remove(a)
        table.unbind(a)
        b = _bound_flow(table, ["L1", "L2"], 1)
        assert b._slot == slot  # LIFO free list recycles the slot
        arr.add(b)
        assert [f.flow_id for f in arr.flows_on("L1")] == [b.flow_id]
        assert arr.count("L0") == 0
        assert arr.count("L2") == 1

    def test_readd_is_reroute(self):
        table = FlowTable()
        arr = ArrayIncidence(table)
        flow = _bound_flow(table, ["L0", "L1"], 0)
        arr.add(flow)
        flow.path = ("L2",)
        arr.add(flow)  # re-add replaces the stale path entries
        assert arr.count("L0") == 0
        assert arr.count("L1") == 0
        assert [f.flow_id for f in arr.flows_on("L2")] == [flow.flow_id]

    def test_remove_is_idempotent(self):
        table = FlowTable()
        arr = ArrayIncidence(table)
        flow = _bound_flow(table, ["L0"], 0)
        arr.add(flow)
        arr.remove(flow)
        arr.remove(flow)
        assert arr.count("L0") == 0

    def test_add_requires_bound_flow(self):
        table = FlowTable()
        arr = ArrayIncidence(table)
        flow = Flow(src="a", dst="b", size=1.0)
        flow.path = ("L0",)
        with pytest.raises(ValueError):
            arr.add(flow)

    def test_segment_growth_relocation(self):
        """One link far past its initial segment capacity, interleaved
        with removals so the adjacency buffer compacts and relocates."""
        table = FlowTable()
        arr = ArrayIncidence(table)
        flows = []
        for i in range(200):
            flow = _bound_flow(table, ["HOT", f"cold{i % 7}"], i)
            arr.add(flow)
            flows.append(flow)
            if i % 3 == 2:
                victim = flows.pop(0)
                arr.remove(victim)
                table.unbind(victim)
        _assert_matches(arr, flows, ["cold3"])

    def test_compaction_remap(self):
        """Table compaction after heavy churn: remap keeps every live
        pair, and discovery matches the oracle."""
        rng = random.Random(7)
        table = FlowTable()
        arr = ArrayIncidence(table)
        links = [f"L{i}" for i in range(6)]
        active = []
        for i in range(300):
            flow = _bound_flow(
                table, rng.sample(links, rng.randint(1, 3)), i
            )
            arr.add(flow)
            active.append(flow)
            if len(active) > 20:
                victim = active.pop(rng.randrange(len(active)))
                arr.remove(victim)
                table.unbind(victim)
        remap = table.compact()
        arr.remap(remap)
        assert table.n_active == len(active)
        _assert_matches(arr, active, ["L2"])


# -- end-to-end fabric parity ------------------------------------------

#: Per scenario, flow id -> ``float.hex`` finish time under the object
#: solver, recorded from the two-index implementation this fabric
#: replaced (the ``saba`` scenarios: from the object solver before it
#: bound each link once per solve); the current fabric must reproduce
#: them bit for bit.
_PINNED = os.path.join(os.path.dirname(__file__), "fabric_parity_finish.json")


class _WFQPolicy:
    name = "wfq-test"
    rate_caps = True

    def __init__(self):
        self._sched = WFQScheduler(
            queue_of=lambda f: (f.pl or 0) % 8,
            weight_of=lambda q: q + 1,
        )

    def attach(self, fabric):
        pass

    def scheduler_of(self, link_id):
        return self._sched

    def on_flow_started(self, flow):
        pass

    def on_flow_finished(self, flow):
        pass


class _SabaShapedPolicy:
    """The regime Saba runs in: a WFQ scheduler per port from
    ``make_port_scheduler`` over the port's programmed queue table, FECN
    collapse derating, a populated zero-weight queue at every port, and
    no rate caps."""

    name = "saba-shaped-test"
    rate_caps = False

    def attach(self, fabric):
        self._fabric = fabric
        self._schedulers = {}
        for i, lid in enumerate(sorted(fabric.topology.links)):
            fabric.topology.port_table(lid).program(
                {pl: pl % 4 for pl in range(8)},
                {0: 0.0, 1: 1.0 + i % 3, 2: 2.5, 3: 0.5},
            )

    def scheduler_of(self, link_id):
        scheduler = self._schedulers.get(link_id)
        if scheduler is None:
            scheduler = self._schedulers[link_id] = make_port_scheduler(
                self._fabric.topology.port_table(link_id), 0.15
            )
        return scheduler

    def on_flow_started(self, flow):
        pass

    def on_flow_finished(self, flow):
        pass


_POLICIES = {"fair": None, "wfq": _WFQPolicy, "saba": _SabaShapedPolicy}


def _run_scenario(seed, policy, **fabric_kwargs):
    reset_flow_ids()
    rng = random.Random(seed)
    topo = spine_leaf(
        n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4, capacity=10e9
    )
    fabric = FluidFabric(
        topo, completion_quantum=0.0, validate=True, **fabric_kwargs,
    )
    if policy is not None:
        fabric.set_policy(policy())
    servers = topo.servers
    rate_caps = policy is None or policy.rate_caps
    flows = []
    t = 0.0
    for _ in range(90):
        src, dst = rng.sample(servers, 2)
        size = rng.uniform(1e6, 5e8)
        pl = rng.randrange(8)
        rate_cap = rng.choice([None, 2e9, 5e8])
        flow = Flow(
            src=src, dst=dst, size=size, pl=pl,
            rate_cap=rate_cap if rate_caps else None,
            aux_rate=rng.choice([0.0, 1e6]),
        )
        fabric.sim.schedule_at(t, lambda fl=flow: fabric.start_flow(fl))
        flows.append(flow)
        t += rng.uniform(0.0, 0.01)
    # Fault redundant leaf->spine links only (rack-local reachability
    # survives), exercising reroutes through the index.
    fault_links = sorted(
        link for link in topo.links if link.startswith("leaf") and "spine" in link
    )[:4:2]
    for i, lid in enumerate(fault_links):
        fabric.sim.schedule_at(
            0.02 + i * 0.013, lambda link=lid: fabric.set_link_state(link, False)
        )
        fabric.sim.schedule_at(
            0.2 + i * 0.013, lambda link=lid: fabric.set_link_state(link, True)
        )
    fabric.run()
    return {f.flow_id: f.finish_time for f in flows}


def _pinned(name):
    with open(_PINNED) as handle:
        return {
            int(fid): float.fromhex(value)
            for fid, value in json.load(handle)[name].items()
        }


@pytest.mark.parametrize("policy_name", list(_POLICIES))
@pytest.mark.parametrize("seed", [0, 3])
def test_fabric_array_incidence_parity(seed, policy_name):
    """Finish times are pinned bit for bit."""
    finish = _run_scenario(seed, _POLICIES[policy_name])
    assert finish == _pinned(f"{policy_name}-{seed}")


def test_solver_backend_keyword_is_inert():
    """``solver_backend`` survives only for callers that still pass it:
    ``"auto"`` runs the one solver and reproduces the pinned finish
    times, and every other value, ``"vector"`` included, raises."""
    finish = _run_scenario(3, _POLICIES["saba"], solver_backend="auto")
    assert finish == _pinned("saba-3")
    topo = spine_leaf(n_spine=1, n_leaf=1, n_tor=1, servers_per_tor=2)
    for backend in ("vector", "kernels"):
        with pytest.raises(SimulationError, match="solver backend"):
            FluidFabric(topo, solver_backend=backend)
