"""Differential suite: :class:`ArrayIncidence` against index-free oracles.

The flow index is a performance substrate, not a semantics: every
observable -- per-link membership, component discovery, the batch CSR
the kernels read, and end-to-end fabric results -- must equal what a
from-scratch build over the active flows gives.  The oracle here keeps
no index at all: :func:`split_components` (union-find over the active
flows in start order, the partition the full-solve oracle
``network_rates`` uses) flattened by the test-local
:func:`build_batch_csr`.  These tests pin that contract three ways:

* randomized add/remove/reroute churn (hypothesis) with periodic
  :meth:`FlowTable.compact` + :meth:`ArrayIncidence.remap`, comparing
  counts, memberships, and the full CSR of both full and seeded
  discovery, plus ``select()`` sub-batches;
* deterministic edge cases for slot recycling, re-adds, adjacency
  segment relocation and buffer compaction;
* end-to-end fabric runs (fair, WFQ and Saba-shaped policies, link
  faults via ``set_link_state``) whose object-solver finish times are
  pinned bit for bit, with the vector and auto solvers within 1e-9.
"""

import json
import os
import random
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import make_port_scheduler
from repro.simnet import fabric as fabric_module
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import WFQScheduler
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.flowtable import FlowTable
from repro.simnet.incidence import (
    ArrayIncidence,
    BatchCSR,
    split_components,
)
from repro.simnet.topology import spine_leaf

_CSR_FIELDS = (
    "comp_of_flow", "comp_of_link", "comp_flow_starts", "comp_link_starts",
    "pair_flow", "pair_link", "link_starts", "link_counts",
    "flow_perm", "flow_starts", "flow_counts",
)


def build_batch_csr(
    components: Sequence[Tuple[Sequence[Flow], Mapping[str, Sequence[Flow]]]],
) -> Tuple[BatchCSR, List[Flow], List[str]]:
    """Flatten ``(flows, on_link)`` components into a :class:`BatchCSR`.

    The straightforward per-pair Python build: ``on_link`` iteration
    order defines the link axis and each link's member order its pair
    segment, exactly what the object solver iterates.  Returns the CSR
    with its flow and link axes as objects / ids.
    """
    flows: List[Flow] = []
    link_ids: List[str] = []
    comp_of_flow: List[int] = []
    comp_of_link: List[int] = []
    comp_flow_starts: List[int] = []
    comp_link_starts: List[int] = []
    pair_flow: List[int] = []
    pair_link: List[int] = []
    link_starts: List[int] = []
    for ci, (comp_flows, on_link) in enumerate(components):
        comp_flow_starts.append(len(flows))
        comp_link_starts.append(len(link_ids))
        idx_of = {f.flow_id: len(flows) + i for i, f in enumerate(comp_flows)}
        flows.extend(comp_flows)
        comp_of_flow.extend([ci] * len(comp_flows))
        for lid, members in on_link.items():
            li = len(link_ids)
            link_ids.append(lid)
            comp_of_link.append(ci)
            link_starts.append(len(pair_flow))
            for f in members:
                pair_flow.append(idx_of[f.flow_id])
                pair_link.append(li)
    pf = np.asarray(pair_flow, dtype=np.int64)
    starts = np.asarray(link_starts, dtype=np.int64)
    flow_counts = np.bincount(pf, minlength=len(flows)).astype(np.int64)
    csr = BatchCSR(
        comp_of_flow=np.asarray(comp_of_flow, dtype=np.int64),
        comp_of_link=np.asarray(comp_of_link, dtype=np.int64),
        comp_flow_starts=np.asarray(comp_flow_starts, dtype=np.int64),
        comp_link_starts=np.asarray(comp_link_starts, dtype=np.int64),
        pair_flow=pf,
        pair_link=np.asarray(pair_link, dtype=np.int64),
        link_starts=starts,
        link_counts=np.diff(np.append(starts, len(pf))).astype(np.int64),
        # Stable sort by flow groups each flow's pairs contiguously
        # while keeping link-major order within a flow's segment.
        flow_perm=np.argsort(pf, kind="stable"),
        flow_starts=np.concatenate(
            ([0], np.cumsum(flow_counts)[:-1])
        ).astype(np.int64),
        flow_counts=flow_counts,
    )
    return csr, flows, link_ids


def _on_link(comp_flows):
    on_link: Dict[str, List[Flow]] = {}
    for flow in comp_flows:
        for lid in flow.path:
            on_link.setdefault(lid, []).append(flow)
    return on_link


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


def _assert_csr_equal(batch, comps):
    ref, flows, link_ids = build_batch_csr([(c, _on_link(c)) for c in comps])
    for name in _CSR_FIELDS:
        assert np.array_equal(getattr(ref, name), getattr(batch.csr, name)), name
    flow_of = batch.incidence.table.flow_of
    assert [f.flow_id for f in flows] == [
        flow_of[s].flow_id for s in batch.slots
    ]
    assert link_ids == batch.link_ids()


def _assert_matches(arr, active, seeds=None):
    """The index agrees with the active flows: membership, counts, and
    discovery + flattening against the oracle."""
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
        if comps:
            _assert_csr_equal(arr.batch(comps), ref)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_churn_differential(data):
    """Random add/remove/reroute churn with compaction: membership,
    full and seeded discovery, and their CSR track the oracle."""
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


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_select_sub_batches(data):
    """``select()`` sub-batches of a churned population equal the
    oracle CSR of the picked components alone."""
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**31)))
    table = FlowTable()
    arr = ArrayIncidence(table)
    links = [f"L{i}" for i in range(rng.randint(3, 24))]
    active: List[Flow] = []
    for i in range(rng.randint(1, 120)):
        flow = Flow(src="a", dst="b", size=1.0)
        flow.path = tuple(rng.sample(links, rng.randint(1, min(3, len(links)))))
        table.bind(flow, i, 0.0)
        arr.add(flow)
        active.append(flow)
        if rng.random() < 0.3:
            victim = active.pop(rng.randrange(len(active)))
            arr.remove(victim)
            table.unbind(victim)
    if not active:
        return
    arr.remap(table.compact())
    comps = arr.discover()
    batch = arr.batch(comps)
    pick = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=len(comps) - 1),
                 min_size=1, max_size=len(comps), unique=True)
    ))
    sub = batch.select(np.asarray(pick, dtype=np.int64))
    _assert_csr_equal(sub, [comps[ci] for ci in pick])
    # Parent-axis indices gather the picked components' entries.
    assert np.array_equal(batch.slots[sub.parent_flow_idx], sub.slots)
    assert np.array_equal(batch.link_axis[sub.parent_link_idx], sub.link_axis)


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
        pair, and discovery and the CSR match the oracle."""
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


def _run_scenario(solver, seed, policy):
    reset_flow_ids()
    rng = random.Random(seed)
    topo = spine_leaf(
        n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4, capacity=10e9
    )
    fabric = FluidFabric(
        topo, completion_quantum=0.0, solver_backend=solver, validate=True,
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
        l for l in topo.links if l.startswith("leaf") and "spine" in l
    )[:4:2]
    for i, lid in enumerate(fault_links):
        fabric.sim.schedule_at(
            0.02 + i * 0.013, lambda l=lid: fabric.set_link_state(l, False)
        )
        fabric.sim.schedule_at(
            0.2 + i * 0.013, lambda l=lid: fabric.set_link_state(l, True)
        )
    fabric.run()
    return {f.flow_id: f.finish_time for f in flows}, fabric


@pytest.mark.parametrize("policy_name", list(_POLICIES))
@pytest.mark.parametrize("seed", [0, 3])
def test_fabric_array_incidence_parity(seed, policy_name, monkeypatch):
    """Object-solver finish times are pinned bit for bit; the vector
    and auto solvers agree within 1e-9 relative."""
    name = f"{policy_name}-{seed}"
    policy = _POLICIES[policy_name]
    with open(_PINNED) as handle:
        pinned = {
            int(fid): float.fromhex(value)
            for fid, value in json.load(handle)[name].items()
        }
    base, _ = _run_scenario("object", seed, policy)
    assert base == pinned

    # Small thresholds so the 90-flow run exercises both solver arms
    # under "auto" (kernel-bound and object-bound components).
    monkeypatch.setattr(fabric_module, "VECTOR_MIN_FLOWS", 4)
    monkeypatch.setattr(fabric_module, "VECTOR_MIN_BATCH", 16)
    for solver in ("vector", "auto"):
        got, fabric = _run_scenario(solver, seed, policy)
        assert fabric.vector_components > 0
        if solver == "auto":
            assert fabric.object_components > 0
        assert got.keys() == base.keys()
        for fid, finish in base.items():
            rel = abs(got[fid] - finish) / max(abs(finish), 1e-12)
            assert rel <= 1e-9, (solver, fid, rel)
