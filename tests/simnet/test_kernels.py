"""Differential tests pinning the vectorized solver kernels
(:mod:`repro.simnet.kernels`) against the object solver
(:func:`repro.simnet.fairness.solve_component`).

The kernels are driven the way the fabric drives them: the flows are
indexed in an :class:`~repro.simnet.incidence.ArrayIncidence`, their
components discovered and flattened into a batch, and the batch handed
to :func:`~repro.simnet.kernels.solve_components` with per-link
capacities and schedulers.

The numeric contract (DESIGN.md 5i): per-flow rates agree within
1e-12 relative, modulo reassociation crumbs below a few ulp of the
component's capacity scale (the kernels compute residual capacity
with a cumulative sum where the object solver subtracts
sequentially).  Batched and one-component-at-a-time kernel solves
must be *bit-identical* -- padding must never leak into results.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.fairness import (
    FairScheduler,
    LinkScheduler,
    PriorityScheduler,
    WFQScheduler,
    max_min_rates,
    solve_component,
)
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.flowtable import FlowTable
from repro.simnet.incidence import ArrayIncidence, split_components
from repro.simnet.kernels import solve_components

KINDS = [("fair",), ("wfq",), ("prio",), ("fair", "wfq", "prio")]
CAP_SCALES = [100.0, 5e9, 1e10]


def _make_case(rng, n_flows, n_links, kinds, cap_scale, n_queues=3):
    """One random multi-link scenario with mixed disciplines."""
    reset_flow_ids()
    links = [f"L{i}" for i in range(n_links)]
    flows = []
    for _ in range(n_flows):
        path = rng.sample(links, rng.randint(1, min(4, n_links)))
        flow = Flow(src="s", dst="d", size=rng.uniform(1, 100), app="a",
                    pl=rng.randrange(8), path=tuple(path))
        if rng.random() < 0.4:
            flow.rate_cap = rng.uniform(0.1, cap_scale)
        flows.append(flow)
    used = sorted({lid for f in flows for lid in f.path})
    caps = {lid: rng.uniform(1.0, cap_scale) for lid in used}
    schedulers = {}
    for lid in used:
        kind = rng.choice(kinds)
        if kind == "fair":
            schedulers[lid] = FairScheduler()
        elif kind == "wfq":
            weights = {
                q: rng.choice([0.0, 1.0, 2.0, 5.0]) for q in range(n_queues)
            }
            schedulers[lid] = WFQScheduler(
                queue_of=lambda f, nq=n_queues: f.pl % nq,
                weight_of=lambda q, w=weights: w.get(q, 1.0),
            )
        else:
            schedulers[lid] = PriorityScheduler(
                priority_of=lambda f: f.pl % 3
            )
    return flows, caps, schedulers


def _component_views(flows, caps, schedulers):
    """(members, on_link, caps, schedulers) per congestion component."""
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


def _solve_object(views):
    rates = {}
    for comp, on_link, ccaps, cscheds in views:
        rates.update(solve_component(comp, on_link, cscheds, ccaps))
    return rates


def _kernel_batch(flows, caps, schedulers):
    """Index ``flows`` (in list order) and flatten every component
    into one batch, as the fabric's recompute does; returns the batch
    and its per-link capacity and scheduler lists."""
    table = FlowTable()
    index = ArrayIncidence(table)
    for seq, flow in enumerate(flows):
        table.bind(flow, seq, 0.0)
        index.add(flow)
    batch = index.batch(index.discover())
    lids = batch.link_ids()
    return (
        batch,
        np.array([caps[lid] for lid in lids]),
        [schedulers[lid] for lid in lids],
    )


def _rates_by_id(batch, rates):
    flow_of = batch.incidence.table.flow_of
    return {
        flow_of[slot].flow_id: rate
        for slot, rate in zip(batch.slots.tolist(), rates.tolist())
    }


def _solve_kernels(flows, caps, schedulers):
    """``flow_id -> rate`` from one batched kernel solve; every
    component must have a kernel form."""
    batch, link_caps, link_scheds = _kernel_batch(flows, caps, schedulers)
    rates, solved, _ = solve_components(batch, link_caps, link_scheds)
    assert solved.all(), "kernel spec extraction failed"
    return _rates_by_id(batch, rates)


def _assert_close(obj, vec, max_cap):
    """The kernel-vs-object agreement contract."""
    assert set(obj) == set(vec)
    # Sub-ulp "crumbs": the last flow in a class can receive
    # cap - sum(served) computed by cumsum rather than sequential
    # subtraction, differing in the final bits at O(1e9) capacities.
    ulp = 8.0 * np.spacing(max_cap)
    for fid in obj:
        a, b = obj[fid], vec[fid]
        if not (math.isfinite(a) and math.isfinite(b)):
            # Never compare non-finite values through a relative
            # difference: |a - inf| / inf is NaN and NaN > tol is
            # False, which silently passes infinite-rate bugs.
            assert a == b, f"non-finite mismatch for flow {fid}: {a} vs {b}"
            continue
        tol = max(1e-12 * max(abs(a), abs(b)), ulp)
        assert abs(a - b) <= tol, (
            f"flow {fid}: object {a!r} vs kernel {b!r} "
            f"(diff {abs(a - b):.3e}, tol {tol:.3e})"
        )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_kernels_match_object_solver(seed):
    """Random mixed-discipline networks at small and datacenter
    capacity scales: kernels agree with the object solver, and the
    batched solve is bit-identical to solving each component alone."""
    rng = random.Random(seed)
    n_flows = rng.randint(1, 25)
    n_links = rng.randint(1, 12)
    kinds = rng.choice(KINDS)
    cap_scale = rng.choice(CAP_SCALES)
    flows, caps, schedulers = _make_case(
        rng, n_flows, n_links, kinds, cap_scale
    )
    obj = _solve_object(_component_views(flows, caps, schedulers))
    batch, link_caps, link_scheds = _kernel_batch(flows, caps, schedulers)
    rates, solved, _ = solve_components(batch, link_caps, link_scheds)
    assert solved.all()
    batched = _rates_by_id(batch, rates)
    _assert_close(obj, batched, max(caps.values()))
    sequential = {}
    for ci in range(batch.n_comps):
        sub = batch.select(np.array([ci]))
        sub_rates, sub_solved, _ = solve_components(
            sub,
            link_caps[sub.parent_link_idx],
            [link_scheds[li] for li in sub.parent_link_idx.tolist()],
        )
        assert sub_solved.all()
        sequential.update(_rates_by_id(sub, sub_rates))
    assert batched == sequential, (
        "batched padded solve differs from per-component solves"
    )


def test_all_fair_at_datacenter_scale_regression():
    """Regression: 36 uniform-fair flows over 16 links at 5 GB/s
    capacities.  ``level < m + _EPS`` with ``_EPS = 1e-9`` is sub-ulp
    at this scale (one ulp of 5e9 is ~1e-6): the bottleneck filter
    rounded back to ``level < m``, found no bottleneck, and capped
    every unlimited flow at infinity."""
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
    views = _component_views(flows, caps, schedulers)
    rates = _solve_kernels(flows, caps, schedulers)
    assert all(math.isfinite(r) for r in rates.values())
    _assert_close(_solve_object(views), rates, max(caps.values()))


def test_zero_weight_wfq_queue_gets_zero_rate():
    """Flows in a zero-weight WFQ queue starve identically under both
    solvers (weight 0 means no service, not division blowups)."""
    reset_flow_ids()
    flows = [
        Flow(src="s", dst="d", size=1.0, app="a", pl=pl, path=("L0",))
        for pl in (0, 0, 1)
    ]
    caps = {"L0": 10.0}
    schedulers = {
        "L0": WFQScheduler(
            queue_of=lambda f: f.pl,
            weight_of=lambda q: 0.0 if q == 0 else 1.0,
        )
    }
    obj = _solve_object(_component_views(flows, caps, schedulers))
    vec = _solve_kernels(flows, caps, schedulers)
    _assert_close(obj, vec, 10.0)
    assert obj[flows[0].flow_id] == 0.0
    assert vec[flows[2].flow_id] == pytest.approx(10.0)


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


def _single_link_views(scheduler, n_flows=4, cap=8.0):
    reset_flow_ids()
    flows = [
        Flow(src="s", dst="d", size=1.0, app="a", pl=i, path=("L0",))
        for i in range(n_flows)
    ]
    return _component_views(flows, {"L0": cap}, {"L0": scheduler})


def test_fair_subclass_stays_on_fast_path():
    views = _single_link_views(_TaggedFairScheduler())
    comp, on_link, ccaps, cscheds = views[0]
    assert solve_component(comp, on_link, cscheds, ccaps) == (
        max_min_rates(comp, ccaps)
    )
    # The declaration, not the concrete type, selects the path:
    # allocate is never consulted.
    views = _single_link_views(_CountingScheduler())
    comp, on_link, ccaps, cscheds = views[0]
    rates = solve_component(comp, on_link, cscheds, ccaps)
    assert rates == max_min_rates(comp, ccaps)


def test_duck_typed_scheduler_takes_general_path():
    views = _single_link_views(_DuckScheduler(), n_flows=4, cap=8.0)
    comp, on_link, ccaps, cscheds = views[0]
    rates = solve_component(comp, on_link, cscheds, ccaps)
    assert rates == pytest.approx(
        {f.flow_id: 2.0 for f in comp}, rel=1e-4
    )
    # And the kernels refuse it (no kernel_spec), leaving the
    # component to the object solver rather than guessing.
    batch, link_caps, link_scheds = _kernel_batch(comp, ccaps, cscheds)
    rates, solved, _ = solve_components(batch, link_caps, link_scheds)
    assert not solved.any()
    assert not rates.any()


def test_base_scheduler_declares_no_uniform_fairness():
    assert LinkScheduler.uniform_fair is False
    assert FairScheduler.uniform_fair is True
    assert _TaggedFairScheduler.uniform_fair is True
