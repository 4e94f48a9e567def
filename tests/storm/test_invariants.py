"""Invariant checkers: fire on staged violations, silent on good runs."""

import pytest

from repro.core.controller import SabaController
from repro.experiments.common import ScenarioSpec, build_scenario
from repro.service import AllocationService
from repro.simnet.fabric import FluidFabric
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.topology import single_switch
from repro.storm.invariants import (
    InvariantViolation,
    check_completions_agree,
    check_fabric,
    check_service,
    completions_of,
)


def _loaded_fabric(n_flows: int = 4) -> FluidFabric:
    """A baseline fabric mid-run with ``n_flows`` contending flows."""
    reset_flow_ids()
    spec = ScenarioSpec(
        policy="baseline", topology="single_switch",
        topology_kwargs={"n_servers": 4}, completion_quantum=0.0,
    )
    fabric = build_scenario(spec).fabric
    for i in range(n_flows):
        fabric.start_flow(Flow(
            src=f"server{i % 4}", dst=f"server{(i + 1) % 4}", size=1e12,
        ))
    fabric.run(until=0.01)
    return fabric


def _raises(fabric, name, **kwargs):
    with pytest.raises(InvariantViolation) as exc:
        check_fabric(fabric, **kwargs)
    assert exc.value.name == name


def test_healthy_fabric_passes():
    check_fabric(_loaded_fabric())


def test_negative_rate_detected():
    fabric = _loaded_fabric()
    fabric.active_flows[0].rate = -1.0
    _raises(fabric, "negative_rate")


def test_rate_cap_excess_detected():
    fabric = _loaded_fabric()
    flow = fabric.active_flows[0]
    flow.rate_cap = flow.rate / 2.0
    _raises(fabric, "rate_cap_excess")


def test_accumulator_drift_detected():
    fabric = _loaded_fabric()
    fabric.active_flows[0].rate *= 1.01
    _raises(fabric, "link_accumulator_drift")


def test_link_index_drift_detected():
    fabric = _loaded_fabric()
    flow = fabric.active_flows[0]
    # Drop one flow from the fabric's flow index behind its back: the
    # index no longer lists it on the links its path crosses.
    fabric._incidence.remove(flow)
    _raises(fabric, "link_index_drift")


def test_link_index_drift_detected_on_stale_path():
    fabric = _loaded_fabric()
    first, second = fabric.active_flows[:2]
    # A path rewritten without re-indexing (a reroute that skipped the
    # index) leaves the index listing the flow on its old links.
    first.path = second.path
    _raises(fabric, "link_index_drift")


def test_over_capacity_detected():
    fabric = _loaded_fabric()
    flow = fabric.active_flows[0]
    # Inflate the flow's rate and keep the accumulators consistent, so
    # only the capacity bound trips.
    bump = fabric.link_usable_capacity(flow.path[0])
    flow.rate += bump
    for lid in flow.path:
        fabric._link_used[lid] += bump
    _raises(fabric, "link_over_capacity")


def test_starved_flow_detected():
    fabric = _loaded_fabric()
    flow = fabric.active_flows[0]
    for lid in flow.path:
        fabric._link_used[lid] -= flow.rate
    flow.rate = 0.0
    _raises(fabric, "starved_flow")
    # The same state passes with the starvation probe disabled (it is
    # reported as a conservation failure instead: bandwidth was left
    # on the table).
    _raises(fabric, "work_conservation", no_starvation=False)
    check_fabric(fabric, no_starvation=False, conservation=False)


def test_conservation_skips_component_unsafe_policies():
    fabric = _loaded_fabric()
    flow = fabric.active_flows[0]
    for lid in flow.path:
        fabric._link_used[lid] -= flow.rate
    flow.rate = 0.0
    # Remaining-dependent schedulers drift between solves; the
    # usable-capacity-relative probes must stand down for them.
    fabric._component_safe = False
    check_fabric(fabric, no_starvation=False)


def test_completion_agreement():
    done = {1: 0.5, 2: 0.75}
    assert check_completions_agree(done, dict(done)) == 0.0
    with pytest.raises(InvariantViolation) as exc:
        check_completions_agree(done, {1: 0.5})
    assert exc.value.name == "completion_set_mismatch"
    with pytest.raises(InvariantViolation) as exc:
        check_completions_agree(done, {1: 0.5, 2: 0.7500001})
    assert exc.value.name == "solver_disagreement"


def test_completions_of_reports_finished_flows():
    reset_flow_ids()
    spec = ScenarioSpec(
        policy="baseline", topology="single_switch",
        topology_kwargs={"n_servers": 4}, completion_quantum=0.0,
    )
    fabric = build_scenario(spec).fabric
    fabric.start_flow(Flow(src="server0", dst="server1", size=1e6))
    fabric.run()
    done = completions_of(fabric)
    assert set(done) == {0}
    assert done[0] > 0.0


# -- service accounting ------------------------------------------------------


def _service(small_table) -> AllocationService:
    ctrl = SabaController(small_table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    return AllocationService(fabric, ctrl)


def test_service_accounting_passes(small_table):
    service = _service(small_table)
    service.register_app("acme/a", "LR")
    service.conn_create("acme/a", "server0", "server1", 50.0)
    check_service(service, offered=2)


def test_request_conservation_detected(small_table):
    service = _service(small_table)
    service.register_app("acme/a", "LR")
    with pytest.raises(InvariantViolation) as exc:
        check_service(service, offered=2)
    assert exc.value.name == "request_conservation"


def test_open_index_drift_detected(small_table):
    service = _service(small_table)
    service.register_app("acme/a", "LR")
    service.conn_create("acme/a", "server0", "server1", 50.0)
    service._open_conns_of_app["acme/a"] += 1
    with pytest.raises(InvariantViolation) as exc:
        check_service(service, offered=2)
    assert exc.value.name == "open_conn_index_drift"


def test_leaked_connections_detected(small_table):
    service = _service(small_table)
    service.register_app("acme/a", "LR")
    service.conn_create("acme/a", "server0", "server1", 50.0)
    with pytest.raises(InvariantViolation) as exc:
        check_service(service, offered=2, expect_idle=True)
    assert exc.value.name == "leaked_connections"
