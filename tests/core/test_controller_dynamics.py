"""Regression tests for controller dynamics.

These pin the failure modes found while bringing up the system:

* PL instability: a batch re-clustering on every registration used to
  renumber PLs while in-flight flows still carried the old number,
  silently dumping their traffic into the port's default queue (whose
  weight belonged to someone else).
* Work conservation: the WFQ fixed point used to admit mutually
  demand-capped under-allocations, idling up to a third of saturated
  links.
"""

import pytest

from repro.core.controller import SabaController
from repro.core.library import SabaLibrary
from repro.core.profiler import OfflineProfiler
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch
from repro.workloads.catalog import CATALOG


@pytest.fixture()
def table():
    return OfflineProfiler(method="analytic").build_table(CATALOG.values())


def test_pl_stays_valid_as_other_apps_come_and_go(table):
    """An app's PL must keep mapping to a weighted queue at its ports
    across arbitrary later (de)registrations."""
    ctrl = SabaController(table)
    fabric = FluidFabric(single_switch(8, capacity=100.0))
    fabric.set_policy(ctrl)
    lib = SabaLibrary(fabric, ctrl)

    pl = lib.saba_app_register("pioneer", "LR")
    flow = lib.saba_conn_create("pioneer", "server0", "server1", 1e6)

    # Churn: register and deregister a parade of other applications.
    for i, name in enumerate(["RF", "GBT", "SVM", "NW", "NI", "PR",
                              "SQL", "WC", "Sort"]):
        lib.saba_app_register(f"job{i}", name)
        lib.saba_conn_create(f"job{i}", "server0", f"server{2 + i % 6}", 1e6)
    assert ctrl.pl_of("pioneer") == pl  # never renumbered

    # Every port on the pioneer's path must serve its PL from a queue
    # with non-zero weight.
    for link_id in flow.path:
        qtable = fabric.topology.port_table(link_id)
        queue = qtable.queue_of(pl)
        assert qtable.weight_of(queue) > 0, (
            f"PL {pl} landed in an unweighted queue at {link_id}"
        )


def test_pl_reused_after_full_departure(table):
    ctrl = SabaController(table, num_pls=2)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    ctrl.app_register("a", "LR")
    ctrl.app_register("b", "Sort")
    # Both PLs taken; a third distinct workload joins the nearest.
    pl_c = ctrl.app_register("c", "PR")
    assert pl_c in (ctrl.pl_of("a"), ctrl.pl_of("b"))
    ctrl.app_deregister("a")
    ctrl.app_deregister("c")
    # The freed PL is available again.
    pl_d = ctrl.app_register("d", "LR")
    assert pl_d != ctrl.pl_of("b")


def test_group_centroid_tracks_membership(table):
    """When distinct workloads share a PL, its centroid model is the
    member mean and updates on departure."""
    ctrl = SabaController(table, num_pls=1)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    ctrl.app_register("a", "LR")
    solo = ctrl._pl_models[0].predict(0.25)
    ctrl.app_register("b", "Sort")
    mixed = ctrl._pl_models[0].predict(0.25)
    assert mixed < solo  # Sort pulls the centroid down
    ctrl.app_deregister("b")
    assert ctrl._pl_models[0].predict(0.25) == pytest.approx(solo, rel=1e-9)


def test_saturated_links_stay_work_conserving(table):
    """Under Saba, a saturated port must not idle capacity while flows
    on it remain hungry (the old fixed point did)."""
    ctrl = SabaController(table)  # ideal transport: losses would hide it
    topo = single_switch(8, capacity=100.0)
    fabric = FluidFabric(topo)
    fabric.set_policy(ctrl)
    lib = SabaLibrary(fabric, ctrl)
    flows = []
    for i, name in enumerate(["LR", "RF", "PR", "Sort"]):
        lib.saba_app_register(f"j{i}", name)
        for dst in range(1, 4):
            flows.append(
                lib.saba_conn_create(f"j{i}", "server0",
                                     f"server{dst + i % 4}", 1e9)
            )
    fabric.recompute_rates()
    # server0's NIC carries every flow: it must be fully used.
    total = sum(f.rate for f in flows)
    assert total == pytest.approx(100.0, rel=1e-3)


def test_weights_follow_stage_phases(table):
    """Ports are re-enforced as connections come and go: when the
    sensitive app leaves, the insensitive one gets the port back."""
    ctrl = SabaController(table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    lib = SabaLibrary(fabric, ctrl)
    lib.saba_app_register("lr", "LR")
    lib.saba_app_register("sort", "Sort")
    sort_flow = lib.saba_conn_create("sort", "server0", "server1", 1e9)
    lr_flow = lib.saba_conn_create("lr", "server0", "server2", 1e6)
    fabric.recompute_rates()
    squeezed = sort_flow.rate
    assert squeezed < 50.0  # LR's weight dominates while it sends
    fabric.run()
    assert lr_flow.done
    # Sort recovers the whole NIC once LR's connection closes: its
    # completion is far faster than the squeezed rate could deliver.
    assert sort_flow.finish_time < 1e9 / squeezed * 0.5
