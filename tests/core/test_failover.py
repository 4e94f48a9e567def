"""Control-plane failure injection (the §5.4 availability discussion).

"Naturally, a centralized controller represents a single point of
failure."  Saba's data plane is switch queue state, so a dead
controller must not take running applications down: with
``fail_open=True`` the connection manager keeps creating connections
under the last-programmed weights.
"""

import pytest

from repro.core.controller import SabaController
from repro.core.library import CONTROLLER_ENDPOINT, SabaLibrary
from repro.core.rpc import RpcBus, RpcError
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch


def _setup(small_table, fail_open):
    ctrl = SabaController(small_table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    bus = RpcBus()
    lib = SabaLibrary(fabric, ctrl, bus=bus, fail_open=fail_open)
    return ctrl, fabric, bus, lib


def test_controller_death_fails_closed_by_default(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=False)
    lib.saba_app_register("a", "LR")
    bus.unregister(CONTROLLER_ENDPOINT)  # controller dies
    with pytest.raises(RpcError):
        lib.saba_conn_create("a", "server0", "server1", 100.0)


def test_fail_open_keeps_data_plane_running(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=True)
    lib.saba_app_register("a", "LR")
    flow_before = lib.saba_conn_create("a", "server0", "server1", 100.0)

    bus.unregister(CONTROLLER_ENDPOINT)  # controller dies mid-run

    # New connections still go out, carrying the PL acquired earlier.
    flow_after = lib.saba_conn_create("a", "server0", "server2", 100.0)
    assert flow_after.pl == flow_before.pl
    fabric.run()
    assert flow_before.done and flow_after.done
    assert lib.dropped_control_messages > 0


def test_fail_open_registration_degrades_to_unmanaged(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=True)
    bus.unregister(CONTROLLER_ENDPOINT)
    pl = lib.saba_app_register("late", "LR")
    assert pl is None
    flow = lib.saba_conn_create("late", "server0", "server1", 100.0)
    assert flow.pl is None  # default queue: the co-existence path
    fabric.run()
    assert flow.done
    lib.saba_app_deregister("late")
    # call_counts tracks *delivered* invocations only, so it proves
    # the controller never heard about the app at any point.
    assert bus.call_counts[(CONTROLLER_ENDPOINT, "app_register")] == 0
    assert bus.call_counts[(CONTROLLER_ENDPOINT, "conn_create")] == 0
    assert bus.call_counts[(CONTROLLER_ENDPOINT, "app_deregister")] == 0


def test_fail_open_conn_create_not_delivered_after_death(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=True)
    lib.saba_app_register("a", "LR")
    lib.saba_conn_create("a", "server0", "server1", 100.0)
    delivered = bus.call_counts[(CONTROLLER_ENDPOINT, "conn_create")]
    assert delivered == 1
    bus.unregister(CONTROLLER_ENDPOINT)  # controller dies
    flow = lib.saba_conn_create("a", "server0", "server2", 100.0)
    # The flow runs under last-programmed weights; the announcement
    # was dropped, not delivered.
    assert bus.call_counts[(CONTROLLER_ENDPOINT, "conn_create")] == delivered
    assert lib.dropped_control_messages > 0
    fabric.run()
    assert flow.done


def test_weights_freeze_at_last_programmed_state(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=True)
    lib.saba_app_register("lr", "LR")
    lib.saba_app_register("sort", "Sort")
    lib.saba_conn_create("lr", "server0", "server1", 1e9)
    lib.saba_conn_create("sort", "server0", "server2", 1e9)
    table = fabric.topology.port_table("server0->switch0")
    frozen = list(table.weights)
    generation = table.generation
    bus.unregister(CONTROLLER_ENDPOINT)
    # More connections arrive; the tables cannot change any more.
    lib.saba_conn_create("lr", "server0", "server3", 1e6)
    assert table.weights == frozen
    assert table.generation == generation


def test_describe_port(small_table):
    ctrl, fabric, bus, lib = _setup(small_table, fail_open=False)
    lib.saba_app_register("a", "LR")
    lib.saba_conn_create("a", "server0", "server1", 1e6)
    view = ctrl.describe_port("server0->switch0")
    assert view["applications"]["a"]["workload"] == "LR"
    assert view["applications"]["a"]["connections"] == 1
    assert sum(view["weights"]) == pytest.approx(1.0, abs=1e-6)
    assert view["generation"] > 0
