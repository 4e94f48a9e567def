"""Tests for the centralized Saba controller."""

import pytest

from repro.errors import RegistrationError
from repro.core.controller import SabaController
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch


@pytest.fixture()
def controller(small_table):
    ctrl = SabaController(small_table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    return ctrl


def _nic(i):
    return f"server{i}->switch0"


def _egress(i):
    return f"switch0->server{i}"


def test_register_returns_stable_pl(controller):
    pl = controller.app_register("job0", "LR")
    assert controller.pl_of("job0") == pl
    # Registering more apps must not renumber job0's PL.
    controller.app_register("job1", "PR")
    controller.app_register("job2", "Sort")
    assert controller.pl_of("job0") == pl


def test_same_workload_shares_pl(controller):
    pl_a = controller.app_register("a", "LR")
    pl_b = controller.app_register("b", "LR")
    assert pl_a == pl_b


def test_different_workloads_get_distinct_pls(controller):
    pl_a = controller.app_register("a", "LR")
    pl_b = controller.app_register("b", "Sort")
    assert pl_a != pl_b


def test_duplicate_registration_rejected(controller):
    controller.app_register("a", "LR")
    with pytest.raises(RegistrationError):
        controller.app_register("a", "LR")


def test_unprofiled_workload_rejected(controller):
    with pytest.raises(RegistrationError):
        controller.app_register("a", "Mystery")


def test_deregister_frees_state(controller):
    controller.app_register("a", "LR")
    controller.app_deregister("a")
    with pytest.raises(RegistrationError):
        controller.pl_of("a")
    with pytest.raises(RegistrationError):
        controller.app_deregister("a")


def test_conn_create_requires_registration(controller):
    with pytest.raises(RegistrationError):
        controller.conn_create("ghost", [_nic(0)])


def test_conn_create_programs_ports(controller):
    controller.app_register("a", "LR")
    controller.app_register("b", "Sort")
    path = [_nic(0), _egress(1)]
    table = controller._fabric.topology.port_table(_nic(0))
    gen = table.generation
    controller.conn_create("a", path)
    controller.conn_create("b", path)
    assert table.generation > gen
    # LR's queue should be weighted above Sort's.
    pl_a = controller.pl_of("a")
    pl_b = controller.pl_of("b")
    w_a = table.weight_of(table.queue_of(pl_a))
    w_b = table.weight_of(table.queue_of(pl_b))
    assert w_a > w_b


def test_conn_destroy_resets_idle_port(controller):
    controller.app_register("a", "LR")
    path = [_nic(0), _egress(1)]
    controller.conn_create("a", path)
    table = controller._fabric.topology.port_table(_nic(0))
    assert table.weights != [1.0] * table.num_queues
    controller.conn_destroy("a", path)
    assert table.weights == [1.0] * table.num_queues  # reset state


def test_weights_sum_to_c_saba(controller):
    controller.app_register("a", "LR")
    controller.app_register("b", "PR")
    controller.app_register("c", "Sort")
    path = [_nic(0)]
    for job in ("a", "b", "c"):
        controller.conn_create(job, path)
    table = controller._fabric.topology.port_table(_nic(0))
    assert sum(table.weights) == pytest.approx(1.0, abs=1e-6)


def test_weight_cache_hits(controller):
    controller.app_register("a", "LR")
    controller.app_register("b", "PR")
    for i in range(3):
        controller.conn_create("a", [_nic(i)])
        controller.conn_create("b", [_nic(i)])
    # Two distinct multisets ever solved: {LR} (before b's connection
    # arrives at the port) and {LR, PR}; the other five port
    # allocations hit the cache.
    assert controller.pipeline.stats.optimizer_calls == 2
    assert controller.pipeline.stats.port_allocations >= 6


def test_flows_carry_pl_through_library_path(small_table):
    ctrl = SabaController(small_table)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    from repro.core.library import SabaLibrary

    lib = SabaLibrary(fabric, ctrl)
    lib.saba_app_register("a", "LR")
    flow = lib.saba_conn_create("a", "server0", "server1", 100.0)
    assert flow.pl == ctrl.pl_of("a")
    fabric.run()
    assert flow.done
    # Completion auto-reports conn_destroy.
    assert ctrl.stats.conn_destroys == 1


def test_reserved_queue_isolates_untagged_traffic(small_table):
    ctrl = SabaController(small_table, reserved_queue=7, c_saba=0.8)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    ctrl.app_register("a", "LR")
    ctrl.conn_create("a", [_nic(0)])
    table = fabric.topology.port_table(_nic(0))
    assert table.queue_of(None) == 7
    assert table.weight_of(7) == pytest.approx(0.2)
    assert table.queue_of(ctrl.pl_of("a")) != 7


def test_recompute_all_ports_returns_time(controller):
    controller.app_register("a", "LR")
    controller.app_register("b", "PR")
    controller.conn_create("a", [_nic(0), _egress(1)])
    controller.conn_create("b", [_nic(0)])
    pipeline = controller.pipeline
    stats = pipeline.stats
    cache = dict(pipeline._weight_cache)
    calls, hits = stats.optimizer_calls, stats.solver_cache_hits
    elapsed = controller.recompute_all_ports()
    assert elapsed >= 0.0
    # The timing probe solves Eq. 2 at every port, past the weight
    # cache, and leaves the cache as it found it.
    assert stats.optimizer_calls == calls + 2
    assert stats.solver_cache_hits == hits
    assert pipeline._weight_cache.keys() == cache.keys()
    assert all(pipeline._weight_cache[k] is v for k, v in cache.items())
    pipeline._weight_cache.clear()
    controller.recompute_all_ports()
    assert stats.optimizer_calls == calls + 4
    assert pipeline._weight_cache == {}


def test_many_apps_of_same_workload_fold_into_pl(small_table):
    ctrl = SabaController(small_table, num_pls=2)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    pls = set()
    for i in range(6):
        workload = "LR" if i % 2 == 0 else "Sort"
        pls.add(ctrl.app_register(f"job{i}", workload))
    assert len(pls) == 2  # one PL per distinct sensitivity


def test_more_workloads_than_pls_joins_nearest(catalog_table):
    ctrl = SabaController(catalog_table, num_pls=4)
    fabric = FluidFabric(single_switch(4, capacity=100.0))
    fabric.set_policy(ctrl)
    for i, name in enumerate(
        ["LR", "RF", "GBT", "SVM", "NW", "NI", "PR", "SQL", "WC", "Sort"]
    ):
        pl = ctrl.app_register(f"j{i}", name)
        assert 0 <= pl < 4
