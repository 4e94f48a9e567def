"""Tests for the distributed controller and the mapping database."""

import pytest

from repro.errors import RegistrationError
from repro.core.distributed import DistributedControllerGroup, MappingDatabase
from repro.core.library import SabaLibrary
from repro.core.table import SensitivityTable
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch, spine_leaf


@pytest.fixture()
def db(catalog_table):
    return MappingDatabase(catalog_table)


def test_database_assigns_pl_per_workload(db, catalog_table):
    for name in catalog_table.names():
        pl = db.pl_of(name)
        assert 0 <= pl < 16
        assert pl in db.pl_models


def test_database_identical_workloads_share_pl(catalog_table):
    db = MappingDatabase(catalog_table, num_pls=4)
    pls = {name: db.pl_of(name) for name in catalog_table.names()}
    assert len(set(pls.values())) <= 4


def test_database_unknown_workload(db):
    with pytest.raises(RegistrationError):
        db.pl_of("Mystery")


def test_database_rejects_empty_table():
    with pytest.raises(RegistrationError):
        MappingDatabase(SensitivityTable())


def _group(db, topo, n_shards=2):
    group = DistributedControllerGroup(db, n_shards=n_shards)
    fabric = FluidFabric(topo)
    fabric.set_policy(group)
    return group, fabric


def test_register_uses_database_mapping(db):
    group, _ = _group(db, single_switch(4, capacity=100.0))
    pl = group.app_register("a", "LR")
    assert pl == db.pl_of("LR")


def test_conn_walks_shards_and_counts_forwards(db):
    topo = spine_leaf(n_spine=2, n_leaf=3, n_tor=3, servers_per_tor=2)
    group, fabric = _group(db, topo, n_shards=3)
    group.app_register("a", "LR")
    path = fabric.router.path_for_flow("server0", "server5", flow_id=0)
    group.conn_create("a", path)
    # A multi-switch path crosses shard boundaries.
    assert group.stats.conn_creates == 1
    assert group.stats.forwards >= 1
    assert sum(group.stats.per_shard_messages.values()) == len(path)


def test_conn_create_programs_port_weights(db):
    topo = single_switch(4, capacity=100.0)
    group, fabric = _group(db, topo)
    group.app_register("a", "LR")
    group.app_register("b", "Sort")
    path = ["server0->switch0", "switch0->server1"]
    group.conn_create("a", path)
    group.conn_create("b", path)
    table = topo.port_table("server0->switch0")
    w_a = table.weight_of(table.queue_of(db.pl_of("LR")))
    w_b = table.weight_of(table.queue_of(db.pl_of("Sort")))
    assert w_a > w_b


def test_conn_destroy_resets_port(db):
    topo = single_switch(4, capacity=100.0)
    group, fabric = _group(db, topo)
    group.app_register("a", "LR")
    path = ["server0->switch0"]
    group.conn_create("a", path)
    group.conn_destroy("a", path)
    table = topo.port_table("server0->switch0")
    assert table.weights == [1.0] * table.num_queues


def test_unregistered_conn_rejected(db):
    group, _ = _group(db, single_switch(4, capacity=100.0))
    with pytest.raises(RegistrationError):
        group.conn_create("ghost", ["server0->switch0"])


def test_end_to_end_with_library(db):
    topo = single_switch(4, capacity=100.0)
    group = DistributedControllerGroup(db, n_shards=2)
    fabric = FluidFabric(topo)
    fabric.set_policy(group)
    lib = SabaLibrary(fabric, group)  # type: ignore[arg-type]
    lib.saba_app_register("a", "LR")
    flow = lib.saba_conn_create("a", "server0", "server1", 100.0)
    fabric.run()
    assert flow.done
    assert group.stats.conn_destroys == 1
    lib.saba_app_deregister("a")
