"""Tests for the shared allocation pipeline (``repro.core.pipeline``).

Covers the two perf layers (per-port programmed-signature caching,
opt-in event coalescing), the clustering edge cases the pipeline must
handle for any frontend, and the frontend-parity guarantees: both
control planes are thin wrappers over the same staged pipeline.
"""

import pytest

from repro.errors import RegistrationError
from repro.core.controller import SabaController
from repro.core.distributed import DistributedControllerGroup, MappingDatabase
from repro.core.sensitivity import SensitivityModel
from repro.obs import Observer
from repro.obs import events as ev
from repro.simnet.fabric import FluidFabric
from repro.simnet.topology import single_switch


def _nic(i):
    return f"server{i}->switch0"


def _egress(i):
    return f"switch0->server{i}"


def _attach(controller, n_servers=4, **topo_kwargs):
    fabric = FluidFabric(
        single_switch(n_servers, capacity=100.0, **topo_kwargs)
    )
    fabric.set_policy(controller)
    return fabric


# -- signature cache ----------------------------------------------------------


def test_signature_skips_unchanged_port(small_table):
    controller = SabaController(small_table)
    _attach(controller)
    controller.app_register("a", "LR")
    path = [_nic(0), _egress(1)]
    controller.conn_create("a", path)
    stats = controller.pipeline.stats
    programs = stats.programs
    # A second connection of the same app changes the count but not
    # the application multiset: every port on the path is skipped.
    controller.conn_create("a", path)
    assert stats.programs == programs
    assert stats.signature_skips == len(path)
    assert stats.invalidations_skipped >= 1


def test_signature_cache_disabled_reprograms(small_table):
    controller = SabaController(small_table, use_signature_cache=False)
    _attach(controller)
    controller.app_register("a", "LR")
    path = [_nic(0), _egress(1)]
    controller.conn_create("a", path)
    programs = controller.pipeline.stats.programs
    controller.conn_create("a", path)
    assert controller.pipeline.stats.programs == programs + len(path)
    assert controller.pipeline.stats.signature_skips == 0


def test_signature_skip_preserves_generation(small_table):
    controller = SabaController(small_table)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    path = [_nic(0)]
    controller.conn_create("a", path)
    qtable = fabric.topology.port_table(_nic(0))
    gen = qtable.generation
    controller.conn_create("a", path)
    assert qtable.generation == gen


def test_membership_change_invalidates_signature(small_table):
    controller = SabaController(small_table)
    _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("b", "Sort")
    path = [_nic(0)]
    controller.conn_create("a", path)
    programs = controller.pipeline.stats.programs
    # A different application joining the port is a multiset change:
    # the port must be reprogrammed.
    controller.conn_create("b", path)
    assert controller.pipeline.stats.programs == programs + 1


def test_hierarchy_epoch_invalidates_signature(small_table):
    controller = SabaController(small_table)
    _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("c", "PR")
    path = [_nic(0)]
    controller.conn_create("a", path)
    controller.conn_create("c", path)
    stats = controller.pipeline.stats
    controller.conn_create("a", path)
    assert stats.signature_skips == 1
    programs = stats.programs
    calls = stats.optimizer_calls
    # Registering a new workload rebuilds the PL hierarchy: the port
    # "a" and "c" sit on has the same app multiset, but the clustering
    # input changed, so the stale signature must not be trusted.
    controller.app_register("b", "Sort")
    controller.conn_create("a", path)
    assert stats.programs > programs
    # The models at the port did not change, so the reprogrammed port
    # reuses the Eq. 2 solution instead of solving again.
    assert stats.optimizer_calls == calls


class _RefittingProvider:
    """Offline models until :meth:`refit` swaps one workload's model
    for new coefficients under the same name, as an online refit
    does."""

    def __init__(self, table):
        self.table = table
        self.epoch = 0
        self.refits = {}

    def has_model(self, workload):
        return workload in self.table

    def model_of(self, workload):
        return self.refits.get(workload) or self.table.get(workload)

    def refit(self, workload, coefficients):
        old = self.table.get(workload)
        self.refits[workload] = SensitivityModel(
            name=old.name, coefficients=coefficients,
            fit_domain=old.fit_domain, basis=old.basis,
        )
        self.epoch += 1


def test_same_name_refit_misses_the_weight_cache(small_table):
    provider = _RefittingProvider(small_table)
    controller = SabaController(small_table, model_provider=provider)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("b", "Sort")
    path = [_nic(0)]
    controller.conn_create("a", path)
    controller.conn_create("b", path)
    qtable = fabric.topology.port_table(_nic(0))
    weights = qtable.snapshot()["weights"]
    stats = controller.pipeline.stats
    calls = stats.optimizer_calls
    # A refit finds LR barely network-sensitive; its model keeps its
    # name.
    provider.refit("LR", (0.95, 0.05))
    controller.pipeline.reallocate(path)
    assert stats.optimizer_calls == calls + 1
    assert qtable.snapshot()["weights"] != weights


def test_fig10_co_run_solves_each_instance_once():
    """The golden recipe's reduced Figure 10 Saba co-run: its
    (de)registrations rebuild the PL hierarchy many times, but every
    Eq. 2 instance is solved once and then served from the cache."""
    from repro.experiments.common import build_scenario, make_policy
    from repro.experiments.fig10_fig11 import (
        SIM_COLLAPSE_ALPHA, build_simulation, profile_synthetic,
        sim_scenario_spec,
    )

    tiny = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)
    _, make_jobs, specs = build_simulation(
        n_workloads=6, topology_kwargs=tiny, seed=11,
    )
    setup = make_policy(
        "saba", table=profile_synthetic(specs),
        collapse_alpha=SIM_COLLAPSE_ALPHA,
    )
    scenario = build_scenario(
        sim_scenario_spec("saba", topology_kwargs=tiny), setup=setup,
    )
    results = scenario.run(make_jobs())
    assert len(results) == 6
    pipeline = setup.pipeline
    assert pipeline.stats.optimizer_calls == len(pipeline._weight_cache)
    assert pipeline.stats.solver_cache_hits > 0


def test_external_reprogram_invalidates_signature(small_table):
    controller = SabaController(small_table)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    path = [_nic(0)]
    controller.conn_create("a", path)
    stats = controller.pipeline.stats
    programs = stats.programs
    # Out-of-band table write (e.g. operator reset): the generation in
    # the stored signature no longer matches, so the port reprograms.
    fabric.topology.port_table(_nic(0)).reset()
    controller.conn_create("a", path)
    assert stats.programs == programs + 1


def test_reset_skipped_for_already_reset_port(small_table):
    controller = SabaController(small_table)
    _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("b", "LR")
    path = [_nic(0)]
    controller.conn_create("a", path)
    controller.conn_create("b", path)
    controller.conn_destroy("a", path)
    stats = controller.pipeline.stats
    resets = stats.port_resets
    # Port empties once...
    controller.conn_destroy("b", path)
    assert stats.port_resets == resets + 1
    # ...and an unrelated pass over the same (still empty) port is a
    # signature hit, not a second reset.
    skips = stats.signature_skips
    controller.pipeline.reallocate(path)
    assert stats.port_resets == resets + 1
    assert stats.signature_skips == skips + 1


# -- clustering edge cases ----------------------------------------------------


def test_single_active_pl_gets_one_queue(small_table):
    controller = SabaController(small_table)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("b", "LR")  # same PL
    path = [_nic(0)]
    controller.conn_create("a", path)
    controller.conn_create("b", path)
    snapshot = fabric.topology.port_table(_nic(0)).snapshot()
    assert len(set(snapshot["mapping"].values())) == 1
    assert sum(snapshot["weights"]) == pytest.approx(1.0)


def test_max_clusters_one_collapses_all_pls(small_table):
    # num_queues=2 with a reserved queue leaves exactly one usable
    # queue: every PL lands in it regardless of hierarchy distance.
    # (Switch egress ports honor num_queues; server NICs always carry
    # the full queue table.)
    controller = SabaController(small_table, reserved_queue=0, c_saba=0.9)
    fabric = _attach(controller, num_queues=2)
    for job, workload in (("a", "LR"), ("b", "PR"), ("c", "Sort")):
        controller.app_register(job, workload)
        controller.conn_create(job, [_egress(0)])
    snapshot = fabric.topology.port_table(_egress(0)).snapshot()
    queues = set(snapshot["mapping"].values())
    assert queues == {1}  # shifted past the reserved queue 0
    assert snapshot["default_queue"] == 0
    assert snapshot["weights"][0] == pytest.approx(0.1)


def test_more_active_pls_than_usable_queues(small_table):
    controller = SabaController(small_table)
    fabric = _attach(controller, num_queues=2)
    for job, workload in (("a", "LR"), ("b", "PR"), ("c", "Sort")):
        controller.app_register(job, workload)
        controller.conn_create(job, [_egress(0)])
    snapshot = fabric.topology.port_table(_egress(0)).snapshot()
    assert len(snapshot["mapping"]) == 3  # every active PL is mapped
    assert set(snapshot["mapping"].values()) <= {0, 1}
    assert sum(snapshot["weights"]) == pytest.approx(1.0)


# -- event coalescing ---------------------------------------------------------


def test_coalescing_batches_churn_into_one_pass(small_table):
    controller = SabaController(small_table, coalesce_quantum=0.5)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    controller.app_register("b", "Sort")
    stats = controller.pipeline.stats
    passes = stats.passes  # registration passes are eager
    controller.conn_create("a", [_nic(0), _egress(1)])
    controller.conn_create("b", [_nic(0), _egress(2)])
    controller.conn_create("b", [_nic(3), _egress(2)])
    # Nothing programmed yet: updates are pending the quantum flush.
    assert stats.passes == passes
    assert stats.programs == 0
    fabric.run(until=1.0)
    assert stats.passes == passes + 1
    assert stats.coalesce_flushes == 1
    assert stats.coalesced_updates == 3
    # Deduplicated: 4 distinct ports across the three paths.
    assert stats.port_allocations == 4


def test_flush_pending_runs_immediately(small_table):
    controller = SabaController(small_table, coalesce_quantum=10.0)
    fabric = _attach(controller)
    controller.app_register("a", "LR")
    controller.conn_create("a", [_nic(0)])
    stats = controller.pipeline.stats
    assert stats.programs == 0
    controller.pipeline.flush_pending()
    assert stats.programs == 1
    assert fabric.topology.port_table(_nic(0)).generation > 0


def test_eager_pass_merges_pending_updates(small_table):
    controller = SabaController(small_table, coalesce_quantum=10.0)
    _attach(controller)
    controller.app_register("a", "LR")
    controller.conn_create("a", [_nic(0)])  # pending
    stats = controller.pipeline.stats
    # Registration-driven passes are eager and must not reorder ahead
    # of pending churn: the pending port is folded into this pass.
    controller.app_register("b", "Sort")
    assert stats.programs >= 1
    controller.pipeline.flush_pending()  # nothing left
    assert stats.coalesced_updates == 1


# -- frontend parity ----------------------------------------------------------


def _distributed(small_table, **kwargs):
    return DistributedControllerGroup(
        MappingDatabase(small_table), n_shards=2, **kwargs
    )


def test_conn_destroy_unregistered_raises_on_both(small_table):
    centralized = SabaController(small_table)
    _attach(centralized)
    with pytest.raises(RegistrationError):
        centralized.conn_destroy("ghost", [_nic(0)])
    distributed = _distributed(small_table)
    _attach(distributed)
    with pytest.raises(RegistrationError):
        distributed.conn_destroy("ghost", [_nic(0)])


def test_describe_port_on_both_frontends(small_table):
    for make in (
        lambda: SabaController(small_table),
        lambda: _distributed(small_table),
    ):
        frontend = make()
        fabric = _attach(frontend)
        frontend.app_register("a", "LR")
        path = [_nic(0)]
        frontend.conn_create("a", path)
        description = frontend.describe_port(_nic(0))
        assert description["link"] == _nic(0)
        assert description["applications"]["a"]["workload"] == "LR"
        assert description["applications"]["a"]["connections"] == 1
        queue = description["applications"]["a"]["queue"]
        assert description["weights"][queue] > 0.0
        snapshot = fabric.topology.port_table(_nic(0)).snapshot()
        assert description["generation"] == snapshot["generation"]


def test_describe_port_unattached_raises(small_table):
    controller = SabaController(small_table)
    with pytest.raises(RegistrationError):
        controller.describe_port(_nic(0))


def test_distributed_emits_same_obs_counters(small_table):
    """Both frontends drive the shared pipeline, so the distributed
    group now emits the solve/port events the centralized one does."""

    def trace_types(make):
        observer = Observer()
        records = []
        observer.bus.subscribe(lambda e: records.append(e.type))
        frontend = make(observer)
        _attach(frontend)
        frontend.app_register("a", "LR")
        frontend.app_register("b", "Sort")
        frontend.conn_create("a", [_nic(0)])
        frontend.conn_create("b", [_nic(0)])
        frontend.conn_destroy("a", [_nic(0)])
        frontend.conn_destroy("b", [_nic(0)])
        return records

    central = trace_types(
        lambda obs: SabaController(small_table, observer=obs)
    )
    distributed = trace_types(
        lambda obs: _distributed(small_table, observer=obs)
    )
    for required in (
        ev.SOLVE_BEGIN, ev.SOLVE_END, ev.PORT_PROGRAMMED,
        ev.PORT_RESET, ev.REALLOCATION,
    ):
        assert required in central
        assert required in distributed
