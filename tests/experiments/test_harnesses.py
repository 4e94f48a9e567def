"""Fast smoke tests of every experiment harness at micro scale.

The benchmarks assert the paper's shapes at CI scale; these tests only
pin that each harness runs end to end and returns well-formed results,
so refactors of the underlying machinery fail fast.
"""

import pytest

from repro.experiments.common import (
    build_catalog_table,
    geomean,
    make_policy,
    speedup_report,
    standalone_times,
)
from repro.experiments.fig1 import run_fig1a, run_fig1b
from repro.experiments.fig2 import run_timeline
from repro.experiments.fig5_fig6 import fig5_sweep_spec, fig6a_sweep_spec
from repro.experiments.fig8 import fig8_sweep_spec
from repro.experiments.fig9 import run_fig9c
from repro.experiments.fig10_fig11 import (
    build_simulation,
    fig10_sweep_spec,
    profile_synthetic,
    run_fig11a,
)
from repro.experiments.fig12 import run_scenario
from repro.sweep import default_runner
from repro.workloads.catalog import CATALOG

TINY_TOPO = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])


def test_standalone_times_positive():
    times = standalone_times(["LR", "Sort"], n_instances=4)
    assert times["LR"] > 0
    assert times["Sort"] > 0


def test_make_policy_variants(catalog_table):
    for name in ("baseline", "ideal"):
        policy, factory = make_policy(name)
        assert factory is None
        assert policy.name
    policy, factory = make_policy("saba", table=catalog_table)
    assert factory is not None
    with pytest.raises(ValueError):
        make_policy("saba")
    with pytest.raises(ValueError):
        make_policy("unknown")


def test_make_policy_returns_policy_setup(catalog_table):
    from repro.cluster.runtime import PolicySetup

    setup = make_policy("saba", table=catalog_table)
    assert isinstance(setup, PolicySetup)
    # The controller handle is the policy itself for the centralized
    # design, so callers can read its stats after a run.
    assert setup.controller is setup.policy
    # Tuple unpacking keeps working during migration.
    policy, factory = setup
    assert policy is setup.policy and factory is setup.connections_factory

    baseline = make_policy("baseline")
    assert baseline.controller is None
    assert baseline.connections_factory is None


def test_policy_setup_rejects_conflicting_factory(catalog_table):
    from repro.cluster.runtime import CoRunExecutor
    from repro.simnet.topology import single_switch

    setup = make_policy("saba", table=catalog_table)
    with pytest.raises(ValueError, match="inside the PolicySetup"):
        CoRunExecutor(single_switch(4), policy=setup,
                      connections_factory=lambda fabric: None)


def test_make_policy_collapse_alpha_zero_not_dropped():
    # Pins the `is not None` check: 0.0 is a legitimate "lossless"
    # setting and must not collapse into the falsy default path.
    setup = make_policy("baseline", collapse_alpha=0.0)
    assert setup.policy.collapse_alpha == 0.0
    disabled = make_policy("baseline", collapse_alpha=None)
    assert disabled.policy.collapse_alpha == 0.0


def test_speedup_report(catalog_table):
    from repro.cluster.jobs import JobResult

    base = {"a": JobResult("a", "LR", 0.0, 10.0)}
    other = {"a": JobResult("a", "LR", 0.0, 5.0)}
    report = speedup_report(base, other)
    assert report.per_job["a"] == pytest.approx(2.0)
    assert report.average == pytest.approx(2.0)
    assert report.workload_average("LR") == pytest.approx(2.0)


def test_fig1a_smoke():
    rows = run_fig1a(fractions=(0.5,), method="analytic")
    assert set(rows) == set(CATALOG)
    assert all(r[0.5] >= 1.0 for r in rows.values())


def test_fig1b_smoke():
    result = run_fig1b(n_servers=4)
    assert set(result.maxmin) == {"LR", "PR"}
    assert all(v >= 0.99 for v in result.maxmin.values())
    assert result.average_completion("maxmin") > 0


def test_fig2_smoke():
    panel = run_timeline("PR", 0.5, n_servers=4, resolution=2.0)
    assert panel.completion_time > 0
    assert len(panel.times) == len(panel.cpu) == len(panel.network)
    assert 0.0 <= panel.mean_cpu() <= 1.0


def test_fig5_smoke():
    panels = default_runner().run(
        fig5_sweep_spec(workloads=("LR",), degrees=(1, 2))
    ).value
    assert set(panels["LR"].models) == {1, 2}


def test_fig6a_smoke():
    scores = default_runner().run(fig6a_sweep_spec(degrees=(1,))).value
    assert all(0.0 <= s[1] <= 1.0 for s in scores.values())


def test_fig8_smoke(catalog_table):
    result = default_runner().run(fig8_sweep_spec(
        n_setups=1, jobs_per_setup=4, n_servers=8, table=catalog_table
    )).value
    assert len(result.setup_averages) == 1
    assert result.average_speedup > 0
    cdf = result.cdf()
    assert cdf[-1][1] == pytest.approx(1.0)


def test_fig9c_smoke():
    results = run_fig9c(degrees=(1,))
    assert set(results) == {1}
    assert set(results[1]) == set(CATALOG)


def test_fig10_smoke():
    result = default_runner().run(fig10_sweep_spec(
        policies=("saba", "homa"),
        topology_kwargs=TINY_TOPO,
        n_workloads=6,
    )).value
    assert set(result.speedups) == {"saba", "homa"}
    assert result.average("saba") > 0


def test_fig11a_smoke():
    result = run_fig11a(topology_kwargs=TINY_TOPO, n_shards=2)
    assert result["centralized"] > 0
    assert result["distributed"] > 0


def test_fig12_single_scenario():
    scenario = run_scenario(n_apps=5, degree=2, n_servers=8,
                            paths_per_app=4)
    assert scenario.calc_time >= 0
    assert scenario.n_apps == 5


def test_build_simulation_places_every_instance():
    make_topology, make_jobs, specs = build_simulation(
        n_workloads=5, topology_kwargs=TINY_TOPO
    )
    jobs = make_jobs()
    assert len(jobs) == 5
    topo = make_topology()
    for job in jobs:
        assert all(s in topo.servers for s in job.placement)


def test_profile_synthetic_covers_all():
    _, _, specs = build_simulation(n_workloads=4, topology_kwargs=TINY_TOPO)
    table = profile_synthetic(specs, rack_nodes=6)
    assert len(table) == 4


def test_fig11b_smoke():
    from repro.experiments.fig10_fig11 import run_fig11b

    result = run_fig11b(queue_counts=(2, None), topology_kwargs=TINY_TOPO)
    assert set(result) == {"2", "unlimited"}
    assert all(v > 0 for v in result.values())


def test_service_point_identity_and_flaps(catalog_table):
    from repro.experiments.extension_service import run_service_point

    kwargs = dict(table=catalog_table, jobs_per_setup=2, mean_gap=1.0)
    static = run_service_point("harness", **kwargs)
    service = run_service_point("service", **kwargs)
    # Zero faults, no quota pressure: the service run is bit-identical
    # to the static harness (the headline acceptance criterion).
    assert service["times"] == static["times"]
    assert service["counters"]["rejected"] == 0
    flapped = run_service_point("service", flaps=1, **kwargs)
    assert flapped["counters"]["link_transitions"] > 0
    assert flapped["recovered"] is True
    assert flapped["degraded_seconds"] > 0


def test_dynamism_smoke(catalog_table):
    from repro.experiments.extension_dynamism import run_dynamism

    result = run_dynamism(jobs_per_setup=3, n_servers=8, mean_gap=2.0,
                          table=catalog_table)
    assert len(result.per_job_speedup) == 3
    assert result.controller_registrations == 3
    assert result.average_speedup > 0
