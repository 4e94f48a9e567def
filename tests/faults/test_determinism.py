"""Fixed-seed fault experiments are byte-identical across runs.

The acceptance check behind the CI golden file: two uncached runs of
the same configuration must serialise to the same JSON, fault
injection included.
"""

from repro.experiments.extension_faults import faults_sweep_spec
from repro.sweep import SweepRunner


def _run(catalog_table, seed):
    # cache=None: every task recomputes, so equality is determinism,
    # not a cache hit.
    return SweepRunner(jobs=1, cache=None).run(faults_sweep_spec(
        mtbfs=(None, 12.0), mttr=4.0, seed=seed, jobs_per_setup=4,
        n_servers=8, mean_gap=3.0, table=catalog_table,
    )).value


def test_same_seed_identical_json(catalog_table):
    first = _run(catalog_table, seed=7)
    second = _run(catalog_table, seed=7)
    assert first.to_json() == second.to_json()


def test_different_seed_different_faults(catalog_table):
    first = _run(catalog_table, seed=7)
    other = _run(catalog_table, seed=8)
    assert first.to_json() != other.to_json()


def test_points_cover_grid(catalog_table):
    result = _run(catalog_table, seed=7)
    assert len(result.points) == 4  # 2 series x 2 intensities
    assert {p.series for p in result.points} == {"saba", "saba-failover"}
    faulted = [p for p in result.points if p.mtbf is not None]
    for p in faulted:
        assert p.downtime == 4.0 / 16.0
