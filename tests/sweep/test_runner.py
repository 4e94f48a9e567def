"""SweepRunner: parallelism, caching, fail-fast on the first failure."""

from __future__ import annotations

import time

import pytest

from repro.core.profiler import OfflineProfiler
from repro.errors import SweepError
from repro.obs import Observer
from repro.sweep import SweepCache, SweepRunner, SweepSpec, Task, resolve_jobs
from repro.workloads.catalog import CATALOG

from tests.sweep.workers import flaky, sleeper, square


def square_spec(n=4, name="squares"):
    return SweepSpec(
        name=name,
        tasks=tuple(
            Task(name=f"sq:{i}", fn=square, params={"x": i})
            for i in range(n)
        ),
        reduce=lambda results: sum(results.values()),
    )


def profile_spec(workloads=("SQL", "LR")):
    profiler = OfflineProfiler(method="analytic", degree=2,
                               fractions=(0.25, 0.5, 1.0))
    return profiler.sweep_spec([CATALOG[n] for n in workloads])


def test_resolve_jobs():
    assert resolve_jobs(None) >= 1
    assert resolve_jobs("auto") >= 1
    assert resolve_jobs(3) == 3
    with pytest.raises(SweepError):
        resolve_jobs(0)


def test_serial_run_reduces_in_spec_order():
    seen = []

    def record_order(results):
        seen.extend(results)
        return dict(results)

    spec = SweepSpec(
        name="order",
        tasks=tuple(
            Task(name=f"t{i}", fn=square, params={"x": i})
            for i in (3, 1, 2)
        ),
        reduce=record_order,
    )
    result = SweepRunner(jobs=1).run(spec)
    assert seen == ["t3", "t1", "t2"]
    assert result.value == {"t3": 9, "t1": 1, "t2": 4}
    assert result.computed == 3 and result.cache_hits == 0


def test_parallel_reduces_in_spec_order_despite_completion_order():
    seen = []

    def record_order(results):
        seen.extend(results)
        return list(results.values())

    # The first task sleeps long enough to finish last; order must
    # still follow the spec.
    spec = SweepSpec(
        name="order",
        tasks=(
            Task(name="slow", fn=sleeper,
                 params={"seconds": 0.2, "value": "s"}),
            Task(name="fast", fn=sleeper,
                 params={"seconds": 0.0, "value": "f"}),
        ),
        reduce=record_order,
    )
    result = SweepRunner(jobs=2).run(spec)
    assert seen == ["slow", "fast"]
    assert result.value == ["s", "f"]


def test_parallel_and_serial_are_bit_identical():
    spec = profile_spec()
    serial = SweepRunner(jobs=1, cache=None).run(spec).value
    parallel = SweepRunner(jobs=4, cache=None).run(spec).value
    assert serial.to_json() == parallel.to_json()


def test_warm_cache_recomputes_nothing():
    cache = SweepCache()
    spec = profile_spec(workloads=("SQL",))

    cold = SweepRunner(jobs=1, cache=cache).run(spec)
    assert cold.computed == len(spec) and cold.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=cache).run(spec)
    assert warm.computed == 0
    assert warm.cache_hits == len(spec)
    assert warm.value.to_json() == cold.value.to_json()


def test_disk_cache_reused_across_runner_instances(tmp_path):
    spec = square_spec()
    first = SweepRunner(jobs=1, cache=SweepCache(dir=tmp_path)).run(spec)
    second = SweepRunner(jobs=1, cache=SweepCache(dir=tmp_path)).run(spec)
    assert first.computed == len(spec)
    assert second.computed == 0 and second.cache_hits == len(spec)
    assert second.value == first.value


def test_version_bump_invalidates_cached_run(monkeypatch):
    cache = SweepCache()
    spec = square_spec()
    SweepRunner(jobs=1, cache=cache).run(spec)
    monkeypatch.setattr("repro._version.__version__", "99.99.99")
    rerun = SweepRunner(jobs=1, cache=cache).run(spec)
    assert rerun.cache_hits == 0 and rerun.computed == len(spec)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_task_runs_once_and_stops_the_sweep(tmp_path, jobs):
    # Tasks are deterministic, so a failed task is not re-run: one
    # failure is the sweep's error, even for a task that would have
    # succeeded on a second call.
    counter = tmp_path / "calls"
    spec = SweepSpec(
        name="flaky",
        tasks=(
            Task(name="flaky", fn=flaky,
                 params={"counter_path": str(counter), "fail_times": 1,
                         "value": "ok"}),
        ),
    )
    observer = Observer()
    failed = []
    observer.bus.subscribe(lambda e: failed.append(e.fields["task"]),
                           types=["sweep.task_failed"])
    with pytest.raises(SweepError, match="task 'flaky' failed: "
                                         "RuntimeError: flaky failure #1"):
        SweepRunner(jobs=jobs, observer=observer).run(spec)
    assert counter.read_bytes() == b"x"
    assert failed == ["flaky"]


def test_a_failing_parallel_sweep_waits_only_for_running_tasks(tmp_path):
    # At most ``jobs`` tasks are in the pool: when the first task
    # fails, one sleeper is running and the other five have not been
    # submitted, so the error surfaces after about one sleeper.
    tasks = (
        Task(name="flaky", fn=flaky,
             params={"counter_path": str(tmp_path / "calls"),
                     "fail_times": 99, "value": "never"}),
    ) + tuple(
        Task(name=f"sleep:{i}", fn=sleeper,
             params={"seconds": 1.0, "value": i})
        for i in range(6)
    )
    t0 = time.perf_counter()
    with pytest.raises(SweepError, match="task 'flaky' failed"):
        SweepRunner(jobs=2).run(SweepSpec(name="stop", tasks=tasks))
    assert time.perf_counter() - t0 < 2.0


def test_observer_sees_sweep_events_and_metrics():
    observer = Observer()
    events = []
    observer.bus.subscribe(lambda e: events.append(e.type))
    cache = SweepCache()
    spec = square_spec(n=2)
    SweepRunner(jobs=1, cache=cache, observer=observer).run(spec)
    SweepRunner(jobs=1, cache=cache, observer=observer).run(spec)
    assert "sweep.started" in events
    assert "sweep.task_finished" in events
    assert "sweep.cache_hit" in events
    assert "sweep.finished" in events
    assert observer.metrics.counter("sweep.tasks_computed").value == 2
    assert observer.metrics.counter("sweep.cache_hits").value == 2


def test_manifest_records_grid_and_counts():
    result = SweepRunner(jobs=1).run(square_spec(n=3))
    manifest = result.manifest
    assert manifest.name == "sweep:squares"
    assert manifest.config["jobs"] == 1
    assert manifest.extra["tasks"] == 3
    assert manifest.extra["computed"] == 3
    assert manifest.extra["task_names"] == ["sq:0", "sq:1", "sq:2"]


def test_progress_narration():
    lines = []
    SweepRunner(jobs=1, progress=lines.append).run(square_spec(n=2))
    assert any("2 tasks" in line for line in lines)
    assert any("done" in line for line in lines)
