"""Parallel execution of sweep specs.

:class:`SweepRunner` drives a :class:`~repro.sweep.task.SweepSpec`
through three stages:

1. **cache resolution** -- every task's content address
   (:func:`repro.sweep.cache.cache_key`) is probed first, so a warm
   re-run computes nothing;
2. **execution** -- each remaining task runs exactly once, over a
   ``concurrent.futures.ProcessPoolExecutor`` (``jobs >= 2``, at most
   ``jobs`` tasks submitted at a time) or in-process (``jobs == 1``,
   the debuggable serial path: no subprocesses, breakpoints and
   coverage work).  Tasks are deterministic, so a failed task would
   fail again: the first failure stops the sweep with a
   :class:`~repro.errors.SweepError` naming the task and its
   exception, once the tasks still running have finished;
3. **ordered reduction** -- results are assembled in *spec order*
   regardless of completion order and handed to ``spec.reduce``, which
   is what makes ``--jobs 1`` and ``--jobs N`` bit-identical.

Everything is observable through :mod:`repro.obs`: ``sweep.*`` events
on the observer's bus, ``sweep.*`` counters/histograms in its metrics
registry, a :class:`~repro.obs.export.RunManifest` on every
:class:`SweepResult`, and a progress narrator callback for humans.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SweepError
from repro.obs import NULL_OBSERVER, Observer, RunManifest
from repro.obs.events import (
    SWEEP_CACHE_HIT,
    SWEEP_FINISHED,
    SWEEP_STARTED,
    SWEEP_TASK_FAILED,
    SWEEP_TASK_FINISHED,
    SWEEP_TASK_STARTED,
)
from repro.sweep.cache import SweepCache, cache_key
from repro.sweep.task import SweepSpec, Task


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``--jobs`` value; ``"auto"``/``None`` -> CPU count."""
    if jobs is None or jobs == "auto":
        return max(1, os.cpu_count() or 1)
    jobs = int(jobs)
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class SweepResult:
    """Everything a sweep produced; ``value`` is the reduction's output."""

    spec_name: str
    value: Any
    wall_seconds: float
    manifest: RunManifest
    cache_hits: int = 0
    computed: int = 0


def _execute_task(task: Task) -> Tuple[Any, float]:
    """Module-level worker: run one task, return (value, duration).

    Must stay module-level so ``spawn``-based pools (macOS, Windows)
    can import it by qualified name.
    """
    t0 = time.perf_counter()
    value = task.run()
    return value, time.perf_counter() - t0


#: A finished task's outcome: returns ``(value, duration)`` or raises
#: the task's exception.
_Outcome = Callable[[], Tuple[Any, float]]


class SweepRunner:
    """Run sweep specs with caching and parallelism.

    Args:
        jobs: worker processes; ``1`` (default) runs serially
            in-process, ``"auto"`` uses the CPU count.
        cache: a :class:`SweepCache`, or ``None`` to recompute every
            task (the ``--no-cache`` path).
        observer: :class:`repro.obs.Observer` receiving ``sweep.*``
            events and metrics (default: disabled).
        progress: optional ``callable(str)`` narrating the run.
    """

    def __init__(
        self,
        jobs: Union[int, str] = 1,
        cache: Optional[SweepCache] = None,
        observer: Optional[Observer] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.progress = progress

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute ``spec`` and reduce its results.

        Raises :class:`SweepError` on the first task that fails, after
        waiting for the tasks still running (no other task is started),
        so no task of this sweep outlives the call.
        """
        t0 = time.perf_counter()
        obs = self.observer
        if obs.enabled:
            obs.emit(SWEEP_STARTED, 0.0, sweep=spec.name,
                     tasks=len(spec.tasks), jobs=self.jobs,
                     cached_run=self.cache is not None)

        values: Dict[str, Any] = {}
        pending: List[Tuple[Task, str]] = []
        for task in spec.tasks:
            key = cache_key(task)
            if self.cache is not None:
                hit, value = self.cache.get(key)
                if hit:
                    values[task.name] = value
                    if obs.enabled:
                        obs.metrics.counter("sweep.cache_hits").inc()
                        obs.emit(SWEEP_CACHE_HIT,
                                 time.perf_counter() - t0,
                                 sweep=spec.name, task=task.name)
                    continue
            pending.append((task, key))
        hits = len(values)

        self._narrate(
            f"sweep {spec.name}: {len(spec.tasks)} tasks "
            f"({hits} cached, {len(pending)} to compute), "
            f"jobs={self.jobs}"
        )

        pool = (
            ProcessPoolExecutor(max_workers=self.jobs)
            if self.jobs > 1 and pending else None
        )
        try:
            for done, (task, key, outcome) in enumerate(
                self._execute(spec, pending, pool, t0), 1
            ):
                values[task.name], duration = self._settle(
                    spec, task, key, outcome, t0
                )
                self._narrate(
                    f"[{done}/{len(pending)}] {task.name} "
                    f"ok in {duration:.2f}s"
                )
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        wall = time.perf_counter() - t0
        results = {t.name: values[t.name] for t in spec.tasks}
        value = spec.reduce(results) if spec.reduce else results
        computed = len(pending)
        manifest = RunManifest(
            name=f"sweep:{spec.name}",
            config=dict(spec.config, jobs=self.jobs,
                        cache="on" if self.cache is not None else "off"),
            created_unix=time.time(),
            wall_seconds=wall,
            extra={
                "tasks": len(spec.tasks),
                "cache_hits": hits,
                "computed": computed,
                "task_names": list(spec.task_names()),
            },
        )
        if obs.enabled:
            obs.emit(SWEEP_FINISHED, wall, sweep=spec.name,
                     computed=computed, cache_hits=hits, duration=wall)
        self._narrate(
            f"sweep {spec.name}: done in {wall:.2f}s "
            f"({computed} computed, {hits} cached)"
        )
        return SweepResult(
            spec_name=spec.name, value=value, wall_seconds=wall,
            manifest=manifest, cache_hits=hits, computed=computed,
        )

    def _execute(
        self,
        spec: SweepSpec,
        pending: List[Tuple[Task, str]],
        pool: Optional[ProcessPoolExecutor],
        t0: float,
    ) -> Iterator[Tuple[Task, str, _Outcome]]:
        """Start each pending task once; yield ``(task, key, outcome)``.

        Without a pool, tasks run in-process in spec order, each when
        its outcome is called.  With one, at most ``jobs`` tasks are
        submitted at a time, topped up once the finished ones are
        settled, and outcomes are yielded in completion order: a task
        the pool has taken cannot be cancelled, so a failure then
        waits only for the tasks already running.
        """
        if pool is None:
            for task, key in pending:
                self._emit_started(spec, task, t0)
                yield task, key, partial(_execute_task, task)
            return
        waiting = iter(pending)
        running: Dict[Future, Tuple[Task, str]] = {}
        while True:
            for task, key in islice(waiting, self.jobs - len(running)):
                self._emit_started(spec, task, t0)
                running[pool.submit(_execute_task, task)] = (task, key)
            if not running:
                return
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                task, key = running.pop(future)
                yield task, key, future.result

    def _emit_started(self, spec: SweepSpec, task: Task, t0: float) -> None:
        if self.observer.enabled:
            self.observer.emit(SWEEP_TASK_STARTED, time.perf_counter() - t0,
                               sweep=spec.name, task=task.name)

    def _settle(
        self,
        spec: SweepSpec,
        task: Task,
        key: str,
        outcome: _Outcome,
        t0: float,
    ) -> Tuple[Any, float]:
        """Cache and report one finished task; raise if it failed."""
        obs = self.observer
        try:
            value, duration = outcome()
        except Exception as exc:  # noqa: BLE001 -- task code is foreign
            error = f"{type(exc).__name__}: {exc}"
            if obs.enabled:
                obs.metrics.counter("sweep.task_failures").inc()
                obs.emit(SWEEP_TASK_FAILED, time.perf_counter() - t0,
                         sweep=spec.name, task=task.name, error=error)
            raise SweepError(
                f"sweep {spec.name}: task {task.name!r} failed: {error}"
            ) from exc
        if self.cache is not None:
            self.cache.put(key, value, meta={
                "task": task.name,
                "sweep": spec.name,
                "fn": f"{task.fn.__module__}.{task.fn.__qualname__}",
                "seed": task.seed,
                "duration": duration,
                "created_unix": time.time(),
            })
        if obs.enabled:
            obs.metrics.counter("sweep.tasks_computed").inc()
            obs.metrics.histogram("sweep.task_seconds").observe(duration)
            obs.emit(SWEEP_TASK_FINISHED, time.perf_counter() - t0,
                     sweep=spec.name, task=task.name, duration=duration)
        return value, duration

    def _narrate(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def default_runner() -> SweepRunner:
    """Serial runner over the process-wide shared cache.

    What experiment harnesses fall back to when the caller does not
    provide a runner: no parallelism surprises, but repeated grids
    (every figure re-profiling the catalog) are deduplicated through
    :func:`repro.sweep.cache.default_cache`.
    """
    from repro.sweep.cache import default_cache

    return SweepRunner(jobs=1, cache=default_cache())
