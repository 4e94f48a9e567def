"""Parallel experiment orchestration with caching.

The paper's evaluation is a pile of embarrassingly-parallel grids --
the profiler's (workload x bandwidth-fraction) matrix (Section 4.1),
Figure 8's 500 randomized cluster setups, Figure 10's per-policy
simulator runs.  This package turns each grid point into a named,
picklable, seed-carrying :class:`Task`, fans tasks out over worker
processes, caches their results content-addressed on disk, and
reduces them in deterministic order, so ``--jobs N`` and ``--jobs 1``
produce bit-identical tables.

* :mod:`repro.sweep.task` -- :class:`Task` / :class:`SweepSpec` model,
  canonical config hashing, deterministic seed derivation.
* :mod:`repro.sweep.cache` -- :class:`SweepCache`, keyed by (task
  name, config hash, code version from :mod:`repro._version`).
* :mod:`repro.sweep.runner` -- :class:`SweepRunner`: process-pool
  fan-out, serial fallback, each task run once with the first failure
  stopping the sweep (tasks are deterministic, so a retry would fail
  the same way), :mod:`repro.obs` events/metrics/manifests, progress
  narration.
* :mod:`repro.sweep.registry` -- the named experiments behind
  ``python -m repro sweep <experiment>``.

The serial-vs-parallel wall-time benchmark (``python -m repro sweep
bench``, ``BENCH_sweep.json``) lives with the other benches in
:mod:`repro.bench`.

Typical use::

    from repro.sweep import SweepCache, SweepRunner
    from repro.core.profiler import OfflineProfiler
    from repro.workloads.catalog import CATALOG

    spec = OfflineProfiler().sweep_spec(CATALOG.values())
    runner = SweepRunner(jobs=4, cache=SweepCache(dir=".sweep-cache"))
    table = runner.run(spec).value        # a SensitivityTable
"""

from repro.errors import SweepError
from repro.sweep.cache import CACHE_DIR_ENV, SweepCache, cache_key, default_cache
from repro.sweep.runner import SweepResult, SweepRunner, default_runner, resolve_jobs
from repro.sweep.task import SweepSpec, Task, config_hash, derive_seed

__all__ = [
    "CACHE_DIR_ENV",
    "SweepCache",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "Task",
    "cache_key",
    "config_hash",
    "default_cache",
    "default_runner",
    "derive_seed",
    "resolve_jobs",
]
