"""Storm: open-loop production traffic + property-based fuzzing.

The evaluation grids (fig8/fig10, the extension studies) are fixed
and small; the paper's claims are about sustained, adversarial,
large-scale churn.  ``repro.storm`` supplies that stress surface:

* an **open-loop trace-style generator** (:mod:`repro.storm.scenario`)
  -- Poisson and diurnal-modulated connection arrivals, heavy-tailed
  flow sizes, Zipf-skewed app popularity, and scripted flash crowds --
  driving short connections through the coalescing fabric path and,
  in service mode, the :class:`~repro.service.AllocationService`
  front-end;
* **invariant checkers** (:mod:`repro.storm.invariants`) asserting
  physical and accounting properties of a live run: per-link rate sums
  within usable capacity, no starved flows, work conservation, and
  service-quota conservation (``admitted + rejected == offered``, no
  state leaked by rejected or failed requests);
* a **property-based scenario fuzzer** (:mod:`repro.storm.fuzz`) that
  samples thousands of random :class:`StormConfig` scenarios from a
  seed, runs each through the same
  :func:`~repro.experiments.common.build_scenario` path the pinned
  experiments use, checks every invariant, and (for small scenarios)
  re-runs with the other solve scope (full or component-scoped) to
  assert solver equivalence.  Campaigns are :mod:`repro.sweep` sweeps:
  per-task seeds derive from the campaign seed, verdicts are
  picklable, and the content-addressed cache makes re-runs free.

Every scenario is deterministic in its seed: ``python -m repro storm
fuzz --seed S --count N`` always produces the same scenarios and the
same verdicts, and any failure reproduces from its printed seed alone.
"""

from repro.storm.arrivals import ArrivalSchedule, FlashCrowd
from repro.storm.sizes import BoundedPareto, ZipfPicker, zipf_weights
from repro.storm.scenario import (
    PRESETS,
    StormConfig,
    StormReport,
    run_storm,
)
from repro.storm.invariants import (
    InvariantViolation,
    check_fabric,
    check_service,
)
from repro.storm.fuzz import (
    fuzz_one,
    fuzz_sweep_spec,
    run_fuzz_campaign,
    sample_config,
)

__all__ = [
    "ArrivalSchedule",
    "FlashCrowd",
    "BoundedPareto",
    "ZipfPicker",
    "zipf_weights",
    "PRESETS",
    "StormConfig",
    "StormReport",
    "run_storm",
    "InvariantViolation",
    "check_fabric",
    "check_service",
    "fuzz_one",
    "fuzz_sweep_spec",
    "run_fuzz_campaign",
    "sample_config",
]
