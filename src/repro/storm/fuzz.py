"""Property-based scenario fuzzing over :class:`StormConfig`.

:func:`sample_config` maps a single integer seed to one random storm
scenario -- topology, policy, fabric solver path, arrival process,
size/skew distributions, teardown races, and (in service mode)
admission quotas are all drawn from a :class:`random.Random` seeded by
that integer alone, so any failing scenario reproduces from its
printed seed.

:func:`fuzz_one` runs one sampled scenario and returns a picklable
verdict: the invariant violations its probes recorded, plus -- for
scenarios small enough -- a solver-equivalence audit that re-runs the
identical traffic with the other solve scope (full instead of
component-scoped, or the reverse) and requires per-flow completion
times to agree to 1e-9 relative.

Campaigns are :mod:`repro.sweep` sweeps (:func:`fuzz_sweep_spec`):
per-scenario seeds derive from the campaign seed via
:func:`~repro.sweep.derive_seed`, tasks fan out over worker processes,
results land in the content-addressed cache, and the reduction
aggregates verdicts in task order -- ``--jobs 8`` and ``--jobs 1``
produce the same campaign report.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Mapping, Optional

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA
from repro.experiments.common import ScenarioSpec
from repro.storm.arrivals import FlashCrowd
from repro.storm.invariants import (
    InvariantViolation,
    check_completions_agree,
)
from repro.storm.scenario import (
    StormConfig,
    equivalence_configs,
    run_storm,
)
from repro.storm.sizes import BoundedPareto
from repro.sweep import SweepSpec, Task, derive_seed
from repro.units import GBPS_56

#: Scenarios whose base run injected more flows than this skip the
#: solver-equivalence re-run (which doubles a scenario's cost); the
#: campaign report counts how many were skipped.
EQUIV_MAX_FLOWS = 350

#: Raw-fabric policies the fuzzer samples.  Strict-priority policies
#: may legitimately gate flows to zero rate, so the starvation probe
#: is disabled for them (work conservation still applies).
_FABRIC_POLICIES = ("baseline", "ideal", "homa", "sincronia")
_PRIORITY_POLICIES = ("homa", "sincronia")


def _sample_topology(rng: Random, mode: str) -> Dict[str, Any]:
    roll = rng.random()
    if mode == "service" or roll < 0.5:
        return {
            "topology": "single_switch",
            "topology_kwargs": {"n_servers": rng.randint(4, 16)},
        }
    if roll < 0.8:
        return {"topology": "fat_tree", "topology_kwargs": {"k": 4}}
    return {
        "topology": "spine_leaf",
        "topology_kwargs": {
            "n_spine": 2, "n_leaf": 4, "n_tor": 4,
            "servers_per_tor": rng.randint(2, 4),
        },
    }


def _server_count(topo: Mapping[str, Any]) -> int:
    kwargs = topo["topology_kwargs"]
    if topo["topology"] == "single_switch":
        return int(kwargs["n_servers"])
    if topo["topology"] == "fat_tree":
        return int(kwargs["k"]) ** 3 // 4
    return int(kwargs["n_tor"]) * int(kwargs["servers_per_tor"])


def _sample_sizes(
    rng: Random, topo: Mapping[str, Any], base_rate: float,
) -> Dict[str, float]:
    """Flow-size distribution scaled to a target per-link load.

    Absolute sizes mean nothing on their own: what stresses the
    allocator is the *offered load* relative to link capacity.  We
    sample a utilization target and back out the mean flow size that
    produces it at the sampled arrival rate, then shape the
    heavy-tailed distribution around that mean.
    """
    rho = rng.uniform(0.3, 1.2)
    alpha = rng.uniform(1.05, 1.9)
    ratio = rng.uniform(20.0, 300.0)
    mean_target = rho * GBPS_56 * _server_count(topo) / base_rate
    unit_mean = BoundedPareto(alpha, 1.0, ratio).mean()
    lo = mean_target / unit_mean
    return {"size_alpha": alpha, "size_lo": lo, "size_hi": lo * ratio}


def sample_config(seed: int) -> StormConfig:
    """One random storm scenario, a pure function of ``seed``."""
    rng = Random(f"storm-fuzz:{seed}")
    mode = "service" if rng.random() < 0.4 else "fabric"
    topo = _sample_topology(rng, mode)
    if mode == "service":
        policy = "saba"
        collapse_alpha = DEFAULT_COLLAPSE_ALPHA
        base_rate = rng.uniform(20.0, 90.0)
    else:
        policy = rng.choice(_FABRIC_POLICIES)
        collapse_alpha = (
            DEFAULT_COLLAPSE_ALPHA if rng.random() < 0.5 else None
        )
        base_rate = rng.uniform(40.0, 220.0)
    incremental = rng.random() < 0.7
    # Two discarded draws, here and before the return, that once
    # picked a solver backend and a flow-index backend: dropping either
    # would shift every later draw, remapping every campaign seed, the
    # pinned regression seeds included.
    rng.choice(("object", "vector"))
    spec = ScenarioSpec(
        policy=policy,
        collapse_alpha=collapse_alpha,
        completion_quantum=0.0,
        incremental=incremental,
        **topo,
    )
    duration = rng.uniform(0.3, 1.0)
    sizes = _sample_sizes(rng, topo, base_rate)
    diurnal = rng.random() < 0.5
    crowds: List[FlashCrowd] = []
    for _ in range(rng.randint(0, 2)):
        crowds.append(FlashCrowd(
            start=rng.uniform(0.0, 0.7) * duration,
            duration=rng.uniform(0.05, 0.25) * duration,
            multiplier=rng.uniform(2.0, 5.0),
        ))
    quotas: Dict[str, Optional[int]] = {
        "quota_apps_per_tenant": None,
        "quota_conns_per_app": None,
        "quota_conns_per_tenant": None,
        "quota_queue_depth": None,
    }
    destroy_fraction = 0.0
    destroy_delay = 0.05
    if mode == "service":
        if rng.random() < 0.3:
            quotas["quota_apps_per_tenant"] = rng.randint(2, 8)
        if rng.random() < 0.5:
            quotas["quota_conns_per_app"] = rng.randint(4, 40)
        if rng.random() < 0.5:
            quotas["quota_conns_per_tenant"] = rng.randint(16, 120)
        if rng.random() < 0.5:
            quotas["quota_queue_depth"] = rng.randint(8, 64)
    if rng.random() < 0.6:
        destroy_fraction = rng.uniform(0.05, 0.35)
        destroy_delay = rng.uniform(0.01, 0.15)
    # The second discarded draw (see the first, after ``incremental``).
    rng.choice(("auto", "array", "object"))
    return StormConfig(
        spec=spec,
        mode=mode,
        seed=seed,
        duration=duration,
        base_rate=base_rate,
        diurnal_amplitude=rng.uniform(0.2, 0.8) if diurnal else 0.0,
        diurnal_period=rng.uniform(0.5, 1.0) * duration if diurnal else 1.0,
        flash_crowds=tuple(crowds),
        zipf_s=rng.uniform(0.0, 1.5),
        **sizes,
        n_apps=rng.randint(2, 10),
        n_tenants=rng.randint(1, 3),
        destroy_fraction=destroy_fraction,
        destroy_delay=destroy_delay,
        n_probes=rng.randint(2, 5),
        check_starvation=policy not in _PRIORITY_POLICIES,
        **quotas,
    )


def fuzz_one(seed: int, equivalence: bool = True) -> Dict[str, Any]:
    """Run the scenario ``seed`` samples; returns a picklable verdict.

    Module-level (sweep workers import it by name).  Never raises on a
    finding -- violations, including solver disagreement, land in the
    verdict so the campaign completes and aggregates them.
    """
    config = sample_config(seed)
    report = run_storm(config)
    violations = list(report.violations)
    equiv: Dict[str, Any] = {}
    run_equiv = (
        equivalence
        and report.injected <= EQUIV_MAX_FLOWS
        and not any(
            v["invariant"] == "simulation_error" for v in violations
        )
    )
    if run_equiv:
        for name, variant in sorted(equivalence_configs(config).items()):
            try:
                other = run_storm(variant, check=False)
                equiv[name] = check_completions_agree(
                    report.completions, other.completions,
                    names=f"base/{name}",
                )
            except InvariantViolation as exc:
                equiv[name] = None
                violations.append({
                    "invariant": exc.name,
                    "detail": f"{name}: {exc.detail}",
                    "time": report.horizon,
                })
    return {
        "seed": seed,
        "mode": config.mode,
        "policy": config.spec.policy,
        "topology": config.spec.topology,
        "offered": report.offered,
        "injected": report.injected,
        "completed": report.completed,
        "cancelled": report.cancelled,
        "max_active": report.max_active,
        "equivalence": equiv if run_equiv else None,
        "violations": violations,
        "ok": not violations,
    }


def _reduce_campaign(values: Mapping[str, Any]) -> Dict[str, Any]:
    """Aggregate per-scenario verdicts into the campaign report."""
    verdicts = list(values.values())
    failures = [v for v in verdicts if not v["ok"]]
    by_invariant: Dict[str, int] = {}
    by_mode: Dict[str, int] = {}
    equiv_checked = 0
    for v in verdicts:
        by_mode[v["mode"]] = by_mode.get(v["mode"], 0) + 1
        if v["equivalence"] is not None:
            equiv_checked += 1
        for violation in v["violations"]:
            name = violation["invariant"]
            by_invariant[name] = by_invariant.get(name, 0) + 1
    return {
        "scenarios": len(verdicts),
        "passed": len(verdicts) - len(failures),
        "failed": len(failures),
        "by_mode": dict(sorted(by_mode.items())),
        "equivalence_checked": equiv_checked,
        "by_invariant": dict(sorted(by_invariant.items())),
        "failures": failures[:50],
        "failing_seeds": [v["seed"] for v in failures],
    }


def fuzz_sweep_spec(
    count: int,
    base_seed: int = 0,
    equivalence: bool = True,
) -> SweepSpec:
    """The fuzz campaign as a sweep: one task per scenario.

    Scenario seeds derive from ``(base_seed, index)`` via SHA-256, so
    the campaign is reproducible and each scenario independently
    cacheable.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    tasks = tuple(
        Task(
            name=f"storm:fuzz:{base_seed}:{i}",
            fn=fuzz_one,
            params={"equivalence": equivalence},
            seed=derive_seed(base_seed, f"storm:{i}"),
        )
        for i in range(count)
    )
    return SweepSpec(
        name="storm-fuzz",
        tasks=tasks,
        reduce=_reduce_campaign,
        config={
            "count": count, "base_seed": base_seed,
            "equivalence": equivalence,
        },
    )


def run_fuzz_campaign(
    count: int,
    base_seed: int = 0,
    runner=None,
    equivalence: bool = True,
) -> Dict[str, Any]:
    """Run a fuzz campaign; returns the aggregated campaign report."""
    from repro.sweep import default_runner

    if runner is None:
        runner = default_runner()
    spec = fuzz_sweep_spec(count, base_seed=base_seed,
                           equivalence=equivalence)
    return runner.run(spec).value


__all__ = [
    "EQUIV_MAX_FLOWS",
    "fuzz_one",
    "fuzz_sweep_spec",
    "run_fuzz_campaign",
    "sample_config",
]
