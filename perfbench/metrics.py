"""The benchmark's metrics: names, units and how each is computed.

End-to-end metrics come from untraced runs; per-layer metrics from one
untraced and one traced unit of the same work.  Every workload prints
every metric of its kind; a layer a workload never enters reads 0.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence

import quantiles
from ledger import LAYER_NAMES, Tracer

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "flows_per_s": "flows/s",
    "peak_rss_mb": "MB",
    "call_p50_us": "us",
    "call_p99_us": "us",
}

PER_LAYER_UNITS: Dict[str, str] = {
    "service.calls": "count",
    "service.rejected": "count",
    "service.max_open_conns": "count",
    "service.self_s": "s",
    "core.library.self_s": "s",
    "core.rpc.calls": "count",
    "core.rpc.retries": "count",
    "core.rpc.self_s": "s",
    "core.controller.self_s": "s",
    "core.pipeline.passes": "count",
    "core.pipeline.port_visits": "count",
    "core.pipeline.programs": "count",
    "core.pipeline.skip_ratio": "ratio",
    "core.pipeline.self_s": "s",
    "core.clustering.calls": "count",
    "core.clustering.self_s": "s",
    "core.allocation.calls": "count",
    "core.allocation.cache_hit_ratio": "ratio",
    "core.allocation.slsqp_share": "ratio",
    "core.allocation.p99_us": "us",
    "core.allocation.self_s": "s",
    "cluster.runtime.self_s": "s",
    "simnet.routing.calls": "count",
    "simnet.routing.self_s": "s",
    "simnet.fabric.recomputes": "count",
    "simnet.fabric.components": "count",
    "simnet.fabric.mean_component_flows": "flows",
    "simnet.fabric.resolve_amplification": "ratio",
    "simnet.fabric.marshal_s": "s",
    "simnet.fabric.solve_s": "s",
    "simnet.fabric.self_s": "s",
    "simnet.engine.events": "count",
    "simnet.engine.self_s": "s",
    "attributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

METRIC_UNITS: Dict[str, str] = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: Sequence[float], units: Sequence) -> Dict[str, float]:
    """Timings pool every unit of the run: throughput over the summed
    wall time, latency percentiles over every call.  (On a shared host,
    pooling varied less from run to run than the best or the median
    unit.)"""
    calls: List[float] = [s for unit in units for s in unit.call_seconds]
    return {
        "setup_s": statistics.median(setup_times),
        "flows_per_s": sum(u.flows for u in units) / sum(u.wall for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "call_p50_us": quantiles.percentile(calls, 0.50) * 1e6,
        "call_p99_us": quantiles.percentile(calls, 0.99) * 1e6,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced) -> Dict[str, float]:
    """Per-layer metrics of one traced unit, in :data:`PER_LAYER_UNITS`
    order; the caller fills in ``trace_overhead_frac`` from untraced
    units of the same work."""
    own = tracer.ledger()
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)

    out["service.calls"] = tracer.calls("service")
    out["service.rejected"] = traced.rejected
    out["service.max_open_conns"] = traced.max_open

    out["core.rpc.calls"] = tracer.calls("core.rpc")
    out["core.rpc.retries"] = sum(bus.stats.retries for bus in traced.buses)

    stats = traced.pipeline.stats if traced.pipeline is not None else None
    if stats is not None:
        visits = stats.port_allocations + stats.port_resets + stats.signature_skips
        lookups = stats.optimizer_calls + stats.solver_cache_hits
        out["core.pipeline.passes"] = stats.passes
        out["core.pipeline.port_visits"] = visits
        out["core.pipeline.programs"] = stats.programs
        out["core.pipeline.skip_ratio"] = _ratio(stats.signature_skips, visits)
        out["core.allocation.cache_hit_ratio"] = _ratio(stats.solver_cache_hits, lookups)
    else:
        for name in ("passes", "port_visits", "programs", "skip_ratio"):
            out[f"core.pipeline.{name}"] = 0
        out["core.allocation.cache_hit_ratio"] = 0.0

    solves = tracer.durations("core.allocation")
    out["core.allocation.calls"] = len(solves)
    out["core.allocation.slsqp_share"] = _ratio(tracer.solver_kinds["slsqp"], len(solves))
    out["core.allocation.p99_us"] = (
        quantiles.percentile(solves, 0.99) * 1e6
        if len(solves) >= quantiles.min_samples(0.99) else 0.0
    )
    out["core.clustering.calls"] = tracer.calls("core.clustering")
    out["simnet.routing.calls"] = tracer.calls("simnet.routing")

    fabric = traced.fabric
    out["simnet.fabric.recomputes"] = fabric.rate_recomputes
    out["simnet.fabric.components"] = fabric.components_solved
    out["simnet.fabric.mean_component_flows"] = _ratio(
        fabric.flows_solved, fabric.components_solved
    )
    out["simnet.fabric.resolve_amplification"] = _ratio(
        fabric.flows_solved, len(fabric.completed)
    )
    out["simnet.fabric.marshal_s"] = fabric.marshal_seconds
    out["simnet.fabric.solve_s"] = fabric.solve_seconds
    out["simnet.engine.events"] = fabric.loop_events + fabric.sim.events_processed

    out["attributed_frac"] = _ratio(sum(own.values()), traced.wall)
    out["trace_overhead_frac"] = 0.0
    return {name: out[name] for name in PER_LAYER_UNITS}
