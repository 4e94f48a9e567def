"""Fluid-fabric benchmarks (``python -m repro fabric bench``).

Three scenarios, selected with ``--scenario``:

``corun`` (default)
    The incremental-vs-full rate-solving benchmark: the same synthetic
    co-run on a fig10-scale spine-leaf fabric runs once with
    component-scoped incremental solving, once with the
    full-recompute baseline (``FluidFabric(incremental=False)``), and
    once with the vectorized solver backend
    (:mod:`repro.simnet.kernels`), reporting events/sec, solver calls
    per event and mean re-solved component size plus cross-mode
    completion-time agreement checks.

``hyperscale``
    A 100,000-server (2,500 racks x 40 servers) fabric running
    1,072,500 rack-local incast flows in successive waves.  Flows are
    generated lazily wave by wave, the symmetric waves complete
    simultaneously so ``completion_quantum`` coalesces each wave-end
    into a single batched rate recompute, and the ~39-flow incast
    components solve on the vectorized kernels.  Runs on both solver
    backends and checks completion-time agreement; the headline
    metric is completed flows per wall-clock second.

``fig10``
    A first full-scale smoke run of the paper's simulated cluster
    shape: the 1,944-server topology (54 spine / 102 leaf / 108 ToR /
    18 servers) under the co-run workload, one app per rack, on both
    solver backends with an agreement check.

The co-run models locality-aware placement: ``apps`` applications are
pinned round-robin to racks and each runs ``waves`` successive waves
of ``fanout`` concurrent rack-local flows under a WFQ policy, so the
traffic graph decomposes into per-rack congestion components and a
completion disturbs only its own rack -- the regime the incremental
solver targets.  (A fully cross-rack co-run merges into one giant
component and degrades the incremental path toward full solves; see
DESIGN.md 5d.)

The committed ``BENCH_fabric.json`` at the repo root is a snapshot of
the ``corun`` output (regenerate with ``python -m repro fabric bench
--out BENCH_fabric.json``); ``BENCH_hyperscale.json`` snapshots the
``hyperscale`` scenario.
"""

from __future__ import annotations

import json
import os
import platform
import time
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.export import code_version
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import LinkScheduler, WFQScheduler
from repro.simnet.flows import Flow
from repro.simnet.routing import Router
from repro.simnet.topology import spine_leaf
from repro.units import GBPS_56

#: Default scenario: the fig10 default simulated cluster shape.
DEFAULT_SCENARIO = dict(
    n_spine=8, n_leaf=8, n_tor=8, servers_per_tor=10,
    apps=16, fanout=8, waves=6, seed=7,
)

#: Hyperscale scenario: O(10^5) servers, O(10^6) flows.  Each rack
#: runs ``waves`` successive equal-size incast waves (every server
#: sends to a rotating sink), so a wave's flows finish simultaneously
#: and ``completion_quantum`` coalesces the wave-end into one batched
#: recompute of a ~``servers_per_tor``-flow component.
HYPERSCALE_SCENARIO = dict(
    n_spine=4, n_leaf=16, n_tor=2500, servers_per_tor=40,
    waves=11, seed=7, completion_quantum=1e-3,
)

#: Full-scale fig10 smoke: the paper's 1,944-server cluster shape
#: under the co-run workload, one app per rack.
FIG10_SCENARIO = dict(
    n_spine=54, n_leaf=102, n_tor=108, servers_per_tor=18,
    apps=108, fanout=8, waves=3, seed=7,
)

SCENARIOS = ("corun", "hyperscale", "fig10")

#: cProfile rows reported with ``--profile``.
_PROFILE_TOP = 25


def env_metadata(solver_backend: Optional[str] = None) -> Dict[str, Any]:
    """Interpreter / library provenance for benchmark payloads."""
    meta: Dict[str, Any] = {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }
    if solver_backend is not None:
        meta["solver_backend"] = solver_backend
    return meta


def _profile_lines(prof: Any) -> List[str]:
    """Top cumulative-time rows of a cProfile run, as text lines."""
    import io
    import pstats

    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP)
    return [line.rstrip() for line in buf.getvalue().splitlines() if line.strip()]


class _WFQBenchPolicy:
    """Static WFQ by priority level; exercises the weighted solver.

    Pure function of the flow's own header and the queue index, so
    component-scoped solving is exact (``component_safe`` defaults to
    ``True``).
    """

    name = "bench-wfq"

    def __init__(self, num_queues: int = 8) -> None:
        self._num_queues = num_queues
        self._scheduler = WFQScheduler(
            queue_of=self._queue_of, weight_of=self._weight_of,
        )

    def _queue_of(self, flow: Flow) -> int:
        return (flow.pl or 0) % self._num_queues

    def _weight_of(self, queue: int) -> float:
        return float(queue + 1)

    def attach(self, fabric: FluidFabric) -> None:  # noqa: D102
        pass

    def scheduler_of(self, link_id: str) -> LinkScheduler:  # noqa: D102
        return self._scheduler

    def on_flow_started(self, flow: Flow) -> None:  # noqa: D102
        pass

    def on_flow_finished(self, flow: Flow) -> None:  # noqa: D102
        pass


def _timed_run(fabric: FluidFabric, profile: bool) -> Tuple[float, float, List[str]]:
    """Run the fabric to completion; returns (horizon, wall, profile)."""
    if profile:
        import cProfile

        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        horizon = fabric.run()
        prof.disable()
        wall = time.perf_counter() - t0
        return horizon, wall, _profile_lines(prof)
    t0 = time.perf_counter()
    horizon = fabric.run()
    wall = time.perf_counter() - t0
    return horizon, wall, []


def _solver_stats(fabric: FluidFabric, wall: float) -> Dict[str, Any]:
    """The per-run stat block shared by every scenario."""
    events = fabric.loop_events
    solves = fabric.rate_recomputes
    return {
        "solver_backend": fabric.solver_backend,
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "rate_recomputes": solves,
        "solver_calls_per_event": round(solves / events, 4) if events else 0.0,
        "components_solved": fabric.components_solved,
        "flows_solved": fabric.flows_solved,
        "mean_component_flows": round(
            fabric.flows_solved / fabric.components_solved, 2
        ) if fabric.components_solved else 0.0,
        "vector_components": fabric.vector_components,
        "object_components": fabric.object_components,
        "vector_solver_seconds": round(fabric.vector_seconds, 4),
        "object_solver_seconds": round(fabric.object_seconds, 4),
        # The recompute pipeline split: time spent building solver
        # inputs (discovery, caps/spec marshalling, CSR assembly, rate
        # scatter) vs inside the solvers themselves.
        "marshal_seconds": round(fabric.marshal_seconds, 4),
        "solve_seconds": round(fabric.solve_seconds, 4),
        "flows_completed": len(fabric.completed),
        "flows_per_sec": round(len(fabric.completed) / wall, 1)
        if wall > 0 else None,
    }


def _run_mode(
    incremental: bool,
    n_spine: int, n_leaf: int, n_tor: int, servers_per_tor: int,
    apps: int, fanout: int, waves: int, seed: int,
    solver_backend: str = "object",
    profile: bool = False,
) -> Tuple[Dict[str, Any], Dict[Tuple[int, int, int], float], List[str]]:
    """One co-run benchmark run.

    Returns (stats, completion times by flow key, profile lines).
    """
    topology = spine_leaf(
        n_spine=n_spine, n_leaf=n_leaf, n_tor=n_tor,
        servers_per_tor=servers_per_tor, capacity=GBPS_56,
    )
    fabric = FluidFabric(
        topology, incremental=incremental, solver_backend=solver_backend,
    )
    fabric.set_policy(_WFQBenchPolicy())
    router = Router(topology)
    completions: Dict[Tuple[int, int, int], float] = {}

    def launch_app(app_idx: int) -> None:
        rack = app_idx % n_tor
        servers = [
            f"server{rack * servers_per_tor + s}"
            for s in range(servers_per_tor)
        ]
        rng = Random(seed * 7919 + app_idx)
        state = {"wave": 0, "outstanding": 0}

        def start_wave() -> None:
            if state["wave"] >= waves:
                return
            wave = state["wave"]
            state["wave"] += 1
            for i in range(fanout):
                src, dst = rng.sample(servers, 2)
                flow = Flow(
                    src=src, dst=dst,
                    size=rng.uniform(0.05, 2.0) * 1e9,
                    app=f"app{app_idx}", pl=rng.randrange(16),
                    # Routed with a mode-independent ECMP key: global
                    # flow ids differ between the two runs and would
                    # otherwise pick different equal-cost paths.
                    path=tuple(router.path_for_flow(
                        src, dst, app_idx * 1_000_000 + wave * 1000 + i
                    )),
                )
                key = (app_idx, wave, i)
                state["outstanding"] += 1

                def done(f: Flow, key=key) -> None:
                    completions[key] = f.finish_time
                    state["outstanding"] -= 1
                    if state["outstanding"] == 0:
                        start_wave()

                fabric.start_flow(flow, on_complete=done)

        # Stagger app arrivals so starts do not all coincide.
        fabric.sim.schedule_at(app_idx * 1.3e-4, start_wave)

    for app_idx in range(apps):
        launch_app(app_idx)

    horizon, wall, prof_lines = _timed_run(fabric, profile)
    stats = _solver_stats(fabric, wall)
    stats["incremental"] = incremental
    stats["sim_horizon"] = round(horizon, 6)
    return stats, completions, prof_lines


def _run_incast(
    n_spine: int, n_leaf: int, n_tor: int, servers_per_tor: int,
    waves: int, seed: int, completion_quantum: float,
    solver_backend: str = "auto",
    profile: bool = False,
) -> Tuple[Dict[str, Any], Dict[Tuple[int, int, int], float], List[str]]:
    """One hyperscale incast run (lazy wave-by-wave flow generation).

    Every rack runs ``waves`` successive incast waves: each of its
    servers sends one equal-size flow to a rotating sink server.  A
    wave's flows are only materialized when the previous wave
    drains, so at most ``n_tor * (servers_per_tor - 1)`` flow objects
    are live at once even though the whole scenario pushes
    ``n_tor * (servers_per_tor - 1) * waves`` flows through the
    fabric.
    """
    topology = spine_leaf(
        n_spine=n_spine, n_leaf=n_leaf, n_tor=n_tor,
        servers_per_tor=servers_per_tor, capacity=GBPS_56,
    )
    fabric = FluidFabric(
        topology, incremental=True, solver_backend=solver_backend,
        completion_quantum=completion_quantum,
    )
    fabric.set_policy(_WFQBenchPolicy())
    router = Router(topology)
    completions: Dict[Tuple[int, int, int], float] = {}

    def launch_rack(rack: int) -> None:
        base = rack * servers_per_tor
        servers = [f"server{base + s}" for s in range(servers_per_tor)]
        state = {"wave": 0, "outstanding": 0}

        def start_wave() -> None:
            if state["wave"] >= waves:
                return
            wave = state["wave"]
            state["wave"] += 1
            sink = servers[wave % servers_per_tor]
            for i, src in enumerate(servers):
                if src == sink:
                    continue
                flow = Flow(
                    src=src, dst=sink, size=1.0e9,
                    app=f"rack{rack}", pl=wave % 16,
                    path=tuple(router.path_for_flow(
                        src, sink, rack * 1_000_000 + wave * 1000 + i
                    )),
                )
                key = (rack, wave, i)
                state["outstanding"] += 1

                def done(f: Flow, key=key) -> None:
                    completions[key] = f.finish_time
                    state["outstanding"] -= 1
                    if state["outstanding"] == 0:
                        start_wave()

                fabric.start_flow(flow, on_complete=done)

        fabric.sim.schedule_at(rack * 1.3e-4, start_wave)

    for rack in range(n_tor):
        launch_rack(rack)

    horizon, wall, prof_lines = _timed_run(fabric, profile)
    stats = _solver_stats(fabric, wall)
    stats["incremental"] = True
    stats["completion_quantum"] = completion_quantum
    stats["sim_horizon"] = round(horizon, 6)
    return stats, completions, prof_lines


def _completion_diff(
    a: Dict[Tuple[int, int, int], float],
    b: Dict[Tuple[int, int, int], float],
) -> float:
    """Max relative completion-time difference between two runs."""
    max_rel = 0.0
    for key, t_a in a.items():
        t_b = b.get(key)
        if t_b is None:
            return float("inf")
        denom = max(abs(t_a), abs(t_b), 1e-30)
        max_rel = max(max_rel, abs(t_a - t_b) / denom)
    return max_rel


def _payload_header(bench: str, backend: str) -> Dict[str, Any]:
    header = {
        "bench": bench,
        "created_unix": time.time(),
        "code_version": code_version(),
        "cpu_count": os.cpu_count(),
    }
    header.update(env_metadata(backend))
    return header


def run_bench(
    scenario: Optional[Dict[str, int]] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "auto",
    profile: bool = False,
) -> Dict[str, Any]:
    """Benchmark full vs incremental vs vectorized solving on one
    synthetic co-run.

    Returns the ``BENCH_fabric.json`` payload.  ``scenario`` overrides
    :data:`DEFAULT_SCENARIO` keys (CI passes a reduced grid);
    ``backend`` is the solver backend of the third, vectorized run.
    """
    params = dict(DEFAULT_SCENARIO)
    if scenario:
        params.update({k: v for k, v in scenario.items() if v is not None})

    def narrate(message: str) -> None:
        if progress is not None:
            progress(message)

    total_flows = params["apps"] * params["fanout"] * params["waves"]
    narrate(
        f"bench: {params['apps']} apps x {params['waves']} waves x "
        f"{params['fanout']} flows = {total_flows} flows on "
        f"{params['n_tor'] * params['servers_per_tor']} servers"
    )
    full, full_times, _ = _run_mode(incremental=False, **params)
    narrate(
        f"bench: full recompute done in {full['wall_seconds']:.2f}s "
        f"({full['events_per_sec']} events/s)"
    )
    incr, incr_times, _ = _run_mode(incremental=True, **params)
    narrate(
        f"bench: incremental done in {incr['wall_seconds']:.2f}s "
        f"({incr['events_per_sec']} events/s)"
    )
    vec, vec_times, prof_lines = _run_mode(
        incremental=True, solver_backend=backend, profile=profile, **params
    )
    narrate(
        f"bench: incremental[{backend}] done in "
        f"{vec['wall_seconds']:.2f}s ({vec['events_per_sec']} events/s, "
        f"{vec['vector_components']} components on the vector kernels)"
    )
    max_rel = _completion_diff(full_times, incr_times)
    vec_rel = _completion_diff(incr_times, vec_times)
    full_evps = full["events_per_sec"] or 0.0
    incr_evps = incr["events_per_sec"] or 0.0
    vec_evps = vec["events_per_sec"] or 0.0
    speedup = incr_evps / full_evps if full_evps > 0 else float("inf")
    payload = _payload_header("fabric.incremental-rate-solving", backend)
    payload.update({
        "scenario": params,
        "full": full,
        "incremental": incr,
        "vector": vec,
        "speedup": round(speedup, 3),
        "max_rel_completion_diff": max_rel,
        "identical_results": (
            len(full_times) == len(incr_times) and max_rel <= 1e-9
        ),
        "vector_speedup": round(
            vec_evps / incr_evps if incr_evps > 0 else float("inf"), 3
        ),
        "vector_max_rel_completion_diff": vec_rel,
        "vector_identical_results": (
            len(incr_times) == len(vec_times) and vec_rel <= 1e-9
        ),
    })
    if prof_lines:
        payload["profile_top25"] = prof_lines
    return payload


def run_hyperscale(
    scenario: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "auto",
    profile: bool = False,
) -> Dict[str, Any]:
    """Benchmark the hyperscale incast scenario on both backends.

    Returns the ``BENCH_hyperscale.json`` payload.  ``scenario``
    overrides :data:`HYPERSCALE_SCENARIO` keys (CI passes a reduced
    grid; the committed snapshot uses the full one).
    """
    params = dict(HYPERSCALE_SCENARIO)
    if scenario:
        params.update({k: v for k, v in scenario.items() if v is not None})

    def narrate(message: str) -> None:
        if progress is not None:
            progress(message)

    servers = params["n_tor"] * params["servers_per_tor"]
    total_flows = (
        params["n_tor"] * (params["servers_per_tor"] - 1) * params["waves"]
    )
    narrate(
        f"hyperscale: {servers} servers, {params['n_tor']} racks x "
        f"{params['waves']} incast waves = {total_flows} flows"
    )
    vec, vec_times, prof_lines = _run_incast(
        solver_backend=backend, profile=profile, **params
    )
    narrate(
        f"hyperscale[{backend}]: {vec['flows_completed']} flows in "
        f"{vec['wall_seconds']:.1f}s ({vec['flows_per_sec']} flows/s)"
    )
    obj, obj_times, _ = _run_incast(solver_backend="object", **params)
    narrate(
        f"hyperscale[object]: {obj['flows_completed']} flows in "
        f"{obj['wall_seconds']:.1f}s ({obj['flows_per_sec']} flows/s)"
    )
    max_rel = _completion_diff(obj_times, vec_times)
    vec_fps = vec["flows_per_sec"] or 0.0
    obj_fps = obj["flows_per_sec"] or 0.0
    payload = _payload_header("fabric.hyperscale-incast", backend)
    payload.update({
        "scenario": params,
        "servers": servers,
        "total_flows": total_flows,
        "vector": vec,
        "object": obj,
        "vector_speedup": round(
            vec_fps / obj_fps if obj_fps > 0 else float("inf"), 3
        ),
        "max_rel_completion_diff": max_rel,
        "identical_results": (
            len(obj_times) == len(vec_times)
            and vec["flows_completed"] == total_flows
            and max_rel <= 1e-9
        ),
    })
    if prof_lines:
        payload["profile_top25"] = prof_lines
    return payload


def run_fig10_smoke(
    scenario: Optional[Dict[str, int]] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "auto",
    profile: bool = False,
) -> Dict[str, Any]:
    """Smoke-run the co-run workload on the full 1,944-server fig10
    topology, on both solver backends, with an agreement check."""
    params = dict(FIG10_SCENARIO)
    if scenario:
        params.update({k: v for k, v in scenario.items() if v is not None})

    def narrate(message: str) -> None:
        if progress is not None:
            progress(message)

    servers = params["n_tor"] * params["servers_per_tor"]
    total_flows = params["apps"] * params["fanout"] * params["waves"]
    narrate(
        f"fig10 smoke: {servers} servers, {params['apps']} apps, "
        f"{total_flows} flows"
    )
    vec, vec_times, prof_lines = _run_mode(
        incremental=True, solver_backend=backend, profile=profile, **params
    )
    narrate(
        f"fig10[{backend}]: done in {vec['wall_seconds']:.1f}s "
        f"({vec['events_per_sec']} events/s)"
    )
    obj, obj_times, _ = _run_mode(incremental=True, **params)
    narrate(
        f"fig10[object]: done in {obj['wall_seconds']:.1f}s "
        f"({obj['events_per_sec']} events/s)"
    )
    max_rel = _completion_diff(obj_times, vec_times)
    payload = _payload_header("fabric.fig10-full-scale-smoke", backend)
    payload.update({
        "scenario": params,
        "servers": servers,
        "total_flows": total_flows,
        "vector": vec,
        "object": obj,
        "max_rel_completion_diff": max_rel,
        "identical_results": (
            len(obj_times) == len(vec_times)
            and vec["flows_completed"] == total_flows
            and max_rel <= 1e-9
        ),
    })
    if prof_lines:
        payload["profile_top25"] = prof_lines
    return payload


def write_bench(payload: Dict[str, Any], out: str) -> None:
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
