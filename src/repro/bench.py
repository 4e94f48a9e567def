"""Benchmarks behind ``python -m repro {fabric,control,sweep} bench``.

Every payload starts with one :func:`header` and is written by one
:func:`write`; the benches are scenario definitions on top of them.

``fabric`` (:func:`run_fabric`) times the fluid fabric's rate solving.
A scenario generates traffic as groups of flows released in waves (a
group's next wave starts when its previous one drains) and runs it to
completion with component-scoped incremental solving:

``corun`` (default)
    ``apps`` applications pinned round-robin to the racks of a
    fig10-scale spine-leaf fabric, each running ``waves`` waves of
    ``fanout`` random rack-local flows under static WFQ.  The traffic
    decomposes into per-rack congestion components and a completion
    disturbs only its own rack -- the regime the incremental solver
    targets (a cross-rack co-run merges into one giant component; see
    DESIGN.md 5d).  Also runs a full-recompute baseline
    (``FluidFabric(incremental=False)``) whose completion times must
    agree with the incremental run's to 1e-9 relative; ``speedup`` is
    the incremental run's throughput over the baseline's.
``hyperscale``
    100,000 servers (2,500 racks x 40) pushing 1,072,500 rack-local
    incast flows: in each wave every server of a rack sends one
    equal-size flow to a rotating sink.  Waves are generated lazily,
    so at most one wave per rack is live, and a wave's flows finish
    together, so ``completion_quantum`` coalesces each wave-end into
    one batched recompute of ~39-flow components.  The headline metric
    is completed flows per wall-clock second.
``fig10``
    The co-run on the paper's full 1,944-server cluster (54 spine /
    102 leaf / 108 ToR x 18 servers), one app per rack.

``control`` (:func:`run_control`) measures the two layers the shared
:class:`~repro.core.pipeline.AllocationPipeline` adds to the Saba
allocation path, on a steady-state connection churn that never changes
a port's application multiset (the steady state Section 5 describes):
the per-port programmed-signature cache, off vs on (the cached run
must skip every port visit), and event coalescing, one reallocation
pass per connection event vs one deduplicated pass per
:data:`COALESCE_QUANTUM`.  Both pairs must end with identical port
tables.

``sweep`` (:func:`run_sweep`) runs one profiling sweep with ``jobs=1``
in-process and with ``jobs=N`` over the process pool, caching off in
both, :data:`SWEEP_REPEATS` times each, alternating; it reports each
side's median wall time and checks that every fitted table is
bit-identical.

The committed ``BENCH_fabric.json`` (``corun``),
``BENCH_hyperscale.json``, ``BENCH_control.json`` and
``BENCH_sweep.json`` at the repo root are snapshots of these payloads;
regenerate one with its command plus ``--out``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from random import Random
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from repro.core.controller import SabaController
from repro.core.profiler import PROFILE_FRACTIONS, OfflineProfiler
from repro.core.table import SensitivityTable
from repro.obs.export import code_version
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import LinkScheduler, WFQScheduler
from repro.simnet.flows import Flow
from repro.simnet.routing import Router
from repro.simnet.topology import spine_leaf
from repro.sweep.runner import SweepRunner, resolve_jobs
from repro.units import GBPS_56
from repro.workloads.catalog import CATALOG

Progress = Callable[[str], None]


def _quiet(message: str) -> None:
    """The default progress sink: say nothing."""


def header(bench: str) -> Dict[str, Any]:
    """The provenance keys every payload starts with."""
    return {
        "bench": bench,
        "created_unix": time.time(),
        "code_version": code_version(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }


def dumps(payload: Mapping[str, Any]) -> str:
    """A payload's canonical text: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write(text: str, out: str) -> None:
    """Write a payload's text to ``out``, newline-terminated."""
    with open(out, "w") as handle:
        handle.write(text)
        handle.write("\n")


def _params(
    defaults: Mapping[str, Any], overrides: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """``defaults`` with the overrides that are set and that the
    scenario has (the CLI passes every size flag to every scenario)."""
    params = dict(defaults)
    params.update({
        k: v for k, v in (overrides or {}).items()
        if v is not None and k in defaults
    })
    return params


def _ratio(num: float, den: float) -> float:
    return round(num / den, 3) if den > 0 else float("inf")


# -- fabric ---------------------------------------------------------------------

#: A group's wave generator: wave index -> (flow index, src, dst, size,
#: PL) of each flow in that wave.
Wave = Callable[[int], Iterator[Tuple[int, str, str, float, int]]]
#: Traffic: scenario params -> (total flows, (app name, wave generator)
#: of each group).  Called afresh per run, so every run draws the same
#: random numbers.
Traffic = Callable[[Dict[str, Any]], Tuple[int, List[Tuple[str, Wave]]]]


def _rack(p: Mapping[str, Any], rack: int) -> List[str]:
    base = rack * p["servers_per_tor"]
    return [f"server{base + s}" for s in range(p["servers_per_tor"])]


def _corun(p: Dict[str, Any]) -> Tuple[int, List[Tuple[str, Wave]]]:
    """``apps`` apps pinned round-robin to racks; each wave is
    ``fanout`` random rack-local flows of random size and PL."""

    def app(g: int) -> Tuple[str, Wave]:
        servers = _rack(p, g % p["n_tor"])
        rng = Random(p["seed"] * 7919 + g)

        def wave(w: int) -> Iterator[Tuple[int, str, str, float, int]]:
            for i in range(p["fanout"]):
                src, dst = rng.sample(servers, 2)
                yield i, src, dst, rng.uniform(0.05, 2.0) * 1e9, rng.randrange(16)

        return f"app{g}", wave

    total = p["apps"] * p["fanout"] * p["waves"]
    return total, [app(g) for g in range(p["apps"])]


def _incast(p: Dict[str, Any]) -> Tuple[int, List[Tuple[str, Wave]]]:
    """One group per rack; in wave ``w`` every server but sink
    ``w mod servers_per_tor`` sends 1 GB to the sink."""

    def rack(g: int) -> Tuple[str, Wave]:
        servers = _rack(p, g)

        def wave(w: int) -> Iterator[Tuple[int, str, str, float, int]]:
            sink = servers[w % len(servers)]
            for i, src in enumerate(servers):
                if src != sink:
                    yield i, src, sink, 1.0e9, w % 16

        return f"rack{g}", wave

    total = p["n_tor"] * (p["servers_per_tor"] - 1) * p["waves"]
    return total, [rack(g) for g in range(p["n_tor"])]


class _FabricScenario(NamedTuple):
    bench: str
    defaults: Dict[str, Any]
    traffic: Traffic
    #: Also make a full-recompute run (payload key ``full``) and
    #: compare it with the incremental one.
    with_full: bool


FABRIC_SCENARIOS = {
    "corun": _FabricScenario(
        "fabric.incremental-rate-solving",
        dict(n_spine=8, n_leaf=8, n_tor=8, servers_per_tor=10,
             apps=16, fanout=8, waves=6, seed=7),
        _corun, True,
    ),
    "hyperscale": _FabricScenario(
        "fabric.hyperscale-incast",
        dict(n_spine=4, n_leaf=16, n_tor=2500, servers_per_tor=40,
             waves=11, seed=7, completion_quantum=1e-3),
        _incast, False,
    ),
    "fig10": _FabricScenario(
        "fabric.fig10-full-scale-smoke",
        dict(n_spine=54, n_leaf=102, n_tor=108, servers_per_tor=18,
             apps=108, fanout=8, waves=3, seed=7),
        _corun, False,
    ),
}


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


def _fabric_run(
    p: Dict[str, Any], traffic: Traffic, incremental: bool,
) -> Tuple[Dict[str, Any], Dict[Tuple[int, int, int], float]]:
    """Run ``traffic`` to completion on a fresh fabric.

    Returns (stats, completion time by (group, wave, flow index)).
    """
    topology = spine_leaf(
        n_spine=p["n_spine"], n_leaf=p["n_leaf"], n_tor=p["n_tor"],
        servers_per_tor=p["servers_per_tor"], capacity=GBPS_56,
    )
    fabric = FluidFabric(
        topology, incremental=incremental,
        completion_quantum=p.get("completion_quantum", 0.0),
    )
    fabric.set_policy(_WFQBenchPolicy())
    router = Router(topology)
    completions: Dict[Tuple[int, int, int], float] = {}

    def launch(g: int, app: str, wave_flows: Wave) -> None:
        state = {"wave": 0, "outstanding": 0}

        def start_wave() -> None:
            w = state["wave"]
            if w >= p["waves"]:
                return
            state["wave"] += 1
            for i, src, dst, size, pl in wave_flows(w):
                flow = Flow(
                    src=src, dst=dst, size=size, app=app, pl=pl,
                    # Routed with a run-independent ECMP key: global
                    # flow ids differ between runs and would otherwise
                    # pick different equal-cost paths.
                    path=tuple(router.path_for_flow(
                        src, dst, g * 1_000_000 + w * 1000 + i
                    )),
                )
                state["outstanding"] += 1

                def done(f: Flow, key: Tuple[int, int, int] = (g, w, i)) -> None:
                    completions[key] = f.finish_time
                    state["outstanding"] -= 1
                    if state["outstanding"] == 0:
                        start_wave()

                fabric.start_flow(flow, on_complete=done)

        # Stagger group arrivals so starts do not all coincide.
        fabric.sim.schedule_at(g * 1.3e-4, start_wave)

    for g, (app, wave_flows) in enumerate(traffic(p)[1]):
        launch(g, app, wave_flows)

    t0 = time.perf_counter()
    horizon = fabric.run()
    wall = time.perf_counter() - t0
    events = fabric.loop_events
    completed = len(fabric.completed)
    stats: Dict[str, Any] = {
        "incremental": incremental,
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "rate_recomputes": fabric.rate_recomputes,
        "solver_calls_per_event": (
            round(fabric.rate_recomputes / events, 4) if events else 0.0
        ),
        "components_solved": fabric.components_solved,
        "flows_solved": fabric.flows_solved,
        "mean_component_flows": round(
            fabric.flows_solved / fabric.components_solved, 2
        ) if fabric.components_solved else 0.0,
        # The recompute pipeline split: time spent building solver
        # inputs (discovery, caps marshalling, rate scatter) vs inside
        # the solver itself.
        "marshal_seconds": round(fabric.marshal_seconds, 4),
        "solve_seconds": round(fabric.solve_seconds, 4),
        "flows_completed": completed,
        "flows_per_sec": round(completed / wall, 1) if wall > 0 else None,
        "sim_horizon": round(horizon, 6),
    }
    if "completion_quantum" in p:
        stats["completion_quantum"] = p["completion_quantum"]
    return stats, completions


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


def run_fabric(
    scenario: str = "corun",
    overrides: Optional[Mapping[str, Any]] = None,
    progress: Progress = _quiet,
) -> Dict[str, Any]:
    """Make a fabric scenario's runs and, for ``corun``, compare them.

    Returns the payload (``BENCH_fabric.json`` for ``corun``,
    ``BENCH_hyperscale.json`` for ``hyperscale``).  ``overrides``
    replaces scenario defaults (CI passes reduced grids).
    """
    spec = FABRIC_SCENARIOS[scenario]
    p = _params(spec.defaults, overrides)
    total = spec.traffic(p)[0]
    servers = p["n_tor"] * p["servers_per_tor"]
    progress(f"{scenario}: {total} flows on {servers} servers")
    stats: Dict[str, Dict[str, Any]] = {}
    times: Dict[str, Dict[Tuple[int, int, int], float]] = {}
    runs = (("full", False),) if spec.with_full else ()
    for key, incremental in runs + (("incremental", True),):
        stats[key], times[key] = _fabric_run(p, spec.traffic, incremental)
        run = stats[key]
        progress(
            f"{scenario}[{key}]: {run['flows_completed']} flows in "
            f"{run['wall_seconds']:.2f}s ({run['flows_per_sec']} flows/s, "
            f"{run['components_solved']} components solved)"
        )
    payload = header(spec.bench)
    payload.update(stats, scenario=p, servers=servers, total_flows=total)
    if spec.with_full:
        max_rel = _completion_diff(times["full"], times["incremental"])
        payload["speedup"] = _ratio(
            stats["incremental"]["flows_per_sec"] or 0.0,
            stats["full"]["flows_per_sec"] or 0.0,
        )
        payload["max_rel_completion_diff"] = max_rel
        payload["identical_results"] = (
            len(times["full"]) == len(times["incremental"]) == total
            and max_rel <= 1e-9
        )
    return payload


# -- control --------------------------------------------------------------------

#: Control-bench default: the fig10 cluster shape with a catalog-scale
#: application mix.
CONTROL_SCENARIO = dict(
    n_spine=8, n_leaf=8, n_tor=8, servers_per_tor=10,
    apps=10, conns_per_app=4, rounds=20, seed=7,
)

#: Sim-time quantum of the coalesced run (seconds) and spacing of the
#: churn events; ~25 connection events land in each quantum.
COALESCE_QUANTUM = 0.05
EVENT_SPACING = 0.002

#: Pipeline counters reported per run (deltas over the churn).
_PIPELINE_COUNTERS = (
    "passes", "port_allocations", "port_resets", "optimizer_calls",
    "solver_cache_hits", "signature_skips", "programs", "invalidations",
    "invalidations_skipped", "coalesced_updates", "coalesce_flushes",
)


def _churn(
    table: SensitivityTable, p: Mapping[str, Any], **controller_kwargs: Any,
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """One churn run; returns (stats, final port tables).

    A controller on a spine-leaf fabric registers ``apps`` apps with
    ``conns_per_app`` standing connections each; every round then opens
    and closes a short-lived extra connection next to each standing
    one.  Runs that set ``coalesce_quantum`` replay the churn through
    simulated time, one event every :data:`EVENT_SPACING` seconds.
    """
    topology = spine_leaf(
        n_spine=p["n_spine"], n_leaf=p["n_leaf"], n_tor=p["n_tor"],
        servers_per_tor=p["servers_per_tor"], capacity=GBPS_56,
    )
    fabric = FluidFabric(topology)
    controller = SabaController(table, **controller_kwargs)
    fabric.set_policy(controller)
    router = Router(topology)
    rng = Random(p["seed"])
    names = table.names()
    standing: List[Tuple[str, List[str]]] = []
    for i in range(p["apps"]):
        job = f"app{i}"
        controller.app_register(job, names[i % len(names)])
        for c in range(p["conns_per_app"]):
            src, dst = rng.sample(topology.servers, 2)
            standing.append(
                (job, list(router.path_for_flow(src, dst, i * 10_000 + c)))
            )
    for job, path in standing:
        controller.conn_create(job, path)

    def churn(job: str, path: List[str]) -> None:
        controller.conn_create(job, path)
        controller.conn_destroy(job, path)

    counters = controller.pipeline.stats
    before = {name: getattr(counters, name) for name in _PIPELINE_COUNTERS}
    events = standing * p["rounds"]
    through_sim = "coalesce_quantum" in controller_kwargs
    if through_sim:
        t = 0.0
        for job, path in events:
            t += EVENT_SPACING
            fabric.sim.schedule_at(t, lambda j=job, q=path: churn(j, q))
        t0 = time.perf_counter()
        fabric.run()
    else:
        t0 = time.perf_counter()
        for job, path in events:
            churn(job, path)
    wall = time.perf_counter() - t0
    delta = {
        name: getattr(counters, name) - before[name]
        for name in _PIPELINE_COUNTERS
    }
    stats: Dict[str, Any] = {
        **controller_kwargs,
        "wall_seconds": round(wall, 4),
        "reallocations": delta["passes"],
        **delta,
    }
    if not through_sim:
        stats["reallocations_per_sec"] = (
            round(delta["passes"] / wall, 1) if wall > 0 else None
        )
    return stats, _port_tables(controller, fabric)


def _port_tables(
    controller: SabaController, fabric: FluidFabric
) -> Dict[str, Dict[str, Any]]:
    """Programmed state of every known port, minus the generation
    counter (how *often* a table was written is exactly what the
    signature cache changes; what is *in* it must not change)."""
    tables: Dict[str, Dict[str, Any]] = {}
    for link_id in sorted(controller._port_apps):
        snapshot = fabric.topology.port_table(link_id).snapshot()
        snapshot.pop("generation")
        snapshot["mapping"] = {
            str(pl): q for pl, q in sorted(snapshot["mapping"].items())
        }
        tables[link_id] = snapshot
    return tables


def run_control(
    overrides: Optional[Mapping[str, Any]] = None,
    table: Optional[SensitivityTable] = None,
    progress: Progress = _quiet,
) -> Dict[str, Any]:
    """Benchmark signature caching and event coalescing.

    Returns the ``BENCH_control.json`` payload.  ``overrides`` replaces
    :data:`CONTROL_SCENARIO` keys (CI passes a reduced grid).
    """
    p = _params(CONTROL_SCENARIO, overrides)
    if table is None:
        from repro.experiments.common import build_catalog_table

        table = build_catalog_table(method="analytic")
    events = p["apps"] * p["conns_per_app"] * p["rounds"] * 2
    progress(f"control bench: {events} churn events on "
             f"{p['n_tor'] * p['servers_per_tor']} servers")
    sig_off, tables_off = _churn(table, p, use_signature_cache=False)
    sig_on, tables_on = _churn(table, p, use_signature_cache=True)
    progress(f"control bench: signatures off {sig_off['wall_seconds']:.2f}s "
             f"({sig_off['programs']} programs), on "
             f"{sig_on['wall_seconds']:.2f}s "
             f"({sig_on['signature_skips']} skips)")
    eager, tables_eager = _churn(table, p, coalesce_quantum=0.0)
    coalesced, tables_coalesced = _churn(
        table, p, coalesce_quantum=COALESCE_QUANTUM
    )
    progress(f"control bench: {eager['passes']} eager passes coalesce to "
             f"{coalesced['passes']}")
    payload = header("control.allocation-pipeline")
    payload.update({
        "scenario": p,
        "signatures_off": sig_off,
        "signatures_on": sig_on,
        "signature_speedup": _ratio(
            sig_off["wall_seconds"], sig_on["wall_seconds"]
        ),
        "identical_tables": tables_off == tables_on,
        "eager": eager,
        "coalesced": coalesced,
        "coalesce_pass_reduction": round(
            eager["passes"] / coalesced["passes"], 2
        ) if coalesced["passes"] else float("inf"),
        "identical_coalesced_tables": tables_eager == tables_coalesced,
    })
    return payload


# -- sweep ----------------------------------------------------------------------

#: Sweep-bench pod size.  At the reference 8-node pod a profiling point
#: costs ~3 ms and pool overhead eats the win; at 32 nodes each point is
#: >10 ms of real simulation and the fan-out pays off on multi-core
#: runners.
BENCH_NODES = 32

#: Runs per side of the sweep bench.  Single shots mixed warm-up with
#: parallelism: nine full-grid ``--jobs 2`` runs on a 2-vCPU host gave
#: serial walls of 1.36-2.70 s against parallel 1.00-1.45 s.
SWEEP_REPEATS = 3


def run_sweep(
    workloads: Optional[Sequence[str]] = None,
    fractions: Optional[Sequence[float]] = None,
    n_nodes: int = BENCH_NODES,
    jobs: Union[int, str] = "auto",
    progress: Progress = _quiet,
) -> Dict[str, Any]:
    """Time the profiling sweep serially and in parallel.

    Returns the ``BENCH_sweep.json`` payload.  The grid defaults to the
    full catalog simulated at :data:`BENCH_NODES` nodes, so per-task
    work dominates process-pool overhead.
    """
    names = list(workloads) if workloads is not None else list(CATALOG)
    grid = tuple(fractions) if fractions is not None else PROFILE_FRACTIONS
    if 1.0 not in grid:  # the profiler adds the unthrottled baseline
        grid = grid + (1.0,)
    profiler = OfflineProfiler(
        fractions=grid,
        # A degree-k fit needs k+1 samples; cap k so heavily reduced
        # grids (CI) still fit.
        degree=min(3, len(set(grid)) - 1),
        n_nodes=n_nodes,
        method="simulate",
    )
    spec = profiler.sweep_spec([CATALOG[n] for n in names])
    n_jobs = resolve_jobs(jobs)
    progress(f"sweep bench: {len(spec)} tasks ({len(names)} workloads x "
             f"{len(profiler.fractions)} fractions at {n_nodes} nodes)")
    # Serial and parallel runs alternate, so drift on a shared host hits
    # both sides alike; each side reports its median run.
    serial_walls: List[float] = []
    parallel_walls: List[float] = []
    tables: List[str] = []
    for i in range(SWEEP_REPEATS):
        for side, walls in ((1, serial_walls), (n_jobs, parallel_walls)):
            result = SweepRunner(jobs=side, cache=None).run(spec)
            walls.append(result.wall_seconds)
            tables.append(result.value.to_json())
            progress(f"sweep bench: run {i + 1}/{SWEEP_REPEATS} jobs={side} "
                     f"done in {result.wall_seconds:.2f}s")
    serial_seconds = float(np.median(serial_walls))
    parallel_seconds = float(np.median(parallel_walls))
    payload = header("sweep.profile-catalog")
    payload.update({
        "grid": {
            "workloads": names,
            "fractions": [float(f) for f in profiler.fractions],
            "n_nodes": n_nodes,
            "method": "simulate",
        },
        "n_tasks": len(spec),
        "jobs": n_jobs,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": _ratio(serial_seconds, parallel_seconds),
        # Every run's table, compared through canonical JSON to assert
        # bit-identity.
        "identical_results": len(set(tables)) == 1,
    })
    return payload
