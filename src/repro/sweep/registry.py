"""The sweep-backed experiments: one definition each.

``python -m repro <name>`` (fig5, fig8, fig10, faults, online,
service) and ``python -m repro sweep <name>`` both run the entry
named here.  Each entry pairs a *spec builder* (options -> the
experiment module's :class:`~repro.sweep.task.SweepSpec`) with a
*renderer* (the reduced value -> deterministic text) and the *checks*
the CLI exits non-zero on.  Renderers must be order-stable so two
runs of the same experiment -- or a serial and a parallel run -- can
be compared with a plain ``diff``; that is how the bit-identity
acceptance check works from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.errors import SweepError
from repro.sweep.task import SweepSpec

#: ``(ok, message)`` pairs; the CLI exits with the first failing message.
Checks = Sequence[Tuple[bool, str]]


def _no_checks(value: Any) -> Checks:
    return ()


@dataclass(frozen=True)
class Experiment:
    """One runnable sweep: its spec, its printout, its exit checks.

    ``defaults`` names every option the spec builder reads -- each one
    the ``dest`` of a CLI flag -- with the value it takes when unset.
    """

    name: str
    help: str
    make_spec: Callable[[Dict[str, Any]], SweepSpec]
    render: Callable[[Any], str]
    defaults: Dict[str, Any] = field(default_factory=dict)
    checks: Callable[[Any], Checks] = _no_checks

    def build(self, options: Mapping[str, Any]) -> SweepSpec:
        """The spec for ``options``: ``defaults`` overlaid with each
        set (non-``None``) value whose key ``defaults`` names, so the
        parsed CLI arguments (``vars(args)``) pass straight through."""
        merged = dict(self.defaults)
        merged.update(
            (key, value) for key, value in options.items()
            if key in merged and value is not None
        )
        return self.make_spec(merged)


# -- profile-catalog --------------------------------------------------------


def _build_profile_catalog(options: Dict[str, Any]) -> SweepSpec:
    from repro.core.profiler import OfflineProfiler
    from repro.workloads.catalog import CATALOG

    profiler = OfflineProfiler(
        degree=options["degree"], method=options["method"],
    )
    names = options["workloads"] or list(CATALOG)
    try:
        templates = [CATALOG[n] for n in names]
    except KeyError as exc:
        raise SweepError(
            f"unknown workload {exc.args[0]!r}; catalog has "
            f"{', '.join(CATALOG)}"
        )
    return profiler.sweep_spec(templates, n_instances=options["nodes"])


def _render_table(table: Any) -> str:
    # Canonical JSON of the fitted table (``to_json`` sorts keys):
    # byte-identical across runs iff the tables are equal, which is
    # exactly what the serial-vs-parallel acceptance diff needs.
    return table.to_json()


# -- fig5 / fig6a -----------------------------------------------------------


def _build_fig5(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.fig5_fig6 import fig5_sweep_spec

    return fig5_sweep_spec(
        workloads=tuple(options["workloads"]), method=options["method"],
    )


def _render_fig5(panels: Dict[str, Any]) -> str:
    lines = []
    for name in sorted(panels):
        panel = panels[name]
        cells = "  ".join(
            f"k={k}: R2={panel.r2[k]:.4f}" for k in sorted(panel.r2)
        )
        lines.append(f"{name:5s} {cells}")
    return "\n".join(lines)


def _build_fig6a(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.fig5_fig6 import fig6a_sweep_spec

    return fig6a_sweep_spec(method=options["method"])


def _render_fig6a(scores: Dict[str, Dict[int, float]]) -> str:
    return "\n".join(
        f"{name:5s} " + " ".join(
            f"k{k}:{scores[name][k]:.4f}" for k in sorted(scores[name])
        )
        for name in sorted(scores)
    )


# -- fig8 -------------------------------------------------------------------


def _build_fig8(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.fig8 import fig8_sweep_spec

    return fig8_sweep_spec(n_setups=options["setups"])


def _render_fig8(result: Any) -> str:
    lines = ["per-workload average speedup (paper avg: 1.88x):"]
    for name, speedup in sorted(result.per_workload_speedup.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:5s} {speedup:5.2f}")
    lines.append(
        f"average: {result.average_speedup:.2f} over "
        f"{len(result.setup_averages)} setups"
    )
    return "\n".join(lines)


# -- faults -----------------------------------------------------------------


def _build_faults(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.extension_faults import (
        DEFAULT_MTBFS,
        SERIES,
        SMOKE_GRID,
        faults_sweep_spec,
    )

    if options["smoke"]:
        return faults_sweep_spec(seed=options["seed"], **SMOKE_GRID)
    mtbf = options["mtbf"]
    return faults_sweep_spec(
        # An MTBF <= 0 on the command line means "no faults".
        mtbfs=DEFAULT_MTBFS if mtbf is None else tuple(
            None if m <= 0 else m for m in mtbf
        ),
        mttr=options["mttr"],
        seed=options["seed"],
        series=("saba",) if options["no_failover"] else SERIES,
    )


def _render_faults(result: Any) -> str:
    lines = [
        "speedup over baseline vs controller downtime "
        f"(mttr={result.mttr:g}s, seed={result.seed}):",
        f"  {'series':14s} {'mtbf':>8s} {'downtime':>9s} {'speedup':>8s} "
        f"{'dropped':>8s} {'replayed':>9s}",
    ]
    for p in result.points:
        mtbf = "inf" if p.mtbf is None else f"{p.mtbf:g}"
        lines.append(
            f"  {p.series:14s} {mtbf:>8s} {p.downtime:>8.1%} "
            f"{p.speedup:>8.4f} "
            f"{p.counters.get('dropped_control_messages', 0.0):>8.0f} "
            f"{p.counters.get('replayed_conns', 0.0):>9.0f}"
            + ("  [failover]" if p.counters.get("failed_over") else "")
        )
    return "\n".join(lines)


# -- online -----------------------------------------------------------------


def _build_online(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.extension_online import (
        SMOKE_GRID,
        online_sweep_spec,
    )

    if options["smoke"]:
        return online_sweep_spec(seed=options["seed"], **SMOKE_GRID)
    return online_sweep_spec(seed=options["seed"], waves=options["waves"])


def _render_online(result: Any) -> str:
    lines = [
        "cold-start online estimation vs offline profiling "
        f"(seed={result.seed}):",
        f"  offline speedup (ceiling): {result.speedup_offline:7.4f}",
    ]
    for i, p in enumerate(result.wave_points, start=1):
        lines.append(
            f"  wave {i}: speedup {p.speedup:7.4f}  "
            f"fallback {p.fallback_ratio:6.1%}  "
            f"samples {p.stage_samples:4d}"
        )
    lines.append(
        f"  convergence gap: {result.convergence_gap:.2%} "
        "(acceptance: <= 5%)"
    )
    trusted = sum(
        1 for s in result.estimator.values() if s.get("trusted")
    )
    lines.append(
        f"  trusted workload models: {trusted}/{len(result.estimator)}"
    )
    return "\n".join(lines)


# -- service ----------------------------------------------------------------


def _build_service(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.extension_service import (
        DEFAULT_FLAP_COUNTS,
        SMOKE_GRID,
        service_sweep_spec,
    )

    if options["smoke"]:
        return service_sweep_spec(seed=options["seed"], **SMOKE_GRID)
    return service_sweep_spec(
        flap_counts=options["flaps"] or DEFAULT_FLAP_COUNTS,
        seed=options["seed"],
    )


def _render_service(result: Any) -> str:
    lines = [
        f"allocation service under link flaps (seed={result.seed}):",
        "  zero-fault identity vs static harness: "
        + ("OK" if result.identical else "FAILED"),
        f"  {'flaps':>5s} {'slowdown':>9s} {'recovered':>9s} "
        f"{'degraded':>9s} {'rerouted':>9s} {'rejected':>9s}",
    ]
    for p in result.points:
        recovered = "yes" if p.recovered else "NO"
        lines.append(
            f"  {p.flaps:>5d} {p.slowdown:>9.4f} {recovered:>9s} "
            f"{p.degraded_seconds:>8.1f}s "
            f"{p.counters.get('flows_rerouted', 0.0):>9.0f} "
            f"{p.counters.get('rejected', 0.0):>9.0f}"
        )
    return "\n".join(lines)


def _check_service(result: Any) -> Checks:
    return (
        (result.identical,
         "zero-fault service run diverged from the static harness"),
        (all(p.recovered for p in result.points),
         "flows were left off their canonical paths after the last "
         "recovery"),
    )


# -- fig10 ------------------------------------------------------------------


def _build_fig10(options: Dict[str, Any]) -> SweepSpec:
    from repro.experiments.fig10_fig11 import PAPER_TOPOLOGY, fig10_sweep_spec

    return fig10_sweep_spec(
        topology_kwargs=PAPER_TOPOLOGY if options["full_scale"] else None,
    )


def _render_fig10(result: Any) -> str:
    paper = {"saba": 1.27, "sincronia": 1.19, "ideal-maxmin": 1.14,
             "homa": 1.12}
    lines = []
    for policy in sorted(result.speedups):
        note = f" (paper {paper[policy]:.2f})" if policy in paper else ""
        lines.append(
            f"{policy:13s} average {result.average(policy):5.2f}{note}"
        )
    return "\n".join(lines)


REGISTRY: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            name="profile-catalog",
            help="profile the Table-1 workload catalog into a "
                 "sensitivity table",
            make_spec=_build_profile_catalog,
            render=_render_table,
            defaults={"degree": 3, "method": "simulate",
                      "workloads": None, "nodes": None},
        ),
        Experiment(
            name="fig5",
            help="sensitivity-model fits for SQL and LR (Figure 5)",
            make_spec=_build_fig5,
            render=_render_fig5,
            defaults={"workloads": ("SQL", "LR"), "method": "analytic"},
        ),
        Experiment(
            name="fig6a",
            help="R^2 per workload per polynomial degree (Figure 6a)",
            make_spec=_build_fig6a,
            render=_render_fig6a,
            defaults={"method": "analytic"},
        ),
        Experiment(
            name="fig8",
            help="randomized testbed setups, Saba vs baseline "
                 "(Figure 8)",
            make_spec=_build_fig8,
            render=_render_fig8,
            defaults={"setups": 10},
        ),
        Experiment(
            name="fig10",
            help="policy comparison on the simulated fabric "
                 "(Figure 10)",
            make_spec=_build_fig10,
            render=_render_fig10,
            defaults={"full_scale": False},
        ),
        Experiment(
            name="faults",
            help="controller fault injection: speedup vs downtime "
                 "(extension study)",
            make_spec=_build_faults,
            render=_render_faults,
            defaults={"smoke": False, "mtbf": None, "mttr": 6.0,
                      "seed": 7, "no_failover": False},
        ),
        Experiment(
            name="service",
            help="allocation service under link flaps: identity, "
                 "availability, recovery (extension study)",
            make_spec=_build_service,
            render=_render_service,
            defaults={"smoke": False, "flaps": None, "seed": 7},
            checks=_check_service,
        ),
        Experiment(
            name="online",
            help="cold-start online sensitivity estimation vs offline "
                 "profiling (extension study)",
            make_spec=_build_online,
            render=_render_online,
            defaults={"smoke": False, "seed": 7, "waves": 3},
        ),
    )
}


def get_experiment(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        raise SweepError(
            f"unknown sweep experiment {name!r}; available: "
            f"{', '.join(REGISTRY)}"
        )
