"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig1a
    python -m repro fig8 --setups 20
    python -m repro fig10 --full-scale
    python -m repro fig12 --sizes 10 100 500
    python -m repro sweep fig8 --setups 100 --jobs auto
    python -m repro obs summarize run.jsonl
    python -m repro fabric bench --out BENCH_fabric.json
    python -m repro control bench --out BENCH_control.json

Each subcommand prints the paper-style rows/series of one table or
figure.  The sweep-backed experiments (fig5, fig8, fig10, faults,
online, service) are defined once, in :mod:`repro.sweep.registry`:
``python -m repro <name>`` and ``python -m repro sweep <name>`` run
the same entry through one handler and print the same text.  The
pytest benchmarks (``pytest benchmarks/ --benchmark-only``) run the
same harnesses with shape assertions; this CLI is the interactive way
to poke at them.
"""

from __future__ import annotations

import argparse
import sys


def add_sweep_args(
    parser: argparse.ArgumentParser,
    jobs_default: str = "1",
) -> None:
    """Register the shared sweep-runner flags on a subparser.

    Every harness that fans out through :class:`repro.sweep.SweepRunner`
    (``sweep``, ``faults``, ``online``, ``service``, ``storm``) takes
    the same runner knobs; registering them here keeps flag names,
    defaults, and help text identical across subcommands.
    """
    parser.add_argument("--jobs", default=jobs_default,
                        help="worker processes, or 'auto' "
                             f"(default {jobs_default})")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk cache directory (default: "
                             "$REPRO_SWEEP_CACHE_DIR, else memory-only)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every task")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-task wall-clock limit in seconds "
                             "(enforced with --jobs >= 2)")
    parser.add_argument("--retries", type=int, default=3,
                        help="max attempts per task (default 3)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress narration")


def runner_from_args(args):
    """Build the :class:`~repro.sweep.SweepRunner` the shared flags
    describe.  ``error_policy`` is honoured when the subparser defines
    it (only ``sweep`` exposes the collect mode)."""
    from repro.sweep import (
        RetryPolicy, SweepCache, SweepRunner, default_cache,
    )

    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = SweepCache(dir=args.cache_dir)
    else:
        cache = default_cache()
    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries),
        error_policy=getattr(args, "error_policy", "fail-fast"),
        progress=None if args.quiet else (
            lambda msg: print(msg, file=sys.stderr)
        ),
    )


def _narrator(args):
    """Bench progress narration: stderr, or nothing under ``--quiet``."""
    if args.quiet:
        return lambda message: None
    return lambda message: print(message, file=sys.stderr)


def _emit(args, text: str, checks=(), shown=None) -> None:
    """Print a result (``shown``, default ``text``), write ``text`` to
    ``--out``, then exit non-zero on the first failed ``(ok, message)``
    check -- after the artifact is written, so a failed run still
    leaves it behind."""
    from repro.bench import write

    print(text if shown is None else shown)
    if getattr(args, "out", None):
        write(text, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    for ok, message in checks:
        if not ok:
            raise SystemExit(f"error: {message}")


def _fig1a(args) -> None:
    from repro.experiments.fig1 import run_fig1a

    rows = run_fig1a()
    print(f"{'Workload':9s} {'75% BW':>8s} {'25% BW':>8s}")
    for name, cells in rows.items():
        print(f"{name:9s} {cells[0.75]:8.2f} {cells[0.25]:8.2f}")


def _fig1b(args) -> None:
    from repro.experiments.fig1 import run_fig1b

    result = run_fig1b()
    print("scheme    LR    PR   (paper: max-min 2.26/1.21, skewed 1.48/1.34)")
    print(f"max-min {result.maxmin['LR']:5.2f} {result.maxmin['PR']:5.2f}")
    print(f"skewed  {result.skewed['LR']:5.2f} {result.skewed['PR']:5.2f}")


def _fig2(args) -> None:
    from repro.experiments.fig2 import run_fig2

    for (workload, fraction), panel in sorted(run_fig2().items()):
        print(f"{workload}@{int(fraction * 100)}%: completion "
              f"{panel.completion_time:.1f}s, mean CPU {panel.mean_cpu():.2f}, "
              f"mean net {panel.mean_network():.2f}")


def _fig6(args) -> None:
    from repro.experiments.fig5_fig6 import (
        fig6a_sweep_spec, run_fig6b, run_fig6c,
    )
    from repro.sweep import default_runner

    print("-- 6a: R2 vs degree")
    for name, row in default_runner().run(fig6a_sweep_spec()).value.items():
        print(f"  {name:5s} " + " ".join(f"k{k}:{v:.2f}" for k, v in row.items()))
    print("-- 6b: R2 vs dataset scale")
    for name, row in run_fig6b().items():
        print(f"  {name:5s} " + " ".join(f"{s}x:{v:.2f}" for s, v in row.items()))
    print("-- 6c: R2 vs node count")
    for name, row in run_fig6c().items():
        print(f"  {name:5s} " + " ".join(f"{m}x:{v:.2f}" for m, v in row.items()))


def _fig9(args) -> None:
    from repro.experiments.fig9 import (
        average_speedups, run_fig9a, run_fig9b, run_fig9c,
    )

    print("-- 9a: dataset scale")
    for s, row in sorted(run_fig9a().items()):
        print(f"  {s}x: avg {average_speedups(row):.2f}")
    print("-- 9b: node count")
    for m, row in sorted(run_fig9b().items()):
        print(f"  {m}x: avg {average_speedups(row):.2f}")
    print("-- 9c: polynomial degree")
    for k, row in sorted(run_fig9c().items()):
        print(f"  k={k}: avg {average_speedups(row):.2f}")


def _fig11(args) -> None:
    from repro.experiments.fig10_fig11 import run_fig11a, run_fig11b

    a = run_fig11a()
    print(f"centralized {a['centralized']:.2f}  distributed "
          f"{a['distributed']:.2f}  (paper 1.27 / 1.23)")
    for label, avg in run_fig11b().items():
        print(f"queues={label:>9s}: {avg:.2f}")


def _fig12(args) -> None:
    from repro.experiments.fig12 import percentile, run_fig12

    results = run_fig12(app_set_sizes=tuple(args.sizes))
    for k, scenarios in sorted(results.items()):
        times = [s.calc_time for s in scenarios]
        print(f"k={k}: p99 {percentile(times, 99):.3f}s "
              f"max {max(times):.3f}s over {len(times)} scenarios")


def _obs(args) -> None:
    import json

    from repro.obs.summary import format_summary, summarize_file

    try:
        summary = summarize_file(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"error: no such trace: {args.trace}")
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {args.trace} is not a JSONL event trace ({exc})"
        )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_summary(summary))


def _sweep(args) -> None:
    from repro.sweep.registry import REGISTRY

    if args.experiment == "list":
        for name, exp in REGISTRY.items():
            print(f"{name:16s} {exp.help}")
        print(f"{'bench':16s} serial-vs-parallel wall-time benchmark")
        return

    if args.experiment == "bench":
        from repro.bench import BENCH_NODES, dumps, run_sweep

        payload = run_sweep(
            workloads=args.workloads,
            fractions=args.fractions,
            n_nodes=args.nodes if args.nodes is not None else BENCH_NODES,
            jobs=args.jobs,
            progress=_narrator(args),
        )
        _emit(args, dumps(payload), [
            (payload["identical_results"],
             "serial and parallel tables differ"),
        ])
        return

    _experiment(args)


def _experiment(args) -> None:
    """Run one :mod:`repro.sweep.registry` entry: ``python -m repro
    <name>`` and ``python -m repro sweep <name>`` alike.

    The parsed flags are the entry's options.  Commands without the
    shared sweep flags (fig5, fig8, fig10) run on the serial
    shared-cache runner.  Prints the rendered value (its canonical
    JSON under ``--json``), writes the JSON -- or the rendering, for a
    value without one -- to ``--out``, then applies the entry's exit
    checks.
    """
    import json

    from repro.sweep import SweepError, default_runner
    from repro.sweep.registry import get_experiment

    try:
        experiment = get_experiment(getattr(args, "experiment", args.command))
        runner = (
            runner_from_args(args) if hasattr(args, "jobs")
            else default_runner()
        )
        result = runner.run(experiment.build(vars(args)))
    except SweepError as exc:
        raise SystemExit(f"error: {exc}")
    if result.failures:
        for outcome in result.failures:
            print(f"FAILED {outcome.name}: {outcome.error}",
                  file=sys.stderr)
        raise SystemExit(
            f"error: {len(result.failures)} task(s) failed; "
            "no result to render"
        )
    if getattr(args, "manifest", None):
        with open(args.manifest, "w") as handle:
            json.dump(result.manifest.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote manifest to {args.manifest}", file=sys.stderr)
    value = result.value
    rendered = experiment.render(value)
    text = value.to_json() if hasattr(value, "to_json") else rendered
    _emit(args, text, experiment.checks(value),
          shown=None if getattr(args, "json", False) else rendered)


def _storm(args) -> None:
    from dataclasses import replace

    from repro.bench import dumps, header
    from repro.storm import PRESETS, run_fuzz_campaign, run_storm

    if args.action == "list":
        for name, preset in PRESETS.items():
            spec = preset.spec
            print(f"{name:8s} mode={preset.mode:7s} policy={spec.policy:8s} "
                  f"topology={spec.topology:13s} rate={preset.base_rate:g}/s "
                  f"duration={preset.duration:g}s seed={preset.seed}")
        return

    if args.action == "run":
        try:
            preset = PRESETS[args.preset]
        except KeyError:
            raise SystemExit(
                f"error: unknown preset {args.preset!r} "
                f"(have: {', '.join(PRESETS)})"
            )
        config = preset
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        report = run_storm(config)
        print(f"generator throughput: {report.flows_per_sec:.0f} "
              f"flows/s ({report.completed} flows in "
              f"{report.wall_seconds:.2f}s)", file=sys.stderr)
        # The printed report stays machine-independent; the artifact
        # adds provenance and the wall-clock numbers the floor checks.
        payload = header(f"storm.{args.preset}")
        payload.update(
            report.to_json(),
            wall_seconds=round(report.wall_seconds, 4),
            flows_per_sec=round(report.flows_per_sec, 1),
        )
        _emit(args, dumps(payload), shown=report.dumps(), checks=[
            (report.ok, f"{len(report.violations)} invariant violation(s); "
                        "see the report above"),
            (report.flows_per_sec >= args.min_flows_per_sec,
             f"generator throughput {report.flows_per_sec:.0f} flows/s is "
             f"below the required {args.min_flows_per_sec:.0f}"),
        ])
        return

    # fuzz
    runner = runner_from_args(args)
    report = run_fuzz_campaign(
        args.count,
        base_seed=args.seed if args.seed is not None else 0,
        runner=runner,
        equivalence=not args.no_equivalence,
    )
    _emit(args, dumps(report), [
        (not report["failed"],
         f"{report['failed']} of {report['scenarios']} scenario(s) "
         f"violated an invariant; reproduce with "
         f"repro.storm.fuzz.fuzz_one(seed) for seed in "
         f"{report['failing_seeds'][:10]}"),
    ])


def _fabric(args) -> None:
    from repro.bench import dumps, run_fabric

    payload = run_fabric(
        args.scenario,
        overrides={
            "n_spine": args.spine, "n_leaf": args.leaf, "n_tor": args.tor,
            "servers_per_tor": args.servers_per_tor, "apps": args.apps,
            "fanout": args.fanout, "waves": args.waves, "seed": args.seed,
        },
        backend=args.backend,
        progress=_narrator(args),
    )
    checks = [
        (payload["identical_results"],
         "solver backends disagree on completion times "
         f"(max rel {payload['max_rel_completion_diff']:.2e})"),
    ]
    if args.scenario == "corun":
        checks += [
            (payload["vector_identical_results"],
             "vectorized run diverged from the object solver (max rel "
             f"{payload['vector_max_rel_completion_diff']:.2e})"),
            (payload["speedup"] >= args.min_speedup,
             f"incremental speedup {payload['speedup']:.2f}x is below "
             f"the required {args.min_speedup:.2f}x"),
        ]
    if args.scenario == "hyperscale":
        fps = payload["vector"]["flows_per_sec"] or 0.0
        checks.append((
            fps >= args.min_flows_per_sec,
            f"hyperscale throughput {fps:.0f} flows/s is below the "
            f"required {args.min_flows_per_sec:.0f}",
        ))
    _emit(args, dumps(payload), checks)


def _control(args) -> None:
    from repro.bench import dumps, run_control

    payload = run_control(
        overrides={
            "n_spine": args.spine, "n_leaf": args.leaf, "n_tor": args.tor,
            "servers_per_tor": args.servers_per_tor, "apps": args.apps,
            "conns_per_app": args.conns_per_app, "rounds": args.rounds,
            "seed": args.seed,
        },
        progress=_narrator(args),
    )
    skips = payload["signatures_on"]["signature_skips"]
    speedup = payload["signature_speedup"]
    _emit(args, dumps(payload), [
        (payload["identical_tables"],
         "signature-cached run programmed different port tables"),
        (payload["identical_coalesced_tables"],
         "coalesced run converged to different port tables"),
        (skips >= args.min_skips,
         f"signature cache skipped only {skips} port updates "
         f"(required {args.min_skips})"),
        (speedup >= args.min_speedup,
         f"signature-cache speedup {speedup:.2f}x is below the required "
         f"{args.min_speedup:.2f}x"),
    ])


def _report(args) -> None:
    from repro.experiments.report import generate_reports

    paths = generate_reports(
        args.out, heavy=args.heavy,
        progress=lambda name: print(f"running {name} ..."),
    )
    print(f"wrote {len(paths)} artifacts to {args.out}")


COMMANDS = {
    "report": _report,
    "obs": _obs,
    "sweep": _sweep,
    "fabric": _fabric,
    "control": _control,
    "faults": _experiment,
    "online": _experiment,
    "service": _experiment,
    "storm": _storm,
    "fig1a": _fig1a,
    "fig1b": _fig1b,
    "fig2": _fig2,
    "fig5": _experiment,
    "fig6": _fig6,
    "fig8": _experiment,
    "fig9": _fig9,
    "fig10": _experiment,
    "fig11": _fig11,
    "fig12": _fig12,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Saba paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name in COMMANDS:
        if name == "obs":
            p = sub.add_parser(
                name, help="observability tools (trace summaries)"
            )
            p.add_argument("action", choices=["summarize"],
                           help="what to do with the trace")
            p.add_argument("trace", help="JSONL event trace path")
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
            continue
        if name == "sweep":
            p = sub.add_parser(
                name,
                help="run an experiment as a cached, parallel sweep",
            )
            p.add_argument(
                "experiment",
                help="experiment name, 'list', or 'bench'",
            )
            add_sweep_args(p)
            p.add_argument("--error-policy", default="fail-fast",
                           choices=["fail-fast", "collect"])
            p.add_argument("--manifest", default=None,
                           help="write the run manifest JSON here")
            p.add_argument("--setups", type=int, default=None,
                           help="fig8: number of cluster setups")
            p.add_argument("--method", default=None,
                           choices=["simulate", "analytic"],
                           help="profiling method override")
            p.add_argument("--workloads", nargs="+", default=None,
                           help="restrict to these catalog workloads")
            p.add_argument("--nodes", type=int, default=None,
                           help="profiling pod size override")
            p.add_argument("--degree", type=int, default=None,
                           help="polynomial degree override")
            p.add_argument("--fractions", type=float, nargs="+",
                           default=None,
                           help="bench: bandwidth fractions to profile")
            p.add_argument("--out", default=None,
                           help="also write the bench payload, or the "
                                "experiment's canonical JSON, here")
            continue
        if name == "faults":
            p = sub.add_parser(
                name,
                help="controller fault injection: speedup vs downtime",
            )
            p.add_argument("--smoke", action="store_true",
                           help="reduced CI grid (fixed parameters; "
                                "golden-file compatible)")
            p.add_argument("--mtbf", type=float, nargs="+", default=None,
                           help="mean time between controller failures, "
                                "seconds (<= 0 means no faults)")
            p.add_argument("--mttr", type=float, default=6.0,
                           help="mean time to recovery, seconds "
                                "(default 6)")
            p.add_argument("--seed", type=int, default=7,
                           help="master seed (default 7)")
            p.add_argument("--no-failover", action="store_true",
                           help="skip the saba-failover series")
            add_sweep_args(p)
            p.add_argument("--json", action="store_true",
                           help="print canonical JSON instead of the table")
            p.add_argument("--out", default=None,
                           help="also write the canonical JSON here")
            continue
        if name == "online":
            p = sub.add_parser(
                name,
                help="cold-start online sensitivity estimation vs "
                     "offline profiling",
            )
            p.add_argument("--smoke", action="store_true",
                           help="fixed CI configuration "
                                "(golden-file compatible)")
            p.add_argument("--waves", type=int, default=3,
                           help="consecutive learning co-runs "
                                "(default 3)")
            p.add_argument("--seed", type=int, default=7,
                           help="master seed (default 7)")
            add_sweep_args(p)
            p.add_argument("--json", action="store_true",
                           help="print canonical JSON instead of the table")
            p.add_argument("--out", default=None,
                           help="also write the canonical JSON here")
            continue
        if name == "service":
            p = sub.add_parser(
                name,
                help="allocation service under link flaps: identity, "
                     "availability, recovery",
            )
            p.add_argument("--smoke", action="store_true",
                           help="reduced CI grid (fixed parameters; "
                                "golden-file compatible)")
            p.add_argument("--flaps", type=int, nargs="+", default=None,
                           help="link flap counts to sweep "
                                "(default 0 1 2 3 4)")
            p.add_argument("--seed", type=int, default=7,
                           help="master seed (default 7)")
            add_sweep_args(p)
            p.add_argument("--json", action="store_true",
                           help="print canonical JSON instead of the table")
            p.add_argument("--out", default=None,
                           help="also write the canonical JSON here")
            continue
        if name == "storm":
            p = sub.add_parser(
                name,
                help="open-loop traffic generator and scenario fuzzer",
            )
            p.add_argument("action", choices=["run", "fuzz", "list"],
                           help="run a preset storm, fuzz random "
                                "scenarios, or list presets")
            p.add_argument("preset", nargs="?", default="smoke",
                           help="preset name for 'run' (default smoke)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the preset seed (run) or set "
                                "the campaign base seed (fuzz; default 0)")
            p.add_argument("--count", type=int, default=100,
                           help="fuzz: scenarios to sample (default 100)")
            p.add_argument("--no-equivalence", action="store_true",
                           help="fuzz: skip the solver-equivalence "
                                "re-runs (3x cheaper)")
            p.add_argument("--min-flows-per-sec", type=float, default=0.0,
                           help="run: fail below this completed-flows/s "
                                "generator throughput (default off)")
            add_sweep_args(p)
            p.add_argument("--out", default=None,
                           help="also write the JSON report here")
            continue
        if name == "fabric":
            p = sub.add_parser(
                name,
                help="fluid-fabric tools (incremental-solver benchmark)",
            )
            p.add_argument("action", choices=["bench"],
                           help="benchmark full vs incremental solving")
            p.add_argument("--scenario", choices=["corun", "hyperscale",
                                                  "fig10"],
                           default="corun",
                           help="benchmark scenario (default corun; "
                                "hyperscale = 100k-server incast, "
                                "fig10 = full-scale 1,944-server smoke)")
            p.add_argument("--backend", choices=["auto", "vector", "object"],
                           default="auto",
                           help="solver backend for the vectorized run "
                                "(default auto)")
            p.add_argument("--spine", type=int, default=None,
                           help="spine switches (scenario-specific default)")
            p.add_argument("--leaf", type=int, default=None,
                           help="leaf switches (scenario-specific default)")
            p.add_argument("--tor", type=int, default=None,
                           help="top-of-rack switches "
                                "(scenario-specific default)")
            p.add_argument("--servers-per-tor", type=int, default=None,
                           help="servers per rack "
                                "(scenario-specific default)")
            p.add_argument("--apps", type=int, default=None,
                           help="co-running applications (corun/fig10)")
            p.add_argument("--fanout", type=int, default=None,
                           help="concurrent flows per wave (corun/fig10)")
            p.add_argument("--waves", type=int, default=None,
                           help="waves per application / per rack")
            p.add_argument("--seed", type=int, default=None,
                           help="scenario seed (default 7)")
            p.add_argument("--out", default=None,
                           help="also write the JSON payload here")
            p.add_argument("--min-speedup", type=float, default=1.0,
                           help="fail below this incremental speedup "
                                "(corun only; default 1.0)")
            p.add_argument("--min-flows-per-sec", type=float, default=0.0,
                           help="fail below this completed-flows/sec "
                                "throughput (hyperscale only; default off)")
            p.add_argument("--quiet", action="store_true",
                           help="suppress progress narration")
            continue
        if name == "control":
            p = sub.add_parser(
                name,
                help="control-plane tools (allocation-pipeline benchmark)",
            )
            p.add_argument("action", choices=["bench"],
                           help="benchmark signature caching and "
                                "event coalescing")
            p.add_argument("--spine", type=int, default=None,
                           help="spine switches (default 8)")
            p.add_argument("--leaf", type=int, default=None,
                           help="leaf switches (default 8)")
            p.add_argument("--tor", type=int, default=None,
                           help="top-of-rack switches (default 8)")
            p.add_argument("--servers-per-tor", type=int, default=None,
                           help="servers per rack (default 10)")
            p.add_argument("--apps", type=int, default=None,
                           help="registered applications (default 10)")
            p.add_argument("--conns-per-app", type=int, default=None,
                           help="standing connections per app (default 4)")
            p.add_argument("--rounds", type=int, default=None,
                           help="churn rounds (default 20)")
            p.add_argument("--seed", type=int, default=None,
                           help="scenario seed (default 7)")
            p.add_argument("--out", default=None,
                           help="also write the JSON payload here")
            p.add_argument("--min-speedup", type=float, default=1.0,
                           help="fail below this signature-cache speedup "
                                "(default 1.0)")
            p.add_argument("--min-skips", type=int, default=1,
                           help="fail when the signature cache skips "
                                "fewer port updates (default 1)")
            p.add_argument("--quiet", action="store_true",
                           help="suppress progress narration")
            continue
        p = sub.add_parser(name, help=f"run the {name} experiment")
        if name == "fig8":
            p.add_argument("--setups", type=int, default=None,
                           help="number of cluster setups (default 10)")
        if name == "fig10":
            p.add_argument("--full-scale", action="store_true",
                           help="the paper's 1,944-server spine-leaf "
                                "fabric (slow)")
        if name == "fig12":
            p.add_argument("--sizes", type=int, nargs="+",
                           default=[1, 10, 100, 250])
        if name == "report":
            p.add_argument("--out", default="results")
            p.add_argument("--heavy", action="store_true",
                           help="include fig8/9/10/11/12 (slow)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:", ", ".join(COMMANDS))
        return 0
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
