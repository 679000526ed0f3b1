"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` -- run one DPP simulation on a paper-style scenario and
  print the summary (optionally a backlog chart and an ``.npz`` dump).
* ``experiment`` -- run one of the named paper experiments (``fig2`` ..
  ``fig9``, ``ablation-*``) and print its table.
* ``equilibrium`` -- estimate the steady-state queue backlog ``Q*`` for
  a scenario without simulating the ramp, and check a sampled CGBA
  solve against the Theorem 2/3 approximation guarantees.
* ``trace`` -- inspect recorded JSONL traces: ``trace summary PATH``
  and ``trace diff BASE NEW`` (nonzero exit on regression, so it can
  gate CI).
* ``metrics snapshot`` -- run one simulation with telemetry and dump
  the OpenMetrics exposition text (to stdout or ``--output``).
* ``profile report`` -- run one simulation and print the per-phase /
  per-kernel latency histograms (count, total, p50/p95, bucket shape).
* ``info`` -- version and default-scenario overview.

``simulate`` additionally exposes the observability layer: ``--profile``
prints the per-phase timing table, ``--trace out.jsonl`` streams every
span/counter/slot event to disk alongside a run manifest,
``--monitors`` attaches the domain health monitors and prints their
:class:`~repro.obs.monitors.HealthReport`, ``--dashboard`` redraws
a live per-slot terminal dashboard (``--ascii`` for dumb terminals),
and ``--metrics-port`` serves live OpenMetrics over HTTP while the run
is in flight (works with ``--cells``: per-cell series stream in as
epochs complete).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import TYPE_CHECKING, Sequence

import repro
from repro.api import CONTROLLER_NAMES, make_controller
from repro.core.overload import OverloadPolicy
from repro.kernels import BACKEND_NAMES, get_kernels
from repro.obs import MetricsRegistry, Probe, TelemetrySink, telemetry_context

_SOLVER_CHOICES = CONTROLLER_NAMES

if TYPE_CHECKING:
    # Imported where they are used, so that importing the CLI loads no
    # more than a run does (and no http.server).
    from repro.obs import Dashboard, MonitorSuite, RunManifest
    from repro.obs.server import MetricsServer


def _build_scenario(args: argparse.Namespace) -> repro.Scenario:
    return repro.make_paper_scenario(
        seed=args.seed,
        config=repro.ScenarioConfig(
            num_devices=args.devices,
            workload=args.workload,
            budget_fraction=args.budget_fraction,
        ),
    )


def _run_config_from(args: argparse.Namespace) -> repro.RunConfig:
    """Map ``simulate`` flags onto one :class:`repro.api.RunConfig`.

    The config is both the execution recipe (of the sharded run, and
    of the unsharded controller via :func:`_build_controller`) and the
    provenance record: its :meth:`~repro.api.RunConfig.to_dict` feeds
    the run manifest, so traces capture every knob, including the
    kernel backend that actually runs.
    """
    cells = None
    if args.cells > 1:
        cells = repro.CellConfig(
            count=args.cells,
            epoch=args.cell_epoch,
            processes=args.cell_processes,
            coordinator=args.coordinator,
        )
    params: dict[str, object] = {}
    if args.solver == "fixed":
        params["fraction"] = args.fraction
    if getattr(args, "overload_high", None) is not None:
        params["overload"] = OverloadPolicy(
            high_watermark=args.overload_high,
            low_watermark=args.overload_low,
            shed_fraction=args.overload_shed,
        )
    return repro.RunConfig(
        controller=args.solver,
        seed=args.seed,
        scenario_config=repro.ScenarioConfig(
            num_devices=args.devices,
            workload=args.workload,
            budget_fraction=args.budget_fraction,
        ),
        horizon=args.horizon,
        v=args.v,
        z=args.z,
        warm_start_queue=args.warm_start,
        engine=repro.api.EngineConfig(backend=get_kernels(args.backend).name),
        cells=cells,
        controller_params=params,
    )


def _build_controller(
    config: repro.RunConfig,
    scenario: repro.Scenario,
    tracer: "Probe | None" = None,
) -> repro.OnlineController:
    """The unsharded controller of *config*, the recipe its manifest records.

    The ``"cli"`` / ``"cli-equilibrium"`` rng stream labels predate the
    facade and are kept so historical runs stay bit-reproducible.
    """
    return make_controller(
        config.controller,
        scenario,
        v=config.v,
        z=config.z,
        rng_label="cli",
        equilibrium_rng_label="cli-equilibrium",
        warm_start_queue=config.warm_start_queue,
        tracer=tracer,
        engine_backend=config.engine.backend,
        **dict(config.controller_params),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    run_config = _run_config_from(args)
    sharded = run_config.cells is not None
    if sharded and (args.dashboard or args.warm_start):
        print(
            "--cells does not combine with --dashboard or --warm-start",
            file=sys.stderr,
        )
        return 2
    tracing = bool(args.trace) or args.profile or args.dashboard or args.monitors
    probe: Probe | None = None
    manifest: RunManifest | None = None
    suite: MonitorSuite | None = None
    dashboard: Dashboard | None = None
    if tracing:
        probe = Probe()
        if args.trace:
            from repro.obs import JsonlSink, RunManifest, manifest_path_for

            # Flush per event so a crashed run still leaves a usable
            # trace behind (the whole point of post-mortem tooling).
            probe.add_sink(JsonlSink(args.trace, flush_every=1))
            manifest = RunManifest(
                config={"command": "simulate", **run_config.to_dict()},
                seed=args.seed,
            )
        if (args.monitors and not sharded) or args.dashboard:
            # Monitors attach before the dashboard so re-emitted alert
            # events reach the dashboard's alert panel.  Sharded runs
            # watch each cell with its own default suite instead.
            from repro.obs import MonitorSuite, default_monitors

            suite = MonitorSuite(
                default_monitors(
                    budget=scenario.budget, network=scenario.network
                )
            ).attach(probe)
        if args.dashboard:
            from repro.obs import Dashboard

            dashboard = Dashboard(
                budget=scenario.budget, ascii_only=args.ascii
            )
            probe.add_sink(dashboard)
    registry: MetricsRegistry | None = None
    server: MetricsServer | None = None
    if args.metrics_port is not None:
        registry = MetricsRegistry()
        if not sharded:
            # The sharded path feeds the registry itself (per-cell
            # sinks inside run_sharded); unsharded runs publish via a
            # TelemetrySink on the event bus.
            if probe is None:
                probe = Probe()
            probe.add_sink(TelemetrySink(registry))
        from repro.obs.server import MetricsServer

        server = MetricsServer(registry, port=args.metrics_port)
        server.start()
        print(f"serving OpenMetrics at {server.url}", file=sys.stderr)
    if sharded:
        controller = None
    else:
        with telemetry_context(registry):
            controller = _build_controller(run_config, scenario, tracer=probe)
    if dashboard is None:
        cells_note = f"; cells {args.cells}" if sharded else ""
        print(
            f"{scenario.network}; budget {scenario.budget:.4f} $/slot; "
            f"solver {args.solver}; V={args.v}; horizon {args.horizon}"
            f"{cells_note}"
        )

    def salvage(status: str) -> None:
        # A dead run must still leave its evidence behind: flush the
        # partial JSONL trace and write the manifest (atomically, with
        # the outcome stamped) before exiting nonzero.
        if server is not None:
            server.close()
        if dashboard is not None:
            dashboard.close()
        if probe is not None:
            probe.close()
            if args.trace:
                assert manifest is not None
                manifest.status = status
                if registry is not None:
                    manifest.record_telemetry(registry)
                manifest_path = manifest.finish().write(
                    manifest_path_for(args.trace)
                )
                print(
                    f"partial trace written to {args.trace}", file=sys.stderr
                )
                print(f"manifest written to {manifest_path}", file=sys.stderr)
                if registry is not None:
                    # The live registry holds everything scraped so far;
                    # persist a final snapshot next to the salvaged
                    # trace so post-mortems keep the telemetry too.
                    metrics_path = f"{args.trace}.metrics"
                    with open(metrics_path, "w", encoding="utf-8") as fh:
                        fh.write(registry.render_openmetrics())
                    print(
                        f"metrics snapshot written to {metrics_path}",
                        file=sys.stderr,
                    )

    try:
        if sharded:
            result = repro.api.run(
                config=run_config,
                scenario=scenario,
                tracer=probe,
                metrics_registry=registry,
                monitors=True if args.monitors else None,
            )
        else:
            result = repro.run_simulation(
                controller,
                scenario.fresh_compiled_states(args.horizon, tracer=probe),
                budget=scenario.budget,
                tracer=probe,
            )
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        salvage("interrupted")
        return 130
    except Exception:
        traceback.print_exc()
        salvage("crashed")
        return 1
    if server is not None:
        server.close()
    if dashboard is not None:
        dashboard.close()
    from repro.io import summary_to_json

    print(summary_to_json(result.summary()))
    if suite is not None:
        print()
        print(suite.finish().render())
    elif args.monitors:
        print()
        print(result.health.render())
    if probe is not None:
        probe.close()
        if args.profile:
            print()
            print(probe.phases.table())
        if args.trace:
            manifest_path = manifest_path_for(args.trace)
            assert manifest is not None
            if registry is not None:
                manifest.record_telemetry(registry)
            manifest.finish().write(manifest_path)
            print(f"trace written to {args.trace}")
            print(f"manifest written to {manifest_path}")
    if args.profile and registry is not None:
        from repro.obs import render_profile_report

        print()
        print(render_profile_report(registry, ascii_only=args.ascii))
    if args.chart:
        from repro.analysis.text_plots import line_chart

        print()
        print(line_chart(result.backlog, title="virtual queue backlog Q(t)"))
        print()
        print(line_chart(result.latency, title="overall latency L_t (s)"))
    if args.output:
        from repro.io import save_result

        written = save_result(result, args.output)
        print(f"trajectories written to {written}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import RUNNERS

    if args.list or args.name is None:
        print("available experiments:")
        for name in RUNNERS:
            print(f"  {name}")
        return 0
    if args.name not in RUNNERS:
        print(f"unknown experiment {args.name!r}; use --list", file=sys.stderr)
        return 2
    result = RUNNERS[args.name]()
    print(result.table())
    if args.verify:
        result.verify()
        print("\nall qualitative claims verified")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import RUNNERS, generate_report

    names = None
    if args.all:
        names = list(RUNNERS)
    elif args.names:
        names = args.names
    text = generate_report(names, path=args.output, verify=not args.no_verify)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    from repro.analysis.equilibrium import estimate_equilibrium_backlog

    scenario = _build_scenario(args)
    backlog = estimate_equilibrium_backlog(
        scenario.network,
        list(scenario.fresh_states(repro.DEFAULT_PERIOD)),
        scenario.controller_rng("cli-equilibrium"),
        v=args.v,
        budget=scenario.budget,
    )
    print(f"budget            : {scenario.budget:.4f} $/slot")
    print(f"V                 : {args.v}")
    print(f"equilibrium Q*    : {backlog:.3f}")
    print(f"Q*/V              : {backlog / args.v:.4f}")
    print()
    print(_guarantee_lines(scenario))
    return 0


def _guarantee_lines(scenario: repro.Scenario) -> str:
    """Check one sampled CGBA solve against the Theorem 2/3 guarantees.

    Solves P2-A on the scenario's first slot at mid-range clocks and
    compares the achieved latency against (a) the convex relaxation
    lower bound scaled by the CGBA approximation ratio (Theorem 2) and
    (b) the same bound scaled by the BDMA ratio ``2.62 R_F`` (Theorem 3,
    queue term zero at ``Q=0``).  The relaxation bound lies at or below
    the optimum, so a measurement above the scaled bound is
    ``inconclusive``, not evidence of a violation.
    """
    from repro.baselines.lower_bounds import p2a_lower_bound
    from repro.core.cgba import solve_p2a_cgba
    from repro.core.theory import check_bdma_guarantee, check_cgba_guarantee
    from repro.network.connectivity import StrategySpace

    network = scenario.network
    state = list(scenario.fresh_states(1))[0]
    space = StrategySpace(network, state.coverage(), state.available_servers)
    mid = 0.5 * (network.freq_min + network.freq_max)
    rng = scenario.controller_rng("cli-guarantee")
    result = solve_p2a_cgba(network, state, space, mid, rng)
    measured = result.total_latency
    lower = p2a_lower_bound(network, state, space, mid)
    cgba = check_cgba_guarantee(measured, lower)
    bdma = check_bdma_guarantee(network, measured, lower)
    lines = ["guarantees (one sampled slot, mid-range clocks):"]
    for name, check in (("CGBA (Thm 2)", cgba), ("BDMA (Thm 3)", bdma)):
        relation, verdict = (
            ("<=", "ok") if check.satisfied else (">", "inconclusive")
        )
        lines.append(
            f"  {name:<13}: measured {check.measured:.4f} {relation} "
            f"bound {check.bound:.4f} [{verdict}] "
            f"(headroom {check.headroom:.2f}x)"
        )
    return "\n".join(lines)


def _telemetry_run(args: argparse.Namespace) -> MetricsRegistry:
    """Run one simulation publishing telemetry into a fresh registry.

    Shared by ``metrics snapshot`` and ``profile report``: both need a
    finished run's registry, differing only in how they render it.
    """
    registry = MetricsRegistry()
    scenario = _build_scenario(args)
    cells = None
    if args.cells > 1:
        cells = repro.CellConfig(
            count=args.cells,
            processes=args.cell_processes,
        )
    repro.api.run(
        scenario=scenario,
        controller=args.solver,
        horizon=args.horizon,
        v=args.v,
        z=args.z,
        engine_backend=args.backend,
        cells=cells,
        metrics_registry=registry,
    )
    return registry


def _cmd_metrics_snapshot(args: argparse.Namespace) -> int:
    registry = _telemetry_run(args)
    text = registry.render_openmetrics()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"OpenMetrics snapshot written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_profile_report(args: argparse.Namespace) -> int:
    from repro.obs import render_profile_report

    registry = _telemetry_run(args)
    print(render_profile_report(registry, top=args.top, ascii_only=args.ascii))
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import load_trace

    trace = load_trace(args.path)
    print(trace.summary())
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, load_trace

    base = load_trace(args.base)
    new = load_trace(args.new)
    diff = diff_traces(
        base,
        new,
        time_threshold=args.time_threshold,
        metric_threshold=args.metric_threshold,
        min_phase_seconds=args.min_phase_seconds,
        include_times=not args.ignore_times,
    )
    print(diff.render())
    return 0 if diff.ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    net = scenario.network
    print(f"repro {repro.__version__}")
    print(f"paper: Energy-Aware Online Task Offloading and Resource "
          f"Allocation for Mobile Edge Computing (ICDCS 2023)")
    print(f"default scenario (seed {args.seed}): {net}")
    print(f"  budget {scenario.budget:.4f} $/slot "
          f"(fraction {args.budget_fraction} of the feasible range)")
    print(f"  frequency ranges: {net.freq_min.min():.1f}-"
          f"{net.freq_max.max():.1f} GHz")
    print(f"  core counts: {sorted(set(int(c) for c in net.cores))}")
    print(f"  R_F (Theorem 3): {net.max_frequency_ratio():.2f}")
    return 0


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="root seed")
    parser.add_argument("--devices", type=int, default=50,
                        help="number of mobile devices I")
    parser.add_argument("--workload", choices=("uniform", "diurnal"),
                        default="uniform")
    parser.add_argument("--budget-fraction", type=float, default=0.5,
                        help="budget position in the feasible cost range")
    parser.add_argument("--v", type=float, default=100.0,
                        help="DPP trade-off parameter V")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware online task offloading (ICDCS 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one online simulation")
    _add_scenario_arguments(sim)
    sim.add_argument("--horizon", type=int, default=48, help="slots to simulate")
    sim.add_argument("--solver", choices=_SOLVER_CHOICES, default="bdma")
    sim.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                     help="array-kernel backend for the solver hot loops "
                          "(bit-identical results; default: jit when the C "
                          "kernels build, else numpy)")
    sim.add_argument("--z", type=int, default=3, help="BDMA alternation rounds")
    sim.add_argument("--fraction", type=float, default=1.0,
                     help="clock position in [0,1] for --solver fixed")
    sim.add_argument("--warm-start", action="store_true",
                     help="start the queue at its estimated equilibrium")
    sim.add_argument("--chart", action="store_true",
                     help="print text charts of backlog and latency")
    sim.add_argument("--output", type=str, default=None,
                     help="write trajectories to this .npz file")
    sim.add_argument("--trace", type=str, default=None, metavar="PATH",
                     help="stream span/counter/slot events to this JSONL "
                          "file (plus a sibling .manifest.json)")
    sim.add_argument("--profile", action="store_true",
                     help="print the per-phase timing table after the run")
    sim.add_argument("--monitors", action="store_true",
                     help="attach the domain health monitors and print "
                          "the health report after the run")
    sim.add_argument("--dashboard", action="store_true",
                     help="redraw a live per-slot terminal dashboard "
                          "(implies --monitors wiring for alerts)")
    sim.add_argument("--ascii", action="store_true",
                     help="dashboard renders with 7-bit ASCII only")
    sim.add_argument("--cells", type=int, default=1,
                     help="shard the network into this many cells, each "
                          "with its own controller under one coordinated "
                          "budget (1 = unsharded)")
    sim.add_argument("--cell-epoch", type=int, default=24,
                     help="slots between budget-coordinator re-splits")
    sim.add_argument("--cell-processes", type=int, default=None,
                     help="resident worker processes for cell execution "
                          "(default: sequential in-process)")
    sim.add_argument("--coordinator", choices=("proportional", "static"),
                     default="proportional",
                     help="budget re-split policy across cells")
    sim.add_argument("--overload-high", type=float, default=None,
                     metavar="BACKLOG",
                     help="enable overload protection: enter admission "
                          "control when the virtual-queue backlog reaches "
                          "this watermark")
    sim.add_argument("--overload-low", type=float, default=None,
                     metavar="BACKLOG",
                     help="recover from overload below this backlog "
                          "(default: half of --overload-high)")
    sim.add_argument("--overload-shed", type=float, default=0.25,
                     metavar="FRACTION",
                     help="fraction of active tasks shed per overloaded "
                          "slot, heaviest first")
    sim.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve live OpenMetrics at "
                          "http://127.0.0.1:PORT/metrics for the duration "
                          "of the run (0 = ephemeral port; the URL is "
                          "printed to stderr)")
    sim.set_defaults(handler=_cmd_simulate)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", nargs="?", default=None,
                     help="experiment id (fig2..fig9, ablation-*)")
    exp.add_argument("--list", action="store_true", help="list experiments")
    exp.add_argument("--verify", action="store_true",
                     help="assert the paper's qualitative claims")
    exp.set_defaults(handler=_cmd_experiment)

    rep = sub.add_parser("report", help="run experiments into one report")
    rep.add_argument("names", nargs="*", help="experiment ids (default: quick set)")
    rep.add_argument("--all", action="store_true",
                     help="run every experiment (several minutes)")
    rep.add_argument("--output", type=str, default=None,
                     help="write the markdown report to this file")
    rep.add_argument("--no-verify", action="store_true",
                     help="skip the qualitative-claim checks")
    rep.set_defaults(handler=_cmd_report)

    eq = sub.add_parser("equilibrium",
                        help="estimate the steady-state queue backlog")
    _add_scenario_arguments(eq)
    eq.set_defaults(handler=_cmd_equilibrium)

    trace = sub.add_parser("trace", help="inspect recorded JSONL traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tsum = trace_sub.add_parser("summary", help="summarise one trace")
    tsum.add_argument("path", help="JSONL trace file")
    tsum.set_defaults(handler=_cmd_trace_summary)

    tdiff = trace_sub.add_parser(
        "diff",
        help="compare two traces; exit 1 on regression (CI gate)",
    )
    tdiff.add_argument("base", help="baseline JSONL trace")
    tdiff.add_argument("new", help="candidate JSONL trace")
    tdiff.add_argument("--time-threshold", type=float, default=0.5,
                       help="relative phase-time growth that counts as a "
                            "regression (0.5 = +50%%)")
    tdiff.add_argument("--metric-threshold", type=float, default=0.10,
                       help="relative metric growth that counts as a "
                            "regression")
    tdiff.add_argument("--min-phase-seconds", type=float, default=5e-4,
                       help="ignore phase regressions below this absolute "
                            "growth (noise floor)")
    tdiff.add_argument("--ignore-times", action="store_true",
                       help="compare metrics only (timings are machine-"
                            "dependent; use for cross-machine CI gates)")
    tdiff.set_defaults(handler=_cmd_trace_diff)

    def _add_telemetry_run_arguments(p: argparse.ArgumentParser) -> None:
        _add_scenario_arguments(p)
        p.add_argument("--horizon", type=int, default=48,
                       help="slots to simulate")
        p.add_argument("--solver", choices=_SOLVER_CHOICES, default="bdma")
        p.add_argument("--backend", choices=BACKEND_NAMES, default=None)
        p.add_argument("--z", type=int, default=3,
                       help="BDMA alternation rounds")
        p.add_argument("--cells", type=int, default=1,
                       help="shard into this many cells (1 = unsharded)")
        p.add_argument("--cell-processes", type=int, default=None,
                       help="worker processes for cell execution")

    metrics = sub.add_parser(
        "metrics", help="run with telemetry and export OpenMetrics"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    msnap = metrics_sub.add_parser(
        "snapshot",
        help="run one simulation and dump its OpenMetrics exposition",
    )
    _add_telemetry_run_arguments(msnap)
    msnap.add_argument("--output", type=str, default=None, metavar="PATH",
                       help="write the exposition text here (default: stdout)")
    msnap.set_defaults(handler=_cmd_metrics_snapshot)

    prof = sub.add_parser(
        "profile", help="per-kernel/per-phase latency profiling views"
    )
    prof_sub = prof.add_subparsers(dest="profile_command", required=True)
    preport = prof_sub.add_parser(
        "report",
        help="run one simulation and print the hot-path latency profile",
    )
    _add_telemetry_run_arguments(preport)
    preport.add_argument("--top", type=int, default=12,
                         help="rows per histogram family")
    preport.add_argument("--ascii", action="store_true",
                         help="render sparklines with 7-bit ASCII only")
    preport.set_defaults(handler=_cmd_profile_report)

    info = sub.add_parser("info", help="version and scenario overview")
    _add_scenario_arguments(info)
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
