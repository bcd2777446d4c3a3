"""The ``spotverse`` command-line interface.

Subcommands::

    spotverse recommend   # where would SpotVerse place work right now?
    spotverse run         # run a workload fleet under a strategy
    spotverse obs         # run with telemetry: JSONL event stream + run report
    spotverse experiment  # regenerate one of the paper's tables/figures
    spotverse report      # regenerate every experiment
    spotverse datasets    # summarize the synthetic spot datasets
    spotverse chaos       # fault-injection campaigns + resilience scorecards
    spotverse tenants     # multi-tenant fleet: roster + per-tenant scorecard

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.chaos.runner import POLICY_NAMES as CHAOS_POLICY_NAMES
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.spotverse import SpotVerse
from repro.errors import ReproError
from repro.experiments.report_all import ALL_EXPERIMENTS, run_all
from repro.experiments.reporting import render_table
from repro.strategies import (
    NaiveMultiRegionPolicy,
    OnDemandPolicy,
    SingleRegionPolicy,
    SkyPilotPolicy,
)
from repro.workloads import (
    genome_reconstruction_workload,
    ngs_preprocessing_workload,
    standard_general_workload,
    synthetic_workload,
)

WORKLOAD_FACTORIES = {
    "qiime": standard_general_workload,
    "genome": genome_reconstruction_workload,
    "ngs": ngs_preprocessing_workload,
    "synthetic": synthetic_workload,
}

BASELINE_POLICIES = {
    "single-region": lambda args: SingleRegionPolicy(
        region=args.start_region, instance_type=args.instance_type
    ),
    "on-demand": lambda args: OnDemandPolicy(instance_type=args.instance_type),
    "skypilot": lambda args: SkyPilotPolicy(instance_type=args.instance_type),
    "naive-multi-region": lambda args: NaiveMultiRegionPolicy(),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotverse",
        description="SpotVerse reproduction: multi-region spot middleware on a simulated AWS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    recommend = sub.add_parser("recommend", help="show SpotVerse's current region ranking")
    recommend.add_argument("--instance-type", default="m5.xlarge")
    recommend.add_argument("--threshold", type=float, default=6.0)
    recommend.add_argument("--max-regions", type=int, default=4)
    recommend.add_argument("--seed", type=int, default=42)
    recommend.add_argument(
        "--no-placement-score", action="store_true",
        help="score on stability only (providers without a placement score)",
    )
    recommend.add_argument(
        "--no-stability-score", action="store_true",
        help="score on placement only",
    )

    run = sub.add_parser("run", help="run a workload fleet under a strategy")
    run.add_argument("--strategy", default="spotverse",
                     choices=["spotverse"] + sorted(BASELINE_POLICIES))
    run.add_argument("--workload", default="genome", choices=sorted(WORKLOAD_FACTORIES))
    run.add_argument("--workloads", type=int, default=10, help="fleet size")
    run.add_argument("--duration-hours", type=float, default=10.5)
    run.add_argument("--instance-type", default="m5.xlarge")
    run.add_argument("--threshold", type=float, default=6.0)
    run.add_argument("--start-region", default=None)
    run.add_argument("--no-initial-distribution", action="store_true")
    run.add_argument("--max-hours", type=float, default=160.0)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--export-csv", default=None, metavar="PATH",
                     help="write the per-workload timeline as CSV")
    run.add_argument("--export-json", default=None, metavar="PATH",
                     help="write the timeline + aggregates as JSON")
    run.add_argument("--lifelines", action="store_true",
                     help="print per-workload ASCII lifelines after the summary")

    obs = sub.add_parser(
        "obs",
        help="run a fleet with telemetry on: JSONL event stream + per-run report",
    )
    obs.add_argument("--strategy", default="spotverse",
                     choices=["spotverse"] + sorted(BASELINE_POLICIES))
    obs.add_argument("--workload", default="genome", choices=sorted(WORKLOAD_FACTORIES))
    obs.add_argument("--workloads", type=int, default=12, help="fleet size")
    obs.add_argument("--duration-hours", type=float, default=10.5)
    obs.add_argument("--instance-type", default="m5.xlarge")
    obs.add_argument("--threshold", type=float, default=6.0)
    obs.add_argument("--start-region", default=None)
    obs.add_argument("--no-initial-distribution", action="store_true")
    obs.add_argument("--max-hours", type=float, default=160.0)
    obs.add_argument("--seed", type=int, default=42)
    obs.add_argument("--events", default=None, metavar="PATH",
                     help="write the JSONL event stream (events + metrics snapshot)")
    obs.add_argument("--from-events", default=None, metavar="PATH",
                     help="render a report from an existing JSONL stream; no fleet runs")
    obs.add_argument("--gantt-width", type=int, default=64,
                     help="character width of the span timeline")
    obs.add_argument("--profile", action="store_true",
                     help="also print the engine's hot-path profile "
                          "(events/sec, per-subsystem and hottest label groups)")
    obs_sub = obs.add_subparsers(
        dest="obs_command", metavar="{explain,markets,profile,trace,slo,watch}"
    )
    explain = obs_sub.add_parser(
        "explain",
        help="render one workload's causal chain (decisions, interruptions, "
             "migrations) from a saved JSONL stream; a DAG id renders the "
             "per-step chain across every stage",
    )
    explain.add_argument("workload_id",
                         help="workload to explain, e.g. wl-003; a DAG id "
                              "(e.g. run1) matches all of its step stages")
    explain.add_argument("--from-events", required=True, metavar="PATH",
                         help="JSONL stream written by `spotverse obs --events PATH`")
    markets = obs_sub.add_parser(
        "markets",
        help="per-region market sparkline tables with anomaly annotations",
    )
    markets.add_argument("--from-events", default=None, metavar="PATH",
                         help="read market series from a saved JSONL stream "
                              "instead of simulating fresh markets")
    markets.add_argument("--days", type=float, default=3.0,
                         help="days of fresh market simulation (ignored with --from-events)")
    markets.add_argument("--instance-type", default="m5.xlarge",
                         help="restrict tables to one instance type ('' for all)")
    markets.add_argument("--seed", type=int, default=42)
    markets.add_argument("--width", type=int, default=32,
                         help="character width of the sparklines")
    profile = obs_sub.add_parser(
        "profile",
        help="attributed engine hot-path profile: wall time, event counts, and "
             "heap churn per label group and owning subsystem",
    )
    profile.add_argument("--top", type=int, default=5,
                         help="how many hot label groups to list")
    profile.add_argument("--from-profile", default=None, metavar="PATH",
                         help="render a profile written by --json; "
                              "no fleet runs")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="also write the profile artifact as JSON")
    trace = obs_sub.add_parser(
        "trace",
        help="render one workload's cross-service causal tree: "
             "submit -> placed -> (interrupt -> reacquire)* -> done, "
             "with per-hop sim-time latency and the critical path",
    )
    trace.add_argument("workload_id", help="workload to trace, e.g. wl-003")
    trace.add_argument("--chaos", action="store_true",
                       help="run under the default chaos campaign (controller kills "
                            "excluded) so retry and dead-letter hops appear")
    trace.add_argument("--json", default=None, metavar="PATH",
                       help="also write the workload's recorded hops as JSON")
    slo = obs_sub.add_parser(
        "slo",
        help="evaluate sim-time latency SLOs into a scorecard; exits 1 on breach",
    )
    slo.add_argument("--spec", default=None, metavar="PATH",
                     help="SLO spec JSON (default: the built-in fleet objectives)")
    slo.add_argument("--from-events", default=None, metavar="PATH",
                     help="score a saved JSONL stream instead of running a fleet")
    slo.add_argument("--export-metrics", default=None, metavar="PATH",
                     help="write the run's metrics in Prometheus text exposition "
                          "format (live runs only)")
    slo.add_argument("--json", default=None, metavar="PATH",
                     help="also write the scorecard as JSON")
    watch = obs_sub.add_parser(
        "watch",
        help="refreshing terminal dashboard over a live run or a growing "
             "segmented stream: fleet rollup, window rates, SLO status, "
             "anomaly/violation feed",
    )
    watch.add_argument("--from-events", default=None, metavar="PATH",
                       help="render a snapshot of a finished JSONL stream")
    watch.add_argument("--dir", default=None, metavar="DIR", dest="stream_dir",
                       help="tail a segmented stream directory "
                            "(written live by the observability plane)")
    watch.add_argument("--live", action="store_true",
                       help="run the fleet the parent obs flags describe and "
                            "refresh the dashboard as it executes")
    watch.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit (CI mode)")
    watch.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                       help="wall-clock refresh interval when following a "
                            "growing stream")
    watch.add_argument("--refresh-hours", type=float, default=6.0,
                       help="sim-hours between dashboard refreshes with --live")
    watch.add_argument("--window-hours", type=float, default=1.0,
                       help="tumbling aggregation window width in sim-hours")
    watch.add_argument("--show-windows", type=int, default=6,
                       help="recent windows listed in the rate table")
    watch.add_argument("--show-feed", type=int, default=8,
                       help="feed entries listed")

    experiment = sub.add_parser("experiment", help="regenerate one paper experiment")
    experiment.add_argument(
        "experiment_id",
        choices=[experiment_id for experiment_id, _, _ in ALL_EXPERIMENTS],
    )
    experiment.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent experiment arms out over N worker processes",
    )

    report = sub.add_parser("report", help="regenerate every paper experiment")
    report.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent experiment arms out over N worker processes",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection campaigns and verify resilience invariants",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="run one campaign against one policy; exits 1 on invariant violations",
    )
    chaos_run.add_argument(
        "--policy", default="spotverse",
        choices=sorted(CHAOS_POLICY_NAMES),
    )
    chaos_run.add_argument(
        "--campaign", default=None, metavar="PATH",
        help="campaign spec JSON (default: the built-in default campaign)",
    )
    chaos_run.add_argument(
        "--random", type=int, default=None, metavar="SEED",
        help="generate a randomised campaign from SEED instead of --campaign",
    )
    chaos_run.add_argument("--seed", type=int, default=11,
                           help="master engine seed (markets + chaos streams)")
    chaos_run.add_argument("--max-hours", type=float, default=72.0)
    chaos_run.add_argument(
        "--verify-resume", action="store_true",
        help="with controller-kill injections, also require bit-identical "
             "results versus an unkilled run of the same campaign",
    )
    chaos_run.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the scorecard JSON (replayable: same seed, same bytes)",
    )
    chaos_run.add_argument(
        "--export-stream", default=None, metavar="DIR",
        help="stream the run's telemetry into segmented JSONL under DIR "
             "while it executes (tail it with `spotverse obs watch --dir DIR`)",
    )
    chaos_run.add_argument(
        "--blackbox", default=None, metavar="DIR",
        help="arm a flight recorder writing BLACKBOX_*.json artifacts under "
             "DIR on invariant breach, dead-letter, or engine exception "
             "(plus a run-end snapshot)",
    )
    chaos_run.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="run the campaign through the multi-tenant control plane with N "
             "tenants (fair-share admission; per-tenant quota/fairness "
             "invariants join the scorecard)",
    )
    chaos_report = chaos_sub.add_parser(
        "report",
        help="render a saved scorecard JSON written by `chaos run --export`",
    )
    chaos_report.add_argument("scorecard", metavar="PATH")
    chaos_report.add_argument(
        "--workload", default=None, metavar="ID",
        help="show one workload's chaos outcome instead of the full scorecard",
    )

    tenants = sub.add_parser(
        "tenants",
        help="run a multi-tenant fleet: tenant roster + per-tenant scorecard",
    )
    tenants.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="number of tenants (distinct fair-share weights, quota 2, "
             "two workloads each)",
    )
    tenants.add_argument(
        "--policy", default="spotverse", choices=sorted(CHAOS_POLICY_NAMES),
    )
    tenants.add_argument("--seed", type=int, default=11)
    tenants.add_argument("--max-hours", type=float, default=72.0)
    tenants.add_argument(
        "--n-shards", type=int, default=1,
        help="state-store shard count (scans and flushes stay O(shard))",
    )
    tenants.add_argument(
        "--storm", action="store_true",
        help="inject the tenant reclaim-storm campaign during the run",
    )
    tenants.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the per-tenant scorecard JSON",
    )

    datasets = sub.add_parser("datasets", help="summarize the synthetic spot datasets")
    datasets.add_argument("--days", type=int, default=30)
    datasets.add_argument("--instance-type", default="m5.2xlarge")
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument(
        "--save", default=None, metavar="DIR",
        help="also write advisor.jsonl and placement.jsonl archives to DIR",
    )

    return parser


def _cmd_recommend(args: argparse.Namespace) -> int:
    provider = CloudProvider(seed=args.seed)
    config = SpotVerseConfig(
        instance_type=args.instance_type,
        score_threshold=args.threshold,
        max_regions=args.max_regions,
        use_placement_score=not args.no_placement_score,
        use_stability_score=not args.no_stability_score,
    )
    spotverse = SpotVerse(provider, config)
    recommended = spotverse.recommended_regions()
    if not recommended:
        placement = spotverse.recommendation()
        print(
            f"No region meets threshold {args.threshold:g} for "
            f"{args.instance_type}; SpotVerse recommends ON-DEMAND in "
            f"{placement.region}."
        )
        return 0
    rows = [
        [
            m.region,
            f"{m.spot_price:.4f}",
            f"{m.od_price:.4f}",
            f"{m.placement_score:.1f}",
            m.stability_score,
            f"{m.combined_score:.1f}",
            f"{100 * m.savings_fraction:.0f}%",
        ]
        for m in recommended
    ]
    print(
        render_table(
            ["region", "spot $/h", "od $/h", "placement", "stability", "combined", "savings"],
            rows,
            title=f"SpotVerse top regions for {args.instance_type} "
            f"(threshold {args.threshold:g}, cheapest first)",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    factory = WORKLOAD_FACTORIES[args.workload]
    fleet = [
        factory(f"wl-{i:03d}", duration_hours=args.duration_hours)
        for i in range(args.workloads)
    ]
    config = SpotVerseConfig(
        instance_type=args.instance_type,
        score_threshold=args.threshold,
        initial_distribution=not args.no_initial_distribution,
        start_region=args.start_region,
    )
    if args.strategy == "spotverse":
        provider = CloudProvider(seed=args.seed)
        result = SpotVerse(provider, config).run(fleet, max_hours=args.max_hours)
    else:
        provider = CloudProvider(seed=args.seed)
        provider.warmup_markets(48)
        policy = BASELINE_POLICIES[args.strategy](args)
        controller = FleetController(provider, policy, config)
        result = controller.run(fleet, max_hours=args.max_hours)
        controller.teardown()
    print(result.summary())
    if args.lifelines:
        from repro.experiments.gantt import render_lifelines

        print()
        print(render_lifelines(result))
    if args.export_csv or args.export_json:
        from repro.experiments import timeline

        if args.export_csv:
            with open(args.export_csv, "w") as handle:
                handle.write(timeline.to_csv(result))
            print(f"timeline CSV written to {args.export_csv}")
        if args.export_json:
            with open(args.export_json, "w") as handle:
                handle.write(timeline.to_json(result))
            print(f"timeline JSON written to {args.export_json}")
    return 0 if result.all_complete else 1


def _load_stream(path: str):
    """Load a JSONL telemetry stream, or print a clear error and return None.

    Empty and truncated/corrupt streams both fail here — the obs
    subcommands promise a message and a nonzero exit, never a traceback.
    """
    from repro.obs import TelemetryStream

    try:
        stream = TelemetryStream.load(path)
    except OSError as exc:
        print(f"error: cannot read event stream {path!r}: {exc}")
        return None
    except ReproError as exc:
        print(f"error: {exc}")
        return None
    if stream.empty:
        print(f"error: event stream {path!r} is empty (was the export interrupted?)")
        return None
    return stream


def _cmd_obs_explain(args: argparse.Namespace) -> int:
    from repro.obs import render_explanation

    stream = _load_stream(args.from_events)
    if stream is None:
        return 2
    try:
        print(render_explanation(stream.events, args.workload_id))
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    return 0


def _cmd_obs_markets(args: argparse.Namespace) -> int:
    from repro.obs.export import render_market_tables

    instance_type = args.instance_type or None
    if args.from_events:
        stream = _load_stream(args.from_events)
        if stream is None:
            return 2
        store = stream.timeseries()
        if not store.names():
            print(
                f"error: event stream {args.from_events!r} has no market series "
                "(export one with `spotverse obs --events PATH`)"
            )
            return 2
        print(
            render_market_tables(
                store,
                events=stream.events,
                width=args.width,
                instance_type=instance_type,
            )
        )
        return 0
    # No stream given: simulate fresh markets under the observatory —
    # no fleet, just prices/scores/hazard evolving and being sampled.
    provider = CloudProvider(seed=args.seed, observatory=True)
    provider.engine.run_until(args.days * 24 * 3600.0)
    print(
        f"{args.days:g} day(s) of simulated markets "
        f"(seed {args.seed}, anomalies {len(provider.observatory.anomalies)}):"
    )
    print(
        render_market_tables(
            provider.telemetry.timeseries,
            events=list(provider.telemetry.bus),
            width=args.width,
            instance_type=instance_type,
        )
    )
    provider.shutdown()
    return 0


def _run_obs_fleet(args: argparse.Namespace, provider: CloudProvider):
    """Run the fleet the parent ``obs`` flags describe on *provider*."""
    factory = WORKLOAD_FACTORIES[args.workload]
    fleet = [
        factory(f"wl-{i:03d}", duration_hours=args.duration_hours)
        for i in range(args.workloads)
    ]
    config = SpotVerseConfig(
        instance_type=args.instance_type,
        score_threshold=args.threshold,
        initial_distribution=not args.no_initial_distribution,
        start_region=args.start_region,
    )
    if args.strategy == "spotverse":
        return SpotVerse(provider, config).run(fleet, max_hours=args.max_hours)
    provider.warmup_markets(48)
    policy = BASELINE_POLICIES[args.strategy](args)
    controller = FleetController(provider, policy, config)
    result = controller.run(fleet, max_hours=args.max_hours)
    controller.teardown()
    return result


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs.profiler import HotPathProfile, attach_profiler

    if args.from_profile:
        try:
            with open(args.from_profile) as handle:
                payload = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read profile {args.from_profile!r}: {exc}")
            return 2
        except ValueError as exc:
            print(f"error: profile {args.from_profile!r} is not valid JSON: {exc}")
            return 2
        profile = HotPathProfile.from_payload(payload)
        if not profile.entries():
            print(f"error: profile {args.from_profile!r} has no entries")
            return 2
        print(profile.report(top=args.top))
        return 0

    provider = CloudProvider(seed=args.seed)
    profiler = attach_profiler(provider.engine)
    result = _run_obs_fleet(args, provider)
    profile = profiler.profile()
    print(result.summary())
    print()
    print(profile.report(top=args.top))
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(profile.to_payload(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write profile {args.json!r}: {exc}")
            return 2
        print()
        print(f"profile artifact written to {args.json}")
    return 0 if result.all_complete else 1


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.tracing import render_trace

    provider = CloudProvider(seed=args.seed, tracing=True)
    if args.chaos:
        from repro.chaos import ChaosController, default_campaign

        # Controller kills are process-level faults the chaos runner
        # executes; a single in-process run traces everything else.
        ChaosController(provider, default_campaign().without_kills()).install()
    _run_obs_fleet(args, provider)
    tracer = provider.telemetry.tracer
    hops = tracer.hops_for(args.workload_id)
    if not hops:
        known = ", ".join(sorted(tracer.trace_ids())) or "none"
        print(
            f"error: no trace recorded for workload {args.workload_id!r} "
            f"(known traces: {known})"
        )
        return 2
    print(render_trace(hops, args.workload_id))
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(
                    [hop.to_dict() for hop in hops], handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write hops {args.json!r}: {exc}")
            return 2
        print()
        print(f"hop records written to {args.json}")
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import SLOSpec, default_slo_spec, evaluate_slo_from_events

    spec = default_slo_spec()
    if args.spec:
        try:
            with open(args.spec) as handle:
                payload = json.load(handle)
            spec = SLOSpec.from_dict(payload)
        except OSError as exc:
            print(f"error: cannot read SLO spec {args.spec!r}: {exc}")
            return 2
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            print(f"error: SLO spec {args.spec!r} is not a valid spec: {exc}")
            return 2

    if args.from_events:
        if args.export_metrics:
            print("error: --export-metrics needs a live run (drop --from-events)")
            return 2
        stream = _load_stream(args.from_events)
        if stream is None:
            return 2
        scorecard = evaluate_slo_from_events(spec, stream.events)
        print(scorecard.render())
    else:
        provider = CloudProvider(seed=args.seed)
        result = _run_obs_fleet(args, provider)
        scorecard = evaluate_slo_from_events(spec, list(provider.telemetry.bus))
        print(result.summary())
        print()
        print(scorecard.render())
        if args.export_metrics:
            try:
                with open(args.export_metrics, "w") as handle:
                    handle.write(provider.telemetry.metrics.exposition())
            except OSError as exc:
                print(f"error: cannot write metrics {args.export_metrics!r}: {exc}")
                return 2
            print()
            print(f"metrics exposition written to {args.export_metrics}")
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(scorecard.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write scorecard {args.json!r}: {exc}")
            return 2
        print()
        print(f"scorecard written to {args.json}")
    return 0 if scorecard.all_passed else 1


def _stream_complete(directory: str) -> bool:
    """Whether a segmented stream's manifest says the run ended."""
    import json
    import os

    try:
        with open(os.path.join(directory, "manifest.json")) as handle:
            return bool(json.load(handle).get("complete"))
    except (OSError, ValueError):
        return False


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.obs.watch import WatchState, render_dashboard
    from repro.sim.clock import HOUR

    sources = [bool(args.from_events), bool(args.stream_dir), args.live]
    if sum(sources) != 1:
        print("error: pick exactly one of --from-events, --dir, or --live")
        return 2
    window_seconds = args.window_hours * HOUR

    if args.live:
        provider = CloudProvider(seed=args.seed, observatory=True)
        state = WatchState(window_seconds=window_seconds)
        provider.telemetry.bus.subscribe(state.observe)

        def _refresh() -> None:
            print(render_dashboard(
                state,
                source=f"live run (seed {args.seed})",
                show_windows=args.show_windows,
                show_feed=args.show_feed,
            ))
            print()

        if not args.once:
            provider.engine.every(
                args.refresh_hours * HOUR, _refresh, label="obs-watch-refresh"
            )
        result = _run_obs_fleet(args, provider)
        state.complete = True
        print(render_dashboard(
            state,
            source=f"live run (seed {args.seed}, finished)",
            show_windows=args.show_windows,
            show_feed=args.show_feed,
        ))
        return 0 if result.all_complete else 1

    path = args.from_events or args.stream_dir
    if args.from_events or args.once:
        stream = _load_stream(path)
        if stream is None:
            return 2
        state = WatchState.from_stream(stream, window_seconds=window_seconds)
        state.complete = bool(args.from_events) or _stream_complete(path)
        print(render_dashboard(
            state,
            source=path,
            show_windows=args.show_windows,
            show_feed=args.show_feed,
        ))
        return 0

    # Follow mode over a growing segmented stream: re-fold and re-render
    # until the manifest reports completion.  Re-loading is O(stream) but
    # the segment caps keep streams small at interactive scales.
    if not os.path.exists(path):
        print(f"error: cannot read event stream {path!r}: no such directory")
        return 2
    while True:
        stream = _load_stream(path)
        complete = _stream_complete(path)
        if stream is not None:
            state = WatchState.from_stream(stream, window_seconds=window_seconds)
            state.complete = complete
            print(render_dashboard(
                state,
                source=path,
                show_windows=args.show_windows,
                show_feed=args.show_feed,
            ))
            print()
        if complete:
            return 0 if stream is not None else 2
        time.sleep(max(0.05, args.interval))


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import RunReport, Telemetry, attach_profiler, write_jsonl

    obs_command = getattr(args, "obs_command", None)
    if obs_command == "explain":
        return _cmd_obs_explain(args)
    if obs_command == "markets":
        return _cmd_obs_markets(args)
    if obs_command == "profile":
        return _cmd_obs_profile(args)
    if obs_command == "trace":
        return _cmd_obs_trace(args)
    if obs_command == "slo":
        return _cmd_obs_slo(args)
    if obs_command == "watch":
        return _cmd_obs_watch(args)

    if args.from_events:
        stream = _load_stream(args.from_events)
        if stream is None:
            return 2
        report = RunReport(stream.events, stream.samples)
        print(report.render(gantt_width=args.gantt_width))
        return 0

    telemetry = Telemetry()
    provider = CloudProvider(seed=args.seed, telemetry=telemetry, observatory=True)
    profiler = attach_profiler(provider.engine) if args.profile else None
    result = _run_obs_fleet(args, provider)

    print(result.summary())
    print()
    print(RunReport.from_telemetry(telemetry).render(gantt_width=args.gantt_width))
    if args.events:
        try:
            lines = write_jsonl(args.events, telemetry)
        except OSError as exc:
            print(f"error: cannot write event stream {args.events!r}: {exc}")
            return 2
        print()
        print(f"event stream written to {args.events} ({lines} lines)")
    if profiler is not None:
        print()
        print("engine wall-clock profile:")
        print(profiler.profile().report())
    return 0 if result.all_complete else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import harness

    harness.set_default_jobs(args.jobs)
    for experiment_id, title, runner in ALL_EXPERIMENTS:
        if experiment_id == args.experiment_id:
            print(f"[{experiment_id}] {title}")
            print(runner().render())
            return 0
    return 2  # unreachable: argparse validates choices


def _load_campaign(args: argparse.Namespace):
    """Resolve the campaign for ``chaos run``, or None after an error."""
    import json

    from repro.chaos import CampaignSpec, default_campaign, random_campaign
    from repro.cloud.regions import default_region_catalog

    if args.random is not None and args.campaign is not None:
        print("error: --campaign and --random are mutually exclusive")
        return None
    if args.random is not None:
        regions = tuple(default_region_catalog().names())
        return random_campaign(args.random, regions)
    if args.campaign is None:
        return default_campaign()
    try:
        with open(args.campaign) as handle:
            payload = json.load(handle)
        return CampaignSpec.from_dict(payload)
    except OSError as exc:
        print(f"error: cannot read campaign {args.campaign!r}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: campaign {args.campaign!r} is not a valid campaign spec: {exc}")
    return None


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import render_scorecard, run_campaign

    campaign = _load_campaign(args)
    if campaign is None:
        return 2
    outcome = run_campaign(
        policy=args.policy,
        campaign=campaign,
        seed=args.seed,
        max_hours=args.max_hours,
        verify_resume_equivalence=args.verify_resume,
        stream_dir=args.export_stream,
        blackbox_dir=args.blackbox,
        tenants=args.tenants,
    )
    print(render_scorecard(outcome.scorecard))
    if args.export_stream:
        print(f"segmented event stream written to {args.export_stream}")
    if args.blackbox:
        print(f"blackbox artifacts written to {args.blackbox}")
    if args.export:
        try:
            with open(args.export, "w") as handle:
                json.dump(outcome.scorecard, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write scorecard {args.export!r}: {exc}")
            return 2
        print(f"scorecard written to {args.export}")
    return 0 if outcome.all_passed else 1


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import render_scorecard

    try:
        with open(args.scorecard) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read scorecard {args.scorecard!r}: {exc}")
        return 2
    if not text.strip():
        print(f"error: scorecard {args.scorecard!r} is empty (was the export interrupted?)")
        return 2
    try:
        scorecard = json.loads(text)
    except ValueError as exc:
        print(f"error: scorecard {args.scorecard!r} is not valid JSON: {exc}")
        return 2
    if not isinstance(scorecard, dict) or "invariants" not in scorecard:
        print(f"error: {args.scorecard!r} is not a chaos scorecard (missing 'invariants')")
        return 2
    if args.workload is not None:
        workloads = scorecard.get("workloads", {})
        entry = workloads.get(args.workload)
        if entry is None:
            known = ", ".join(sorted(workloads)) or "none"
            print(
                f"error: workload {args.workload!r} not in this scorecard "
                f"(known workloads: {known})"
            )
            return 2
        print(f"{args.workload} under campaign {scorecard['campaign']['name']!r}:")
        for key, value in entry.items():
            print(f"  {key:<18s} {value}")
        return 0
    print(render_scorecard(scorecard))
    return 0 if scorecard.get("all_passed") else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "run":
        return _cmd_chaos_run(args)
    return _cmd_chaos_report(args)


def _cmd_tenants(args: argparse.Namespace) -> int:
    import json

    from repro.chaos.runner import (
        _MONITOR_POLICIES,
        DEFAULT_WARMUP_STEPS,
        _make_config,
        _make_policy,
        tenant_fleet,
    )
    from repro.core.monitor import Monitor
    from repro.core.tenancy import MultiTenantController

    config = _make_config(args.policy)
    provider = CloudProvider(seed=args.seed)
    provider.warmup_markets(DEFAULT_WARMUP_STEPS)
    monitor = (
        Monitor(provider, [config.instance_type], collect_interval=config.collect_interval)
        if args.policy in _MONITOR_POLICIES
        else None
    )
    policy = _make_policy(args.policy, config, monitor)
    controller = MultiTenantController(
        provider, policy, config, monitor=monitor, n_shards=args.n_shards
    )
    specs, submissions = tenant_fleet(args.tenants)
    for spec in specs:
        controller.register_tenant(spec)
    chaos = None
    if args.storm:
        from repro.chaos import ChaosController, tenant_storm_campaign

        chaos = ChaosController(provider, tenant_storm_campaign())
        chaos.install()
    for tenant_id, workload in submissions:
        controller.submit(tenant_id, workload)
    result = controller.wait(max_hours=args.max_hours)
    if chaos is not None:
        chaos.deactivate()
    usage = controller.usage()
    print(
        render_table(
            ["tenant", "weight", "quota", "policy"],
            [
                [spec.tenant_id, f"{spec.weight:g}",
                 str(spec.max_in_flight) if spec.max_in_flight else "unlimited",
                 spec.policy or "-"]
                for spec in controller.registry.tenants()
            ],
            title=f"tenant roster ({args.policy}, seed {args.seed}"
            + (", storm" if args.storm else "")
            + f", {args.n_shards} shard{'s' if args.n_shards != 1 else ''})",
        )
    )
    print()
    print(
        render_table(
            ["tenant", "admitted", "done", "in flight", "queued", "throttled"],
            [
                [tenant_id, str(row["admitted"]), str(row["done"]),
                 str(row["in_flight"]), str(row["queued"]), str(row["throttled"])]
                for tenant_id, row in usage.items()
            ],
            title="per-tenant scorecard",
        )
    )
    print(
        f"totals: ${result.total_cost:.2f} "
        f"({len(result.records)} workloads, ended t={result.ended_at:.0f}s)"
    )
    if args.export:
        payload = {
            "policy": args.policy,
            "seed": args.seed,
            "n_shards": args.n_shards,
            "storm": bool(args.storm),
            "tenants": usage,
            "totals": {
                "total_cost": result.total_cost,
                "ended_at": result.ended_at,
                "workloads": len(result.records),
            },
        }
        try:
            with open(args.export, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write scorecard {args.export!r}: {exc}")
            return 2
        print(f"tenant scorecard written to {args.export}")
    provider.shutdown()
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import generate_advisor_dataset, generate_placement_dataset

    advisor = generate_advisor_dataset(
        days=args.days, instance_types=[args.instance_type], seed=args.seed
    )
    placement = generate_placement_dataset(
        days=args.days, instance_types=[args.instance_type], seed=args.seed
    )
    rows = []
    for region in advisor.regions():
        advisor_series = advisor.series(region, args.instance_type)
        placement_series = placement.series(region, args.instance_type)
        mean_freq = sum(r.interruption_freq_pct for r in advisor_series) / len(advisor_series)
        mean_score = sum(r.score for r in placement_series) / len(placement_series)
        rows.append(
            [
                region,
                f"{mean_freq:.1f}%",
                advisor_series[-1].stability_score,
                f"{mean_score:.2f}",
                f"{advisor_series[-1].savings_pct:.0f}%",
            ]
        )
    print(
        render_table(
            ["region", "mean freq", "stability", "mean placement", "savings (latest)"],
            rows,
            title=f"{args.instance_type} over {args.days} days (synthetic advisor + placement)",
        )
    )
    if args.save:
        import pathlib

        from repro.data.persist import save_advisor_dataset, save_placement_dataset

        directory = pathlib.Path(args.save)
        directory.mkdir(parents=True, exist_ok=True)
        advisor_rows = save_advisor_dataset(advisor, directory / "advisor.jsonl")
        placement_rows = save_placement_dataset(
            placement, directory / "placement.jsonl"
        )
        print(
            f"archives written to {directory} "
            f"({advisor_rows} advisor rows, {placement_rows} placement rows)"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "obs":
            return _cmd_obs(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "report":
            from repro.experiments import harness

            harness.set_default_jobs(args.jobs)
            run_all()
            return 0
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "tenants":
            return _cmd_tenants(args)
        if args.command == "datasets":
            return _cmd_datasets(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g.
        # ``spotverse report | head``); that is not our error.
        return 0
    return 2  # unreachable: argparse requires a subcommand


if __name__ == "__main__":
    sys.exit(main())
