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

Every command is deterministic given ``--seed``.  Every input file is
read in one place (:func:`_read_json` for JSON documents,
:func:`_load_stream` for event streams) and every ``--json`` /
``--export`` document is written in one (:func:`_export`); a bad input,
an unknown id or an unwritable path prints one ``error:`` line and
exits 2, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.policy import PolicyContext
from repro.errors import ReproError
from repro.experiments.report_all import ALL_EXPERIMENTS, run_all
from repro.experiments.reporting import render_table
from repro.strategies import STRATEGIES, build_strategy
from repro.workloads import (
    genome_reconstruction_workload,
    ngs_preprocessing_workload,
    standard_general_workload,
    synthetic_workload,
)

#: Experiment id -> (title, runner), the rows of ``ALL_EXPERIMENTS``.
_EXPERIMENTS = {experiment_id: (title, runner) for experiment_id, title, runner in ALL_EXPERIMENTS}

WORKLOAD_FACTORIES = {
    "qiime": standard_general_workload,
    "genome": genome_reconstruction_workload,
    "ngs": ngs_preprocessing_workload,
    "synthetic": synthetic_workload,
}


def _add_fleet_flags(parser: argparse.ArgumentParser, workloads: int) -> None:
    """The fleet flags ``run`` and ``obs`` share (read by :func:`_run_fleet`)."""
    parser.add_argument("--strategy", default="spotverse", choices=sorted(STRATEGIES))
    parser.add_argument("--workload", default="genome", choices=sorted(WORKLOAD_FACTORIES))
    parser.add_argument("--workloads", type=int, default=workloads, help="fleet size")
    parser.add_argument("--duration-hours", type=float, default=10.5)
    parser.add_argument("--instance-type", default="m5.xlarge")
    parser.add_argument("--threshold", type=float, default=6.0)
    parser.add_argument("--start-region", default=None)
    parser.add_argument("--no-initial-distribution", action="store_true")
    parser.add_argument("--max-hours", type=float, default=160.0)
    parser.add_argument("--seed", type=int, default=42)


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
    _add_fleet_flags(run, workloads=10)
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
    _add_fleet_flags(obs, workloads=12)
    obs.add_argument("--events", default=None, metavar="PATH",
                     help="write the JSONL event stream (events + metrics snapshot)")
    obs.add_argument("--from-events", default=None, metavar="PATH",
                     help="render a report from an existing JSONL stream; no fleet runs")
    obs.add_argument("--gantt-width", type=int, default=64,
                     help="character width of the span timeline")
    obs_sub = obs.add_subparsers(
        dest="subcommand", metavar="{explain,markets,profile,trace,slo,watch}"
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
        choices=list(_EXPERIMENTS),
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
    chaos_sub = chaos.add_subparsers(dest="subcommand", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="run one campaign against one policy; exits 1 on invariant violations",
    )
    chaos_run.add_argument("--policy", default="spotverse", choices=sorted(STRATEGIES))
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
    tenants.add_argument("--policy", default="spotverse", choices=sorted(STRATEGIES))
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
    provider.warmup_markets(48)
    _, monitor, optimizer = build_strategy("spotverse", provider, config)
    ctx = PolicyContext(
        provider=provider,
        monitor=monitor,
        rng=provider.engine.streams.get("spotverse:advice"),
    )
    recommended = optimizer.top_regions(ctx)
    if not recommended:
        # Algorithm 1's on-demand branch: the cheapest on-demand region.
        region, _ = provider.price_book.cheapest_od_region(args.instance_type)
        print(
            f"No region meets threshold {args.threshold:g} for "
            f"{args.instance_type}; SpotVerse recommends ON-DEMAND in "
            f"{region}."
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


def _run_fleet(args: argparse.Namespace, provider: CloudProvider):
    """Run the fleet the ``run`` / ``obs`` flags describe on *provider*."""
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
    provider.warmup_markets(48)
    config, monitor, policy = build_strategy(args.strategy, provider, config)
    controller = FleetController(provider, policy, config, monitor=monitor)
    result = controller.run(fleet, max_hours=args.max_hours)
    controller.teardown()
    return result


def _read_json(path: str, what: str, build: Callable[[dict], Any]) -> Any:
    """Read the JSON object at *path* and return ``build(payload)``.

    Every JSON document the CLI takes (profile artifact, SLO spec,
    campaign, scorecard) comes in here.  An unreadable path, invalid
    JSON, a document that is not an object, or any error *build* raises
    on it becomes one :class:`ReproError`, which :func:`main` prints as
    one ``error:`` line before it exits 2.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        return build(payload)
    except OSError as exc:
        raise ReproError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ReproError, ValueError, LookupError, TypeError, AttributeError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ReproError(f"{what} {path!r} is not a valid {what}: {detail}") from exc


def _export(path: str, document: Any, what: str, written: str) -> None:
    """Write one ``--json`` / ``--export`` document and announce it.

    *document* is text, or a payload written as JSON (sorted keys,
    trailing newline).  Prints ``<written> written to <path>``; an
    unwritable path raises ``cannot write <what> <path>`` instead.
    """
    if not isinstance(document, str):
        document = json.dumps(document, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as handle:
            handle.write(document)
    except OSError as exc:
        raise ReproError(f"cannot write {what} {path!r}: {exc}") from exc
    print(f"{written} written to {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import timeline

    result = _run_fleet(args, CloudProvider(seed=args.seed))
    print(result.summary())
    if args.lifelines:
        from repro.experiments.gantt import render_lifelines

        print()
        print(render_lifelines(result))
    if args.export_csv:
        _export(args.export_csv, timeline.to_csv(result), "timeline CSV", "timeline CSV")
    if args.export_json:
        _export(args.export_json, timeline.to_json(result), "timeline JSON", "timeline JSON")
    return 0 if result.all_complete else 1


def _load_stream(path: str):
    """Load a JSONL telemetry stream that holds at least one record.

    Missing, unreadable, empty and corrupt streams all raise one
    :class:`ReproError` naming the path (and the damaged line).
    """
    from repro.obs import TelemetryStream

    try:
        stream = TelemetryStream.load(path)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read event stream {path!r}: {exc}") from exc
    if stream.empty:
        raise ReproError(f"event stream {path!r} is empty (was the export interrupted?)")
    return stream


def _cmd_obs_explain(args: argparse.Namespace) -> int:
    from repro.obs import render_explanation

    print(render_explanation(_load_stream(args.from_events).events, args.workload_id))
    return 0


def _cmd_obs_markets(args: argparse.Namespace) -> int:
    from repro.obs.export import render_market_tables

    provider = None
    if args.from_events:
        stream = _load_stream(args.from_events)
        store, events = stream.timeseries(), stream.events
        if not store.names():
            raise ReproError(
                f"event stream {args.from_events!r} has no market series "
                "(export one with `spotverse obs --events PATH`)"
            )
    else:
        # No stream given: simulate fresh markets under the observatory —
        # no fleet, just prices/scores/hazard evolving and being sampled.
        provider = CloudProvider(seed=args.seed, observatory=True)
        provider.engine.run_until(args.days * 24 * 3600.0)
        store, events = provider.telemetry.timeseries, list(provider.telemetry.bus)
        print(
            f"{args.days:g} day(s) of simulated markets "
            f"(seed {args.seed}, anomalies {len(provider.observatory.anomalies)}):"
        )
    print(
        render_market_tables(
            store, events=events, width=args.width, instance_type=args.instance_type or None
        )
    )
    if provider is not None:
        provider.shutdown()
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import HotPathProfile, attach_profiler

    if args.from_profile:
        def render(payload: dict) -> str:
            profile = HotPathProfile.from_payload(payload)
            if not profile.entries():
                raise ValueError("it has no entries")
            return profile.report(top=args.top)

        print(_read_json(args.from_profile, "profile", render))
        return 0

    provider = CloudProvider(seed=args.seed)
    profiler = attach_profiler(provider.engine)
    result = _run_fleet(args, provider)
    profile = profiler.profile()
    print(result.summary())
    print()
    print(profile.report(top=args.top))
    if args.json:
        _export(args.json, profile.to_payload(), "profile", "\nprofile artifact")
    return 0 if result.all_complete else 1


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracing import render_trace

    provider = CloudProvider(seed=args.seed, tracing=True)
    if args.chaos:
        from repro.chaos import ChaosController, default_campaign

        # Controller kills are process-level faults the chaos runner
        # executes; a single in-process run traces everything else.
        ChaosController(provider, default_campaign().without_kills()).install()
    _run_fleet(args, provider)
    tracer = provider.telemetry.tracer
    hops = tracer.hops_for(args.workload_id)
    if not hops:
        known = ", ".join(sorted(tracer.trace_ids())) or "none"
        raise ReproError(
            f"no trace recorded for workload {args.workload_id!r} (known traces: {known})"
        )
    print(render_trace(hops, args.workload_id))
    if args.json:
        _export(args.json, [hop.to_dict() for hop in hops], "hops", "\nhop records")
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import SLOSpec, default_slo_spec, evaluate_slo_from_events

    spec = default_slo_spec()
    if args.spec:
        spec = _read_json(args.spec, "SLO spec", SLOSpec.from_dict)

    if args.from_events:
        if args.export_metrics:
            raise ReproError("--export-metrics needs a live run (drop --from-events)")
        scorecard = evaluate_slo_from_events(spec, _load_stream(args.from_events).events)
        print(scorecard.render())
    else:
        provider = CloudProvider(seed=args.seed)
        result = _run_fleet(args, provider)
        scorecard = evaluate_slo_from_events(spec, list(provider.telemetry.bus))
        print(result.summary())
        print()
        print(scorecard.render())
        if args.export_metrics:
            exposition = provider.telemetry.metrics.exposition()
            _export(args.export_metrics, exposition, "metrics", "\nmetrics exposition")
    if args.json:
        _export(args.json, scorecard.to_dict(), "scorecard", "\nscorecard")
    return 0 if scorecard.all_passed else 1


def _stream_complete(directory: str) -> bool:
    """Whether a segmented stream's manifest says the run ended.

    False while the manifest is missing, so a follower keeps polling.

    Raises:
        ReproError: The manifest is damaged (it never heals).
    """
    from repro.obs.export import read_manifest

    manifest = read_manifest(directory)
    return manifest is not None and manifest[1]


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    import time

    from repro.obs.watch import WatchState, render_dashboard
    from repro.sim.clock import HOUR

    if sum([bool(args.from_events), bool(args.stream_dir), args.live]) != 1:
        raise ReproError("pick exactly one of --from-events, --dir, or --live")
    window_seconds = args.window_hours * HOUR

    def show(state: WatchState, source: str, complete: bool, end: str = "\n") -> None:
        state.complete = complete
        print(
            render_dashboard(
                state,
                source=source,
                show_windows=args.show_windows,
                show_feed=args.show_feed,
            ),
            end=end,
        )

    if args.live:
        provider = CloudProvider(seed=args.seed, observatory=True)
        state = WatchState(window_seconds=window_seconds)
        provider.telemetry.bus.subscribe(state.observe)
        if not args.once:
            provider.engine.every(
                args.refresh_hours * HOUR,
                lambda: show(state, f"live run (seed {args.seed})", False, end="\n\n"),
                label="obs-watch-refresh",
            )
        result = _run_fleet(args, provider)
        show(state, f"live run (seed {args.seed}, finished)", True)
        return 0 if result.all_complete else 1

    path = args.from_events or args.stream_dir
    if args.from_events or args.once:
        stream = _load_stream(path)
        complete = bool(args.from_events) or _stream_complete(path)
        show(WatchState.from_stream(stream, window_seconds=window_seconds), path, complete)
        return 0

    # Follow mode over a growing segmented stream: re-fold and re-render
    # until the manifest reports completion.  Re-loading is O(stream) but
    # the segment caps keep streams small at interactive scales.
    if not os.path.exists(path):
        raise ReproError(f"cannot read event stream {path!r}: no such directory")
    while True:
        # Read completion first so a complete render holds every event;
        # a damaged manifest ends the follow with one error line.
        complete = _stream_complete(path)
        try:
            stream = _load_stream(path)
        except ReproError as exc:
            stream = None
            print(f"error: {exc}")
        if stream is not None:
            state = WatchState.from_stream(stream, window_seconds=window_seconds)
            show(state, path, complete, end="\n\n")
        if complete:
            return 0 if stream is not None else 2
        time.sleep(max(0.05, args.interval))


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import RunReport, Telemetry, write_jsonl

    if args.from_events:
        stream = _load_stream(args.from_events)
        report = RunReport(stream.events, stream.samples)
        print(report.render(gantt_width=args.gantt_width))
        return 0

    telemetry = Telemetry()
    provider = CloudProvider(seed=args.seed, telemetry=telemetry, observatory=True)
    result = _run_fleet(args, provider)

    print(result.summary())
    print()
    print(RunReport.from_telemetry(telemetry).render(gantt_width=args.gantt_width))
    if args.events:
        try:
            lines = write_jsonl(args.events, telemetry)
        except OSError as exc:
            raise ReproError(f"cannot write event stream {args.events!r}: {exc}") from exc
        print()
        print(f"event stream written to {args.events} ({lines} lines)")
    return 0 if result.all_complete else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    """``experiment ID`` regenerates one experiment, ``report`` all of them."""
    from repro.experiments import harness

    harness.set_default_jobs(args.jobs)
    if args.command == "report":
        run_all()
        return 0
    title, runner = _EXPERIMENTS[args.experiment_id]
    print(f"[{args.experiment_id}] {title}")
    print(runner().render())
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos import (
        CampaignSpec,
        default_campaign,
        random_campaign,
        render_scorecard,
        run_campaign,
    )

    if args.random is not None and args.campaign is not None:
        raise ReproError("--campaign and --random are mutually exclusive")
    if args.random is not None:
        from repro.cloud.regions import default_region_catalog

        campaign = random_campaign(args.random, tuple(default_region_catalog().names()))
    elif args.campaign is not None:
        campaign = _read_json(args.campaign, "campaign", CampaignSpec.from_dict)
    else:
        campaign = default_campaign()
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
        _export(args.export, outcome.scorecard, "scorecard", "scorecard")
    return 0 if outcome.all_passed else 1


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    from repro.chaos import render_scorecard

    def render(scorecard: dict):
        """The scorecard and its rendering; a field it lacks fails here."""
        if "invariants" not in scorecard:
            raise ValueError("not a chaos scorecard (missing 'invariants')")
        workloads = scorecard.get("workloads", {})
        if not isinstance(workloads, dict) or not all(
            isinstance(entry, dict) for entry in workloads.values()
        ):
            raise ValueError("'workloads' is not an object of objects")
        return scorecard, render_scorecard(scorecard)

    scorecard, rendered = _read_json(args.scorecard, "scorecard", render)
    if args.workload is None:
        print(rendered)
        return 0 if scorecard.get("all_passed") else 1
    workloads = scorecard.get("workloads", {})
    if args.workload not in workloads:
        known = ", ".join(sorted(workloads)) or "none"
        raise ReproError(
            f"workload {args.workload!r} not in this scorecard (known workloads: {known})"
        )
    print(f"{args.workload} under campaign {scorecard['campaign']['name']!r}:")
    for key, value in workloads[args.workload].items():
        print(f"  {key:<18s} {value}")
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    from repro.chaos import DEFAULT_WARMUP_STEPS, tenant_fleet
    from repro.core.tenancy import MultiTenantController

    provider = CloudProvider(seed=args.seed)
    provider.warmup_markets(DEFAULT_WARMUP_STEPS)
    config, monitor, policy = build_strategy(args.policy, provider, SpotVerseConfig())
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
        _export(args.export, payload, "scorecard", "tenant scorecard")
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


#: ``(command, subcommand)`` -> handler; a bare command's subcommand is None.
_HANDLERS: Dict[Tuple[str, Optional[str]], Callable[[argparse.Namespace], int]] = {
    ("recommend", None): _cmd_recommend,
    ("run", None): _cmd_run,
    ("obs", None): _cmd_obs,
    ("obs", "explain"): _cmd_obs_explain,
    ("obs", "markets"): _cmd_obs_markets,
    ("obs", "profile"): _cmd_obs_profile,
    ("obs", "trace"): _cmd_obs_trace,
    ("obs", "slo"): _cmd_obs_slo,
    ("obs", "watch"): _cmd_obs_watch,
    ("experiment", None): _cmd_experiments,
    ("report", None): _cmd_experiments,
    ("chaos", "run"): _cmd_chaos_run,
    ("chaos", "report"): _cmd_chaos_report,
    ("tenants", None): _cmd_tenants,
    ("datasets", None): _cmd_datasets,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handler = _HANDLERS[args.command, getattr(args, "subcommand", None)]
    try:
        return handler(args)
    except ReproError as exc:
        # The CLI's input contract: a bad input file, an unknown id or an
        # unwritable export is one ``error:`` line and exit 2, never a
        # traceback.
        print(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g.
        # ``spotverse report | head``); that is not our error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
