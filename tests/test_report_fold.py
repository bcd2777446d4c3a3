"""One subscriber, one fold: reports and scorecards read the live fold.

The run report's stream tables and the chaos scorecard's ``faults``
block used to rescan the event list once per table.  They now read
the :class:`~repro.obs.live.FleetRollup` totals, folded once (live by
the :class:`~repro.obs.live.LivePlane`, or offline by
:attr:`~repro.obs.export.RunReport.fleet_view`).  The rescans survive here as the
reference: every table must match them on a chaos stream, an
observatory run with anomalies, the multi-tenant storm stream, and a
hand-built stream probing the anomaly linkage's same-time edge.
"""

import json
from collections import defaultdict

import pytest

from repro.chaos import (
    CampaignSpec,
    ChaosController,
    Injection,
    build_scorecard,
    check_invariants,
    default_campaign,
    run_campaign,
    tenant_storm_campaign,
)
from repro.chaos.runner import _execute
from repro.cli import main
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.experiments.harness import ArmSpec, indexed_workload_factory, run_arm
from repro.obs import (
    EventBus,
    EventType,
    FlightRecorder,
    LivePlane,
    RunReport,
    Telemetry,
    TelemetryStream,
)
from repro.obs.export import ANOMALY_CORRELATION_WINDOW
from repro.sim.clock import HOUR
from repro.strategies import STRATEGIES
from repro.workloads.base import synthetic_workload
from tests import golden_observatory


# ----------------------------------------------------------------------
# Reference rescans (one loop over the events per table)
# ----------------------------------------------------------------------
def ref_count(events, etype):
    return sum(1 for event in events if event.type is etype)


def ref_interruption_rows(events):
    counts = defaultdict(int)
    for event in events:
        if event.type is EventType.INTERRUPTION_WARNING:
            counts[event.region or "?"] += 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def ref_anomaly_counts(events):
    counts = defaultdict(int)
    for event in events:
        if event.type is EventType.MARKET_ANOMALY:
            counts[str(event.attrs.get("kind", "?"))] += 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def ref_anomaly_linkage(events, window=ANOMALY_CORRELATION_WINDOW):
    anomalies = defaultdict(list)
    for event in events:
        if event.type is EventType.MARKET_ANOMALY:
            anomalies[event.region].append(event.time)
    correlated = total = 0
    for event in events:
        if event.type is not EventType.INTERRUPTION_WARNING:
            continue
        total += 1
        if any(
            0.0 <= event.time - anomaly_time <= window
            for anomaly_time in anomalies.get(event.region, ())
        ):
            correlated += 1
    return correlated, total


def ref_chaos_stats(events):
    fault_kinds = defaultdict(int)
    windows = retries = dead_letters = fallbacks = reconciled = 0
    for event in events:
        if event.type is EventType.CHAOS_WINDOW_OPENED:
            windows += 1
        elif event.type is EventType.CHAOS_FAULT_INJECTED:
            fault_kinds[str(event.attrs.get("kind", "?"))] += 1
        elif event.type is EventType.RESILIENCE_RETRY:
            retries += 1
        elif event.type is EventType.RESILIENCE_DEAD_LETTER:
            dead_letters += 1
        elif event.type is EventType.CHECKPOINT_FALLBACK:
            fallbacks += 1
        elif event.type is EventType.MIGRATION_STARTED and event.attrs.get("reconciled"):
            reconciled += 1
    if not (windows or fault_kinds or retries or dead_letters or fallbacks):
        return None
    return {
        "windows": windows,
        "faults_by_kind": dict(sorted(fault_kinds.items())),
        "retries": retries,
        "dead_letters": dead_letters,
        "checkpoint_fallbacks": fallbacks,
        "reconciled_interruptions": reconciled,
    }


def ref_scorecard_faults(events):
    faults_by_kind = {}
    retries = dead_letters = fallbacks = reconciled = 0
    for event in events:
        if event.type is EventType.CHAOS_FAULT_INJECTED:
            kind = str(event.attrs.get("kind", "unknown"))
            faults_by_kind[kind] = faults_by_kind.get(kind, 0) + 1
        elif event.type is EventType.RESILIENCE_RETRY:
            retries += 1
        elif event.type is EventType.RESILIENCE_DEAD_LETTER:
            dead_letters += 1
        elif event.type is EventType.CHECKPOINT_FALLBACK:
            fallbacks += 1
        elif event.type is EventType.MIGRATION_STARTED and event.attrs.get("reconciled"):
            reconciled += 1
    return {
        "by_kind": dict(sorted(faults_by_kind.items())),
        "total": sum(faults_by_kind.values()),
        "retries": retries,
        "dead_letters": dead_letters,
        "checkpoint_fallbacks": fallbacks,
        "reconciled_interruptions": reconciled,
    }


def ref_migration_stats(events):
    started = ref_count(events, EventType.MIGRATION_STARTED)
    latencies = [
        float(event.attrs.get("latency", 0.0))
        for event in events
        if event.type is EventType.MIGRATION_COMPLETED
    ]
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return started, len(latencies), mean


def assert_report_matches_rescan(events, samples=()):
    report = RunReport(events, list(samples))
    rollup = report.fleet_view.rollup
    for etype in EventType:
        assert rollup.count(etype) == ref_count(events, etype), etype
    assert report.interruption_rows() == ref_interruption_rows(events)
    assert report.anomaly_counts() == ref_anomaly_counts(events)
    assert report.anomaly_interruption_correlation() == ref_anomaly_linkage(events)
    assert report.chaos_stats() == ref_chaos_stats(events)
    started, completed, mean = report.migration_stats()
    ref_started, ref_completed, ref_mean = ref_migration_stats(events)
    assert (started, completed) == (ref_started, ref_completed)
    # A running fold vs builtin sum(): equal up to sum()'s compensation
    # on Python >= 3.12.
    assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
    tenants = report.tenant_stats()
    if tenants is not None:
        assert tenants["tenants"] == ref_count(events, EventType.TENANT_REGISTERED)
        assert tenants["throttled"] == ref_count(events, EventType.TENANT_THROTTLED)
    return report


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_stream(tmp_path_factory):
    """The seed-11 default-campaign run, streamed and blackboxed.

    Also records the peak number of bus subscribers during the run.
    """
    base = tmp_path_factory.mktemp("chaos11")
    peak = [0]
    original = EventBus.subscribe

    def counting_subscribe(self, *args, **kwargs):
        unsubscribe = original(self, *args, **kwargs)
        peak[0] = max(peak[0], len(self._subscribers))
        return unsubscribe

    EventBus.subscribe = counting_subscribe
    try:
        outcome = run_campaign(
            "spotverse",
            seed=11,
            stream_dir=str(base / "stream"),
            blackbox_dir=str(base / "bb"),
        )
    finally:
        EventBus.subscribe = original
    stream = TelemetryStream.load(str(base / "stream"))
    return outcome, stream, peak[0]


@pytest.fixture(scope="module")
def storm_stream(tmp_path_factory):
    base = tmp_path_factory.mktemp("storm")
    outcome = run_campaign(
        "spotverse",
        campaign=tenant_storm_campaign(),
        seed=11,
        tenants=3,
        stream_dir=str(base / "stream"),
    )
    return outcome, TelemetryStream.load(str(base / "stream"))


@pytest.fixture(scope="module")
def observatory_events():
    provider = golden_observatory.fleet_run()
    events = provider.telemetry.bus.events()
    samples = provider.telemetry.metrics.collect()
    provider.shutdown()
    return events, samples


class TestReportMatchesRescan:
    def test_chaos_stream(self, chaos_stream):
        outcome, stream, _ = chaos_stream
        report = assert_report_matches_rescan(stream.events, stream.samples)
        assert report.chaos_stats() is not None
        assert outcome.scorecard["faults"] == ref_scorecard_faults(stream.events)

    def test_storm_stream(self, storm_stream):
        outcome, stream = storm_stream
        report = assert_report_matches_rescan(stream.events, stream.samples)
        assert report.tenant_stats() is not None
        assert outcome.scorecard["faults"] == ref_scorecard_faults(stream.events)

    def test_observatory_run(self, observatory_events):
        events, samples = observatory_events
        report = assert_report_matches_rescan(events, samples)
        correlated, total = report.anomaly_interruption_correlation()
        assert report.anomaly_counts()
        assert 0 < correlated < total

    def test_anomaly_after_same_time_warning_still_links(self):
        # The warning comes first in seq, the anomaly at the same sim
        # time right after it: the batch linkage counts it, so the
        # forward fold must too.  Other-region and out-of-window
        # anomalies must not link.
        times = [0.0]
        bus = EventBus(clock=lambda: times[0])
        times[0] = 10 * HOUR
        bus.emit(EventType.MARKET_ANOMALY, region="us-west-2", kind="price_spike")
        bus.emit(EventType.INTERRUPTION_WARNING, region="us-east-1", workload_id="w1")
        bus.emit(EventType.INTERRUPTION_WARNING, region="us-east-1", workload_id="w2")
        bus.emit(EventType.MARKET_ANOMALY, region="us-east-1", kind="reclaim_burst")
        times[0] = 11 * HOUR
        bus.emit(EventType.INTERRUPTION_WARNING, region="us-east-1", workload_id="w3")
        times[0] = 14 * HOUR
        bus.emit(EventType.INTERRUPTION_WARNING, region="us-east-1", workload_id="w4")
        bus.emit(EventType.INTERRUPTION_WARNING, region="us-west-2", workload_id="w5")
        times[0] = 15 * HOUR
        bus.emit(EventType.MARKET_ANOMALY, region="us-west-2", kind="price_spike")
        bus.emit(EventType.MIGRATION_STARTED, workload_id="w1", reconciled=True)
        bus.emit(EventType.MIGRATION_COMPLETED, workload_id="w1", latency=90.0)
        bus.emit(EventType.MIGRATION_COMPLETED, workload_id="w2")
        events = bus.events()
        report = assert_report_matches_rescan(events)
        assert report.anomaly_interruption_correlation() == (3, 5)
        # A completion without latency counts as 0 s in the report.
        assert report.migration_stats() == (1, 2, 45.0)


# ----------------------------------------------------------------------
# One subscriber, bounded passes
# ----------------------------------------------------------------------
class CountingList(list):
    """A list that counts how often it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestOnePass:
    def test_chaos_run_has_one_bus_subscriber(self, chaos_stream):
        _, _, peak = chaos_stream
        assert peak <= 1

    def test_render_reads_the_stream_at_most_three_times(self, chaos_stream):
        _, stream, _ = chaos_stream
        events = CountingList(stream.events)
        report = RunReport(events, stream.samples)
        text = report.render()
        assert "chaos / resilience:" in text
        assert events.passes <= 3

    def test_scorecard_reads_the_plane_not_the_bus(self, monkeypatch):
        fleet = [synthetic_workload(f"std-{i}", duration_hours=3.0, n_segments=3) for i in range(3)]
        provider, store, result, fleet, plane = _execute(
            "spotverse", default_campaign(), 11, 72.0, 24, fleet, apply_kills=True
        )
        bus = provider.telemetry.bus
        events = bus.events()
        verdicts = check_invariants(provider, store, result, fleet)

        def no_rescan(*args, **kwargs):
            raise AssertionError("build_scorecard rescanned the bus")

        monkeypatch.setattr(bus, "events", no_rescan)
        monkeypatch.setattr(type(bus), "__iter__", no_rescan)
        scorecard = build_scorecard(
            provider, store, result, plane, default_campaign(), "spotverse", 11
        )
        assert scorecard["invariants"] == [verdict.to_dict() for verdict in verdicts]
        assert scorecard["faults"] == ref_scorecard_faults(events)
        assert scorecard["faults"]["total"] > 0
        provider.shutdown()


# ----------------------------------------------------------------------
# Satellite fixes
# ----------------------------------------------------------------------
class TestDeactivateStopsLaterWindows:
    def test_no_window_opens_after_deactivate(self):
        provider = CloudProvider(seed=3)
        campaign = CampaignSpec(
            name="late",
            injections=(
                Injection(kind="lambda-error", at=5 * HOUR, duration=2 * HOUR, rate=1.0),
                Injection(
                    kind="dynamodb-throttle",
                    at=HOUR,
                    duration=2 * HOUR,
                    rate=1.0,
                    trigger="workload.submitted",
                ),
            ),
        )
        chaos = ChaosController(provider, campaign)
        chaos.install()
        engine = provider.engine
        engine.run_until(HOUR)
        chaos.deactivate()
        bus = provider.telemetry.bus
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w1")
        engine.run_until(6 * HOUR)
        assert not chaos.lambda_fault("fn")
        assert chaos.dynamodb_fault("put_item", conditional=False) is None
        engine.run_until(10 * HOUR)
        assert bus.events(EventType.CHAOS_WINDOW_OPENED) == []
        assert chaos._active == []
        provider.shutdown()


def wait_then_crash(self, *args, **kwargs):
    """A ``FleetController.wait`` that dies three sim-hours in."""
    engine = self._provider.engine
    engine.run_until(engine.now + 3 * HOUR)
    raise RuntimeError("control plane lost")


class TestRunThatRaises:
    def test_stream_sealed_and_final_blackbox_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(FleetController, "wait", wait_then_crash)
        stream_dir = tmp_path / "stream"
        blackbox_dir = tmp_path / "bb"
        fleet = [synthetic_workload(f"std-{i}", duration_hours=3.0, n_segments=3) for i in range(2)]
        with pytest.raises(RuntimeError, match="control plane lost"):
            run_campaign(
                "spotverse",
                workloads=fleet,
                stream_dir=str(stream_dir),
                blackbox_dir=str(blackbox_dir),
            )
        manifest = json.loads((stream_dir / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["total_lines"] > 0
        final = json.loads((blackbox_dir / "BLACKBOX_final.json").read_text())
        assert final["reason"] == "run-end"
        assert final["events"]
        # Follow mode returns once the manifest says the run ended.
        assert main(["obs", "watch", "--dir", str(stream_dir)]) == 0

    def test_experiment_arm_seals_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(FleetController, "wait", wait_then_crash)
        spec = ArmSpec(
            name="arm",
            strategy=STRATEGIES["single-region"],
            config=SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1"),
            workload_factory=indexed_workload_factory(
                synthetic_workload, "w-{:02d}", duration_hours=2.0
            ),
            n_workloads=2,
            live_dir=str(tmp_path / "live"),
            flight_dir=str(tmp_path / "bb"),
        )
        with pytest.raises(RuntimeError, match="control plane lost"):
            run_arm(spec)
        manifest = json.loads((tmp_path / "live" / "arm" / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["total_lines"] > 0
        assert (tmp_path / "bb" / "arm" / "BLACKBOX_final.json").exists()


class TestRecorderMemory:
    def test_only_written_snapshots_stay_whole(self, tmp_path):
        telemetry = Telemetry()
        recorder = FlightRecorder(
            telemetry, capacity=4, directory=str(tmp_path), max_artifacts=2
        )
        LivePlane(telemetry, recorder=recorder)
        for i in range(6):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        payloads = [recorder.trigger("invariant-breach", detail=f"breach {i}") for i in range(5)]
        recorder.snapshot_final()
        assert len(recorder.triggers) == 6
        assert len(recorder.artifacts) == 3
        summary_keys = {"reason", "detail", "time", "attrs"}
        for index, entry in enumerate(recorder.triggers):
            if index < 2 or entry["reason"] == "run-end":
                assert len(entry["events"]) == 4
            else:
                assert set(entry) == summary_keys
                assert entry["detail"] == f"breach {index}"
        # Past the cap trigger() hands back the summary it kept.
        assert all(len(payload["events"]) == 4 for payload in payloads[:2])
        assert all(set(payload) == summary_keys for payload in payloads[2:])
