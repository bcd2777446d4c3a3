"""Tests for the telemetry subsystem: bus, metrics, spans, exports.

Covers the unit surface of ``repro.obs``, the engine tracer/profiler
that replaced ``trace_log``, and the acceptance-level integration:
a seeded fleet through :class:`FleetController` whose event stream
contains matched request → fulfill → interrupt → migrate → done
sequences and whose metric totals reconcile with the
:class:`FleetResult` costs.
"""

import json

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.errors import ReproError
from repro.obs import (
    EventBus,
    EventType,
    MetricsRegistry,
    RunReport,
    Telemetry,
    TelemetryEvent,
    TelemetryStream,
    build_spans,
    validate_stream,
    write_jsonl,
)
from repro.obs.profiler import HotPathProfile
from repro.sim.engine import SimulationEngine
from repro.sim.trace import EngineTracer
from repro.strategies import STRATEGIES, OnDemandPolicy, SingleRegionPolicy
from repro.workloads import genome_reconstruction_workload
from repro.workloads.base import synthetic_workload


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_emit_stamps_clock_and_monotonic_seq(self):
        times = iter([1.0, 2.5, 2.5])
        bus = EventBus(clock=lambda: next(times))
        a = bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w1")
        b = bus.emit(EventType.SPOT_REQUESTED, workload_id="w1", request_id="sir-0")
        c = bus.emit(EventType.SPOT_FULFILLED, workload_id="w1", request_id="sir-0")
        assert [event.seq for event in (a, b, c)] == [0, 1, 2]
        assert [event.time for event in (a, b, c)] == [1.0, 2.5, 2.5]

    def test_filtering_by_type_and_workload(self):
        bus = EventBus()
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w1")
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w2")
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        assert len(bus.events(EventType.WORKLOAD_SUBMITTED)) == 2
        assert len(bus.events(workload_id="w1")) == 2
        assert len(bus.events(EventType.WORKLOAD_DONE, workload_id="w2")) == 0

    def test_subscribers_receive_filtered_events(self):
        bus = EventBus()
        seen, all_seen = [], []
        unsubscribe = bus.subscribe(seen.append, types=[EventType.WORKLOAD_DONE])
        bus.subscribe(all_seen.append)
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w")
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w")
        assert [event.type for event in seen] == [EventType.WORKLOAD_DONE]
        assert len(all_seen) == 2
        unsubscribe()
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w")
        assert len(seen) == 1

    def test_event_round_trips_through_dict(self):
        bus = EventBus(clock=lambda: 42.0)
        event = bus.emit(
            EventType.SPOT_FULFILLED,
            workload_id="w",
            region="eu-west-1",
            request_id="sir-1",
            latency=61.5,
        )
        clone = TelemetryEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("interruptions_total")
        counter.inc(region="eu-west-1")
        counter.inc(2.0, region="eu-west-1")
        counter.inc(region="us-east-1")
        assert counter.value(region="eu-west-1") == 3.0
        assert counter.total() == 4.0
        assert registry.counter("interruptions_total") is counter

    def test_counter_rejects_decrease(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("open_requests")
        gauge.set(3.0, region="r")
        gauge.add(-1.0, region="r")
        assert gauge.value(region="r") == 2.0
        assert gauge.value(region="other") == 0.0

    def test_histogram_statistics(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == 10.0
        assert histogram.mean() == 2.5
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0
        assert histogram.percentile(50) in (2.0, 3.0)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_collect_and_render(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(region="r1")
        registry.histogram("b").observe(2.0)
        samples = registry.collect()
        assert [sample.name for sample in samples] == ["a", "b"]
        text = registry.render()
        assert 'a{region="r1"} 1' in text
        assert "b_count 1" in text


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def _stream(*specs):
    """Build TelemetryEvents from (time, type, workload_id, extras) tuples."""
    events = []
    for seq, (time, type, wid, extras) in enumerate(specs):
        events.append(
            TelemetryEvent(seq=seq, time=time, type=type, workload_id=wid, **extras)
        )
    return events


class TestSpans:
    def test_lifecycle_folds_into_phases(self):
        events = _stream(
            (0.0, EventType.WORKLOAD_SUBMITTED, "w", {}),
            (60.0, EventType.INSTANCE_ATTACHED, "w", {"region": "r1", "option": "spot"}),
            (240.0, EventType.WORKLOAD_RUNNING, "w", {"region": "r1"}),
            (1000.0, EventType.INTERRUPTION_WARNING, "w", {"region": "r1"}),
            (1600.0, EventType.INSTANCE_ATTACHED, "w", {"region": "r2", "option": "spot"}),
            (1780.0, EventType.WORKLOAD_RUNNING, "w", {"region": "r2"}),
            (3000.0, EventType.WORKLOAD_DONE, "w", {}),
        )
        tree = build_spans(events)["w"]
        assert [span.name for span in tree.phases] == [
            "request", "boot", "run", "migrating", "boot", "run",
        ]
        assert tree.root.end == 3000.0
        assert tree.n_interruptions == 1
        assert tree.phase_time("request") == 60.0
        assert tree.phase_time("migrating") == 600.0
        assert tree.phase_time("run") == (1000.0 - 240.0) + (3000.0 - 1780.0)
        interrupted_run = tree.phases[2]
        assert interrupted_run.status == "interrupted"
        assert interrupted_run.region == "r1"

    def test_unfinished_workload_stays_open(self):
        events = _stream(
            (0.0, EventType.WORKLOAD_SUBMITTED, "w", {}),
            (60.0, EventType.INSTANCE_ATTACHED, "w", {"region": "r1"}),
        )
        tree = build_spans(events)["w"]
        assert tree.root.end is None
        assert tree.phases[-1].status == "open"


# ----------------------------------------------------------------------
# Engine tracer / profiler (reset satellite)
# ----------------------------------------------------------------------
class TestEngineTracer:
    def test_traced_engine_records_labels_and_wall_time(self):
        engine = SimulationEngine(seed=0, tracer=EngineTracer())
        engine.call_in(1.0, lambda: None, label="a:one")
        engine.call_in(2.0, lambda: None, label="b:two")
        engine.run_until(5.0)
        assert engine.fired_events == 2
        assert engine.tracer.as_tuples() == [(1.0, "a:one"), (2.0, "b:two")]
        assert [r.label for r in engine.tracer.filter(prefix="a:")] == ["a:one"]
        profile = HotPathProfile.from_tracer(engine.tracer)
        entries = {entry.group: entry for entry in profile.entries()}
        assert entries["a:one"].count == 1
        assert entries["a:one"].wall_total >= 0.0
        assert profile.events_per_second() > 0.0
        assert "events/sec" in profile.report()

    def test_untraced_engine_has_no_tracer(self):
        engine = SimulationEngine(seed=0)
        engine.call_in(1.0, lambda: None)
        engine.run_until(2.0)
        assert engine.tracer is None
        assert not hasattr(engine, "trace_log")  # legacy tuple view is gone

    def test_reset_zeroes_fired_events_and_trace(self):
        engine = SimulationEngine(seed=0, tracer=EngineTracer())
        engine.call_in(1.0, lambda: None, label="x")
        engine.run_until(2.0)
        assert engine.fired_events == 1
        engine.reset()
        assert engine.fired_events == 0
        assert engine.now == 0.0
        assert engine.tracer.as_tuples() == []


# ----------------------------------------------------------------------
# Export: JSONL round trip, validation, report rendering
# ----------------------------------------------------------------------
class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        telemetry = Telemetry(clock=lambda: 7.0)
        telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w")
        telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="w", attempts=1)
        telemetry.metrics.counter("cost_accrued_usd").inc(
            1.25, region="r1", purchasing_option="spot"
        )
        telemetry.metrics.histogram("migration_latency_seconds").observe(90.0)
        path = str(tmp_path / "run.jsonl")
        assert write_jsonl(path, telemetry) == 4
        stream = TelemetryStream.load(path)
        events, samples = stream.events, stream.samples
        assert [event.type for event in events] == [
            EventType.WORKLOAD_SUBMITTED, EventType.WORKLOAD_DONE,
        ]
        assert events[1].attrs == {"attempts": 1}
        assert samples[0].name == "cost_accrued_usd"
        assert samples[0].value == 1.25
        assert dict(samples[0].labels) == {"region": "r1", "purchasing_option": "spot"}
        # Metric kinds survive the round trip (the line tag must not
        # collide with the sample's own "kind" field).
        assert [sample.kind for sample in samples] == ["counter", "histogram"]
        assert samples[1].count == 1

    def test_read_jsonl_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError, match="bad.jsonl:1"):
            TelemetryStream.load(str(path))

    def test_validate_stream_flags_violations(self):
        good = _stream(
            (0.0, EventType.WORKLOAD_SUBMITTED, "w", {}),
            (1.0, EventType.SPOT_REQUESTED, "w", {"request_id": "sir-0"}),
            (2.0, EventType.SPOT_FULFILLED, "w", {"request_id": "sir-0"}),
            (9.0, EventType.WORKLOAD_DONE, "w", {}),
        )
        assert validate_stream(good) == []

        orphan_fulfill = _stream(
            (0.0, EventType.SPOT_FULFILLED, "w", {"request_id": "sir-9"}),
        )
        assert any("unknown request" in p for p in validate_stream(orphan_fulfill))

        migration_without_warning = _stream(
            (0.0, EventType.MIGRATION_STARTED, "w", {}),
        )
        assert any("without a prior interruption" in p
                   for p in validate_stream(migration_without_warning))

        after_done = _stream(
            (0.0, EventType.WORKLOAD_DONE, "w", {}),
            (1.0, EventType.WORKLOAD_RUNNING, "w", {}),
        )
        assert any("after workload.done" in p for p in validate_stream(after_done))

        backwards = [
            TelemetryEvent(seq=0, time=5.0, type=EventType.WORKLOAD_SUBMITTED),
            TelemetryEvent(seq=1, time=4.0, type=EventType.WORKLOAD_SUBMITTED),
        ]
        assert any("time went backwards" in p for p in validate_stream(backwards))

    def test_report_renders_sections(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w")
        telemetry.bus.emit(
            EventType.INTERRUPTION_WARNING, workload_id="w", region="eu-west-1"
        )
        telemetry.metrics.counter("cost_accrued_usd").inc(
            2.0, region="eu-west-1", purchasing_option="spot"
        )
        text = RunReport.from_telemetry(telemetry).render()
        assert "instance cost by region / purchasing option" in text
        assert "eu-west-1" in text
        assert "interruptions by region" in text
        assert "workload span timeline" in text


# ----------------------------------------------------------------------
# Integration: seeded fleet through FleetController (acceptance)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def interrupted_fleet():
    """A quickstart-scale single-region fleet that suffers interruptions."""
    provider = CloudProvider(seed=7)
    provider.warmup_markets(48)
    controller = FleetController(
        provider,
        SingleRegionPolicy(instance_type="m5.xlarge"),
        SpotVerseConfig(instance_type="m5.xlarge"),
    )
    fleet = [genome_reconstruction_workload(f"wl-{i:03d}") for i in range(8)]
    result = controller.run(fleet, max_hours=160.0)
    return provider, controller, result


class TestFleetTelemetryIntegration:
    def test_stream_is_ordered_and_causal_under_interruptions(self, interrupted_fleet):
        provider, _, result = interrupted_fleet
        events = list(provider.telemetry.bus)
        assert result.total_interruptions > 0  # the scenario exercises migration
        assert validate_stream(events) == []
        sequences = [event.seq for event in events]
        assert sequences == sorted(sequences)

    def test_matched_request_fulfill_interrupt_migrate_done_sequences(
        self, interrupted_fleet
    ):
        provider, _, result = interrupted_fleet
        bus = provider.telemetry.bus
        # Every fulfillment matches an earlier request id.
        requested = {e.request_id for e in bus.events(EventType.SPOT_REQUESTED)}
        for event in bus.events(EventType.SPOT_FULFILLED):
            assert event.request_id in requested
        # Per workload: interruptions pair with migrations, done is last.
        full_chains = 0
        for record in result.records:
            wid = record.workload_id
            workload_events = bus.events(workload_id=wid)
            types = [event.type for event in workload_events]
            assert types[0] is EventType.WORKLOAD_SUBMITTED
            assert types[-1] is EventType.WORKLOAD_DONE
            warnings = types.count(EventType.INTERRUPTION_WARNING)
            assert types.count(EventType.MIGRATION_STARTED) == warnings
            assert types.count(EventType.MIGRATION_COMPLETED) == warnings
            assert warnings == record.n_interruptions
            if warnings > 0:
                full_chains += 1
                first_warning = types.index(EventType.INTERRUPTION_WARNING)
                assert EventType.SPOT_FULFILLED in types[:first_warning]
                assert types.index(EventType.MIGRATION_STARTED) > first_warning
        assert full_chains > 0

    def test_metric_totals_reconcile_with_fleet_result(self, interrupted_fleet):
        provider, _, result = interrupted_fleet
        metrics = provider.telemetry.metrics
        cost = metrics.counter("cost_accrued_usd")
        assert cost.total() == pytest.approx(result.instance_cost, rel=1e-9)
        assert metrics.counter("interruptions_total").total() == result.total_interruptions
        assert metrics.counter("workloads_completed_total").total() == result.n_complete
        started = metrics.counter("migrations_started_total").total()
        assert started == result.total_interruptions
        assert metrics.histogram("migration_latency_seconds").count(
            to_region=result.records[0].regions[0]
        ) >= 0  # labelled series exists without raising

    def test_report_round_trips_through_jsonl(self, interrupted_fleet, tmp_path):
        provider, _, result = interrupted_fleet
        path = str(tmp_path / "fleet.jsonl")
        write_jsonl(path, provider.telemetry)
        stream = TelemetryStream.load(path)
        report = RunReport(stream.events, stream.samples)
        assert sum(value for _, _, value in report.cost_rows()) == pytest.approx(
            result.instance_cost, rel=1e-9
        )
        assert sum(count for _, count in report.interruption_rows()) == (
            result.total_interruptions
        )
        text = report.render()
        assert f"{result.n_complete}/{len(result.records)} complete" in text
        for record in result.records:
            assert record.workload_id in text

    def test_span_trees_match_records(self, interrupted_fleet):
        provider, _, result = interrupted_fleet
        trees = build_spans(list(provider.telemetry.bus))
        assert set(trees) == {record.workload_id for record in result.records}
        for record in result.records:
            tree = trees[record.workload_id]
            assert tree.n_interruptions == record.n_interruptions
            assert tree.root.end == pytest.approx(record.completed_at)


class TestControllerInstanceMap:
    def test_on_demand_instances_join_by_instance_map(self):
        provider = CloudProvider(seed=3)
        provider.warmup_markets(24)
        controller = FleetController(
            provider,
            OnDemandPolicy(instance_type="m5.xlarge"),
            SpotVerseConfig(instance_type="m5.xlarge"),
        )
        fleet = [synthetic_workload(f"od-{i}", duration_hours=1.0) for i in range(3)]
        result = controller.run(fleet, max_hours=10.0)
        assert result.all_complete
        # Every on-demand launch registered in the uniform instance map.
        launches = provider.telemetry.bus.events(EventType.ON_DEMAND_LAUNCHED)
        assert len(launches) == 3
        for event in launches:
            assert controller.state_store.instance_bindings()[event.instance_id] == (
                event.workload_id
            )
        fallbacks = provider.telemetry.bus.events(EventType.FALLBACK_ON_DEMAND)
        assert len(fallbacks) == 3
        assert {event.attrs["phase"] for event in fallbacks} == {"initial"}


class TestHarnessTelemetryHook:
    def test_arm_spec_telemetry_flows_to_provider(self):
        from repro.experiments.harness import ArmSpec, run_arm

        telemetry = Telemetry()
        spec = ArmSpec(
            name="probe",
            strategy=STRATEGIES["on-demand"],
            config=SpotVerseConfig(instance_type="m5.xlarge"),
            workload_factory=lambda i: synthetic_workload(f"h-{i}", duration_hours=1.0),
            n_workloads=2,
            max_hours=6.0,
            telemetry=telemetry,
        )
        result = run_arm(spec)
        assert result.telemetry is telemetry
        assert len(telemetry.bus.events(EventType.WORKLOAD_DONE)) == 2


class TestObsCli:
    def test_obs_runs_exports_and_replays(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.jsonl")
        code = main([
            "obs", "--workload", "synthetic", "--workloads", "2",
            "--duration-hours", "1.0", "--max-hours", "12.0",
            "--events", path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload span timeline" in out

        code = main(["obs", "--from-events", path])
        replay = capsys.readouterr().out
        assert code == 0
        assert "workload span timeline" in replay
        stream = TelemetryStream.load(path)
        assert validate_stream(stream.events) == []
        assert any(sample.name == "cost_accrued_usd" for sample in stream.samples)
