"""The live observability plane: segments, rollups, flight recorder.

Load-bearing guarantees under test:

* a closed segmented stream is byte-identical to a post-hoc
  ``write_jsonl`` of the same bundle, so every offline tool keeps
  working on live exports;
* :meth:`TelemetryStream.load` reads single files, segment
  directories, and manifests alike, and tolerates a live writer's
  half-written final line;
* with ``trim_bus=True`` the plane bounds bus memory by the trim
  threshold instead of the run length — without losing export lines;
* the flight recorder snapshots on its trigger sources, caps its
  artifact volume, and stays read-only with respect to the run.
"""

import json
import os

import pytest

from repro.chaos import ChaosController, default_campaign
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.errors import ReproError
from repro.obs import (
    EventBus,
    EventType,
    FleetRollup,
    FlightRecorder,
    LivePlane,
    SegmentWriter,
    Telemetry,
    TelemetryStream,
    WatchState,
    WindowAggregator,
    evaluate_slo_from_events,
    write_jsonl,
)
from repro.obs.events import TelemetryEvent
from repro.obs.flight import DEFAULT_MAX_ARTIFACTS
from repro.obs.live import STREAM_FORMAT
from repro.obs.slo import SLOSpec, SLOTarget
from repro.sim.clock import HOUR
from repro.sim.engine import SimulationEngine
from repro.strategies import SingleRegionPolicy
from repro.workloads.base import synthetic_workload


@pytest.fixture()
def fleet_run(tmp_path):
    """A short seeded fleet run with the live plane + recorder armed."""
    provider = CloudProvider(seed=7)
    provider.warmup_markets(24)
    recorder = FlightRecorder(provider.telemetry, directory=str(tmp_path / "bb"))
    plane = LivePlane(
        provider.telemetry, directory=str(tmp_path / "stream"), recorder=recorder
    )
    controller = FleetController(
        provider,
        SingleRegionPolicy(instance_type="m5.xlarge"),
        SpotVerseConfig(instance_type="m5.xlarge"),
    )
    fleet = [synthetic_workload(f"wl-{i}", duration_hours=2.0) for i in range(4)]
    result = controller.run(fleet, max_hours=24.0)
    plane.close()
    yield provider, plane, recorder, result, tmp_path
    provider.shutdown()


@pytest.fixture()
def chaos_run(tmp_path):
    """A seeded chaos-campaign fleet with the live plane streaming to disk."""
    provider = CloudProvider(seed=11)
    ChaosController(provider, default_campaign().without_kills()).install()
    provider.warmup_markets(24)
    stream_dir = tmp_path / "chaos-stream"
    plane = LivePlane(provider.telemetry, directory=str(stream_dir))
    controller = FleetController(
        provider,
        SingleRegionPolicy(instance_type="m5.xlarge"),
        SpotVerseConfig(instance_type="m5.xlarge"),
    )
    fleet = [
        synthetic_workload(f"wl-{i}", duration_hours=3.0, n_segments=3) for i in range(6)
    ]
    controller.run(fleet, max_hours=72.0)
    plane.close()
    yield provider, plane, stream_dir
    provider.shutdown()


# ----------------------------------------------------------------------
# Segment writer
# ----------------------------------------------------------------------
class TestSegmentWriter:
    def test_rotates_on_size_and_seals_manifest(self, tmp_path):
        writer = SegmentWriter(str(tmp_path), max_segment_bytes=40, flush_lines=2)
        for i in range(7):
            writer.write_line(json.dumps({"kind": "event", "seq": i}))
        writer.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == STREAM_FORMAT
        assert manifest["complete"] is True
        assert manifest["active"] is None
        assert manifest["total_lines"] == 7
        assert sum(seg["lines"] for seg in manifest["segments"]) == 7
        assert len(manifest["segments"]) > 1  # the byte cap forced rotation
        for seg in manifest["segments"]:
            path = tmp_path / seg["name"]
            assert path.exists()
            assert len(path.read_text().splitlines()) == seg["lines"]
            assert path.stat().st_size == seg["bytes"]

    def test_open_manifest_names_active_tail(self, tmp_path):
        writer = SegmentWriter(str(tmp_path), flush_lines=1)
        writer.write_line('{"kind": "event", "seq": 0}')
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["active"] == "segment-000000.jsonl"
        writer.close()

    def test_close_is_idempotent(self, tmp_path):
        writer = SegmentWriter(str(tmp_path))
        writer.write_line('{"kind": "event", "seq": 0}')
        writer.close()
        writer.close()
        assert json.loads((tmp_path / "manifest.json").read_text())["total_lines"] == 1


# ----------------------------------------------------------------------
# Segmented stream round trip
# ----------------------------------------------------------------------
class TestSegmentedRoundTrip:
    def test_concatenated_segments_match_write_jsonl_bytes(self, fleet_run):
        provider, _, _, _, tmp_path = fleet_run
        single = tmp_path / "single.jsonl"
        write_jsonl(str(single), provider.telemetry)
        stream_dir = tmp_path / "stream"
        manifest = json.loads((stream_dir / "manifest.json").read_text())
        concatenated = b"".join(
            (stream_dir / seg["name"]).read_bytes() for seg in manifest["segments"]
        )
        assert concatenated == single.read_bytes()

    def test_stream_loads_from_file_directory_and_manifest(self, fleet_run):
        provider, _, _, _, tmp_path = fleet_run
        single = tmp_path / "single.jsonl"
        write_jsonl(str(single), provider.telemetry)
        by_file = TelemetryStream.load(str(single))
        by_dir = TelemetryStream.load(str(tmp_path / "stream"))
        by_manifest = TelemetryStream.load(str(tmp_path / "stream" / "manifest.json"))
        for other in (by_dir, by_manifest):
            assert [e.to_dict() for e in other.events] == [
                e.to_dict() for e in by_file.events
            ]
            assert other.samples == by_file.samples
            assert other.points == by_file.points
            assert not other.truncated

    def test_rotated_segments_still_load(self, tmp_path):
        telemetry = Telemetry()
        from repro.obs.live import LiveExporter

        exporter = LiveExporter(
            telemetry, str(tmp_path), max_segment_bytes=200, flush_lines=1
        )
        telemetry.bus.subscribe(exporter.observe)
        for i in range(24):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        exporter.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["segments"]) > 1
        stream = TelemetryStream.load(str(tmp_path))
        assert [e.workload_id for e in stream.events] == [f"w{i}" for i in range(24)]


# ----------------------------------------------------------------------
# Truncation tolerance (live writer mid-record)
# ----------------------------------------------------------------------
class TestTruncatedTail:
    def test_cut_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good = '{"kind": "event", "seq": 0, "time": 1.0, "type": "workload.submitted"}'
        path.write_text(good + "\n" + good[: len(good) // 2])
        stream = TelemetryStream.load(str(path))
        assert stream.truncated
        assert len(stream.events) == 1

    def test_damaged_line_with_newline_still_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "event", "seq": 0, "ty\n')
        with pytest.raises(ReproError, match="s.jsonl:1"):
            TelemetryStream.load(str(path))

    def test_damaged_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good = '{"kind": "event", "seq": 0, "time": 1.0, "type": "workload.submitted"}'
        path.write_text("not json\n" + good + "\n")
        with pytest.raises(ReproError, match="s.jsonl:1"):
            TelemetryStream.load(str(path))

    def test_truncated_segment_tail_in_directory(self, tmp_path):
        writer = SegmentWriter(str(tmp_path), flush_lines=1)
        good = '{"kind": "event", "seq": 0, "time": 1.0, "type": "workload.submitted"}'
        writer.write_line(good)
        # Simulate the live writer caught mid-record on the active tail.
        with open(tmp_path / "segment-000000.jsonl", "a") as handle:
            handle.write(good[:20])
        stream = TelemetryStream.load(str(tmp_path))
        assert stream.truncated
        assert len(stream.events) == 1


# ----------------------------------------------------------------------
# Rollups and windows
# ----------------------------------------------------------------------
class TestFleetRollup:
    def test_status_market_and_option_rollups(self):
        bus = EventBus()
        rollup = FleetRollup()
        bus.subscribe(rollup.observe)
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w1")
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w2")
        bus.emit(
            EventType.INSTANCE_ATTACHED,
            workload_id="w1",
            instance_id="i-1",
            region="eu-north-1",
            option="spot",
        )
        bus.emit(EventType.WORKLOAD_RUNNING, workload_id="w1")
        assert rollup.by_status() == {"pending": 1, "running": 1}
        assert rollup.by_market() == {"eu-north-1": 1}
        assert rollup.by_option() == {"spot": 1}
        bus.emit(EventType.INTERRUPTION_WARNING, workload_id="w1", instance_id="i-1")
        bus.emit(EventType.INSTANCE_RECLAIMED, workload_id="w1", instance_id="i-1")
        assert rollup.live_instances == 0
        assert rollup.interruptions == 1
        bus.emit(EventType.MIGRATION_COMPLETED, workload_id="w1")
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        assert rollup.reacquires == 1
        assert rollup.done == 1
        assert rollup.total == 2

    def test_done_releases_bound_instance(self):
        rollup = FleetRollup()
        bus = EventBus()
        bus.subscribe(rollup.observe)
        bus.emit(
            EventType.INSTANCE_ATTACHED, workload_id="w1", instance_id="i-9",
            region="us-east-1", option="on-demand",
        )
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        assert rollup.live_instances == 0


class TestWindowAggregator:
    def test_tumbling_windows_align_and_count(self):
        times = iter([0.0, 0.5 * HOUR, 1.25 * HOUR, 2.0 * HOUR])
        bus = EventBus(clock=lambda: next(times))
        agg = WindowAggregator(window_seconds=HOUR, max_windows=48)
        bus.subscribe(agg.observe)
        bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w1")
        bus.emit(EventType.INTERRUPTION_WARNING, workload_id="w1")
        bus.emit(EventType.MIGRATION_COMPLETED, workload_id="w1")
        bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        windows = agg.recent(10)
        assert [w.start for w in windows] == [0.0, HOUR, 2 * HOUR]
        assert windows[0].events == 2
        assert windows[0].submitted == 1
        assert windows[0].interruptions == 1
        assert windows[1].reacquires == 1
        assert windows[2].done == 1
        assert windows[0].events_per_hour == pytest.approx(2.0)

    def test_window_history_is_bounded(self):
        agg = WindowAggregator(window_seconds=HOUR, max_windows=3)
        bus_time = [0.0]
        bus = EventBus(clock=lambda: bus_time[0])
        bus.subscribe(agg.observe)
        for hour in range(10):
            bus_time[0] = hour * HOUR
            bus.emit(EventType.CHAOS_FAULT_INJECTED)
        assert len(agg.windows) == 3
        assert agg.recent(3)[0].start == 7 * HOUR


# ----------------------------------------------------------------------
# The live plane
# ----------------------------------------------------------------------
class TestLivePlane:
    def test_trim_bounds_bus_memory_without_losing_lines(self, tmp_path):
        telemetry = Telemetry()
        plane = LivePlane(
            telemetry,
            directory=str(tmp_path),
            trim_bus=True,
            trim_every=64,
            flush_lines=8,
        )
        total = 1000
        for i in range(total):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        assert plane.peak_bus_events <= 64
        assert plane.trims >= total // 64
        plane.close()
        stream = TelemetryStream.load(str(tmp_path))
        assert len(stream.events) == total
        assert [e.seq for e in stream.events] == list(range(total))

    def test_slo_breach_is_edge_triggered(self):
        telemetry = Telemetry()
        spec = SLOSpec(
            name="test",
            targets=(
                SLOTarget(
                    metric="submit_to_placed_seconds",
                    threshold=10.0,
                    objective=0.9,
                    description="placement",
                ),
            ),
        )
        recorder = FlightRecorder(telemetry)
        plane = LivePlane(telemetry, slo_spec=spec, recorder=recorder)
        times = [0.0]
        telemetry.bus.attach_clock(lambda: times[0])
        for i in range(4):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
            times[0] += 100.0  # every placement blows the 10s threshold
            telemetry.bus.emit(
                EventType.INSTANCE_ATTACHED, workload_id=f"w{i}", instance_id=f"i-{i}"
            )
        # Compliance 0.0 < 0.9 from the first sample on, but only the
        # passing->failing edge snapshots.
        assert len(plane.breaches) == 1
        assert plane.breaches[0].metric == "submit_to_placed_seconds"
        assert [t["reason"] for t in recorder.triggers] == ["slo-breach"]
        results = plane.slo_results()
        assert results[0].samples == 4
        assert results[0].violations == 4
        plane.close()

    def test_plane_emits_nothing_back_onto_the_bus(self, fleet_run, chaos_run):
        provider, plane, recorder, _, tmp_path = fleet_run
        # A read-only plane: every event on the bus was emitted by the
        # run itself, and folding the saved stream reproduces the
        # rollup exactly.
        replayed = FleetRollup()
        for event in provider.telemetry.bus.events():
            replayed.observe(event)
        assert replayed.by_status() == plane.rollup.by_status()
        assert replayed.done == plane.rollup.done == 4
        # The live plane, the dashboard over its exported stream and the
        # post-run scorecard share one fold, so they agree exactly.
        for source, live, stream_dir in ((provider, plane, tmp_path / "stream"), chaos_run):
            events = source.telemetry.bus.events()
            watch = WatchState.from_stream(TelemetryStream.load(str(stream_dir)))
            offline = evaluate_slo_from_events(live.slo_spec, events).results
            assert live.slo_results() == watch.slo_results() == offline
            assert live.rollup.by_status() == watch.rollup.by_status()
            assert live.rollup.by_market() == watch.rollup.by_market()
        # The chaos run breaches an objective, so the budgets are exercised.
        assert any(result.violations for result in offline)

    def test_close_is_idempotent(self, tmp_path):
        telemetry = Telemetry()
        plane = LivePlane(telemetry, directory=str(tmp_path))
        plane.close()
        plane.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is True


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def _telemetry(self):
        telemetry = Telemetry()
        times = [0.0]
        telemetry.bus.attach_clock(lambda: times[0])
        return telemetry, times

    def test_ring_is_bounded(self):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(telemetry, capacity=8)
        telemetry.bus.subscribe(recorder.observe)
        for i in range(40):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        assert len(recorder.ring) == 8
        payload = recorder.trigger("manual", detail="test")
        assert [e["workload_id"] for e in payload["events"]] == [
            f"w{i}" for i in range(32, 40)
        ]

    def test_artifact_written_and_capped(self, tmp_path):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(
            telemetry, directory=str(tmp_path), max_artifacts=2
        )
        for i in range(5):
            recorder.trigger("invariant-breach", detail=f"breach {i}")
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "BLACKBOX_000_invariant-breach.json",
            "BLACKBOX_001_invariant-breach.json",
        ]
        assert len(recorder.triggers) == 5  # counted past the cap
        payload = json.loads((tmp_path / names[0]).read_text())
        assert payload["format"] == "spotverse-blackbox/1"
        assert payload["reason"] == "invariant-breach"

    def test_snapshot_final_is_outside_the_cap(self, tmp_path):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(telemetry, directory=str(tmp_path), max_artifacts=0)
        recorder.trigger("dead-letter")
        path = recorder.snapshot_final()
        assert os.path.basename(path) == "BLACKBOX_final.json"
        assert sorted(os.listdir(tmp_path)) == ["BLACKBOX_final.json"]
        assert json.loads(open(path).read())["reason"] == "run-end"

    def test_default_artifact_cap(self, tmp_path):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(telemetry, directory=str(tmp_path))
        for _ in range(DEFAULT_MAX_ARTIFACTS + 3):
            recorder.trigger("dead-letter")
        assert len(os.listdir(tmp_path)) == DEFAULT_MAX_ARTIFACTS

    def test_context_providers_and_error_isolation(self):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(telemetry)
        recorder.add_context("fleet", lambda: {"running": 3})
        recorder.add_context("broken", lambda: 1 / 0)
        payload = recorder.trigger("manual")
        assert payload["context"]["fleet"] == {"running": 3}
        assert payload["context"]["broken"].startswith("<context error:")

    def test_dead_letter_watch_triggers(self):
        telemetry, _ = self._telemetry()
        recorder = FlightRecorder(telemetry)
        telemetry.bus.subscribe(recorder.observe)
        telemetry.bus.emit(
            EventType.RESILIENCE_DEAD_LETTER,
            scope="fleet-state:save-execution",
            detail="throttled past budget",
        )
        assert len(recorder.triggers) == 1
        assert recorder.triggers[0]["reason"] == "dead-letter"
        assert "fleet-state:save-execution" in recorder.triggers[0]["detail"]

    def test_guard_engine_snapshots_on_exception(self):
        telemetry, _ = self._telemetry()
        engine = SimulationEngine(seed=1)
        telemetry.bus.attach_clock(lambda: engine.now)
        recorder = FlightRecorder(telemetry)
        recorder.guard_engine(engine)

        def boom():
            raise RuntimeError("kaput")

        engine.call_at(1.0, boom, label="explode")
        with pytest.raises(RuntimeError, match="kaput"):
            engine.run_until(2.0)
        assert [t["reason"] for t in recorder.triggers] == ["engine-exception"]
        assert recorder.triggers[0]["detail"] == "RuntimeError: kaput"
        assert recorder.triggers[0]["attrs"]["label"] == "explode"

    def test_fleet_run_leaves_final_blackbox(self, fleet_run):
        _, _, recorder, _, tmp_path = fleet_run
        final = tmp_path / "bb" / "BLACKBOX_final.json"
        assert final.exists()
        payload = json.loads(final.read_text())
        assert payload["reason"] == "run-end"
        assert payload["events"]  # ring carried the tail of the run
        assert payload["metrics"]


class TestFlightRecorderBudget:
    """Past-cap triggers build nothing; artifacts render each event once."""

    def _telemetry(self):
        telemetry = Telemetry()
        telemetry.bus.attach_clock(lambda: 12.5)
        return telemetry

    def _assert_written_as_json_dump(self, recorder):
        written = [entry for entry in recorder.triggers if "events" in entry]
        assert len(written) == len(recorder.artifacts)
        for path, payload in zip(recorder.artifacts, written):
            reference = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            with open(path) as handle:
                assert handle.read() == reference

    def test_past_cap_trigger_builds_no_payload(self, tmp_path):
        telemetry = self._telemetry()
        collects = []
        collect = telemetry.metrics.collect
        telemetry.metrics.collect = lambda: collects.append(1) or collect()
        calls = []
        recorder = FlightRecorder(telemetry, directory=str(tmp_path), max_artifacts=1)
        recorder.add_context("counted", lambda: calls.append(1) or len(calls))
        telemetry.bus.subscribe(recorder.observe)
        telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w0")
        first = recorder.trigger("invariant-breach", detail="first")
        assert first["context"] == {"counted": 1}
        assert (len(calls), len(collects)) == (1, 1)
        summary = recorder.trigger("invariant-breach", detail="second", invariant="x")
        assert (len(calls), len(collects)) == (1, 1)
        assert summary == {
            "reason": "invariant-breach",
            "detail": "second",
            "time": 12.5,
            "attrs": {"invariant": "x"},
        }
        assert recorder.triggers[-1] is summary
        assert len(recorder.artifacts) == 1

    def test_empty_ring_matches_json_dump(self, tmp_path):
        telemetry = self._telemetry()
        recorder = FlightRecorder(telemetry, directory=str(tmp_path))
        recorder.trigger("manual", detail="nothing yet")
        recorder.snapshot_final()
        assert all(entry["events"] == [] for entry in recorder.triggers)
        self._assert_written_as_json_dump(recorder)

    def test_full_and_overlapping_rings_match_json_dump(self, tmp_path):
        telemetry = self._telemetry()
        telemetry.metrics.counter("probe_total", "probe").inc(3, region="r1")
        recorder = FlightRecorder(telemetry, capacity=4, directory=str(tmp_path))
        recorder.add_context("nested", lambda: {"b": [1, {"events": []}], "a": {}})
        telemetry.bus.subscribe(recorder.observe)
        for i in range(6):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        recorder.trigger("manual", detail="full ring")
        for i in range(2):
            telemetry.bus.emit(
                EventType.WORKLOAD_SUBMITTED,
                workload_id=f"x{i}",
                events=[{"events": {"inner": []}}, []],
                empty=[],
                nested={"z": {}, "events": ["a", 1.5, None]},
            )
        recorder.trigger("manual", detail="overlapping ring", events=[])
        recorder.snapshot_final()
        seqs = [[event["seq"] for event in entry["events"]] for entry in recorder.triggers]
        assert len(seqs[0]) == 4 and seqs[1][:2] == seqs[0][2:]
        assert set(recorder._rendered) == set(seqs[-1])
        self._assert_written_as_json_dump(recorder)

    def test_each_ring_event_converts_once(self, tmp_path, monkeypatch):
        telemetry = self._telemetry()
        converted = []
        to_dict = TelemetryEvent.to_dict
        monkeypatch.setattr(
            TelemetryEvent, "to_dict", lambda event: converted.append(event.seq) or to_dict(event)
        )
        recorder = FlightRecorder(telemetry, capacity=4, directory=str(tmp_path))
        telemetry.bus.subscribe(recorder.observe)
        for i in range(6):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        recorder.trigger("manual", detail="full ring")
        assert converted == [2, 3, 4, 5]
        for i in range(2):
            telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"x{i}")
        recorder.trigger("manual", detail="overlapping ring")
        recorder.snapshot_final()
        # Two new events since the first snapshot, none since the second.
        assert converted == [2, 3, 4, 5, 6, 7]
        first, second, final = (entry["events"] for entry in recorder.triggers)
        assert [event["seq"] for event in second] == [4, 5, 6, 7]
        assert second[0] is first[2] and final[0] is second[0]
        assert set(recorder._dicts) == {4, 5, 6, 7}
        self._assert_written_as_json_dump(recorder)
