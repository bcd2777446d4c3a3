"""Online invariant checking vs. the post-run scorecard fold.

The refactor's contract: every invariant check exposes an incremental
``observe``/``finalize`` pair, and a monitor that followed the run
live must produce verdicts bit-identical to :func:`check_invariants`
folding the saved stream afterwards — across every built-in policy,
under the default chaos campaign, kills included.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import (
    POLICY_NAMES,
    OnlineInvariantMonitor,
    check_invariants,
    default_campaign,
)
from repro.chaos.runner import _execute
from repro.obs import (
    EventType,
    FlightRecorder,
    LivePlane,
    Telemetry,
    TelemetryStream,
    WatchState,
    segment_files,
    write_jsonl,
)
from repro.workloads.base import synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload


def small_fleet():
    fleet = [synthetic_workload(f"std-{i}", duration_hours=3.0, n_segments=3) for i in range(2)]
    fleet += [
        ngs_preprocessing_workload(f"ckpt-{i}", duration_hours=3.0, n_segments=3)
        for i in range(2)
    ]
    return fleet


# ----------------------------------------------------------------------
# Bit-identity: live monitor == post-run fold
# ----------------------------------------------------------------------
class TestOnlineMatchesPostRun:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_live_verdicts_equal_post_run_fold(self, policy):
        provider, store, result, fleet, plane = _execute(
            policy,
            default_campaign(),
            11,
            72.0,
            24,
            small_fleet(),
            apply_kills=True,
        )
        live = plane.monitor.finalize(provider, store, result)
        post = check_invariants(provider, store, result, fleet)
        assert live == post
        assert all(r.passed for r in live), [r for r in live if not r.passed]
        provider.shutdown()


# ----------------------------------------------------------------------
# Online violation semantics
# ----------------------------------------------------------------------
class TestOnlineViolations:
    def test_double_completion_flagged_at_the_offending_event(self):
        telemetry = Telemetry()
        times = [0.0]
        telemetry.bus.attach_clock(lambda: times[0])
        monitor = OnlineInvariantMonitor()
        telemetry.bus.subscribe(monitor.observe)
        telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        assert monitor.violations == []
        times[0] = 3600.0
        second = telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        # Both the completion count and the stream causality rule fire,
        # in canonical check order, stamped with the offending event.
        assert [v.name for v in monitor.violations] == [
            "single-completion",
            "stream-valid",
        ]
        violation = monitor.violations[0]
        assert violation.time == 3600.0
        assert violation.seq == second.seq
        assert "2 workload.done events" in violation.detail

    def test_checkpoint_regression_flagged_online(self):
        telemetry = Telemetry()
        monitor = OnlineInvariantMonitor()
        telemetry.bus.subscribe(monitor.observe)
        telemetry.bus.emit(EventType.CHECKPOINT_SAVED, workload_id="w1", segments=3)
        telemetry.bus.emit(EventType.CHECKPOINT_SAVED, workload_id="w1", segments=1)
        assert [v.name for v in monitor.violations] == ["checkpoint-monotonic"]
        assert "3 -> 1" in monitor.violations[0].detail

    def test_violation_callback_feeds_the_flight_recorder(self, tmp_path):
        telemetry = Telemetry()
        recorder = FlightRecorder(telemetry, directory=str(tmp_path))
        LivePlane(telemetry, recorder=recorder, monitor=OnlineInvariantMonitor())
        telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        telemetry.bus.emit(EventType.WORKLOAD_DONE, workload_id="w1")
        # single-completion and stream-valid both snapshot.
        assert [t["reason"] for t in recorder.triggers] == [
            "invariant-breach",
            "invariant-breach",
        ]
        artifact = tmp_path / "BLACKBOX_000_invariant-breach.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["attrs"]["invariant"] == "single-completion"
        # The ring carried the offending events into the snapshot.
        assert [e["type"] for e in payload["events"]].count("workload.done") == 2

    def test_nested_emits_reach_every_consumer_in_seq_order(self, tmp_path):
        # A subscriber that emits while handling an event: the nested
        # event must reach later subscribers only after the event that
        # caused it, so live consumers fold the stream's own order.
        telemetry = Telemetry()
        bus = telemetry.bus

        def start_on_submit(event):
            if event.type is EventType.WORKLOAD_SUBMITTED:
                bus.emit(EventType.WORKLOAD_RUNNING, workload_id=event.workload_id)

        bus.subscribe(start_on_submit)
        stream_dir = tmp_path / "stream"
        recorder = FlightRecorder(telemetry)
        monitor = OnlineInvariantMonitor()
        plane = LivePlane(
            telemetry,
            directory=str(stream_dir),
            flush_lines=1,
            recorder=recorder,
            monitor=monitor,
        )
        watch = WatchState()
        bus.subscribe(watch.observe)
        for i in range(3):
            bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id=f"w{i}")
        plane.close()

        in_order = list(range(6))
        assert [e.seq for e in TelemetryStream.load(str(stream_dir)).events] == in_order
        assert [e.seq for e in recorder.ring] == in_order
        # Folded in causal order, every workload ends up running; the
        # inverted order would leave each one "pending".
        assert plane.rollup.by_status() == {"running": 3}
        assert watch.rollup.by_status() == {"running": 3}
        assert watch.validator.problems == []
        assert monitor.violations == []
        # The segments still concatenate to the post-hoc export.
        segments = "".join(Path(path).read_text() for path in segment_files(str(stream_dir)))
        write_jsonl(str(tmp_path / "full.jsonl"), telemetry)
        assert segments == (tmp_path / "full.jsonl").read_text()


# ----------------------------------------------------------------------
# The blackbox + stream wiring of a chaos run
# ----------------------------------------------------------------------
class TestChaosRunArtifacts:
    def test_run_with_dirs_is_bit_identical_and_leaves_artifacts(self, tmp_path):
        import re

        def normalise(events):
            # Store namespaces are a process-global counter, not run state.
            return re.sub(
                r"ctl\d+", "ctlN", json.dumps(events, sort_keys=True)
            )

        provider, _, result, _, _ = _execute(
            "spotverse", default_campaign(), 11, 72.0, 24, small_fleet(),
            apply_kills=True,
        )
        plain = normalise([e.to_dict() for e in provider.telemetry.bus.events()])
        plain_cost = result.total_cost
        provider.shutdown()

        provider, _, result, _, _ = _execute(
            "spotverse", default_campaign(), 11, 72.0, 24, small_fleet(),
            apply_kills=True,
            stream_dir=str(tmp_path / "stream"),
            blackbox_dir=str(tmp_path / "bb"),
        )
        instrumented = normalise(
            [e.to_dict() for e in provider.telemetry.bus.events()]
        )
        assert instrumented == plain  # observation must not perturb the run
        assert result.total_cost == plain_cost
        assert (tmp_path / "stream" / "manifest.json").exists()
        assert (tmp_path / "bb" / "BLACKBOX_final.json").exists()
        provider.shutdown()
