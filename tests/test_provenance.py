"""Market observatory + Algorithm-1 decision provenance (acceptance).

Unit coverage for the ring-buffer time-series store, the anomaly
detector, and the decision audit trail — then the seeded end-to-end
acceptance: every migration has a decision record excluding the
interrupted region, fallbacks carry their reason, ``obs explain``
renders a causal chain from the exported JSONL alone, and ring-buffer
series stay within capacity over multi-day runs while covering the
full time range.
"""

import pytest

from repro.cli import main
from repro.cloud.provider import CloudProvider
from repro.core import SpotVerseConfig
from repro.errors import ReproError
from repro.obs import (
    EventType,
    RingSeries,
    Telemetry,
    TelemetryStream,
    TimeSeriesStore,
    decisions_from_events,
    render_explanation,
    validate_stream,
    write_jsonl,
)
from repro.obs.observatory import PRICE_Z_THRESHOLD, MarketObservatory
from repro.obs.provenance import (
    FALLBACK_BELOW_THRESHOLD,
    DecisionLog,
    DecisionRecord,
    RegionEvaluation,
)
from repro.sim.clock import DAY, HOUR
from repro.workloads import genome_reconstruction_workload, synthetic_workload
from tests.fleets import spotverse_controller


# ----------------------------------------------------------------------
# Ring-buffer time series
# ----------------------------------------------------------------------
class TestRingSeries:
    def test_capacity_must_be_even_and_at_least_four(self):
        for bad in (0, 2, 3, 7):
            with pytest.raises(ReproError):
                RingSeries(capacity=bad)

    def test_under_capacity_keeps_raw_samples(self):
        series = RingSeries(capacity=8)
        for i in range(5):
            series.append(float(i), float(i * 10))
        assert len(series) == 5
        assert series.values() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert series.stride == 1

    def test_downsampling_bounds_length_and_covers_range(self):
        series = RingSeries(capacity=16)
        n = 10_000
        for i in range(n):
            series.append(float(i), float(i))
        assert len(series) <= 16
        assert series.n_samples == n
        first, last = series.span()
        # Coarse buckets, but the retained window still reaches from
        # (near) the first sample to the last.
        assert first < n * 0.2
        assert last > n * 0.9

    def test_merge_preserves_extremes_and_counts(self):
        series = RingSeries(capacity=4)
        for i, value in enumerate([1.0, 100.0, -5.0, 7.0, 3.0, 2.0, 9.0, 4.0]):
            series.append(float(i), value)
        buckets = series.buckets()
        assert sum(bucket.count for bucket in buckets) == 8
        assert min(bucket.lo for bucket in buckets) == -5.0
        assert max(bucket.hi for bucket in buckets) == 100.0

    def test_window_filters_by_time(self):
        series = RingSeries(capacity=32)
        for i in range(10):
            series.append(float(i), float(i))
        window = series.window(3.0, 6.0)
        assert [bucket.time for bucket in window] == [3.0, 4.0, 5.0, 6.0]


class TestTimeSeriesStore:
    def test_record_and_label_views(self):
        store = TimeSeriesStore()
        store.record("price", 1.0, 0.5, region="us-east-1", instance_type="m5")
        store.record("price", 1.0, 0.7, region="eu-west-1", instance_type="m5")
        store.record("score", 1.0, 4.0, region="us-east-1", instance_type="m5")
        assert store.names() == ["price", "score"]
        assert store.label_values("price", "region") == ["eu-west-1", "us-east-1"]
        assert len(store.series_for("price")) == 2
        assert len(store.series_for("price", region="eu-west-1")) == 1

    def test_points_round_trip(self):
        store = TimeSeriesStore(capacity=8)
        for i in range(20):
            store.record("price", float(i), float(i), region="r1")
        rebuilt = TimeSeriesStore.from_points(list(store.points()), capacity=64)
        (key, series), = rebuilt.series_for("price")
        assert dict(key)["region"] == "r1"
        original = store.get("price", region="r1")
        assert series.values() == original.values()
        assert series.times() == original.times()


# ----------------------------------------------------------------------
# Anomaly detection on synthetic markets
# ----------------------------------------------------------------------
class _FakeMarket:
    """Duck-typed market row with scriptable price and hazard."""

    def __init__(self, region="r1", price=0.10, hazard=0.05):
        self.region = region
        self.instance_type = "m5.xlarge"
        self.available = True
        self.spot_price = price
        self.placement_score = 5.0
        self.interruption_frequency = 5.0
        self._hazard = hazard

    def hazard_at(self, now):
        return self._hazard

    def utilization(self):
        return 0.0

    def fulfillment_factor(self):
        return 1.0


def observe(observatory, now, market):
    """One step of a one-market lattice: its lists hold *market*'s state."""
    observatory.observe(
        now, [market.spot_price], [market.placement_score], [market.interruption_frequency]
    )


class TestMarketObservatory:
    def test_price_spike_is_edge_triggered(self):
        market = _FakeMarket(price=0.10)
        observatory = MarketObservatory([market], min_baseline=8)
        rng_prices = [0.10 + 0.001 * ((i * 7) % 5 - 2) for i in range(20)]
        for i, price in enumerate(rng_prices):
            market.spot_price = price
            observe(observatory, float(i) * HOUR, market)
        assert observatory.anomalies == []
        # A 5x spike held for three steps raises exactly one anomaly.
        market.spot_price = 0.50
        for i in range(3):
            observe(observatory, (20 + i) * HOUR, market)
        spikes = observatory.anomalies_for("r1", kind="price_spike")
        assert len(spikes) == 1
        assert spikes[0].field == "spot_price"
        assert spikes[0].zscore > PRICE_Z_THRESHOLD

    def test_reclaim_burst_against_rolling_baseline(self):
        market = _FakeMarket(hazard=0.05)
        observatory = MarketObservatory([market], min_baseline=8, hazard_factor=3.0)
        for i in range(12):
            observe(observatory, float(i) * HOUR, market)
        market._hazard = 0.50  # 10x the baseline
        observe(observatory, 12.0 * HOUR, market)
        observe(observatory, 13.0 * HOUR, market)
        bursts = observatory.anomalies_for("r1", kind="reclaim_burst")
        assert len(bursts) == 1  # edge-triggered, not one per step
        assert bursts[0].field == "hazard_per_hour"

    def test_anomalies_publish_on_bus(self):
        telemetry = Telemetry()
        market = _FakeMarket(price=0.10)
        observatory = MarketObservatory(
            [market], store=telemetry.timeseries, bus=telemetry.bus, min_baseline=4
        )
        for i in range(8):
            observe(observatory, float(i), market)
        market.spot_price = 1.0
        observe(observatory, 9.0, market)
        events = telemetry.bus.events(EventType.MARKET_ANOMALY)
        assert len(events) == 1
        assert events[0].region == "r1"
        assert events[0].attrs["kind"] == "price_spike"

    def test_unavailable_markets_are_skipped(self):
        market = _FakeMarket()
        market.available = False
        observatory = MarketObservatory([market])
        observe(observatory, 0.0, market)
        assert observatory.store.names() == []


# ----------------------------------------------------------------------
# Decision records
# ----------------------------------------------------------------------
def evaluation(region, score, threshold=6.0, spot=0.05):
    return RegionEvaluation(
        region=region,
        spot_price=spot,
        od_price=0.192,
        placement_score=score - 2,
        stability_score=2,
        score=score,
        threshold=threshold,
        passed=score >= threshold,
        margin=score - threshold,
        collected_at=10.0,
    )


class TestDecisionRecords:
    def test_round_trip(self):
        record = DecisionRecord(
            decision_id=3,
            time=120.0,
            kind="migration",
            workload_ids=("wl-001",),
            threshold=6.0,
            max_regions=4,
            evaluations=[evaluation("a", 7.0), evaluation("b", 5.0)],
            excluded_region="c",
            candidates=("a",),
            chosen_region="a",
            draw_index=0,
        )
        clone = DecisionRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.n_passed == 1
        assert not clone.is_fallback
        assert clone.evaluation_for("b").margin == pytest.approx(-1.0)

    def test_log_mirrors_records_onto_bus(self):
        telemetry = Telemetry()
        log = telemetry.decisions
        log.record(
            kind="initial",
            workload_ids=["w1", "w2"],
            threshold=6.0,
            max_regions=4,
            evaluations=[evaluation("a", 7.0)],
            candidates=["a"],
            chosen_region="",
        )
        events = telemetry.bus.events(EventType.DECISION_EVALUATED)
        assert len(events) == 1
        assert events[0].workload_id == ""  # fleet-level decision
        rebuilt = decisions_from_events(events)
        assert rebuilt == log.records()
        assert "round-robin" in rebuilt[0].summary()

    def test_fallback_record_and_query(self):
        log = DecisionLog()
        log.record(
            kind="initial",
            workload_ids=["w"],
            threshold=9.0,
            max_regions=4,
            evaluations=[evaluation("a", 7.0, threshold=9.0)],
            candidates=[],
            chosen_region="us-west-1",
            chosen_option="on-demand",
            fallback_reason=FALLBACK_BELOW_THRESHOLD,
        )
        (fallback,) = log.fallbacks()
        assert fallback.is_fallback
        assert FALLBACK_BELOW_THRESHOLD in fallback.summary()

    def test_explanation_requires_known_workload(self):
        with pytest.raises(ReproError, match="never appears"):
            render_explanation([], "ghost")


# ----------------------------------------------------------------------
# End-to-end acceptance: seeded SpotVerse fleet with interruptions
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def provenance_run(tmp_path_factory):
    """Seed 13: a SpotVerse fleet that suffers several interruptions."""
    telemetry = Telemetry()
    provider = CloudProvider(seed=13, telemetry=telemetry, observatory=True)
    controller = spotverse_controller(provider, SpotVerseConfig(instance_type="m5.xlarge"))
    fleet = [
        genome_reconstruction_workload(f"wl-{i:03d}", duration_hours=20.0)
        for i in range(10)
    ]
    result = controller.run(fleet, max_hours=160.0)
    path = tmp_path_factory.mktemp("provenance") / "run.jsonl"
    write_jsonl(str(path), telemetry)
    return provider, telemetry, result, path


class TestProvenanceAcceptance:
    def test_stream_stays_valid_with_new_event_types(self, provenance_run):
        provider, telemetry, result, _ = provenance_run
        assert result.all_complete
        assert result.total_interruptions > 0
        assert validate_stream(list(telemetry.bus)) == []

    def test_every_migration_has_a_decision_excluding_interrupted_region(
        self, provenance_run
    ):
        """Acceptance (a)."""
        provider, telemetry, result, _ = provenance_run
        bus = telemetry.bus
        migration_starts = bus.events(EventType.MIGRATION_STARTED)
        assert migration_starts  # the seed produces migrations
        migration_decisions = telemetry.decisions.records("migration")
        assert len(migration_decisions) == len(migration_starts)
        by_workload = {}
        for decision in migration_decisions:
            by_workload.setdefault(decision.workload_ids[0], []).append(decision)
        for event in migration_starts:
            decisions = by_workload[event.workload_id]
            # One decision per migration, excluding the region the
            # interruption came from.
            matching = [d for d in decisions if d.excluded_region == event.region]
            assert matching, f"no decision excludes {event.region} for {event.workload_id}"
            for decision in matching:
                assert decision.excluded_region not in decision.candidates
                assert decision.chosen_region != decision.excluded_region
                # The excluded region was still *observed*.
                assert decision.evaluation_for(decision.excluded_region) is not None
                if decision.candidates:
                    assert decision.draw_index is not None
                    assert (
                        decision.candidates[decision.draw_index]
                        == decision.chosen_region
                    )

    def test_fallbacks_record_reason_with_all_regions_failing(self, tmp_path):
        """Acceptance (b): an unreachable threshold forces on-demand."""
        telemetry = Telemetry()
        provider = CloudProvider(seed=5, telemetry=telemetry, observatory=True)
        config = SpotVerseConfig(instance_type="m5.xlarge", score_threshold=14.0)
        controller = spotverse_controller(provider, config)
        fleet = [synthetic_workload(f"fb-{i}", duration_hours=2.0) for i in range(4)]
        result = controller.run(fleet, max_hours=24.0)
        assert result.all_complete
        fallback_events = telemetry.bus.events(EventType.FALLBACK_ON_DEMAND)
        assert len(fallback_events) == 4
        for event in fallback_events:
            assert event.attrs["reason"] == FALLBACK_BELOW_THRESHOLD
        fallbacks = telemetry.decisions.fallbacks()
        assert fallbacks
        for decision in fallbacks:
            assert decision.fallback_reason == FALLBACK_BELOW_THRESHOLD
            assert decision.candidates == ()
            assert decision.evaluations  # every region was scored...
            assert all(not e.passed for e in decision.evaluations)  # ...and failed
            assert decision.chosen_option == "on-demand"

    def test_explain_renders_causal_chain_from_jsonl(self, provenance_run, capsys):
        """Acceptance (c): the chain comes from the saved stream alone."""
        provider, telemetry, result, path = provenance_run
        interrupted = next(
            record.workload_id
            for record in result.records
            if record.n_interruptions > 0
        )
        stream = TelemetryStream.load(str(path))
        text = render_explanation(stream.events, interrupted)
        assert f"causal chain for {interrupted}" in text
        assert "spot.interruption_warning" in text
        assert "(migration)" in text
        assert "excluded" in text
        # The chain is ordered: the migration decision comes after the
        # interruption warning it reacts to.
        lines = text.splitlines()
        warning_at = next(
            i for i, line in enumerate(lines) if "interruption_warning" in line
        )
        decision_at = next(
            i for i, line in enumerate(lines) if "(migration)" in line
        )
        assert decision_at > warning_at
        # And the CLI renders the same thing from the file.
        assert main(["obs", "explain", interrupted, "--from-events", str(path)]) == 0
        assert f"causal chain for {interrupted}" in capsys.readouterr().out

    def test_ring_buffers_stay_bounded_over_multi_day_sim(self):
        """Acceptance (d): capacity respected, full range covered."""
        capacity = 32
        telemetry = Telemetry(timeseries=TimeSeriesStore(capacity=capacity))
        provider = CloudProvider(seed=3, telemetry=telemetry, observatory=True)
        days = 6
        provider.engine.run_until(days * DAY)
        store = telemetry.timeseries
        assert store.names()  # the observatory sampled
        for key in store.keys():
            series = store._series[key]  # noqa: SLF001 - white-box capacity check
            assert len(series) <= capacity
            assert series.n_samples == days * 24  # hourly market steps
            first, last = series.span()
            # Downsampling kept (coarse) coverage of the whole range.
            assert first <= DAY
            assert last >= (days - 1) * DAY
        provider.shutdown()

    def test_run_report_includes_decisions_section(self, provenance_run):
        provider, telemetry, result, _ = provenance_run
        text = telemetry.report().render()
        assert "algorithm-1 decisions:" in text
        assert "threshold verdicts" in text
        assert "market anomalies" in text

    def test_observatory_never_perturbs_the_run(self):
        """Layering: observing markets must not change outcomes."""

        def run(observatory):
            telemetry = Telemetry()
            provider = CloudProvider(
                seed=11, telemetry=telemetry, observatory=observatory
            )
            controller = spotverse_controller(provider, SpotVerseConfig(instance_type="m5.xlarge"))
            fleet = [
                synthetic_workload(f"w{i}", duration_hours=4.0) for i in range(5)
            ]
            result = controller.run(fleet, max_hours=48.0)
            return (
                result.instance_cost,
                result.total_interruptions,
                [record.regions for record in result.records],
            )

        assert run(observatory=False) == run(observatory=True)
