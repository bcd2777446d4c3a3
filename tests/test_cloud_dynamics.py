"""Tests for the interruption dynamics: diurnal swing, reclaim bursts,
burst-degraded fulfillment, and the sweep's recovery path."""

import numpy as np
import pytest

from repro.cloud.lattice import MarketLattice
from repro.cloud.market import (
    DIURNAL_AMPLITUDE,
    GEOGRAPHY_PEAK_HOURS,
    diurnal_factor,
)
from repro.cloud.profiles import MarketProfile
from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import SpotRequestState
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.sim.clock import DAY, HOUR, MINUTE
from repro.strategies import SingleRegionPolicy
from repro.workloads import synthetic_workload


def burst_market(**kwargs):
    defaults = dict(
        region="us-east-1",
        instance_type="m5.xlarge",
        interruption_freq_pct=5.0,
        burst_period_hours=6.0,
        burst_width_hours=0.5,
        burst_hazard_per_hour=1.2,
    )
    defaults.update(kwargs)
    lattice = MarketLattice([(MarketProfile(**defaults), 0.2, np.random.default_rng(3), 0.0)])
    return lattice.markets[0]


class TestDiurnal:
    def test_peak_and_trough(self):
        peak = 3.0
        at_peak = diurnal_factor(3 * HOUR, peak)
        at_trough = diurnal_factor(15 * HOUR, peak)
        assert at_peak == pytest.approx(1 + DIURNAL_AMPLITUDE)
        assert at_trough == pytest.approx(1 - DIURNAL_AMPLITUDE)

    def test_never_negative_even_with_large_amplitude(self):
        for t in range(0, int(DAY), 3600):
            assert diurnal_factor(float(t), 3.0, amplitude=1.5) >= 0.0

    def test_geographies_have_distinct_peaks(self):
        peaks = set(GEOGRAPHY_PEAK_HOURS.values())
        assert len(peaks) == 3

    def test_provider_assigns_peaks_by_geography(self):
        provider = CloudProvider(seed=0)
        assert provider.market("us-east-1", "m5.large").hazard_peak_hour == 3.0
        assert provider.market("eu-west-1", "m5.large").hazard_peak_hour == 11.0
        assert provider.market("ap-southeast-1", "m5.large").hazard_peak_hour == 19.0


class TestReclaimBursts:
    def test_burst_raises_hazard(self):
        market = burst_market()
        in_burst = []
        out_burst = []
        for minutes in range(0, 24 * 60, 5):
            t = minutes * 60.0
            if market.in_reclaim_burst(t):
                in_burst.append(market.hazard_at(t))
            else:
                out_burst.append(market.hazard_at(t))
        assert in_burst, "a 6-hour burst period must hit within a day"
        assert min(in_burst) > max(out_burst)
        assert min(in_burst) >= 1.2  # at least the burst hazard

    def test_burst_periodicity(self):
        market = burst_market(burst_period_hours=6.0, burst_width_hours=0.5)
        burst_minutes = [
            minutes
            for minutes in range(0, 24 * 60)
            if market.in_reclaim_burst(minutes * 60.0)
        ]
        # Four bursts of ~30 minutes each in 24 hours.
        assert 4 * 25 <= len(burst_minutes) <= 4 * 35

    def test_no_bursts_when_period_zero(self):
        market = burst_market(burst_period_hours=0.0)
        assert not any(
            market.in_reclaim_burst(m * 60.0) for m in range(0, 24 * 60, 5)
        )

    def test_market_phases_differ_across_markets(self):
        provider = CloudProvider(seed=0)
        phases = {
            provider.market(region, "m5.xlarge")._burst_phase
            for region in ("us-east-1", "us-east-2", "us-west-2")
        }
        assert len(phases) == 3

    def test_episode_decay_multiplies_hazard(self):
        market = burst_market(
            burst_period_hours=0.0, episode_boost=4.0, episode_tau_hours=5.0
        )
        early = market.hazard_at(0.0)
        late = market.hazard_at(30 * HOUR)
        assert early > 3 * late


class TestBurstFulfillment:
    def test_requests_rarely_fulfill_during_burst(self):
        provider = CloudProvider(seed=1)
        market = provider.market("ca-central-1", "m5.xlarge")
        # Find a time inside a burst and park the engine there.
        t = 0.0
        while not market.in_reclaim_burst(t):
            t += MINUTE
        provider.engine.run_until(t)
        outcomes = []
        for i in range(40):
            request = provider.ec2.request_spot_instances(
                "ca-central-1", "m5.xlarge", tag=f"w{i}"
            )
            outcomes.append(request)
        provider.engine.run_until(t + 10 * MINUTE)
        open_count = sum(
            1 for request in outcomes if request.state is SpotRequestState.OPEN
        )
        # With p_fulfill scaled by 0.15, most requests stay open.
        assert open_count > 25

    def test_sweep_recovers_requests_stuck_in_burst(self):
        provider = CloudProvider(seed=2)
        provider.warmup_markets(24)
        config = SpotVerseConfig(instance_type="m5.xlarge")
        controller = FleetController(
            provider, SingleRegionPolicy(region="ca-central-1"), config
        )
        result = controller.run(
            [synthetic_workload(f"w{i}", duration_hours=6.0) for i in range(10)],
            max_hours=72,
        )
        # Despite bursts degrading fulfillment, the 15-minute sweep
        # keeps retrying until every workload completes.
        assert result.all_complete


class TestProviderLifecycle:
    def test_shutdown_stops_periodic_machinery(self):
        provider = CloudProvider(seed=3)
        provider.ec2.run_on_demand("us-east-1", "m5.large", tag="w")
        provider.engine.run_until(HOUR)
        provider.shutdown()
        pending_before = provider.engine.pending_events
        provider.engine.run_until(2 * HOUR)
        # No periodic tasks rearming themselves.
        assert provider.engine.pending_events <= pending_before

    def test_shutdown_settles_billing(self):
        provider = CloudProvider(seed=3)
        instance = provider.ec2.run_on_demand("us-east-1", "m5.large", tag="w")
        provider.engine.run_until(HOUR)
        provider.shutdown()
        assert instance.accrued_cost == pytest.approx(0.096, rel=0.01)
