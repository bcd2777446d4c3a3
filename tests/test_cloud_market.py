"""Unit tests for spot markets, the spot price process, and billing."""

import numpy as np
import pytest

from repro.cloud.billing import CostCategory, CostLedger
from repro.cloud.interruptions import (
    expected_interruptions,
    interruption_probability,
    sample_interruption,
    survival_probability,
)
from repro.cloud.lattice import PLACEMENT_MAX, PLACEMENT_MIN, MarketLattice
from repro.cloud.profiles import MarketProfile
from repro.sim.clock import HOUR


def make_profile(**kwargs):
    defaults = dict(region="us-east-1", instance_type="m5.xlarge")
    defaults.update(kwargs)
    return MarketProfile(**defaults)


def one_market(profile, seed, hazard_peak_hour=0.0):
    """A market built by its own one-row lattice, which steps it."""
    lattice = MarketLattice([(profile, 1.0, np.random.default_rng(seed), hazard_peak_hour)])
    return lattice.markets[0], lattice


class TestSpotPriceProcess:
    def test_price_stays_between_floor_and_od(self):
        market, lattice = one_market(make_profile(spot_fraction=0.4, spot_volatility=0.5), 0)
        for step in range(500):
            lattice.step(float(step))
            assert 0.35 * 0.4 <= market.spot_price <= 1.0

    def test_long_run_average_near_mean(self):
        market, lattice = one_market(make_profile(spot_fraction=0.4), 1)
        lattice.warmup(3000)
        assert market.mean_price == pytest.approx(0.4)
        assert abs(np.mean(market.price_trace().column(1)) - 0.4) < 0.02

    def test_history_records_steps(self):
        market, lattice = one_market(make_profile(), 2)
        lattice.step(10.0)
        lattice.step(20.0)
        assert [t for t, _ in market.price_trace()] == [10.0, 20.0]


class TestInterruptionModel:
    def test_probability_zero_hazard(self):
        assert interruption_probability(0.0, 300) == 0.0

    def test_probability_increases_with_hazard_and_window(self):
        low = interruption_probability(0.05, 300)
        high = interruption_probability(0.5, 300)
        longer = interruption_probability(0.05, 3600)
        assert 0 < low < high < 1
        assert longer > low

    def test_sample_matches_probability_statistically(self):
        rng = np.random.default_rng(3)
        hazard, dt = 0.5, 3600.0
        hits = sum(sample_interruption(rng, hazard, dt) for _ in range(20000))
        assert abs(hits / 20000 - interruption_probability(hazard, dt)) < 0.01

    def test_expected_and_survival_helpers(self):
        assert expected_interruptions(0.1, 10) == pytest.approx(1.0)
        assert survival_probability(0.1, 10) == pytest.approx(np.exp(-1.0))


class TestSpotMarket:
    def make_market(self, **profile_kwargs):
        return one_market(make_profile(**profile_kwargs), 7)

    def test_observables_exposed(self):
        market, _ = self.make_market(interruption_freq_pct=8.0, placement_mean=3.4)
        assert market.region == "us-east-1"
        assert market.stability_score == 2
        assert PLACEMENT_MIN <= market.placement_score <= PLACEMENT_MAX
        assert market.spot_price > 0

    def test_step_appends_metric_history(self):
        market, lattice = self.make_market()
        lattice.step(HOUR)
        lattice.step(2 * HOUR)
        assert len(market.metric_history) == 2
        assert market.metric_history[0][0] == HOUR

    def test_placement_walk_stays_in_band(self):
        market, lattice = self.make_market(placement_mean=4.3, placement_volatility=0.08)
        lattice.warmup(2000)
        scores = [score for _, score, _ in market.metric_history]
        assert all(PLACEMENT_MIN <= score <= PLACEMENT_MAX for score in scores)
        assert abs(np.mean(scores) - 4.3) < 0.2

    def test_frequency_walk_reverts_to_profile_mean(self):
        market, lattice = self.make_market(interruption_freq_pct=17.0, freq_volatility=0.5)
        lattice.warmup(2000)
        freqs = [freq for _, _, freq in market.metric_history]
        assert abs(np.mean(freqs) - 17.0) < 1.0

    def test_az_prices_skew_around_region_price(self):
        market, _ = self.make_market()
        prices = [market.az_spot_price(i) for i in range(3)]
        assert prices[0] < prices[1] < prices[2]
        assert prices[1] == pytest.approx(market.spot_price)

    def test_hazard_tracks_current_frequency(self):
        market, lattice = self.make_market(interruption_freq_pct=10.0)
        lattice.warmup(50)
        assert market.interruption_hazard_per_hour == pytest.approx(
            market.interruption_frequency * 0.7 / 100.0
        )


class TestMarketDeterminism:
    """Same seed, same trace — the paired-comparison guarantee."""

    def build(self, seed, steps=0, peak_hour=0.0):
        market, lattice = one_market(make_profile(), seed, hazard_peak_hour=peak_hour)
        lattice.warmup(steps)
        return market

    def test_same_seed_identical_price_trace_and_metrics(self):
        a, b = self.build(123, steps=300), self.build(123, steps=300)
        assert list(a.price_trace()) == list(b.price_trace())
        assert a.metric_history == b.metric_history

    def test_different_seeds_diverge(self):
        a, b = self.build(123, steps=50), self.build(124, steps=50)
        assert list(a.price_trace()) != list(b.price_trace())

    def test_provider_market_traces_reproducible_across_builds(self):
        from repro.cloud.provider import CloudProvider

        def trace(seed):
            provider = CloudProvider(seed=seed)
            provider.engine.run_until(12 * HOUR)
            return list(provider.market("us-east-1", "m5.xlarge").price_trace())

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)

    def test_geographies_have_phase_shifted_diurnal_peaks(self):
        from repro.cloud.market import GEOGRAPHY_PEAK_HOURS

        hours = np.arange(0.0, 24.0, 0.25)
        peak_of = {}
        for geography, peak_hour in GEOGRAPHY_PEAK_HOURS.items():
            market = self.build(0, peak_hour=peak_hour)
            hazards = [market.hazard_at(hour * HOUR) for hour in hours]
            peak_of[geography] = float(hours[int(np.argmax(hazards))])
        # Each geography's hazard crests at its own local peak hour...
        assert peak_of["americas"] == pytest.approx(3.0, abs=0.25)
        assert peak_of["europe"] == pytest.approx(11.0, abs=0.25)
        assert peak_of["asia-pacific"] == pytest.approx(19.0, abs=0.25)
        # ...so no two geographies surge at the same time — the
        # diversification the paper's multi-region spread exploits.
        assert len(set(peak_of.values())) == len(peak_of)

    def test_provider_assigns_peak_hours_by_geography(self):
        from repro.cloud.market import GEOGRAPHY_PEAK_HOURS
        from repro.cloud.provider import CloudProvider

        provider = CloudProvider(seed=0)
        for region, expected_geography in (
            ("us-east-1", "americas"),
            ("eu-west-1", "europe"),
            ("ap-southeast-1", "asia-pacific"),
        ):
            market = provider.market(region, "m5.xlarge")
            assert market.hazard_peak_hour == GEOGRAPHY_PEAK_HOURS[expected_geography]


class TestCostLedger:
    def test_totals_by_category_tag_region(self):
        ledger = CostLedger()
        ledger.charge(0.0, CostCategory.SPOT_INSTANCE, 1.5, region="us-east-1", tag="w1")
        ledger.charge(1.0, CostCategory.LAMBDA, 0.5, tag="w1")
        ledger.charge(2.0, CostCategory.ON_DEMAND_INSTANCE, 2.0, region="eu-west-1", tag="w2")
        assert ledger.total() == pytest.approx(4.0)
        assert ledger.total(CostCategory.LAMBDA) == pytest.approx(0.5)
        assert ledger.total_for_tag("w1") == pytest.approx(2.0)
        assert ledger.total_for_region("eu-west-1") == pytest.approx(2.0)
        assert ledger.instance_total() == pytest.approx(3.5)
        assert ledger.overhead_total() == pytest.approx(0.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge(0.0, CostCategory.LAMBDA, -1.0)

    def test_breakdown_views(self):
        ledger = CostLedger()
        ledger.charge(0.0, CostCategory.S3_TRANSFER, 0.25, region="us-east-1")
        assert ledger.by_category() == {"s3-transfer": 0.25}
        assert ledger.by_region() == {"us-east-1": 0.25}
