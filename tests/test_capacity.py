"""Unit tests for the finite-capacity market pool model."""

import numpy as np
import pytest

from repro.cloud.lattice import MarketLattice
from repro.cloud.profiles import MarketProfile, default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import InstanceLifecycle
from repro.sim.clock import HOUR


def metered_market(capacity=10, **kwargs):
    profile = MarketProfile(
        region="us-east-1",
        instance_type="m5.xlarge",
        capacity=capacity,
        **kwargs,
    )
    return MarketLattice([(profile, 0.2, np.random.default_rng(1), 0.0)]).markets[0]


class TestPressureModel:
    def test_unmetered_market_has_no_pressure(self):
        market = metered_market(capacity=0)
        market.instances_running = 1000
        assert market.utilization() == 0.0
        assert market.pressure_factor() == 1.0
        assert market.fulfillment_factor() == 1.0

    def test_utilization_clamped(self):
        market = metered_market(capacity=10)
        market.instances_running = 15
        assert market.utilization() == 1.0

    def test_pressure_quadratic(self):
        market = metered_market(capacity=10)
        market.instances_running = 5
        assert market.pressure_factor() == pytest.approx(1.5)
        market.instances_running = 10
        assert market.pressure_factor() == pytest.approx(3.0)

    def test_fulfillment_shrinks_with_utilization(self):
        market = metered_market(capacity=10)
        market.instances_running = 0
        assert market.fulfillment_factor() == 1.0
        market.instances_running = 8
        assert market.fulfillment_factor() == pytest.approx(0.2)
        market.instances_running = 10
        assert market.fulfillment_factor() == 0.0

    def test_pressure_scales_hazard(self):
        market = metered_market(capacity=10, interruption_freq_pct=10.0)
        base = market.hazard_at(0.0)
        market.instances_running = 10
        assert market.hazard_at(0.0) == pytest.approx(3.0 * base)


class TestEC2CapacityAccounting:
    def test_spot_launch_and_termination_track_pool(self):
        profiles = default_market_profiles().with_overrides(
            {("us-east-1", "m5.xlarge"): {"capacity": 5}}
        )
        provider = CloudProvider(seed=1, profiles=profiles)
        market = provider.market("us-east-1", "m5.xlarge")
        instances = [
            provider.ec2._launch("us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, "w")
            for _ in range(3)
        ]
        assert market.instances_running == 3
        provider.ec2.terminate_instances([instances[0].instance_id])
        assert market.instances_running == 2
        # Idempotent termination does not double-release.
        provider.ec2.terminate_instances([instances[0].instance_id])
        assert market.instances_running == 2

    def test_on_demand_does_not_consume_pool(self):
        profiles = default_market_profiles().with_overrides(
            {("us-east-1", "m5.xlarge"): {"capacity": 5}}
        )
        provider = CloudProvider(seed=1, profiles=profiles)
        provider.ec2.run_on_demand("us-east-1", "m5.xlarge")
        assert provider.market("us-east-1", "m5.xlarge").instances_running == 0

    def test_interruption_releases_pool(self):
        profiles = default_market_profiles().with_overrides(
            {("us-east-1", "m5.xlarge"): {"capacity": 5, "interruption_freq_pct": 35.0,
                                          "hazard_multiplier": 20.0}}
        )
        provider = CloudProvider(seed=1, profiles=profiles)
        market = provider.market("us-east-1", "m5.xlarge")
        provider.ec2._launch("us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, "w")
        assert market.instances_running == 1
        provider.engine.run_until(4 * HOUR)  # extreme hazard interrupts it
        assert market.instances_running == 0

    def test_full_pool_blocks_fulfillment(self):
        profiles = default_market_profiles().with_overrides(
            {("us-east-1", "m5.xlarge"): {"capacity": 2}}
        )
        provider = CloudProvider(seed=1, profiles=profiles)
        for _ in range(2):
            provider.ec2._launch("us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, "w")
        requests = [
            provider.ec2.request_spot_instances("us-east-1", "m5.xlarge")
            for _ in range(10)
        ]
        provider.engine.run_until(HOUR)
        from repro.cloud.services.ec2 import SpotRequestState

        assert all(request.state is SpotRequestState.OPEN for request in requests)
