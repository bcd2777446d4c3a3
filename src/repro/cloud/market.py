"""Per-(region, instance-type) spot market state.

A :class:`SpotMarket` bundles the three observables SpotVerse's Monitor
consumes — spot price, Spot Placement Score, Interruption Frequency —
and steps them together on a fixed interval.  Placement score and
interruption frequency follow bounded, mean-reverting random walks so
six-month series show the regional drift visible in the paper's
Figure 4, while staying inside their calibrated score band (which keeps
the Table 3 threshold tiers stable).

Markets step in one of two bit-identical ways: the scalar
:meth:`SpotMarket.step` below, or adopted into a
:class:`~repro.cloud.lattice.MarketLattice` that advances every market
per step with vectorized array operations (the provider's default fast
path).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

import math

from repro.cloud.lattice import (
    FREQ_MAX,
    FREQ_MIN,
    PLACEMENT_MAX,
    PLACEMENT_MIN,
    WALK_REVERSION,
    TraceBuffer,
)
from repro.cloud.pricing import SpotPriceProcess
from repro.cloud.profiles import HAZARD_SCALE, MarketProfile, stability_score_from_frequency
from repro.sim.clock import DAY, HOUR

#: Deterministic per-AZ price skews: AZ-level prices in Figure 2 differ
#: slightly and persistently inside one region.
AZ_PRICE_SKEWS = (0.985, 1.0, 1.02)

#: Diurnal swing of the realized interruption hazard around its mean.
#: Spot reclaims follow datacenter demand, which follows local business
#: hours — the day/time effect the paper reports observing (Section 7).
DIURNAL_AMPLITUDE = 0.6

#: Local business-hours peak (hours into the simulation day) per
#: geography; the daily mean hazard is unchanged by the modulation.
GEOGRAPHY_PEAK_HOURS = {
    "americas": 3.0,
    "europe": 11.0,
    "asia-pacific": 19.0,
}


def diurnal_factor(now: float, peak_hour: float, amplitude: float = DIURNAL_AMPLITUDE) -> float:
    """Multiplicative hazard factor at *now* for a given local peak.

    A sinusoid with period one day, value ``1 + amplitude`` at the
    peak hour and ``1 - amplitude`` half a day later; never negative.
    """
    phase = 2.0 * math.pi * (now / DAY - peak_hour / 24.0)
    return max(0.0, 1.0 + amplitude * math.cos(phase))


class SpotMarket:
    """Live market state for one (region, instance type) pair.

    Args:
        profile: Calibrated long-run regime.
        od_price: Regional on-demand price (USD/hour).
        rng: Dedicated random stream for this market.
        step_interval: Seconds between market steps (default one hour).
    """

    def __init__(
        self,
        profile: MarketProfile,
        od_price: float,
        rng: np.random.Generator,
        step_interval: float = HOUR,
        hazard_peak_hour: float = 0.0,
    ) -> None:
        self.profile = profile
        self.od_price = od_price
        self.step_interval = step_interval
        self.hazard_peak_hour = hazard_peak_hour
        self._rng = rng
        self.price_process = SpotPriceProcess(profile, od_price, rng)
        self._placement = self._bounded(
            profile.placement_mean + profile.placement_volatility * rng.standard_normal(),
            PLACEMENT_MIN,
            PLACEMENT_MAX,
        )
        self._freq = self._bounded(
            profile.interruption_freq_pct + profile.freq_volatility * rng.standard_normal(),
            FREQ_MIN,
            FREQ_MAX,
        )
        #: ``(time, placement_score, interruption_freq_pct)`` history,
        #: recorded in a chunked columnar buffer (rows read as tuples).
        self._metric_history = TraceBuffer(3)
        # Set when a MarketLattice adopts this market; observables then
        # read the lattice's arrays instead of the scalar attributes.
        self._lattice = None
        self._lattice_index = -1
        # Reclaim bursts hit at market-specific phases so markets are
        # not synchronized with each other (but instances within one
        # market are — capacity reclaims are fleet-correlated).
        self._burst_phase = 0.0
        if profile.burst_period_hours > 0.0:
            self._burst_phase = float(
                rng.uniform(0.0, profile.burst_period_hours * HOUR)
            )
        #: Spot instances currently running in this market (maintained
        #: by the EC2 substrate; only meaningful alongside a finite
        #: profile capacity).
        self.instances_running = 0

    # ------------------------------------------------------------------
    # Lattice adoption
    # ------------------------------------------------------------------
    def _attach_lattice(self, lattice, index: int) -> None:
        self._lattice = lattice
        self._lattice_index = index
        self.price_process._attach_lattice(lattice, index)

    def _detach_lattice(self) -> None:
        self._lattice = None
        self._lattice_index = -1
        self.price_process._detach_lattice()

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def region(self) -> str:
        """Region this market belongs to."""
        return self.profile.region

    @property
    def instance_type(self) -> str:
        """Instance type this market trades."""
        return self.profile.instance_type

    @property
    def available(self) -> bool:
        """Whether the type is launchable in this region at all."""
        return self.profile.available

    @property
    def spot_price(self) -> float:
        """Current spot price (USD/hour)."""
        return self.price_process.current

    @property
    def placement_score(self) -> float:
        """Current Spot Placement Score (1-10).

        An adopted market reads its slot of the lattice's published
        list (no per-read array indexing); a scalar one its attribute.
        """
        lattice = self._lattice
        if lattice is not None:
            return lattice.placements[self._lattice_index]
        return self._placement

    @property
    def interruption_frequency(self) -> float:
        """Current Interruption Frequency advisor metric (percent)."""
        lattice = self._lattice
        if lattice is not None:
            return lattice.freqs[self._lattice_index]
        return self._freq

    @property
    def metric_history(self) -> TraceBuffer:
        """``(time, placement_score, interruption_freq_pct)`` history.

        A cheap read-only view over the chunked buffer; snapshot with
        ``list(...)`` if you need to hold rows across further steps.
        """
        if self._lattice is not None:
            self._lattice.flush()
        return self._metric_history

    def force_frequency(self, freq_pct: float) -> None:
        """Override the current Interruption Frequency (scenario/test hook).

        Writes through to the lattice slot when the market is adopted,
        so the override is honoured on both stepping paths.  The next
        market step resumes the mean-reverting walk from this value.
        """
        self._freq = float(freq_pct)
        if self._lattice is not None:
            self._lattice.freq[self._lattice_index] = float(freq_pct)
            self._lattice.freqs[self._lattice_index] = float(freq_pct)

    @property
    def stability_score(self) -> int:
        """Current Stability Score (1-3) bucketed from the frequency."""
        return stability_score_from_frequency(self.interruption_frequency)

    @property
    def interruption_hazard_per_hour(self) -> float:
        """Daily-mean hourly interruption hazard for running instances."""
        return self.interruption_frequency * HAZARD_SCALE * self.profile.hazard_multiplier

    def hazard_at(self, now: float) -> float:
        """Instantaneous hazard at *now*.

        Combines the daily-mean hazard with (a) the geography-phased
        diurnal swing and (b) a decaying congestion episode: markets
        may start the experiment inside a reclaim burst
        (``episode_boost``) that relaxes with time constant
        ``episode_tau_hours`` — which front-loads interruptions the way
        the paper's runs show.
        """
        hazard = self.interruption_hazard_per_hour * diurnal_factor(
            now, self.hazard_peak_hour
        )
        if self.profile.episode_boost > 0.0:
            decay = math.exp(-max(now, 0.0) / (self.profile.episode_tau_hours * HOUR))
            hazard *= 1.0 + self.profile.episode_boost * decay
        if self.profile.burst_period_hours > 0.0 and self.in_reclaim_burst(now):
            hazard += self.profile.burst_hazard_per_hour
        hazard *= self.pressure_factor()
        return hazard

    # ------------------------------------------------------------------
    # Capacity pressure (opt-in via a finite profile capacity)
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of the market's spare capacity the fleet occupies.

        0.0 when the market is unmetered (capacity 0).
        """
        if self.profile.capacity <= 0:
            return 0.0
        return min(1.0, self.instances_running / self.profile.capacity)

    def pressure_factor(self) -> float:
        """Hazard multiplier from the fleet's own footprint.

        Quadratic in utilization: negligible at small footprints,
        up to 3x when the fleet occupies the whole pool — holding most
        of a market's spare capacity makes you the reclaim target.
        """
        utilization = self.utilization()
        return 1.0 + 2.0 * utilization * utilization

    def fulfillment_factor(self) -> float:
        """Spot-request success multiplier from remaining capacity.

        Full pools cannot fulfill new requests.
        """
        if self.profile.capacity <= 0:
            return 1.0
        return max(0.0, 1.0 - self.utilization())

    def in_reclaim_burst(self, now: float) -> bool:
        """Whether *now* falls inside one of the market's reclaim bursts."""
        period = self.profile.burst_period_hours * HOUR
        if period <= 0.0:
            return False
        position = (now - self._burst_phase) % period
        return position < self.profile.burst_width_hours * HOUR

    def az_spot_price(self, az_index: int) -> float:
        """Spot price in the region's *az_index*-th AZ (Figure 2 detail)."""
        skew = AZ_PRICE_SKEWS[az_index % len(AZ_PRICE_SKEWS)]
        return self.spot_price * skew

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    @staticmethod
    def _bounded(value: float, lo: float, hi: float) -> float:
        return min(max(value, lo), hi)

    def step(self, now: float) -> None:
        """Advance price, placement score and frequency one interval."""
        if self._lattice is not None:
            raise RuntimeError(
                "market is adopted by a MarketLattice; step it through the "
                "lattice (scalar steps would double-consume the prefetched "
                "noise stream)"
            )
        self.price_process.step(now)
        # Mean-reverting bounded walks.  Reversion keeps each market in
        # its calibrated band; the noise produces the regional drift of
        # Figure 4.
        self._placement = self._bounded(
            self._placement
            + WALK_REVERSION * (self.profile.placement_mean - self._placement)
            + self.profile.placement_volatility * float(self._rng.standard_normal()),
            PLACEMENT_MIN,
            PLACEMENT_MAX,
        )
        self._freq = self._bounded(
            self._freq
            + WALK_REVERSION * (self.profile.interruption_freq_pct - self._freq)
            + self.profile.freq_volatility * float(self._rng.standard_normal()),
            FREQ_MIN,
            FREQ_MAX,
        )
        self._metric_history.append((now, self._placement, self._freq))

    def warmup(self, steps: int, start_time: float = 0.0) -> None:
        """Step the market *steps* times without an engine.

        Used by dataset generators (Figures 2 and 4) that need long
        series without running a full simulation.
        """
        for i in range(steps):
            self.step(start_time + (i + 1) * self.step_interval)

    def price_trace(self) -> Sequence[Tuple[float, float]]:
        """Return the recorded ``(time, price)`` series (read-only view)."""
        return self.price_process.trace()
