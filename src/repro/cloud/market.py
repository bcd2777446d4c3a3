"""Per-(region, instance-type) spot market state.

A :class:`SpotMarket` bundles the three observables SpotVerse's Monitor
consumes — spot price, Spot Placement Score, Interruption Frequency —
plus the interruption hazard derived from them.  A market is one row
of a :class:`~repro.cloud.lattice.MarketLattice`: the lattice builds
it, takes its initial draws, steps it with vectorized array operations
(the price process and the bounded placement/frequency walks are
written down there) and holds its state and history, which the
market's observables and traces read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.cloud.profiles import HAZARD_SCALE, MarketProfile, stability_score_from_frequency
from repro.sim.clock import DAY, HOUR

if TYPE_CHECKING:
    from repro.cloud.lattice import MarketLattice, TraceView

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

    Built only by :class:`~repro.cloud.lattice.MarketLattice`, as row
    *index* of its arrays.

    Args:
        lattice: The lattice that owns this market's state.
        index: The market's row in *lattice*.
        profile: Calibrated long-run regime.
        od_price: Regional on-demand price (USD/hour; the spot ceiling).
        hazard_peak_hour: Local business-hours peak of the diurnal
            hazard swing (hours into the simulation day).
        burst_phase: Offset (sim seconds) of the market's reclaim
            bursts, so markets are not synchronized with each other
            (instances within one market are — capacity reclaims are
            fleet-correlated).
    """

    def __init__(
        self,
        lattice: MarketLattice,
        index: int,
        profile: MarketProfile,
        od_price: float,
        hazard_peak_hour: float,
        burst_phase: float,
    ) -> None:
        self.profile = profile
        self.od_price = od_price
        self.hazard_peak_hour = hazard_peak_hour
        #: Long-run mean spot price (USD/hour) the price reverts to.
        self.mean_price = profile.spot_fraction * od_price
        self._lattice = lattice
        self._index = index
        self._burst_phase = burst_phase
        self._price_trace = lattice.history(index, 0)
        #: ``(time, placement_score, interruption_freq_pct)`` history: a
        #: read-only view like :meth:`price_trace`.
        self.metric_history = lattice.history(index, 1, 2)
        #: Spot instances currently running in this market (maintained
        #: by the EC2 substrate; only meaningful alongside a finite
        #: profile capacity).
        self.instances_running = 0

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

    # Each observable reads its slot of the lattice's published list
    # (no per-read array indexing).
    @property
    def spot_price(self) -> float:
        """Current spot price (USD/hour)."""
        return self._lattice.prices[self._index]

    @property
    def placement_score(self) -> float:
        """Current Spot Placement Score (1-10)."""
        return self._lattice.placements[self._index]

    @property
    def interruption_frequency(self) -> float:
        """Current Interruption Frequency advisor metric (percent)."""
        return self._lattice.freqs[self._index]

    def price_trace(self) -> TraceView:
        """The recorded ``(time, price)`` series.

        A read-only view over the lattice's history (the same object on
        every call) that tracks later steps; snapshot with
        ``list(...)`` to hold rows across further steps.
        """
        return self._price_trace

    def force_frequency(self, freq_pct: float) -> None:
        """Override the current Interruption Frequency (scenario/test hook).

        Writes the lattice slot; the next step resumes the
        mean-reverting walk from this value.
        """
        self._lattice.freq[self._index] = float(freq_pct)
        self._lattice.freqs[self._index] = float(freq_pct)

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
