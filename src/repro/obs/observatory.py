"""The market observatory: sampling + anomaly detection over markets.

:class:`MarketObservatory` watches every spot market the provider
steps, writing one sample per (market, field) into a
:class:`~repro.obs.timeseries.TimeSeriesStore` and running an anomaly
pass over what it just saw:

* **price spikes** — a rolling z-score over each market's recent spot
  prices; a sample far outside its own recent band (and meaningfully
  above the long-run mean) opens a ``price_spike`` anomaly;
* **reclaim bursts** — an edge-trigger on the market's reclaim-burst
  window (hazard jumping to a multiple of its recent baseline), which
  opens a ``reclaim_burst`` anomaly.

Anomalies are edge-triggered — one typed ``market.anomaly`` event on
the bus when the condition *starts*, not one per sample while it
persists — so FleetController activity (interruptions, migrations,
fallbacks) can be correlated with the onset of market turbulence.

The observatory only *reads*: the provider hands it each step's
lattice lists (price, placement score, interruption frequency, indexed
by market row), and it asks each market row for what the lattice does
not hold — hazard, utilization, fulfillment — once per step.  It never
imports ``cloud`` and never feeds anything back into the markets, so
enabling it cannot change a run's decisions or costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import sqrt
from typing import Deque, List, Optional, Sequence

from repro.obs.events import EventBus, EventType
from repro.obs.timeseries import TimeSeriesStore

#: Series sampled per market per step, in sampling order.
MARKET_FIELDS = (
    "spot_price",
    "placement_score",
    "interruption_frequency",
    "hazard_per_hour",
    "utilization",
    "fulfillment_factor",
)

#: Rolling window width (samples) of the price z-score baseline.
PRICE_WINDOW = 48
#: |z| at which a price sample opens a ``price_spike`` anomaly.
PRICE_Z_THRESHOLD = 3.5
#: Rolling window width (samples) of the hazard baseline.
HAZARD_WINDOW = 48


@dataclass
class Anomaly:
    """One detected market anomaly (also emitted as a bus event)."""

    time: float
    kind: str  # "price_spike" | "reclaim_burst"
    region: str
    instance_type: str
    field: str
    value: float
    zscore: float = 0.0


class _RollingWindow:
    """Fixed-width window with O(1) mean/std for the z-score pass."""

    __slots__ = ("values", "total", "total_sq", "width")

    def __init__(self, width: int) -> None:
        self.width = width
        self.values: Deque[float] = deque()
        self.total = 0.0
        self.total_sq = 0.0

    def push(self, value: float) -> None:
        self.values.append(value)
        self.total += value
        self.total_sq += value * value
        if len(self.values) > self.width:
            old = self.values.popleft()
            self.total -= old
            self.total_sq -= old * old

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def std(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0
        variance = max(0.0, self.total_sq / n - self.mean**2)
        return sqrt(variance)

    def zscore(self, value: float) -> float:
        """Z-score of *value* against the window (0 when degenerate)."""
        std = self.std
        if std <= 0.0:
            return 0.0
        return (value - self.mean) / std


class _Watch:
    """Per-market detector state: resolved series, windows, edge flags."""

    __slots__ = ("index", "market", "series", "prices", "hazards", "in_spike", "in_burst")

    def __init__(self, index: int, market, store: TimeSeriesStore) -> None:
        self.index = index
        self.market = market
        labels = {"region": market.region, "instance_type": market.instance_type}
        self.series = [store.series(field, **labels) for field in MARKET_FIELDS]
        self.prices = _RollingWindow(PRICE_WINDOW)
        self.hazards = _RollingWindow(HAZARD_WINDOW)
        self.in_spike = False
        self.in_burst = False


class MarketObservatory:
    """Samples markets into a time-series store and flags anomalies.

    Args:
        markets: The market rows, in the order of the per-step lists
            :meth:`observe` receives (duck-typed: ``region``,
            ``instance_type``, ``available``, ``hazard_at(now)``,
            ``utilization()``, ``fulfillment_factor()``).  Unavailable
            markets are not sampled.
        store: Destination time-series store (fresh one when omitted).
        bus: Event bus ``market.anomaly`` events are published on
            (omit for a silent observatory, e.g. offline analysis).
        hazard_factor: Hazard multiple of the rolling baseline at which
            a ``reclaim_burst`` anomaly opens.
        min_baseline: Samples a window must hold before the detector
            trusts its statistics (suppresses warm-up false positives).
    """

    def __init__(
        self,
        markets: Sequence,
        store: Optional[TimeSeriesStore] = None,
        bus: Optional[EventBus] = None,
        hazard_factor: float = 3.0,
        min_baseline: int = 12,
    ) -> None:
        self.store = store if store is not None else TimeSeriesStore()
        self.bus = bus
        self.hazard_factor = hazard_factor
        self.min_baseline = min_baseline
        self.anomalies: List[Anomaly] = []
        self.samples_taken = 0
        self._markets = [
            (index, market) for index, market in enumerate(markets) if market.available
        ]
        # Resolved on the first sample, so a store nothing was observed
        # into stays empty.
        self._watches: List[_Watch] = []

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def observe(
        self,
        now: float,
        prices: Sequence[float],
        placements: Sequence[float],
        freqs: Sequence[float],
    ) -> None:
        """Sample every market at sim time *now* and run the anomaly pass.

        *prices*, *placements* and *freqs* hold this step's state,
        indexed like the markets the observatory was built with.
        """
        watches = self._watches
        if not watches and self._markets:
            watches = self._watches = [
                _Watch(index, market, self.store) for index, market in self._markets
            ]
        min_baseline = self.min_baseline
        for watch in watches:
            market = watch.market
            index = watch.index
            price = prices[index]
            hazard = market.hazard_at(now)
            values = (
                price,
                placements[index],
                freqs[index],
                hazard,
                market.utilization(),
                market.fulfillment_factor(),
            )
            for series, value in zip(watch.series, values):
                series.append(now, value)

            # Price spikes: compare against the *previous* window, then
            # fold the sample in — a spike must stand out from history,
            # not from a baseline it already contaminated.
            window = watch.prices
            spiking = False
            if len(window.values) >= min_baseline:
                z = window.zscore(price)
                if abs(z) >= PRICE_Z_THRESHOLD:
                    spiking = True
                    if not watch.in_spike:
                        self._emit(now, "price_spike", market, "spot_price", price, z)
            watch.in_spike = spiking
            window.push(price)

            # Reclaim bursts: hazard crossing a multiple of its own
            # rolling baseline (catches both the market's periodic burst
            # windows and capacity-pressure pile-ups), edge-triggered.
            window = watch.hazards
            bursting = False
            if len(window.values) >= min_baseline:
                baseline = window.mean
                if baseline > 0.0 and hazard >= self.hazard_factor * baseline:
                    bursting = True
                    if not watch.in_burst:
                        self._emit(
                            now,
                            "reclaim_burst",
                            market,
                            "hazard_per_hour",
                            hazard,
                            window.zscore(hazard),
                        )
            watch.in_burst = bursting
            window.push(hazard)
        self.samples_taken += len(MARKET_FIELDS) * len(watches)

    # ------------------------------------------------------------------
    # Anomaly pass
    # ------------------------------------------------------------------
    def _emit(self, now: float, kind: str, market, field: str, value: float, zscore: float) -> None:
        anomaly = Anomaly(
            time=now,
            kind=kind,
            region=market.region,
            instance_type=market.instance_type,
            field=field,
            value=value,
            zscore=zscore,
        )
        self.anomalies.append(anomaly)
        if self.bus is not None:
            self.bus.emit(
                EventType.MARKET_ANOMALY,
                region=anomaly.region,
                kind=anomaly.kind,
                field=anomaly.field,
                value=anomaly.value,
                zscore=anomaly.zscore,
                instance_type=anomaly.instance_type,
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def anomalies_for(self, region: str, kind: Optional[str] = None) -> List[Anomaly]:
        """Anomalies in *region* (optionally of one kind), time order."""
        return [
            anomaly
            for anomaly in self.anomalies
            if anomaly.region == region and (kind is None or anomaly.kind == kind)
        ]


__all__ = [
    "Anomaly",
    "HAZARD_WINDOW",
    "MARKET_FIELDS",
    "MarketObservatory",
    "PRICE_WINDOW",
    "PRICE_Z_THRESHOLD",
]
