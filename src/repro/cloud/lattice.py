"""The market lattice: the one stepper for every spot market.

A :class:`MarketLattice` holds every market's state (price,
placement score, interruption frequency) in contiguous numpy arrays and
advances every market per step with a handful of vectorized
mean-reversion/clamp operations.  :meth:`MarketLattice.step` is the
only place the market dynamics are written down:

* spot price, a discretised mean-reverting (Ornstein-Uhlenbeck)
  process ``p + PRICE_REVERSION * (mean - p) + volatility * mean *
  N(0, 1)`` clamped to ``[PRICE_FLOOR_FRACTION * mean, od_price]`` —
  spot never exceeds on-demand under the post-2017 policy and never
  collapses to zero;
* Spot Placement Score and Interruption Frequency, bounded walks that
  revert to the profile mean at ``WALK_REVERSION`` per step, so
  six-month series show the regional drift of the paper's Figure 4
  while staying inside their calibrated band.

The lattice owns every market outright: it builds its
:class:`~repro.cloud.market.SpotMarket` rows from ``(profile, od_price,
rng, hazard_peak_hour)`` specs, takes each market's initial draws, and
holds the only copy of its state and history, so a market cannot exist
without a lattice.

Each market keeps its own named RNG stream.  Construction draws, per
stream, the initial price, placement and frequency normals and then
(for markets with reclaim bursts) the burst-phase uniform.  Stepping
prefetches noise in blocks with ``Generator.standard_normal(3 *
block)``: numpy fills arrays by repeatedly invoking the same per-value
ziggurat draw, so row ``k`` of the reshaped block is step ``k``'s
(price, placement, frequency) triple and the series do not depend on
the block size.  ``tests/data/golden_market_traces.json`` pins the
series bit for bit.

Each step writes one column of growable ``(markets x steps)`` history
arrays.  A market's ``price_trace()`` and ``metric_history`` are
:class:`TraceView` rows over them: read-only, no per-market copy.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.cloud.market import SpotMarket
from repro.cloud.profiles import MarketProfile
from repro.sim.clock import HOUR

#: Seconds between market steps.
STEP_INTERVAL = HOUR

#: Mean-reversion strength of the spot price per step.
PRICE_REVERSION = 0.15
#: Spot price floor as a fraction of the long-run mean price.
PRICE_FLOOR_FRACTION = 0.35
#: Spot Placement Score band (1-10 scale, clamped).
PLACEMENT_MIN, PLACEMENT_MAX = 1.0, 10.0
#: Interruption Frequency advisor band (percent, clamped).
FREQ_MIN, FREQ_MAX = 0.5, 35.0
#: Mean-reversion strength of the placement/frequency bounded walks.
WALK_REVERSION = 0.10

#: Per-market noise draws per step: price, placement, frequency.
DRAWS_PER_STEP = 3

#: Steps of history the lattice allocates before it first grows.
HISTORY_CAPACITY = 64

#: ``(profile, od_price, rng, hazard_peak_hour)``: what the lattice
#: builds one market row from.
MarketSpec = Tuple[MarketProfile, float, np.random.Generator, float]

Row = Tuple[float, ...]


class TraceView:
    """One market's recorded history: ``(time, *observables)`` rows.

    A read-only view over the lattice's history arrays that reads like
    a list of tuples: indexing and iteration yield row tuples, equality
    compares row contents, and ``len`` counts rows.  Consumers that
    want arrays use :meth:`column`.  The view tracks later steps
    instead of freezing a copy; snapshot with ``list(...)``.
    """

    __slots__ = ("_lattice", "_index", "_planes")

    def __init__(self, lattice: "MarketLattice", index: int, planes: Tuple[int, ...]) -> None:
        self._lattice = lattice
        self._index = index
        self._planes = planes

    def _columns(self) -> List[np.ndarray]:
        lattice = self._lattice
        steps = lattice._steps
        return [lattice._times[:steps]] + [
            lattice._history[plane, self._index, :steps] for plane in self._planes
        ]

    def column(self, index: int) -> np.ndarray:
        """Read-only array view of one column over the recorded rows."""
        view = self._columns()[index]
        view.flags.writeable = False
        return view

    def rows(self) -> List[Row]:
        """All rows as a list of tuples (a copy; mutation-safe)."""
        return list(zip(*(column.tolist() for column in self._columns())))

    def __len__(self) -> int:
        return self._lattice._steps

    def __getitem__(self, index: Union[int, slice]) -> Union[Row, List[Row]]:
        if isinstance(index, slice):
            return self.rows()[index]
        steps = self._lattice._steps
        if index < -steps or index >= steps:
            raise IndexError(f"row {index} out of range for {steps} rows")
        return tuple(float(column[index]) for column in self._columns())

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceView):
            return self.rows() == other.rows()
        if isinstance(other, (list, tuple)):
            return self.rows() == [tuple(row) for row in other]
        return NotImplemented

    __hash__ = None  # tracks a growing history

    def __repr__(self) -> str:
        return f"TraceView(rows={len(self)}, columns={1 + len(self._planes)})"


class MarketLattice:
    """Vectorized state, stepping and history for a fixed set of spot markets.

    The lattice builds one :class:`~repro.cloud.market.SpotMarket` row
    per spec (in :attr:`markets`, spec order); each market's observable
    properties read its lattice slot, and the markets step only through
    :meth:`step` / :meth:`warmup`.

    Args:
        specs: ``(profile, od_price, rng, hazard_peak_hour)`` per
            market; *rng* is the market's own stream.
        noise_block: Steps of per-market noise to prefetch at a time.

    Raises:
        ValueError: If *specs* is empty.
    """

    def __init__(self, specs: Sequence[MarketSpec], noise_block: int = 128) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("MarketLattice needs at least one market")
        n = len(specs)
        self._noise_block = int(noise_block)
        self._rngs = [rng for _, _, rng, _ in specs]
        profiles = [profile for profile, _, _, _ in specs]

        # Price-process parameters.
        self._price_ceil = np.array([od_price for _, od_price, _, _ in specs])
        self._price_mean = np.array([p.spot_fraction for p in profiles]) * self._price_ceil
        price_volatility = np.array([p.spot_volatility for p in profiles])
        self._price_scale = price_volatility * self._price_mean
        self._price_floor = PRICE_FLOOR_FRACTION * self._price_mean
        # Bounded-walk parameters.
        self._placement_mean = np.array([p.placement_mean for p in profiles])
        self._placement_vol = np.array([p.placement_volatility for p in profiles])
        self._freq_mean = np.array([p.interruption_freq_pct for p in profiles])
        self._freq_vol = np.array([p.freq_volatility for p in profiles])

        # Initial state: per stream, the price, placement and frequency
        # normals, then the burst-phase uniform.  The price starts at
        # its mean plus one step of noise so traces do not all begin on
        # their mean.
        initial = np.empty((n, DRAWS_PER_STEP))
        burst_phases = []
        for index, (profile, _, rng, _) in enumerate(specs):
            initial[index] = rng.standard_normal(DRAWS_PER_STEP)
            burst_period = profile.burst_period_hours * HOUR
            burst_phases.append(
                float(rng.uniform(0.0, burst_period)) if burst_period > 0.0 else 0.0
            )
        self.price = np.clip(
            self._price_mean * (1.0 + price_volatility * initial[:, 0]),
            self._price_floor,
            self._price_ceil,
        )
        self.placement = np.clip(
            self._placement_mean + self._placement_vol * initial[:, 1],
            PLACEMENT_MIN,
            PLACEMENT_MAX,
        )
        self.freq = np.clip(self._freq_mean + self._freq_vol * initial[:, 2], FREQ_MIN, FREQ_MAX)
        self._publish()

        # Prefetched noise: shape (markets, block, 3); cursor at the
        # end means "empty, refill before the next step".
        self._noise = np.empty((n, self._noise_block, DRAWS_PER_STEP))
        self._noise_cursor = self._noise_block

        # History: step times, and (price, placement, freq) planes of
        # shape (markets, capacity) whose first ``_steps`` columns are
        # recorded; capacity doubles when full.
        self._times = np.empty(HISTORY_CAPACITY)
        self._history = np.empty((DRAWS_PER_STEP, n, HISTORY_CAPACITY))
        self._steps = 0

        self.markets = [
            SpotMarket(self, index, profile, od_price, peak_hour, burst_phases[index])
            for index, (profile, od_price, _, peak_hour) in enumerate(specs)
        ]

    def __len__(self) -> int:
        return len(self.markets)

    def history(self, index: int, *planes: int) -> TraceView:
        """A view of market *index*'s history over the given planes
        (0 price, 1 placement score, 2 interruption frequency)."""
        return TraceView(self, index, planes)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _refill_noise(self) -> None:
        draws = self._noise_block * DRAWS_PER_STEP
        for index, rng in enumerate(self._rngs):
            # One block draw consumes the market's stream exactly like
            # `draws` single draws; row k of the reshape is step k's
            # (price, placement, freq) triple.
            self._noise[index] = rng.standard_normal(draws).reshape(
                self._noise_block, DRAWS_PER_STEP
            )
        self._noise_cursor = 0

    def step(self, now: float) -> None:
        """Advance every market one interval and record the new state."""
        if self._noise is None:
            raise RuntimeError("the lattice was released and can no longer step")
        if self._noise_cursor == self._noise_block:
            self._refill_noise()
        noise = self._noise[:, self._noise_cursor, :]
        self._noise_cursor += 1

        # Mean-reverting price, clamped between the floor and the
        # on-demand ceiling.  The association order of every
        # expression is part of the pinned float64 series.
        price = self.price
        price = price + PRICE_REVERSION * (self._price_mean - price) + (
            self._price_scale * noise[:, 0]
        )
        np.clip(price, self._price_floor, self._price_ceil, out=price)
        self.price = price

        # Bounded walks: reversion keeps each market in its calibrated
        # band; the noise produces the regional drift of Figure 4.
        placement = self.placement
        placement = placement + WALK_REVERSION * (
            self._placement_mean - placement
        ) + (self._placement_vol * noise[:, 1])
        np.clip(placement, PLACEMENT_MIN, PLACEMENT_MAX, out=placement)
        self.placement = placement

        freq = self.freq
        freq = freq + WALK_REVERSION * (self._freq_mean - freq) + (
            self._freq_vol * noise[:, 2]
        )
        np.clip(freq, FREQ_MIN, FREQ_MAX, out=freq)
        self.freq = freq

        step = self._steps
        capacity = len(self._times)
        if step == capacity:
            times = np.empty(2 * capacity)
            times[:step] = self._times
            history = np.empty(self._history.shape[:2] + (2 * capacity,))
            history[:, :, :step] = self._history
            self._times, self._history = times, history
        self._times[step] = now
        history = self._history
        history[0, :, step] = price
        history[1, :, step] = placement
        history[2, :, step] = freq
        self._steps = step + 1
        self._publish()

    def _publish(self) -> None:
        """Expose the current state as plain lists the markets read.

        A market reads its observables as
        ``lattice.prices[index]`` (and ``placements``, ``freqs``): one
        list lookup per read, with no per-read numpy indexing and no
        per-step writes into markets nobody reads.  ``tolist``
        round-trips float64 exactly, so the lists are bit-identical to
        the array slots.
        """
        self.prices = self.price.tolist()
        self.placements = self.placement.tolist()
        self.freqs = self.freq.tolist()

    def warmup(self, steps: int, start_time: float = 0.0) -> None:
        """Step every market *steps* times without an engine.

        Steps land at ``start_time + (i + 1) * STEP_INTERVAL``.
        """
        for i in range(steps):
            self.step(start_time + (i + 1) * STEP_INTERVAL)

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------
    def clear_history(self) -> None:
        """Drop the recorded history of every market."""
        self._steps = 0

    def release(self) -> None:
        """Free the stepping scratch buffers.

        For a finished simulation: every recorded step stays readable
        through the markets' traces, but the lattice can no longer
        step (the dropped noise block held draws already taken from
        the markets' streams).
        """
        self._noise = None


__all__ = [
    "FREQ_MAX",
    "FREQ_MIN",
    "MarketLattice",
    "MarketSpec",
    "PLACEMENT_MAX",
    "PLACEMENT_MIN",
    "PRICE_FLOOR_FRACTION",
    "PRICE_REVERSION",
    "STEP_INTERVAL",
    "TraceView",
    "WALK_REVERSION",
]
