"""The market lattice: the one stepper for every spot market.

A :class:`MarketLattice` holds *all* adopted markets' state (price,
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

Each market keeps its own named RNG stream, and the lattice prefetches
noise in blocks with ``Generator.standard_normal(3 * block)``: numpy
fills arrays by repeatedly invoking the same per-value ziggurat draw, so
row ``k`` of the reshaped block is step ``k``'s (price, placement,
frequency) triple and the series do not depend on the block size.
``tests/data/golden_market_traces.json`` pins the series bit for bit.

History recording is chunked: the lattice appends each step's values
into preallocated 2-D pending buffers (one column write per observable)
and flushes them into per-market :class:`TraceBuffer` columns when a
chunk fills or a trace is read.  ``price_trace()`` / ``metric_history``
read as row tuples on top of the buffers.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

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

Row = Tuple[float, ...]


class TraceBuffer:
    """A growable, columnar history of fixed-width float rows.

    Preallocated numpy storage (amortised doubling) that *reads* like
    a list of tuples: indexing and iteration yield row tuples, equality
    compares row contents, and ``len`` counts rows.  Consumers that
    want arrays use :meth:`column`.

    The buffer is the backing store for ``SpotMarket.price_trace()``
    (columns: time, price) and ``SpotMarket.metric_history`` (columns:
    time, placement score, interruption frequency).  Views returned by
    accessors are cheap — no per-call copying.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, ncols: int, capacity: int = 64) -> None:
        self._data = np.empty((max(1, capacity), ncols), dtype=np.float64)
        self._len = 0

    @property
    def ncols(self) -> int:
        """Number of columns per row."""
        return self._data.shape[1]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = self._data.shape[0]
        if need <= capacity:
            return
        grown = np.empty((max(need, 2 * capacity), self.ncols), dtype=np.float64)
        grown[: self._len] = self._data[: self._len]
        self._data = grown

    def extend_columns(self, *columns: np.ndarray) -> None:
        """Bulk-append rows given as per-column arrays of equal length."""
        if len(columns) != self.ncols:
            raise ValueError(
                f"expected {self.ncols} columns, got {len(columns)}"
            )
        count = len(columns[0])
        self._reserve(count)
        for j, column in enumerate(columns):
            self._data[self._len : self._len + count, j] = column
        self._len += count

    def clear(self) -> None:
        """Drop every recorded row (capacity is retained)."""
        self._len = 0

    def column(self, index: int) -> np.ndarray:
        """Read-only array view of one column over the recorded rows."""
        view = self._data[: self._len, index]
        view.flags.writeable = False
        return view

    def rows(self) -> List[Row]:
        """All rows as a list of tuples (a copy; mutation-safe)."""
        return [tuple(row) for row in self._data[: self._len].tolist()]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: Union[int, slice]) -> Union[Row, List[Row]]:
        if isinstance(index, slice):
            return [tuple(row) for row in self._data[: self._len][index].tolist()]
        if index < -self._len or index >= self._len:
            raise IndexError(f"row {index} out of range for {self._len} rows")
        if index < 0:
            index += self._len
        return tuple(self._data[index].tolist())

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceBuffer):
            return (
                self._len == other._len
                and self.ncols == other.ncols
                and bool(
                    np.array_equal(
                        self._data[: self._len], other._data[: other._len]
                    )
                )
            )
        if isinstance(other, (list, tuple)):
            return self.rows() == [tuple(row) for row in other]
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        return f"TraceBuffer(rows={self._len}, ncols={self.ncols})"


class MarketLattice:
    """Vectorized state + stepping for a fixed set of spot markets.

    On construction the lattice *adopts* the markets: their initial
    state moves into contiguous arrays, each market's observable
    properties read its lattice slot, and the markets step only
    through :meth:`step` / :meth:`warmup`.  A market belongs to one
    lattice for life: adopting it again would restart it from its
    initial state while the first lattice keeps drawing from its RNG
    stream, so that raises (as does listing a market twice).

    Args:
        markets: The markets to adopt (order fixes lattice indices).
        noise_block: Steps of per-market noise to prefetch at a time.
        history_chunk: Steps buffered before flushing history to the
            per-market trace buffers.

    Raises:
        ValueError: If *markets* is empty, lists a market twice, or
            holds a market another lattice already adopted.
    """

    def __init__(
        self,
        markets: Sequence,
        noise_block: int = 128,
        history_chunk: int = 256,
    ) -> None:
        self.markets = list(markets)
        if not self.markets:
            raise ValueError("MarketLattice needs at least one market")
        adopting = set()
        for market in self.markets:
            if market._lattice is not None or id(market) in adopting:
                raise ValueError(
                    f"market {market.region}/{market.instance_type} is already "
                    "adopted by a MarketLattice"
                )
            adopting.add(id(market))
        n = len(self.markets)
        self._noise_block = int(noise_block)
        self._history_chunk = int(history_chunk)

        def gather(read) -> np.ndarray:
            return np.array([read(market) for market in self.markets], dtype=np.float64)

        # Price-process parameters.
        self._price_mean = gather(lambda m: m.mean_price)
        self._price_scale = gather(lambda m: m.profile.spot_volatility) * self._price_mean
        self._price_floor = PRICE_FLOOR_FRACTION * self._price_mean
        self._price_ceil = gather(lambda m: m.od_price)
        # Bounded-walk parameters.
        self._placement_mean = gather(lambda m: m.profile.placement_mean)
        self._placement_vol = gather(lambda m: m.profile.placement_volatility)
        self._freq_mean = gather(lambda m: m.profile.interruption_freq_pct)
        self._freq_vol = gather(lambda m: m.profile.freq_volatility)

        # Live state, starting from the markets' construction-time draws.
        self.price = gather(lambda m: m._initial_price)
        self.placement = gather(lambda m: m._initial_placement)
        self.freq = gather(lambda m: m._initial_freq)
        self._publish()

        # Prefetched noise: shape (markets, block, 3); cursor at the
        # end means "empty, refill before the next step".
        self._noise = np.empty((n, self._noise_block, DRAWS_PER_STEP))
        self._noise_cursor = self._noise_block

        # Pending (unflushed) history, shape (markets, chunk).
        self._pending_times = np.empty(self._history_chunk)
        self._pending_price = np.empty((n, self._history_chunk))
        self._pending_placement = np.empty((n, self._history_chunk))
        self._pending_freq = np.empty((n, self._history_chunk))
        self._pending = 0

        for index, market in enumerate(self.markets):
            market._lattice = self
            market._lattice_index = index

    def __len__(self) -> int:
        return len(self.markets)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _refill_noise(self) -> None:
        draws = self._noise_block * DRAWS_PER_STEP
        for index, market in enumerate(self.markets):
            # One block draw consumes the market's stream exactly like
            # `draws` single draws; row k of the reshape is step k's
            # (price, placement, freq) triple.
            self._noise[index] = market._rng.standard_normal(draws).reshape(
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

        if self._pending == self._history_chunk:
            self.flush()
        cursor = self._pending
        self._pending_times[cursor] = now
        self._pending_price[:, cursor] = price
        self._pending_placement[:, cursor] = placement
        self._pending_freq[:, cursor] = freq
        self._pending = cursor + 1
        self._publish()

    def _publish(self) -> None:
        """Expose the current state as plain lists the markets read.

        An adopted market reads its observables as
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
    def flush(self) -> None:
        """Move pending step history into the per-market trace buffers."""
        count = self._pending
        if count == 0:
            return
        times = self._pending_times[:count]
        for index, market in enumerate(self.markets):
            market._price_history.extend_columns(
                times, self._pending_price[index, :count]
            )
            market._metric_history.extend_columns(
                times,
                self._pending_placement[index, :count],
                self._pending_freq[index, :count],
            )
        self._pending = 0

    def clear_history(self) -> None:
        """Drop pending *and* recorded history for every market."""
        self._pending = 0
        for market in self.markets:
            market._price_history.clear()
            market._metric_history.clear()

    def release(self) -> None:
        """Flush history, then free the stepping scratch buffers.

        For a finished simulation: every recorded step stays readable
        through the markets' traces, but the lattice can no longer
        step (the dropped noise block held draws already taken from
        the markets' streams).
        """
        self.flush()
        self._noise = None
        self._pending_times = self._pending_price = None
        self._pending_placement = self._pending_freq = None


__all__ = [
    "FREQ_MAX",
    "FREQ_MIN",
    "MarketLattice",
    "PLACEMENT_MAX",
    "PLACEMENT_MIN",
    "PRICE_FLOOR_FRACTION",
    "PRICE_REVERSION",
    "STEP_INTERVAL",
    "TraceBuffer",
    "WALK_REVERSION",
]
