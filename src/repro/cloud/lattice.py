"""The market lattice: vectorized stepping for every spot market at once.

Scalar market stepping (:meth:`~repro.cloud.market.SpotMarket.step`)
spends most of its time in Python: three ``rng.standard_normal()``
calls, property lookups, and a tuple append — per market, per simulated
hour.  A :class:`MarketLattice` instead holds *all* markets' state
(price, placement score, interruption frequency) in contiguous numpy
arrays and advances every market per step with a handful of vectorized
mean-reversion/clamp operations.

Determinism is preserved **bit-exactly** relative to the scalar path:
each market keeps its own named RNG stream, and the lattice prefetches
noise in blocks with ``Generator.standard_normal(3 * block)`` — numpy
fills arrays by repeatedly invoking the same per-value ziggurat draw,
so a block draw consumes the stream identically to ``3 * block`` scalar
draws.  Row ``k`` of the reshaped block is exactly the (price,
placement, frequency) triple the scalar path would have drawn on step
``k``, and the vectorized arithmetic mirrors the scalar expressions'
association order, so same-seed traces are identical across both paths
and paired-comparison experiments are unaffected.

History recording is chunked: the lattice appends each step's values
into preallocated 2-D pending buffers (one column write per observable)
and flushes them into per-market :class:`TraceBuffer` columns when a
chunk fills or a trace is read.  ``price_trace()`` / ``metric_history``
keep their existing row-tuple semantics on top of the buffers.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

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

    Replaces per-step ``List[Tuple]`` appends with preallocated numpy
    storage (amortised doubling), while still *reading* like the old
    tuple lists: indexing and iteration yield row tuples, equality
    compares row contents, and ``len`` counts rows.  Consumers that
    want arrays use :meth:`column`.

    The buffer is the backing store for ``SpotPriceProcess.history``
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

    def append(self, row: Sequence[float]) -> None:
        """Append one row (tuple-compatible with ``list.append``)."""
        self._reserve(1)
        self._data[self._len] = row
        self._len += 1

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

    On construction the lattice *adopts* the markets: their live state
    moves into contiguous arrays (each market's observable properties
    transparently read its lattice slot), and subsequent stepping must
    go through :meth:`step` / :meth:`warmup` — a scalar
    ``SpotMarket.step`` on an adopted market raises, because it would
    draw from an RNG stream the lattice has already prefetched.

    Args:
        markets: The markets to adopt (order fixes lattice indices).
        noise_block: Steps of per-market noise to prefetch at a time.
        history_chunk: Steps buffered before flushing history to the
            per-market trace buffers.
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
        n = len(self.markets)
        self._noise_block = int(noise_block)
        self._history_chunk = int(history_chunk)

        def gather(read) -> np.ndarray:
            return np.array([read(market) for market in self.markets], dtype=np.float64)

        # Price-process parameters (mirrors SpotPriceProcess.step).
        self._price_mean = gather(lambda m: m.price_process.mean)
        self._price_kappa = gather(lambda m: m.price_process._kappa)
        self._price_scale = gather(
            lambda m: m.profile.spot_volatility * m.price_process.mean
        )
        self._price_floor = gather(lambda m: m.price_process._floor)
        self._price_ceil = gather(lambda m: m.price_process._od_price)
        # Bounded-walk parameters (mirrors SpotMarket.step).
        self._placement_mean = gather(lambda m: m.profile.placement_mean)
        self._placement_vol = gather(lambda m: m.profile.placement_volatility)
        self._freq_mean = gather(lambda m: m.profile.interruption_freq_pct)
        self._freq_vol = gather(lambda m: m.profile.freq_volatility)

        # Live state (adopted from the markets' scalar attributes).
        self.price = gather(lambda m: m.price_process._price)
        self.placement = gather(lambda m: m._placement)
        self.freq = gather(lambda m: m._freq)
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
            market._attach_lattice(self, index)

    def __len__(self) -> int:
        return len(self.markets)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _refill_noise(self) -> None:
        draws = self._noise_block * DRAWS_PER_STEP
        for index, market in enumerate(self.markets):
            # One block draw consumes the market's stream exactly like
            # `draws` scalar draws; row k of the reshape is step k's
            # (price, placement, freq) triple in scalar draw order.
            self._noise[index] = market._rng.standard_normal(draws).reshape(
                self._noise_block, DRAWS_PER_STEP
            )
        self._noise_cursor = 0

    def step(self, now: float) -> None:
        """Advance every market one interval, bit-equal to scalar steps."""
        if self._noise is None:
            raise RuntimeError("the lattice was released and can no longer step")
        if self._noise_cursor == self._noise_block:
            self._refill_noise()
        noise = self._noise[:, self._noise_cursor, :]
        self._noise_cursor += 1

        # Expressions mirror the scalar paths' association order so the
        # float64 arithmetic is bit-identical.
        price = self.price
        price = price + self._price_kappa * (self._price_mean - price) + (
            self._price_scale * noise[:, 0]
        )
        np.clip(price, self._price_floor, self._price_ceil, out=price)
        self.price = price

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

        Matches ``SpotMarket.warmup`` timing: the markets share one
        step interval and step at ``start_time + (i + 1) * interval``.
        """
        intervals = {market.step_interval for market in self.markets}
        if len(intervals) != 1:
            raise ValueError("lattice warmup needs a uniform step interval")
        interval = intervals.pop()
        for i in range(steps):
            self.step(start_time + (i + 1) * interval)

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
            market.price_process.history.extend_columns(
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
            market.price_process.history.clear()
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

    # ------------------------------------------------------------------
    # Detach
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Write state back into the markets and release them.

        After detaching, markets step scalar again (their RNG streams
        resume wherever the lattice's prefetch left them, so a detached
        market stays self-consistent but is no longer step-for-step
        comparable with a never-attached one).
        """
        self.flush()
        for index, market in enumerate(self.markets):
            market.price_process._price = float(self.price[index])
            market._placement = float(self.placement[index])
            market._freq = float(self.freq[index])
            market._detach_lattice()


__all__ = [
    "FREQ_MAX",
    "FREQ_MIN",
    "MarketLattice",
    "PLACEMENT_MAX",
    "PLACEMENT_MIN",
    "TraceBuffer",
    "WALK_REVERSION",
]
