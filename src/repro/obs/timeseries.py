"""A sim-time ring-buffer time-series store with automatic downsampling.

The market observatory samples every :class:`~repro.cloud.market.SpotMarket`
on each market step, which over a multi-day simulation would grow
without bound.  :class:`RingSeries` solves this with *resolution
halving*: each series holds at most ``capacity`` buckets; when it
fills, adjacent buckets are merged pairwise (count-weighted mean,
min/max preserved) and the series starts folding twice as many raw
samples into each new bucket.  The result is bounded memory that
always covers the full time range — recent data at fine resolution
early in a run, uniformly coarser resolution as the run stretches on.

:class:`TimeSeriesStore` keys many ring series by ``(name, labels)``
the way the metrics registry keys instruments, so one store holds
``spot_price{region="eu-west-1", instance_type="m5.xlarge"}`` next to
``hazard_per_hour{...}`` for every market in the simulation.

No wall-clock enters here and nothing in this module imports ``cloud``
— the store is written *to* by observers, keeping the layering rule
(observability watches markets, never feeds back into them) mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import LabelKey, _label_key


@dataclass
class Bucket:
    """One stored point: *count* raw samples folded into a summary.

    Attributes:
        time: Sim time of the bucket's **last** raw sample.
        value: Count-weighted mean of the folded samples.
        lo: Minimum raw sample in the bucket.
        hi: Maximum raw sample in the bucket.
        count: Number of raw samples folded in.
    """

    time: float
    value: float
    lo: float
    hi: float
    count: int = 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used by the JSONL export)."""
        return {
            "time": self.time,
            "value": self.value,
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
        }


def _merge(a: Bucket, b: Bucket) -> Bucket:
    """Fold two adjacent buckets into one (count-weighted)."""
    total = a.count + b.count
    return Bucket(
        time=b.time,
        value=(a.value * a.count + b.value * b.count) / total,
        lo=min(a.lo, b.lo),
        hi=max(a.hi, b.hi),
        count=total,
    )


class RingSeries:
    """Fixed-capacity series with automatic resolution halving.

    Args:
        capacity: Maximum stored buckets (must be an even number >= 4
            so pairwise compaction lands exactly on half capacity).

    Appending never discards data from the covered range: when the
    series is full it *compacts* — adjacent buckets merge pairwise and
    the fold stride doubles — so ``len(series) <= capacity`` always
    holds while :attr:`first_time` .. the last bucket's time still
    spans every sample ever appended.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 4 or capacity % 2 != 0:
            raise ReproError(
                f"RingSeries capacity must be an even number >= 4, got {capacity!r}"
            )
        self.capacity = capacity
        self.stride = 1  # raw samples folded into each new bucket
        self._buckets: List[Bucket] = []
        self._pending: Optional[Bucket] = None  # partial bucket being filled
        self.first_time: Optional[float] = None
        self.n_samples = 0

    def append(self, time: float, value: float) -> None:
        """Record one raw sample at sim *time*."""
        value = float(value)
        self.n_samples += 1
        if self.first_time is None:
            self.first_time = time
        pending = self._pending
        if pending is None:
            pending = Bucket(time, value, value, value)
        else:
            total = pending.count + 1
            pending.value += (value - pending.value) / total
            pending.lo = min(pending.lo, value)
            pending.hi = max(pending.hi, value)
            pending.time = time
            pending.count = total
        if pending.count < self.stride:
            self._pending = pending
            return
        self._pending = None
        buckets = self._buckets
        buckets.append(pending)
        if len(buckets) >= self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Merge adjacent buckets pairwise and double the fold stride."""
        buckets = self._buckets
        self._buckets = [
            _merge(buckets[i], buckets[i + 1]) for i in range(0, len(buckets) - 1, 2)
        ]
        if len(buckets) % 2:  # odd tail carries over unmerged
            self._buckets.append(buckets[-1])
        self.stride *= 2

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def buckets(self) -> List[Bucket]:
        """Stored buckets in time order (the partial tail included)."""
        if self._pending is not None:
            return self._buckets + [self._pending]
        return list(self._buckets)

    def __len__(self) -> int:
        return len(self._buckets) + (1 if self._pending is not None else 0)

    def latest(self) -> Optional[Bucket]:
        """The most recent bucket (None when empty)."""
        if self._pending is not None:
            return self._pending
        return self._buckets[-1] if self._buckets else None

    def values(self) -> List[float]:
        """Bucket mean values in time order."""
        return [bucket.value for bucket in self.buckets()]

    def times(self) -> List[float]:
        """Bucket times in time order."""
        return [bucket.time for bucket in self.buckets()]

    def window(self, start: float, end: float) -> List[Bucket]:
        """Buckets whose time falls in ``[start, end]``."""
        return [bucket for bucket in self.buckets() if start <= bucket.time <= end]

    def span(self) -> Tuple[float, float]:
        """``(first sample time, last bucket time)``; (0, 0) when empty."""
        last = self.latest()
        if self.first_time is None or last is None:
            return (0.0, 0.0)
        return (self.first_time, last.time)


class TimeSeriesStore:
    """Many labelled ring series, keyed like Prometheus series.

    Args:
        capacity: Per-series ring capacity.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._series: Dict[Tuple[str, LabelKey], RingSeries] = {}

    def series(self, name: str, **labels: str) -> RingSeries:
        """The series ``name{labels}``, created empty if never recorded.

        A writer that samples the same series every step resolves it
        once and appends to it directly.
        """
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = RingSeries(self.capacity)
        return series

    def record(self, name: str, time: float, value: float, **labels: str) -> None:
        """Append one sample to ``name{labels}``, creating the series."""
        self.series(name, **labels).append(time, value)

    def get(self, name: str, **labels: str) -> Optional[RingSeries]:
        """The series for ``name{labels}``, or None if never recorded."""
        return self._series.get((name, _label_key(labels)))

    def names(self) -> List[str]:
        """Distinct series names, sorted."""
        return sorted({name for name, _ in self._series})

    def keys(self) -> List[Tuple[str, LabelKey]]:
        """Every ``(name, labels)`` pair, sorted."""
        return sorted(self._series)

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values of *label* across series called *name*."""
        values = set()
        for series_name, label_key in self._series:
            if series_name != name:
                continue
            for key, value in label_key:
                if key == label:
                    values.add(value)
        return sorted(values)

    def series_for(self, name: str, **labels: str) -> List[Tuple[LabelKey, RingSeries]]:
        """Series called *name* whose labels include every given label."""
        wanted = set(_label_key(labels))
        return [
            (label_key, series)
            for (series_name, label_key), series in sorted(self._series.items())
            if series_name == name and wanted.issubset(set(label_key))
        ]

    def __len__(self) -> int:
        return len(self._series)

    def points(self) -> Iterator[Dict[str, object]]:
        """Flatten every bucket of every series for the JSONL export."""
        for (name, label_key), series in sorted(self._series.items()):
            labels = dict(label_key)
            for bucket in series.buckets():
                record: Dict[str, object] = {"name": name, "labels": labels}
                record.update(bucket.to_dict())
                yield record

    @classmethod
    def from_points(
        cls, points, capacity: int = 256
    ) -> "TimeSeriesStore":
        """Rebuild a store from exported point dicts.

        Downsampled buckets are re-appended as single samples (their
        means), so a reloaded store renders the same shapes even though
        per-bucket min/max granularity collapses to the mean.
        """
        store = cls(capacity=capacity)
        for point in points:
            store.record(
                str(point["name"]),
                float(point["time"]),
                float(point["value"]),
                **{str(k): str(v) for k, v in dict(point.get("labels", {})).items()},
            )
        return store


__all__ = ["Bucket", "RingSeries", "TimeSeriesStore"]
