"""Sim-time metrics registry: counters, gauges, histograms.

Components update named, labelled instruments directly —
``metrics.counter("interruptions_total").inc(region="eu-west-1")`` —
instead of growing ad-hoc attributes, so every number a report quotes
has one canonical source.  Values are keyed by sorted label tuples the
way Prometheus keys series, and :meth:`MetricsRegistry.collect`
flattens everything into plain samples for export.

No wall-clock enters here: instruments are driven by components that
already live on the sim clock, which keeps runs bit-deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    # Most series carry no label or one: skip the generator and sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Sample:
    """One exported datum: ``name{labels} = value``."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: LabelKey
    value: float
    #: Histogram-only companions (count for sum samples).
    count: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used by the JSONL export)."""
        record: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.count is not None:
            record["count"] = self.count
        return record


class Counter:
    """Monotonically increasing, labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add *amount* to the series selected by *labels*."""
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    @staticmethod
    def series_key(**labels: str) -> LabelKey:
        """The key of the series *labels* select, for :meth:`add_each`."""
        return _label_key(labels)

    def add_each(self, keys: Sequence[LabelKey], amounts: Sequence[float]) -> None:
        """Add ``amounts[i]`` to series ``keys[i]``, one by one in order.

        The batched form of :meth:`inc` for hot loops (per-instance
        billing): keys are pre-resolved with :meth:`series_key`, and
        each series sums exactly as the same ``inc`` calls would.
        Amounts must be non-negative.
        """
        values = self._values
        for key, amount in zip(keys, amounts):
            values[key] = values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelled series."""
        return sum(self._values.values())

    def series(self) -> Dict[LabelKey, float]:
        """All labelled series, keyed by sorted label tuples."""
        return dict(self._values)

    def samples(self) -> List[Sample]:
        """Flatten into export samples."""
        return [
            Sample(name=self.name, kind=self.kind, labels=key, value=value)
            for key, value in sorted(self._values.items())
        ]


class Gauge:
    """Labelled gauge: a value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to *value*."""
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        """Shift the labelled series by *amount* (either sign)."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value (0.0 when never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        """All labelled series."""
        return dict(self._values)

    def samples(self) -> List[Sample]:
        """Flatten into export samples."""
        return [
            Sample(name=self.name, kind=self.kind, labels=key, value=value)
            for key, value in sorted(self._values.items())
        ]


class _HistogramSeries:
    """Sorted observations for one label set (kept small: fleet-scale)."""

    __slots__ = ("values", "total")

    def __init__(self) -> None:
        self.values: List[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        bisect.insort(self.values, value)
        self.total += value


class Histogram:
    """Labelled distribution with count/sum/min/max/percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation in the labelled series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.observe(float(value))

    def count(self, **labels: str) -> int:
        """Observation count for the labelled series."""
        series = self._series.get(_label_key(labels))
        return len(series.values) if series else 0

    def sum(self, **labels: str) -> float:
        """Observation sum for the labelled series."""
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def mean(self, **labels: str) -> float:
        """Mean observation (0.0 when empty)."""
        series = self._series.get(_label_key(labels))
        if not series or not series.values:
            return 0.0
        return series.total / len(series.values)

    def percentile(self, p: float, **labels: str) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] (0.0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {p!r}")
        series = self._series.get(_label_key(labels))
        if not series or not series.values:
            return 0.0
        rank = max(0, min(len(series.values) - 1, round(p / 100.0 * (len(series.values) - 1))))
        return series.values[int(rank)]

    def samples(self) -> List[Sample]:
        """Flatten into export samples (value = sum, count alongside)."""
        return [
            Sample(
                name=self.name,
                kind=self.kind,
                labels=key,
                value=series.total,
                count=len(series.values),
            )
            for key, series in sorted(self._series.items())
        ]


class MetricsRegistry:
    """Create-once registry of named instruments.

    ``registry.counter("interruptions_total")`` returns the same
    :class:`Counter` on every call; asking for an existing name with a
    different instrument kind raises, which catches typo'd reuse early.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, cls, name: str, help: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ReproError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create the counter *name*."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get-or-create the gauge *name*."""
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get-or-create the histogram *name*."""
        return self._get(Histogram, name, help)

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def collect(self) -> List[Sample]:
        """Every labelled series across every instrument, name-sorted."""
        samples: List[Sample] = []
        for name in self.names():
            samples.extend(self._instruments[name].samples())  # type: ignore[attr-defined]
        return samples

    def render(self) -> str:
        """Prometheus-flavoured text view (debugging aid)."""
        lines = []
        for sample in self.collect():
            labels = ",".join(f'{k}="{v}"' for k, v in sample.labels)
            label_part = f"{{{labels}}}" if labels else ""
            if sample.count is not None:
                lines.append(f"{sample.name}_count{label_part} {sample.count}")
                lines.append(f"{sample.name}_sum{label_part} {sample.value:g}")
            else:
                lines.append(f"{sample.name}{label_part} {sample.value:g}")
        return "\n".join(lines)

    #: Quantiles the exposition publishes per histogram series.
    EXPOSITION_QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def exposition(self) -> str:
        """Prometheus text exposition format (``# HELP``/``# TYPE`` + series).

        Counters and gauges export as-is; histograms export as
        Prometheus *summaries* — per-series ``{quantile="..."}`` lines
        (nearest-rank over the raw observations) plus ``_sum`` and
        ``_count``.  This is the payload the upcoming ``spotverse
        serve`` mode will put behind ``/metrics``.
        """
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            kind = instrument.kind  # type: ignore[attr-defined]
            help_text = getattr(instrument, "help", "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {'summary' if kind == 'histogram' else kind}")
            if kind == "histogram":
                for key, series in sorted(instrument._series.items()):  # type: ignore[attr-defined]
                    base = ",".join(f'{k}="{v}"' for k, v in key)
                    n = len(series.values)
                    for quantile in self.EXPOSITION_QUANTILES:
                        rank = max(0, min(n - 1, round(quantile * (n - 1)))) if n else 0
                        value = series.values[rank] if n else 0.0
                        joined = f'{base},quantile="{quantile:g}"' if base else f'quantile="{quantile:g}"'
                        lines.append(f"{name}{{{joined}}} {value:g}")
                    label_part = f"{{{base}}}" if base else ""
                    lines.append(f"{name}_sum{label_part} {series.total:g}")
                    lines.append(f"{name}_count{label_part} {n}")
            else:
                for key, value in sorted(instrument.series().items()):  # type: ignore[attr-defined]
                    base = ",".join(f'{k}="{v}"' for k, v in key)
                    label_part = f"{{{base}}}" if base else ""
                    lines.append(f"{name}{label_part} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
