"""Simulated Amazon CloudWatch.

Two capabilities the paper's Monitor depends on:

* **Custom metrics** — ``put_metric_data`` stores time-stamped points
  per (namespace, metric, dimensions); ``get_metric_statistics``
  aggregates them over a window.
* **Scheduled rules** — ``schedule_rule`` runs a target on a fixed
  period (the paper's metric collectors fire periodically, and the
  Controller's open-request sweep runs every 15 minutes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.billing import CLOUDWATCH_PUT_PRICE, CostCategory
from repro.errors import ServiceError
from repro.sim.engine import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

#: Dimensions in stored form: ``(name, value)`` pairs sorted by name.
Dims = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, str, Dims]


@dataclass
class Alarm:
    """A threshold alarm over one metric.

    The paper extends CloudWatch with "custom rules tailored for
    automated spot instance management"; alarms are the substrate for
    that: a predicate over incoming metric values that fires a target
    on the OK -> ALARM transition (and again only after recovering).

    Attributes:
        name: Alarm name (unique).
        namespace: Metric namespace watched.
        metric: Metric name watched.
        dimensions: Exact dimensions watched.
        threshold: Comparison threshold.
        comparison: ``">"``, ``">="``, ``"<"`` or ``"<="``.
        target: Callable fired with the triggering value.
        in_alarm: Current state.
        transitions: OK->ALARM transition count.
    """

    name: str
    namespace: str
    metric: str
    dimensions: Tuple[Tuple[str, str], ...]
    threshold: float
    comparison: str
    target: Callable[[float], None]
    in_alarm: bool = False
    transitions: int = 0

    def breaches(self, value: float) -> bool:
        """Whether *value* violates the threshold."""
        if self.comparison == ">":
            return value > self.threshold
        if self.comparison == ">=":
            return value >= self.threshold
        if self.comparison == "<":
            return value < self.threshold
        if self.comparison == "<=":
            return value <= self.threshold
        raise ServiceError(f"unsupported comparison {self.comparison!r}")


class CloudWatchService:
    """Metric store plus cron-style scheduled rules."""

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._engine = provider.engine
        # Points are stored as raw (time, value) tuples — one tuple
        # append per datum instead of a dataclass construction on the
        # collect hot path.
        self._metrics: Dict[MetricKey, List[Tuple[float, float]]] = {}
        self._scheduled: Dict[str, PeriodicTask] = {}
        self._alarms: Dict[str, Alarm] = {}
        # Alarms indexed by the exact metric key they watch, so each
        # incoming datum evaluates only its own watchers instead of
        # scanning every alarm (the collect hot path puts one datum per
        # market per tick).
        self._alarms_by_key: Dict[MetricKey, List[Alarm]] = {}

    @staticmethod
    def _key(namespace: str, metric: str, dimensions: Optional[Dict[str, str]]) -> MetricKey:
        dims = tuple(sorted((dimensions or {}).items()))
        return (namespace, metric, dims)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def put_metric_data(
        self,
        namespace: str,
        metric: str,
        value: float,
        dimensions: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record one datum under (namespace, metric, dimensions)."""
        self.put_metric_data_batch(namespace, [(metric, value, dimensions)])

    def put_metric_data_batch(
        self,
        namespace: str,
        data: Sequence[Tuple[str, float, Union[None, Dict[str, str], Dims]]],
    ) -> None:
        """Record several data under one namespace in a single call.

        *data* is a sequence of ``(metric, value, dimensions)`` triples
        applied in order.  Dimensions are a mapping (or ``None``), or
        already in stored form — a tuple of ``(name, value)`` pairs
        sorted by name — which a collector that publishes the same
        label sets every tick builds once.

        Each datum stores its point, runs the alarms watching its key,
        and is charged one put.  Consecutive puts of the same metric
        are posted to the ledger as one itemised run; the pending run
        is posted before any alarm evaluates (an alarm target may
        itself charge), so the ledger sees the same entries in the same
        order as one :meth:`put_metric_data` per triple.  The batch
        exists so per-tick collectors make one service call per tick
        instead of one per market.
        """
        now = self._engine.now
        metrics = self._metrics
        watched = self._alarms_by_key
        run_metric: Optional[str] = None
        run_count = 0
        try:
            for metric, value, dimensions in data:
                if type(dimensions) is not tuple:
                    dimensions = tuple(sorted(dimensions.items())) if dimensions else ()
                key = (namespace, metric, dimensions)
                value = float(value)
                points = metrics.get(key)
                if points is None:
                    points = metrics[key] = []
                points.append((now, value))
                if metric != run_metric or (watched and key in watched):
                    if run_count:
                        self._charge_puts(now, namespace, run_metric, run_count)
                    run_metric, run_count = metric, 0
                    if watched:
                        self._evaluate_alarms(key, value)
                run_count += 1
        finally:
            if run_count:
                self._charge_puts(now, namespace, run_metric, run_count)

    def _charge_puts(self, now: float, namespace: str, metric: str, count: int) -> None:
        self._provider.ledger.charge(
            time=now,
            category=CostCategory.CLOUDWATCH,
            amount=CLOUDWATCH_PUT_PRICE,
            detail=f"put-metric {namespace}/{metric}",
            count=count,
        )

    def get_metric_statistics(
        self,
        namespace: str,
        metric: str,
        dimensions: Optional[Dict[str, str]] = None,
        start_time: float = 0.0,
        end_time: Optional[float] = None,
        statistic: str = "Average",
    ) -> Optional[float]:
        """Aggregate points in ``[start_time, end_time]``.

        Returns ``None`` when no points fall in the window.  Supported
        statistics: Average, Sum, Minimum, Maximum, SampleCount, Last.
        """
        end = end_time if end_time is not None else self._engine.now
        points = [
            value
            for time, value in self._metrics.get(self._key(namespace, metric, dimensions), [])
            if start_time <= time <= end
        ]
        if not points:
            return None
        if statistic == "Average":
            return sum(points) / len(points)
        if statistic == "Sum":
            return float(sum(points))
        if statistic == "Minimum":
            return float(min(points))
        if statistic == "Maximum":
            return float(max(points))
        if statistic == "SampleCount":
            return float(len(points))
        if statistic == "Last":
            return points[-1]
        raise ServiceError(f"unsupported statistic {statistic!r}")

    def metric_series(
        self, namespace: str, metric: str, dimensions: Optional[Dict[str, str]] = None
    ) -> List[Tuple[float, float]]:
        """Return the raw ``(time, value)`` series for plotting."""
        return list(self._metrics.get(self._key(namespace, metric, dimensions), []))

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def put_alarm(
        self,
        name: str,
        namespace: str,
        metric: str,
        threshold: float,
        comparison: str,
        target: Callable[[float], None],
        dimensions: Optional[Dict[str, str]] = None,
    ) -> Alarm:
        """Create (or replace) a threshold alarm.

        The target fires once per OK -> ALARM transition with the value
        that breached; it does not re-fire until a non-breaching datum
        resets the alarm to OK.
        """
        alarm = Alarm(
            name=name,
            namespace=namespace,
            metric=metric,
            dimensions=tuple(sorted((dimensions or {}).items())),
            threshold=threshold,
            comparison=comparison,
            target=target,
        )
        alarm.breaches(0.0)  # validate the comparison operator eagerly
        self._unindex_alarm(self._alarms.get(name))
        self._alarms[name] = alarm
        key = (alarm.namespace, alarm.metric, alarm.dimensions)
        self._alarms_by_key.setdefault(key, []).append(alarm)
        return alarm

    def delete_alarm(self, name: str) -> None:
        """Remove an alarm (no-op when absent)."""
        self._unindex_alarm(self._alarms.pop(name, None))

    def _unindex_alarm(self, alarm: Optional[Alarm]) -> None:
        if alarm is None:
            return
        key = (alarm.namespace, alarm.metric, alarm.dimensions)
        watchers = self._alarms_by_key.get(key)
        if watchers is not None:
            watchers.remove(alarm)
            if not watchers:
                del self._alarms_by_key[key]

    def alarms(self) -> List[str]:
        """Active alarm names, sorted."""
        return sorted(self._alarms)

    def _evaluate_alarms(self, key: MetricKey, value: float) -> None:
        for alarm in self._alarms_by_key.get(key, ()):
            if alarm.breaches(value):
                if not alarm.in_alarm:
                    alarm.in_alarm = True
                    alarm.transitions += 1
                    alarm.target(value)
            else:
                alarm.in_alarm = False

    # ------------------------------------------------------------------
    # Scheduled rules
    # ------------------------------------------------------------------
    def schedule_rule(
        self, name: str, interval: float, target: Callable[[], None]
    ) -> PeriodicTask:
        """Run *target* every *interval* seconds until removed."""
        if name in self._scheduled:
            raise ServiceError(f"scheduled rule {name!r} already exists")
        task = self._engine.every(interval, target, label=f"cloudwatch:{name}")
        self._scheduled[name] = task
        return task

    def remove_rule(self, name: str) -> None:
        """Cancel a scheduled rule (no-op when absent)."""
        task = self._scheduled.pop(name, None)
        if task is not None:
            task.cancel()

    def remove_all_rules(self) -> None:
        """Cancel every scheduled rule (end of experiment)."""
        for name in list(self._scheduled):
            self.remove_rule(name)

    def scheduled_rules(self) -> List[str]:
        """Return active rule names, sorted."""
        return sorted(self._scheduled)
