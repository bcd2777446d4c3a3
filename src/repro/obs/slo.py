"""Sim-time latency histograms and the SLO scorecard engine.

Spot-on-style latency accounting for the paths users actually feel:

* ``submit_to_placed_seconds`` — workload submission to its first
  instance attachment,
* ``interruption_to_reacquire_seconds`` — capacity lost to capacity
  re-attached (the migration latency the paper's Section 5 plots),
* ``checkpoint_write_seconds`` — checkpoint-artifact write latency;
  nonzero only when injected faults force the asynchronous retry path
  (fault-free persists complete synchronously at zero sim latency).

All three derive from the telemetry event stream alone, so a saved
JSONL archive scores exactly like a live run.  A declarative
:class:`SLOSpec` — per-metric thresholds with objectives and the error
budgets they imply — evaluates into an :class:`SLOScorecard`
(``spotverse obs slo``, nonzero exit on breach).

The error-budget arithmetic: an objective of 0.95 tolerates 5 % of
samples beyond the threshold.  ``budget_consumed`` is the fraction of
that allowance actually spent; above 1.0 the objective is breached.
:class:`SLOBudget` keeps that count incrementally; the live plane, the
``obs watch`` dashboard and the post-run scorecard all read it, so the
three can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.events import EventType, TelemetryEvent

#: The latency families the engine derives from an event stream.
LATENCY_METRICS = (
    "submit_to_placed_seconds",
    "interruption_to_reacquire_seconds",
    "checkpoint_write_seconds",
)


class LatencyWatcher:
    """Incremental form of :func:`latency_series`.

    Feed events in emission order via :meth:`observe`; each call
    returns the ``(metric, value)`` sample the event produced (or
    ``None``) while :attr:`series` accumulates the full per-family
    sample lists.  Folding a complete stream through one watcher
    yields exactly what the batch :func:`latency_series` returns, so
    live SLO tracking and post-run scoring agree bit-for-bit.
    """

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = {name: [] for name in LATENCY_METRICS}
        self._submitted: Dict[str, float] = {}
        self._placed: Dict[str, bool] = {}

    def observe(self, event: TelemetryEvent) -> Optional[Tuple[str, float]]:
        """Fold one event; returns the new latency sample, if any."""
        sample: Optional[Tuple[str, float]] = None
        if event.type is EventType.WORKLOAD_SUBMITTED:
            self._submitted.setdefault(event.workload_id, event.time)
        elif event.type is EventType.INSTANCE_ATTACHED:
            if event.workload_id in self._submitted and not self._placed.get(
                event.workload_id
            ):
                self._placed[event.workload_id] = True
                sample = (
                    "submit_to_placed_seconds",
                    event.time - self._submitted[event.workload_id],
                )
        elif event.type is EventType.MIGRATION_COMPLETED:
            latency = event.attrs.get("latency")
            if latency is not None:
                sample = ("interruption_to_reacquire_seconds", float(latency))
        elif event.type is EventType.CHECKPOINT_PERSISTED:
            latency = event.attrs.get("latency")
            if latency is not None:
                sample = ("checkpoint_write_seconds", float(latency))
        if sample is not None:
            self.series[sample[0]].append(sample[1])
        return sample


def latency_series(events: Iterable[TelemetryEvent]) -> Dict[str, List[float]]:
    """Derive every latency family from a telemetry event stream.

    Returns a mapping of metric name to raw sim-second samples, in
    event order.  Workloads that never placed contribute nothing to
    ``submit_to_placed_seconds`` (there is no latency to report — the
    run report's completion columns already surface them).

    This is the batch fold over :class:`LatencyWatcher`.
    """
    watcher = LatencyWatcher()
    for event in events:
        watcher.observe(event)
    return watcher.series


def series_stats(values: Sequence[float]) -> Dict[str, float]:
    """count/p50/p95/max summary of one latency family."""
    if not values:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(values)
    n = len(ordered)

    def _rank(p: float) -> float:
        return ordered[max(0, min(n - 1, round(p * (n - 1))))]

    return {"count": n, "p50": _rank(0.50), "p95": _rank(0.95), "max": ordered[-1]}


@dataclass(frozen=True)
class SLOTarget:
    """One objective: a latency threshold and the fraction that must meet it.

    Attributes:
        metric: A :data:`LATENCY_METRICS` name.
        threshold: Sim seconds a sample may take and still count as good.
        objective: Required fraction of good samples (0.95 = "p95 under
            threshold" with a 5 % error budget).
        description: Optional human label for the scorecard.
    """

    metric: str
    threshold: float
    objective: float = 0.95
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective <= 1.0:
            raise ReproError(
                f"SLO objective must be in (0, 1], got {self.objective!r}"
            )
        if self.threshold < 0:
            raise ReproError(f"SLO threshold must be >= 0, got {self.threshold!r}")
        if self.metric not in LATENCY_METRICS:
            # An unknown name would score 0 samples and pass vacuously.
            raise ReproError(
                f"unknown SLO metric {self.metric!r}; known metrics: "
                + ", ".join(LATENCY_METRICS)
            )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "metric": self.metric,
            "threshold": self.threshold,
            "objective": self.objective,
        }
        if self.description:
            payload["description"] = self.description
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SLOTarget":
        return cls(
            metric=str(payload["metric"]),
            threshold=float(payload["threshold"]),  # type: ignore[arg-type]
            objective=float(payload.get("objective", 0.95)),  # type: ignore[arg-type]
            description=str(payload.get("description", "")),
        )


@dataclass(frozen=True)
class SLOSpec:
    """A named set of :class:`SLOTarget` objectives."""

    name: str
    targets: Tuple[SLOTarget, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "targets": [target.to_dict() for target in self.targets],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SLOSpec":
        targets = payload.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ReproError("SLO spec needs a non-empty 'targets' list")
        return cls(
            name=str(payload.get("name", "custom")),
            targets=tuple(SLOTarget.from_dict(target) for target in targets),
        )


def default_slo_spec() -> SLOSpec:
    """The built-in fleet SLOs (tuned to the reproduction's sim scales)."""
    return SLOSpec(
        name="spotverse-default",
        targets=(
            SLOTarget(
                metric="submit_to_placed_seconds",
                threshold=30 * 60.0,
                objective=0.95,
                description="95% of workloads placed within 30 sim-minutes",
            ),
            SLOTarget(
                metric="interruption_to_reacquire_seconds",
                threshold=45 * 60.0,
                objective=0.90,
                description="90% of migrations re-placed within 45 sim-minutes",
            ),
            SLOTarget(
                metric="checkpoint_write_seconds",
                threshold=5 * 60.0,
                objective=0.99,
                description="99% of retried checkpoint writes land within 5 sim-minutes",
            ),
        ),
    )


@dataclass
class SLOResult:
    """One target evaluated against one run's samples."""

    target: SLOTarget
    samples: int
    violations: int

    @property
    def compliance(self) -> float:
        """Fraction of samples within threshold (1.0 when empty)."""
        if self.samples == 0:
            return 1.0
        return (self.samples - self.violations) / self.samples

    @property
    def budget_consumed(self) -> float:
        """Error budget spent: 1.0 means exactly at the objective."""
        allowed = 1.0 - self.target.objective
        bad = 1.0 - self.compliance
        if allowed <= 0.0:
            return 0.0 if bad <= 0.0 else float("inf")
        return bad / allowed

    @property
    def passed(self) -> bool:
        """Whether the objective held (vacuously true with no samples)."""
        return self.compliance >= self.target.objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target.to_dict(),
            "samples": self.samples,
            "violations": self.violations,
            "compliance": round(self.compliance, 6),
            "budget_consumed": (
                round(self.budget_consumed, 6)
                if self.budget_consumed != float("inf")
                else "inf"
            ),
            "passed": self.passed,
        }


@dataclass
class SLOScorecard:
    """Every target's verdict for one run."""

    spec: SLOSpec
    results: List[SLOResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "results": [result.to_dict() for result in self.results],
            "all_passed": self.all_passed,
        }

    def render(self) -> str:
        """Human-readable scorecard table."""
        lines = [f"SLO scorecard: {self.spec.name}"]
        header = (
            f"  {'metric':<36s} {'objective':>9s} {'threshold':>10s} "
            f"{'samples':>7s} {'met':>6s} {'budget':>7s} {'verdict':>7s}"
        )
        lines.append(header)
        for result in self.results:
            target = result.target
            budget = result.budget_consumed
            budget_text = "inf" if budget == float("inf") else f"{budget:.2f}"
            lines.append(
                f"  {target.metric:<36s} {target.objective:>8.0%} "
                f"{target.threshold:>9.0f}s {result.samples:>7d} "
                f"{result.compliance:>5.0%} {budget_text:>7s} "
                f"{'PASS' if result.passed else 'FAIL':>7s}"
            )
            if not result.passed and target.description:
                lines.append(f"      breached: {target.description}")
        verdict = "all objectives met" if self.all_passed else "SLO BREACH"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


class SLOBudget:
    """Incremental error budget for every target of one :class:`SLOSpec`.

    Feed latency samples via :meth:`observe` (the ``(metric, value)``
    pairs a :class:`LatencyWatcher` yields); :meth:`results` is the
    current verdict per target.  Each target is edge-triggered:
    :meth:`observe` returns the targets a sample tipped from passing
    to failing, so a breach is reported once, not once per bad sample.
    :func:`evaluate_slo` is the batch fold over this class.
    """

    def __init__(self, spec: SLOSpec) -> None:
        self._results = [
            SLOResult(target=target, samples=0, violations=0) for target in spec.targets
        ]
        self._by_metric: Dict[str, List[SLOResult]] = {}
        for result in self._results:
            self._by_metric.setdefault(result.target.metric, []).append(result)

    def observe(self, metric: str, value: float) -> List[SLOResult]:
        """Count one sample; returns the targets it tipped into breach."""
        breached: List[SLOResult] = []
        for result in self._by_metric.get(metric, ()):
            was_passing = result.passed
            result.samples += 1
            if value > result.target.threshold:
                result.violations += 1
            if was_passing and not result.passed:
                breached.append(replace(result))
        return breached

    def results(self) -> List[SLOResult]:
        """Current per-target verdicts, in spec order."""
        return [replace(result) for result in self._results]


def evaluate_slo(
    spec: SLOSpec, series: Dict[str, Sequence[float]]
) -> SLOScorecard:
    """Score *series* (metric name -> raw samples) against *spec*."""
    budget = SLOBudget(spec)
    for metric, values in series.items():
        for value in values:
            budget.observe(metric, value)
    return SLOScorecard(spec=spec, results=budget.results())


def evaluate_slo_from_events(
    spec: Optional[SLOSpec], events: Iterable[TelemetryEvent]
) -> SLOScorecard:
    """Convenience: derive the latency series and score them."""
    return evaluate_slo(spec or default_slo_spec(), latency_series(events))
