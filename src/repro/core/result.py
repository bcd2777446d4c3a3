"""Fleet execution records and aggregate results."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import HOUR, format_duration
from repro.workloads.base import WorkloadKind


@dataclass
class WorkloadRecord:
    """Everything measured about one workload's run.

    Attributes:
        workload_id: The workload's id.
        kind: Standard or checkpoint semantics.
        submitted_at: Virtual submission time.
        completed_at: Virtual completion time (None if unfinished).
        interruptions: ``(time, region)`` per interruption suffered.
        regions: Regions visited, in order (repeats allowed).
        attempt_starts: Virtual time each attempt's instance attached
            (parallel to *regions*).
        attempts: Instances that ran (>= 1 once started).
        on_demand_attempts: How many attempts used on-demand capacity.
        cost: USD attributed to this workload (instances + tagged
            transfers).
    """

    workload_id: str
    kind: WorkloadKind
    submitted_at: float = 0.0
    completed_at: Optional[float] = None
    interruptions: List[Tuple[float, str]] = field(default_factory=list)
    regions: List[str] = field(default_factory=list)
    attempt_starts: List[float] = field(default_factory=list)
    attempts: int = 0
    on_demand_attempts: int = 0
    cost: float = 0.0

    @property
    def completed(self) -> bool:
        """Whether the workload finished."""
        return self.completed_at is not None

    @property
    def n_interruptions(self) -> int:
        """Interruption count."""
        return len(self.interruptions)

    @property
    def elapsed(self) -> Optional[float]:
        """Seconds from submission to completion (None if unfinished)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    # ------------------------------------------------------------------
    # Durable form (the fleet state store keeps records in DynamoDB)
    # ------------------------------------------------------------------
    def to_item(self) -> Dict[str, object]:
        """Plain-data form for the fleet state store.

        Sequences are tuples: a stored row is an immutable snapshot,
        and tuples of floats and strings drop out of the cyclic
        garbage collector's tracking once it has seen them.
        """
        return {
            "workload_id": self.workload_id,
            "kind": self.kind._value_,
            "submitted_at": self.submitted_at,
            "completed_at": self.completed_at,
            "interruptions": tuple(self.interruptions),
            "regions": tuple(self.regions),
            "attempt_starts": tuple(self.attempt_starts),
            "attempts": self.attempts,
            "on_demand_attempts": self.on_demand_attempts,
            "cost": self.cost,
        }

    @classmethod
    def from_item(cls, item: Dict[str, object]) -> "WorkloadRecord":
        """Rebuild a record from its :meth:`to_item` form.

        Accepts tuple rows and list rows alike (older stores and JSON
        round trips hold lists).
        """
        return cls(
            workload_id=item["workload_id"],
            kind=WorkloadKind(item["kind"]),
            submitted_at=item["submitted_at"],
            completed_at=item["completed_at"],
            interruptions=[(time, region) for time, region in item["interruptions"]],
            regions=list(item["regions"]),
            attempt_starts=list(item["attempt_starts"]),
            attempts=item["attempts"],
            on_demand_attempts=item["on_demand_attempts"],
            cost=item["cost"],
        )


@dataclass
class FleetResult:
    """Aggregate outcome of one strategy running one fleet.

    Attributes:
        strategy: Policy name.
        records: Per-workload records, submission order.
        total_cost: Ledger total (instances + control-plane overhead).
        instance_cost: Spot + on-demand compute spend.
        overhead_cost: Control-plane spend (Lambda, DynamoDB, S3, ...).
        ended_at: Virtual time the run loop stopped.
    """

    strategy: str
    records: List[WorkloadRecord]
    total_cost: float
    instance_cost: float
    overhead_cost: float
    ended_at: float

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def all_complete(self) -> bool:
        """Whether every workload finished."""
        return all(record.completed for record in self.records)

    @property
    def n_complete(self) -> int:
        """Number of finished workloads."""
        return sum(1 for record in self.records if record.completed)

    @property
    def total_interruptions(self) -> int:
        """Interruptions across the fleet."""
        return sum(record.n_interruptions for record in self.records)

    @property
    def makespan(self) -> float:
        """Seconds until the *last* workload finished (the paper's
        "total completion time"); falls back to ``ended_at`` when some
        workload never finished."""
        times = [record.completed_at for record in self.records if record.completed_at]
        if not times or not self.all_complete:
            return self.ended_at
        return max(times) - min(record.submitted_at for record in self.records)

    @property
    def makespan_hours(self) -> float:
        """Makespan in hours."""
        return self.makespan / HOUR

    @property
    def mean_completion_hours(self) -> float:
        """Mean per-workload elapsed hours over finished workloads."""
        elapsed = [record.elapsed for record in self.records if record.elapsed is not None]
        if not elapsed:
            return 0.0
        return sum(elapsed) / len(elapsed) / HOUR

    # ------------------------------------------------------------------
    # Series for the paper's figures
    # ------------------------------------------------------------------
    def cumulative_interruptions(self) -> List[Tuple[float, int]]:
        """Figure 7a/7d series: ``(time, cumulative count)``."""
        times = sorted(
            time for record in self.records for time, _ in record.interruptions
        )
        return [(time, index + 1) for index, time in enumerate(times)]

    def completion_curve(self) -> List[Tuple[float, int]]:
        """Figure 7b series: ``(time, workloads finished)``."""
        times = sorted(
            record.completed_at for record in self.records if record.completed_at is not None
        )
        return [(time, index + 1) for index, time in enumerate(times)]

    def interruptions_by_region(self) -> Dict[str, int]:
        """Figure 7c series: interruption count per region."""
        counter: Counter = Counter(
            region for record in self.records for _, region in record.interruptions
        )
        return dict(counter)

    def regions_used(self) -> Dict[str, int]:
        """How many attempts ran in each region."""
        counter: Counter = Counter(
            region for record in self.records for region in record.regions
        )
        return dict(counter)

    def on_demand_share(self) -> float:
        """Fraction of attempts that used on-demand capacity."""
        attempts = sum(record.attempts for record in self.records)
        if attempts == 0:
            return 0.0
        return sum(record.on_demand_attempts for record in self.records) / attempts

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"strategy            : {self.strategy}",
            f"workloads           : {self.n_complete}/{len(self.records)} complete",
            f"interruptions       : {self.total_interruptions}",
            f"completion time     : {format_duration(self.makespan)}"
            f" ({self.makespan_hours:.2f} h)",
            f"instance cost       : ${self.instance_cost:.2f}",
            f"overhead cost       : ${self.overhead_cost:.4f}",
            f"total cost          : ${self.total_cost:.2f}",
            f"on-demand share     : {100 * self.on_demand_share():.1f}%",
        ]
        regions = self.interruptions_by_region()
        if regions:
            dist = ", ".join(
                f"{region}={count}" for region, count in sorted(regions.items())
            )
            lines.append(f"interruption regions: {dist}")
        return "\n".join(lines)
