"""Deadline-aware spot/on-demand escalation.

The paper's introduction frames the goal as an "optimal mix" of spot
and on-demand, and its related work cites *Can't Be Late* (Wu et al.,
NSDI'24), which switches jobs to on-demand when finishing on spot in
time becomes unlikely.  :class:`DeadlineAwarePolicy` brings that idea
into the SpotVerse framework: run Algorithm 1 as usual, but when an
interrupted workload's remaining slack falls below what another spot
attempt plausibly needs, escalate that workload to the cheapest
on-demand instance instead of gambling on another spot round.
"""

from __future__ import annotations


from repro.core.config import SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.policy import Placement, PolicyContext, PurchasingOption
from repro.workloads.base import Workload

#: Default deadline, as a multiple of a workload's total duration.
DEFAULT_DEADLINE_FACTOR = 1.6


class DeadlineAwarePolicy(SpotVerseOptimizer):
    """Algorithm 1 plus per-workload on-demand escalation.

    Args:
        monitor: Metric source (as for the base optimizer).
        config: SpotVerse configuration.
        deadline_factor: Each workload's deadline is
            ``deadline_factor x its total duration`` after submission.
        safety_margin: Escalate when remaining slack is below
            ``safety_margin x the workload's remaining duration`` —
            i.e. when one more interruption would likely blow the
            deadline.
    """

    name = "spotverse-deadline"

    def __init__(
        self,
        monitor: Monitor,
        config: SpotVerseConfig,
        deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
        safety_margin: float = 0.25,
    ) -> None:
        super().__init__(monitor, config)
        self._deadline_factor = deadline_factor
        self._safety_margin = safety_margin

    def deadline_for(self, workload: Workload) -> float:
        """Seconds after submission by which the workload should finish."""
        return self._deadline_factor * workload.total_duration

    def should_escalate(self, workload: Workload, ctx: PolicyContext) -> bool:
        """Whether the workload can no longer afford another spot gamble.

        A standard workload restarting now needs its full duration; the
        escalation rule requires the remaining slack to cover that plus
        the safety margin.  Without a record (policy used standalone)
        the answer is no.
        """
        record = ctx.records.get(workload.workload_id)
        if record is None:
            return False
        now = ctx.provider.engine.now
        elapsed = now - record.submitted_at
        slack = self.deadline_for(workload) - elapsed
        # Remaining compute for one more attempt: a standard workload
        # starts over; a checkpoint workload resumes (estimated at half
        # its total, since the policy cannot see segment state).
        needed = workload.total_duration
        if workload.checkpointable:
            needed = 0.5 * workload.total_duration
        return slack < (1.0 + self._safety_margin) * needed

    def migration_placement(
        self, workload: Workload, interrupted_region: str, ctx: PolicyContext
    ) -> Placement:
        """Escalate to on-demand when the deadline is at risk."""
        if self.should_escalate(workload, ctx):
            region, _ = ctx.provider.price_book.cheapest_od_region(
                self._config.instance_type
            )
            return Placement(region=region, option=PurchasingOption.ON_DEMAND)
        return super().migration_placement(workload, interrupted_region, ctx)
