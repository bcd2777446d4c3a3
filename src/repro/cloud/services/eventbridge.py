"""Simulated Amazon EventBridge.

A single default bus carries structured events.  Rules match on
``source`` and ``detail-type`` (optionally on flat detail fields) and
deliver to targets — plain callables or registered Lambda functions —
after a small delivery latency, mirroring how the paper wires spot
interruption warnings to its interruption-handler Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cloud.retry import RetryPolicy, retry_or_dead_letter
from repro.obs.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

Target = Callable[[Dict[str, Any]], Any]

#: Seconds between an event being put and targets receiving it.
DELIVERY_LATENCY = 0.5

#: Redelivery schedule for deliveries dropped by chaos injection; past
#: ``max_attempts`` the event is dead-lettered (and a periodic sweep
#: reconciles any control-plane state the lost event should have moved).
REDELIVERY_POLICY = RetryPolicy(max_attempts=4, interval=15.0, backoff_rate=2.0, jitter=0.5)


@dataclass
class Rule:
    """An EventBridge rule.

    Attributes:
        name: Rule name (unique per bus).
        source: Required event source, e.g. ``"aws.ec2"``.
        detail_type: Required detail-type string.
        detail_filter: Optional exact-match constraints on detail fields.
        targets: Callables invoked with the full event dict.
        enabled: Disabled rules match nothing.
    """

    name: str
    source: str
    detail_type: str
    detail_filter: Dict[str, Any] = field(default_factory=dict)
    targets: List[Target] = field(default_factory=list)
    enabled: bool = True

    def matches(self, event: Dict[str, Any]) -> bool:
        """Whether *event* satisfies this rule's pattern."""
        if not self.enabled:
            return False
        if event.get("source") != self.source:
            return False
        if event.get("detail-type") != self.detail_type:
            return False
        detail = event.get("detail", {})
        return all(detail.get(key) == value for key, value in self.detail_filter.items())


class EventBridgeService:
    """The default event bus plus its rules."""

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._engine = provider.engine
        self._rules: Dict[str, Rule] = {}
        self.delivered_count = 0
        self.dead_letter_count = 0
        self.event_log: List[Dict[str, Any]] = []

    def put_rule(
        self,
        name: str,
        source: str,
        detail_type: str,
        detail_filter: Optional[Dict[str, Any]] = None,
    ) -> Rule:
        """Create (or replace) a rule and return it."""
        rule = Rule(
            name=name,
            source=source,
            detail_type=detail_type,
            detail_filter=dict(detail_filter or {}),
        )
        self._rules[name] = rule
        return rule

    def add_target(self, rule_name: str, target: Target) -> None:
        """Attach a target callable to an existing rule."""
        self._rules[rule_name].targets.append(target)

    def disable_rule(self, rule_name: str) -> None:
        """Disable a rule; its targets stop receiving events."""
        self._rules[rule_name].enabled = False

    def enable_rule(self, rule_name: str) -> None:
        """Re-enable a disabled rule."""
        self._rules[rule_name].enabled = True

    def put_event(
        self,
        source: str,
        detail_type: str,
        detail: Optional[Dict[str, Any]] = None,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        """Publish an event; matching targets fire after the latency.

        Args:
            trace: Optional causal-trace context of the publisher;
                delivery hops (including redeliveries and drops)
                parent under it when tracing is enabled.
        """
        event = {
            "source": source,
            "detail-type": detail_type,
            "detail": dict(detail or {}),
            "time": self._engine.now,
        }
        self.event_log.append(event)
        for rule in list(self._rules.values()):
            if not rule.matches(event):
                continue
            for target in list(rule.targets):
                self._dispatch(rule.name, target, event, 1, DELIVERY_LATENCY, trace)
        return event

    def _dispatch(
        self,
        rule_name: str,
        target: Target,
        event: Dict[str, Any],
        attempt: int,
        delay: float,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Schedule delivery attempt *attempt* (1 = the original put) after *delay*."""
        chaos = self._provider.chaos
        if chaos is not None:
            delay += chaos.eventbridge_extra_delay(rule_name)
        self._engine.call_in(
            delay,
            lambda: self._deliver(
                target, event, rule_name=rule_name, attempt=attempt, trace=trace
            ),
            label=f"eventbridge:{rule_name}",
        )

    def _deliver(
        self,
        target: Target,
        event: Dict[str, Any],
        rule_name: str = "",
        attempt: int = 1,
        trace: Optional[TraceContext] = None,
    ) -> None:
        telemetry = self._provider.telemetry
        tracer = telemetry.tracer
        chaos = self._provider.chaos
        if chaos is not None and chaos.eventbridge_dropped(rule_name):
            scope = f"eventbridge:{rule_name}"
            delay = retry_or_dead_letter(
                self._provider,
                REDELIVERY_POLICY,
                attempt,
                RuntimeError("delivery dropped"),
                scope,
                "delivery dropped",
                leg=(scope, "eventbridge") if trace is not None else None,
                status="dropped",
                parent=trace,
            )
            if delay is None:
                self.dead_letter_count += 1
            else:
                self._dispatch(rule_name, target, event, attempt + 1, delay, trace)
            return
        self.delivered_count += 1
        telemetry.metrics.counter(
            "eventbridge_deliveries_total", "EventBridge target deliveries"
        ).inc(rule=rule_name or "unnamed")
        if tracer is not None and trace is not None:
            with tracer.hop(
                f"eventbridge:{rule_name}",
                "eventbridge",
                parent=trace,
                attempt=attempt,
            ):
                target(event)
            return
        target(event)

    def rules(self) -> List[Rule]:
        """Return all rules on the bus."""
        return list(self._rules.values())
