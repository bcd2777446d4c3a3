"""The chaos controller: deterministic fault windows over the substrates.

:class:`ChaosController` turns a :class:`~repro.chaos.campaign.CampaignSpec`
into live fault windows scheduled on the simulation engine.  Substrates
never see the campaign — they ask the controller yes/no questions
("should this put_item throttle?") at each injection point, and the
controller answers from the window state plus a per-injection RNG
stream (``chaos:<label>``) derived from the engine's master seed.

Determinism properties:

* With no controller attached (``provider.chaos is None``) substrates
  skip every hook: zero draws, zero charges, zero behaviour change.
* With a controller attached but no window active, gates return early
  without touching any RNG — an empty campaign is behaviourally
  identical to no campaign.
* Each injection draws from its own named stream, so two windows never
  interleave draws and replay is stable under campaign edits that
  don't touch a window's label or decision sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.chaos.campaign import CampaignSpec, Injection
from repro.errors import ChaosError
from repro.obs.events import EVENT_TYPES_BY_VALUE, EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.sim.events import Event


class _Window:
    """One armed injection: its schedule state and lazy RNG stream."""

    def __init__(self, controller: "ChaosController", injection: Injection, index: int) -> None:
        self._controller = controller
        self.injection = injection
        self.label = injection.label or f"{injection.kind}#{index}"
        self.active = False
        self._rng = None

    @property
    def rng(self):
        """The window's dedicated RNG stream (created on first draw)."""
        if self._rng is None:
            self._rng = self._controller.engine.streams.get(f"chaos:{self.label}")
        return self._rng

    def roll(self) -> bool:
        """One fault decision at the injection's rate."""
        rate = self.injection.rate
        if rate >= 1.0:
            return True
        return float(self.rng.random()) < rate


class ChaosController:
    """Schedules a campaign's fault windows and answers substrate gates."""

    def __init__(self, provider: "CloudProvider", campaign: CampaignSpec) -> None:
        self._provider = provider
        self.engine = provider.engine
        self._telemetry = provider.telemetry
        self.campaign = campaign
        self._windows: List[_Window] = []
        self._active: List[_Window] = []
        self._blackouts: Dict[str, int] = {}
        #: Pending window opens/closes and trigger watches (for deactivate).
        self._scheduled: List["Event"] = []
        self._watches: List[Callable[[], None]] = []
        self._installed = False
        self._retry_rng = None
        #: Corrupted variant per source body, keyed by identity (the
        #: entry pins the source, so its id stays unique).  Stored bodies
        #: are the checkpoint backends' shared per-size buffers, so this
        #: holds one variant per distinct size for the controller's run.
        self._corrupted: Dict[int, Tuple[bytes, bytes]] = {}
        self.started_at = 0.0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach to the provider and schedule every injection.

        ``controller-kill`` injections are process-level faults executed
        by the chaos runner, not the substrates; they are ignored here.
        """
        if self._installed:
            raise ChaosError("chaos controller already installed")
        self._installed = True
        self._provider.attach_chaos(self)
        # Injection offsets are relative to campaign start — the moment
        # of installation — so the same campaign means the same thing
        # regardless of how long market warmup ran beforehand.
        self.started_at = self.engine.now
        for index, injection in enumerate(self.campaign.injections):
            if injection.kind == "controller-kill":
                continue
            window = _Window(self, injection, index)
            self._windows.append(window)
            if injection.trigger is not None:
                self._arm_trigger(window)
            else:
                self._schedule(self.started_at + injection.at, "open", window)

    def _schedule(self, at: float, step: str, window: _Window) -> None:
        action = self._open if step == "open" else self._close
        self._scheduled.append(
            self.engine.call_at(
                at, lambda: action(window), label=f"chaos:{step}:{window.label}"
            )
        )

    def deactivate(self) -> None:
        """End the campaign: close every open window, inject nothing more.

        Pending window opens/closes are cancelled and trigger watches
        dropped, so no ``chaos.window_*`` event follows, however long
        the engine keeps running.  The runner calls this once the fleet
        result is built, so post-run analysis (invariant reads over the
        state store, scorecard assembly) executes fault-free even when
        a window's duration outlasts the run itself.
        """
        for event in self._scheduled:
            event.cancel()
        for unsubscribe in self._watches:
            unsubscribe()
        self._scheduled.clear()
        self._watches.clear()
        for window in self._windows:
            window.active = False
        self._active.clear()
        self._blackouts.clear()

    def _arm_trigger(self, window: _Window) -> None:
        trigger = window.injection.trigger
        event_type = EVENT_TYPES_BY_VALUE.get(trigger)
        if event_type is None:
            raise ChaosError(f"unknown trigger event type {trigger!r}")
        state = {"seen": 0}

        def on_event(event) -> None:
            state["seen"] += 1
            if state["seen"] != window.injection.trigger_count:
                return
            unsubscribe()
            self._schedule(self.engine.now + window.injection.at, "open", window)

        unsubscribe = self._telemetry.bus.subscribe(on_event, types=(event_type,))
        self._watches.append(unsubscribe)

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def _open(self, window: _Window) -> None:
        injection = window.injection
        self._telemetry.bus.emit(
            EventType.CHAOS_WINDOW_OPENED,
            region=injection.region or "",
            kind=injection.kind,
            label=window.label,
            rate=injection.rate,
            duration=injection.duration,
        )
        if injection.kind == "reclaim-storm":
            self._storm(window)
            self._emit_closed(window)
            return
        window.active = True
        self._active.append(window)
        if injection.kind == "region-blackout":
            self._blackouts[injection.region] = self._blackouts.get(injection.region, 0) + 1
            reclaimed = self._provider.ec2.force_interruptions(regions=(injection.region,))
            self._note_fault(injection.kind, f"reclaimed {reclaimed} instances", injection.region)
        if injection.duration > 0.0:
            self._schedule(self.engine.now + injection.duration, "close", window)

    def _close(self, window: _Window) -> None:
        if not window.active:
            return
        window.active = False
        self._active.remove(window)
        injection = window.injection
        if injection.kind == "region-blackout":
            remaining = self._blackouts.get(injection.region, 1) - 1
            if remaining <= 0:
                self._blackouts.pop(injection.region, None)
            else:
                self._blackouts[injection.region] = remaining
        self._emit_closed(window)

    def _emit_closed(self, window: _Window) -> None:
        self._telemetry.bus.emit(
            EventType.CHAOS_WINDOW_CLOSED,
            region=window.injection.region or "",
            kind=window.injection.kind,
            label=window.label,
        )

    def _storm(self, window: _Window) -> None:
        injection = window.injection
        reclaimed = self._provider.ec2.force_interruptions(
            regions=injection.regions,
            fraction=injection.rate,
            rng=window.rng,
        )
        self._note_fault(injection.kind, f"reclaimed {reclaimed} instances")

    def _note_fault(self, kind: str, scope: str, region: str = "") -> None:
        self._telemetry.bus.emit(
            EventType.CHAOS_FAULT_INJECTED, region=region, kind=kind, scope=scope
        )
        self._telemetry.metrics.counter(
            "chaos_faults_total", "faults injected by the chaos controller"
        ).inc(kind=kind)

    def _decide(self, kind: str, scope: str, region: str = "") -> bool:
        """Roll every active window of *kind*; emit on the first hit."""
        for window in self._active:
            if window.injection.kind != kind:
                continue
            if window.roll():
                self._note_fault(kind, scope, region)
                return True
        return False

    # ------------------------------------------------------------------
    # Substrate gates
    # ------------------------------------------------------------------
    @property
    def retry_rng(self):
        """Shared stream for client-side retry jitter."""
        if self._retry_rng is None:
            self._retry_rng = self.engine.streams.get("chaos:retry")
        return self._retry_rng

    def region_blacked_out(self, region: str) -> bool:
        """Whether spot capacity in *region* is currently blacked out."""
        return region in self._blackouts

    def ec2_request_fault(self, region: str) -> bool:
        """Whether this spot request should be rejected at the API."""
        return self._decide("ec2-request-error", "ec2:request_spot_instances", region)

    def dynamodb_fault(self, op: str, conditional: bool) -> Optional[str]:
        """Fault verdict for one DynamoDB item operation.

        Returns ``"throttle"``, ``"conditional-check"`` (conditional
        writes only), or ``None``.
        """
        if self._decide("dynamodb-throttle", f"dynamodb:{op}"):
            return "throttle"
        if conditional and self._decide("dynamodb-conditional", f"dynamodb:{op}"):
            return "conditional-check"
        return None

    def lambda_fault(self, function_name: str) -> bool:
        """Whether this Lambda invocation should crash."""
        return self._decide("lambda-error", f"lambda:{function_name}")

    def eventbridge_extra_delay(self, rule_name: str) -> float:
        """Extra delivery latency (seconds) for one rule delivery."""
        for window in self._active:
            if window.injection.kind != "eventbridge-delay":
                continue
            if window.roll():
                self._note_fault("eventbridge-delay", f"eventbridge:{rule_name}")
                return window.injection.delay
        return 0.0

    def eventbridge_dropped(self, rule_name: str) -> bool:
        """Whether this delivery attempt is dropped."""
        return self._decide("eventbridge-drop", f"eventbridge:{rule_name}")

    def checkpoint_write_fault(self, service: str, key: str) -> bool:
        """Whether this checkpoint-artifact write fails transiently."""
        if not key.startswith("checkpoints/"):
            return False
        return self._decide("checkpoint-write-error", f"{service}:{key}")

    def corrupt_checkpoint(self, service: str, key: str, body: bytes) -> Optional[bytes]:
        """Corrupted replacement for a stored artifact, or ``None``.

        Corruption truncates the payload and flips its first byte, so
        both length and content checks can catch it; an empty payload
        becomes the single byte ``0xFF``.  Every corruption of the same
        *body* object returns the same (immutable) replacement.
        """
        if not key.startswith("checkpoints/"):
            return None
        for window in self._active:
            if window.injection.kind != "checkpoint-corruption":
                continue
            if window.roll():
                self._note_fault("checkpoint-corruption", f"{service}:{key}")
                cached = self._corrupted.get(id(body))
                if cached is None:
                    truncated = bytearray(body[: max(1, len(body) // 2)] or b"\x00")
                    truncated[0] ^= 0xFF
                    cached = self._corrupted[id(body)] = (body, bytes(truncated))
                return cached[1]
        return None
