"""Simulated EC2: instances, spot requests, and interruptions.

The service owns the full spot lifecycle the paper's Controller reacts
to:

* **Spot requests** are fulfilled with a probability and delay driven
  by the market's Spot Placement Score — low-score markets leave
  requests ``open``, which is exactly the condition SpotVerse's
  15-minute sweep (Section 4) exists to handle.
* **Interruptions** are sampled per running instance every
  :data:`~repro.cloud.interruptions.EVALUATION_INTERVAL` from the
  market's current hazard.  An interruption first emits a two-minute
  warning on the EventBridge bus (``aws.ec2`` /
  ``EC2 Spot Instance Interruption Warning``), then terminates the
  instance — giving workloads the checkpoint window the paper relies
  on.
* **Billing** accrues per-second at the market's current spot price
  (or the fixed on-demand price) into the provider's ledger.

Live instances keep their billing state in launch-ordered NumPy
columns (:class:`_BillingColumns`), so each hazard sweep prices every
instance with one elementwise expression and draws every hazard with
one ``Generator.random(k)`` call instead of a Python loop per instance.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cloud.billing import CostCategory
from repro.cloud.interruptions import (
    EVALUATION_INTERVAL,
    INTERRUPTION_NOTICE,
    interruption_probability,
)
from repro.errors import (
    CapacityError,
    InstanceNotFoundError,
    RequestLimitExceededError,
    SpotRequestError,
)
from repro.obs import EventType
from repro.sim.clock import HOUR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.market import SpotMarket
    from repro.cloud.provider import CloudProvider


class InstanceState(enum.Enum):
    """Lifecycle state of a simulated instance."""

    PENDING = "pending"
    RUNNING = "running"
    INTERRUPTING = "interrupting"  # two-minute notice received
    INTERRUPTED = "interrupted"
    TERMINATED = "terminated"


class InstanceLifecycle(enum.Enum):
    """Purchasing option of an instance."""

    SPOT = "spot"
    ON_DEMAND = "on-demand"


class SpotRequestState(enum.Enum):
    """State of a spot instance request."""

    OPEN = "open"
    ACTIVE = "active"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class Instance:
    """A simulated EC2 instance.

    Attributes:
        instance_id: Unique id, e.g. ``"i-000042"``.
        region: Region name.
        az: Availability-zone name.
        instance_type: Full type name.
        lifecycle: Spot or on-demand.
        launch_time: Virtual launch timestamp.
        state: Current lifecycle state.
        tag: Attribution tag (typically a workload id) used in billing.
        end_time: Termination/interruption timestamp, if ended.
        accrued_cost: USD billed so far (read-only; the itemised
            compute bill of this instance).
    """

    instance_id: str
    region: str
    az: str
    instance_type: str
    lifecycle: InstanceLifecycle
    launch_time: float
    state: InstanceState = InstanceState.RUNNING
    tag: str = ""
    end_time: Optional[float] = None
    #: While live, the billing columns and row holding this instance's
    #: billing state; the final bill is copied here when it ends.
    _columns: Optional["_BillingColumns"] = field(default=None, repr=False, compare=False)
    _row: int = field(default=-1, repr=False, compare=False)
    _final_cost: float = field(default=0.0, repr=False)

    @property
    def accrued_cost(self) -> float:
        """USD billed so far."""
        if self._columns is not None:
            return float(self._columns.cost[self._row])
        return self._final_cost

    @property
    def is_live(self) -> bool:
        """Whether the instance is still consuming (and billing) capacity."""
        return self.state in (InstanceState.RUNNING, InstanceState.INTERRUPTING)

    def uptime(self, now: float) -> float:
        """Seconds the instance has been up at *now* (or until it ended)."""
        end = self.end_time if self.end_time is not None else now
        return max(0.0, end - self.launch_time)


@dataclass
class SpotRequest:
    """A simulated spot instance request.

    Attributes:
        request_id: Unique id, e.g. ``"sir-000007"``.
        region: Target region.
        instance_type: Requested type.
        created_at: Virtual creation timestamp.
        state: Current request state.
        instance_id: Fulfilling instance id once active.
        attempts: Fulfillment attempts made (initial + sweeps).
        tag: Attribution tag propagated to the instance.
    """

    request_id: str
    region: str
    instance_type: str
    created_at: float
    state: SpotRequestState = SpotRequestState.OPEN
    instance_id: Optional[str] = None
    attempts: int = 0
    tag: str = ""


#: Signature of interruption-notice subscribers registered in code
#: (EventBridge delivery happens additionally, for rule-based wiring).
NoticeCallback = Callable[[Instance], None]

#: Row states of :class:`_BillingColumns`: an ended row is a tombstone;
#: a live row is billed by every sweep, and an at-risk row (a running
#: spot instance) also draws its hazard.  On-demand instances and spot
#: instances inside their notice window are live but not at risk.
_ENDED, _LIVE, _AT_RISK = 0, 1, 2


class _BillingColumns:
    """Billing state of the live instances, one row each, in launch order.

    Columns: last-billed time, accrued cost, price slot (one per
    (region, type, purchasing option); see ``EC2Service._slot``), row
    state (``_ENDED``, ``_LIVE`` or ``_AT_RISK``) and ledger key (cost
    category, region, tag), plus the :class:`Instance` objects.  An
    ending instance leaves a tombstone (state ``_ENDED``) so row
    numbers stay put while a sweep walks them; :meth:`compact`
    squeezes the tombstones out and keeps the launch order.
    """

    __slots__ = ("instances", "keys", "last_billed", "cost", "slot", "state", "n", "live")

    def __init__(self, capacity: int = 64) -> None:
        self.instances: List[Optional[Instance]] = []
        self.keys = np.empty(capacity, dtype=object)
        self.last_billed = np.empty(capacity)
        self.cost = np.empty(capacity)
        self.slot = np.empty(capacity, dtype=np.intp)
        self.state = np.zeros(capacity, dtype=np.int8)
        #: Rows in use (live and tombstoned) and live rows.
        self.n = 0
        self.live = 0

    def append(self, instance: Instance, slot: int, key: tuple, now: float, spot: bool) -> None:
        """Add a freshly launched instance as the last row."""
        capacity = len(self.state)
        if self.n == capacity:
            for name in ("keys", "last_billed", "cost", "slot", "state"):
                old = getattr(self, name)
                grown = np.zeros(2 * capacity, dtype=old.dtype)
                grown[:capacity] = old
                setattr(self, name, grown)
        row = self.n
        self.keys[row] = key
        self.last_billed[row] = now
        self.cost[row] = 0.0
        self.slot[row] = slot
        self.state[row] = _AT_RISK if spot else _LIVE
        self.instances.append(instance)
        instance._columns = self
        instance._row = row
        self.n += 1
        self.live += 1

    def end(self, instance: Instance) -> None:
        """Tombstone *instance*'s row and copy its final bill onto it."""
        row = instance._row
        instance._final_cost = float(self.cost[row])
        instance._columns = None
        instance._row = -1
        self.state[row] = _ENDED
        self.keys[row] = None
        self.instances[row] = None
        self.live -= 1

    def live_rows(self) -> np.ndarray:
        """Row numbers of the live rows, in order."""
        return self.state[: self.n].nonzero()[0]

    def compact(self) -> None:
        """Drop the tombstones, keeping the live rows in launch order."""
        keep = self.live_rows()
        count = len(keep)
        for column in (self.keys, self.last_billed, self.cost, self.slot, self.state):
            column[:count] = column[keep]
        self.state[count : self.n] = _ENDED
        self.keys[count : self.n] = None
        self.instances = [self.instances[row] for row in keep.tolist()]
        for row, instance in enumerate(self.instances):
            instance._row = row
        self.n = count


class EC2Service:
    """The EC2 substrate, spanning every region of the provider."""

    #: Boot delay before an on-demand instance reaches ``running``.
    ON_DEMAND_LAUNCH_DELAY = 45.0
    #: Base fulfillment delay for a spot request (seconds).
    SPOT_BASE_DELAY = 60.0
    #: Extra fulfillment delay per point of missing placement score.
    SPOT_DELAY_PER_SCORE_POINT = 25.0

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._engine = provider.engine
        self._telemetry = provider.telemetry
        self._rng = provider.engine.streams.get("ec2")
        self._instances: Dict[str, Instance] = {}
        # Billing state of the live instances, in launch order (the
        # order the hazard sweep draws in).
        self._columns = _BillingColumns()
        # Price slots, one per (region, type, purchasing option) that
        # has launched: the spot market (None for on-demand), the
        # cost_accrued_usd series, the slot's current price (the fixed
        # on-demand price, or the spot price as of the last accrual)
        # and its interruption probability in the running sweep (sweep
        # scratch, written before it is read).
        self._slot_index: Dict[Tuple[str, str, InstanceLifecycle], int] = {}
        self._slot_market: List[Optional["SpotMarket"]] = []
        self._spot_slots: List[Tuple[int, "SpotMarket"]] = []
        self._slot_price = np.empty(0)
        self._slot_probability = np.empty(0)
        self._slot_series = np.empty(0, dtype=object)
        self._cost_counter = None
        self._requests: Dict[str, SpotRequest] = {}
        self._instance_counter = itertools.count()
        self._request_counter = itertools.count()
        self._notice_callbacks: List[NoticeCallback] = []
        self.interruption_log: List[Tuple[float, str, str, str]] = []
        self._eval_task = self._engine.every(
            EVALUATION_INTERVAL, self._evaluate_interruptions, label="ec2:interruption-eval"
        )

    # ------------------------------------------------------------------
    # Launch paths
    # ------------------------------------------------------------------
    def run_on_demand(self, region: str, instance_type: str, tag: str = "") -> Instance:
        """Launch an on-demand instance immediately.

        On-demand capacity is modelled as always available (the paper's
        on-demand strategy never fails to launch).
        """
        self._provider.regions.get(region)
        self._provider.instances.get(instance_type)
        instance = self._launch(region, instance_type, InstanceLifecycle.ON_DEMAND, tag)
        self._telemetry.bus.emit(
            EventType.ON_DEMAND_LAUNCHED,
            workload_id=tag,
            region=region,
            instance_id=instance.instance_id,
            option=InstanceLifecycle.ON_DEMAND._value_,
        )
        return instance

    def request_spot_instances(
        self,
        region: str,
        instance_type: str,
        tag: str = "",
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]] = None,
    ) -> SpotRequest:
        """File a spot request; fulfillment is asynchronous.

        The request succeeds on each attempt with probability driven by
        the market's current placement score; otherwise it remains
        ``open`` for a later :meth:`retry_open_request` (the 15-minute
        sweep).  *on_fulfilled* fires when (if) an instance launches.
        """
        market = self._provider.market(region, instance_type)
        if not market.available:
            raise CapacityError(
                f"instance type {instance_type!r} is not offered in region {region!r}"
            )
        chaos = self._provider.chaos
        if chaos is not None and chaos.ec2_request_fault(region):
            raise RequestLimitExceededError(
                f"RequestSpotInstances rejected in {region!r} (injected API error)"
            )
        request = SpotRequest(
            request_id=f"sir-{next(self._request_counter):06d}",
            region=region,
            instance_type=instance_type,
            created_at=self._engine.now,
            tag=tag,
        )
        self._requests[request.request_id] = request
        self._telemetry.bus.emit(
            EventType.SPOT_REQUESTED,
            workload_id=tag,
            region=region,
            request_id=request.request_id,
            option=InstanceLifecycle.SPOT._value_,
        )
        self._telemetry.metrics.counter(
            "spot_requests_total", "spot requests filed"
        ).inc(region=region)
        self._attempt_fulfillment(request, on_fulfilled)
        return request

    def retry_open_request(
        self,
        request_id: str,
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]] = None,
    ) -> SpotRequest:
        """Retry an ``open`` request (the Controller's sweep path)."""
        request = self._requests.get(request_id)
        if request is None:
            raise SpotRequestError(f"unknown spot request {request_id!r}")
        if request.state is not SpotRequestState.OPEN:
            raise SpotRequestError(
                f"spot request {request_id!r} is {request.state.value}, not open"
            )
        self._attempt_fulfillment(request, on_fulfilled)
        return request

    def cancel_spot_request(self, request_id: str) -> None:
        """Cancel an open request; active requests are unaffected."""
        request = self._requests.get(request_id)
        if request is None:
            raise SpotRequestError(f"unknown spot request {request_id!r}")
        if request.state is SpotRequestState.OPEN:
            request.state = SpotRequestState.CANCELLED
            self._telemetry.bus.emit(
                EventType.SPOT_REQUEST_CANCELLED,
                workload_id=request.tag,
                region=request.region,
                request_id=request.request_id,
            )

    def _attempt_fulfillment(
        self,
        request: SpotRequest,
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]],
    ) -> None:
        """One fulfillment attempt: maybe schedule a launch."""
        market = self._provider.market(request.region, request.instance_type)
        request.attempts += 1
        chaos = self._provider.chaos
        if chaos is not None and chaos.region_blacked_out(request.region):
            # Region blackout: no spot capacity at all.  The request
            # stays OPEN and the controller's sweep retries it after
            # the window closes.
            return
        score = market.placement_score
        # Placement score drives launch success: score 10 ~ certain,
        # score 1 ~ coin flip.  Matches AWS guidance that higher scores
        # mean a higher likelihood the request succeeds.
        p_fulfill = min(0.98, 0.45 + 0.055 * score)
        p_fulfill *= market.fulfillment_factor()
        if market.in_reclaim_burst(self._engine.now):
            # Capacity is being reclaimed right now: almost no spare
            # capacity to fulfill new requests.  Requests stay open and
            # the controller's sweep retries after the burst passes.
            p_fulfill *= 0.15
        if self._rng.random() >= p_fulfill:
            return  # stays OPEN; the sweep will retry
        delay = self.SPOT_BASE_DELAY + float(
            self._rng.exponential(self.SPOT_DELAY_PER_SCORE_POINT * max(0.0, 10.0 - score))
        )

        def fulfill() -> None:
            if request.state is not SpotRequestState.OPEN:
                return
            fulfill_chaos = self._provider.chaos
            if fulfill_chaos is not None and fulfill_chaos.region_blacked_out(request.region):
                return  # blackout opened while the launch was in flight
            instance = self._launch(
                request.region, request.instance_type, InstanceLifecycle.SPOT, request.tag
            )
            request.state = SpotRequestState.ACTIVE
            request.instance_id = instance.instance_id
            latency = self._engine.now - request.created_at
            self._telemetry.bus.emit(
                EventType.SPOT_FULFILLED,
                workload_id=request.tag,
                region=request.region,
                instance_id=instance.instance_id,
                request_id=request.request_id,
                option=InstanceLifecycle.SPOT._value_,
                latency=latency,
                attempts=request.attempts,
            )
            self._telemetry.metrics.histogram(
                "spot_fulfillment_latency_seconds", "request-to-launch latency"
            ).observe(latency, region=request.region)
            if on_fulfilled is not None:
                on_fulfilled(request, instance)

        self._engine.call_in(delay, fulfill, label=f"ec2:fulfill:{request.request_id}")

    def _launch(
        self, region: str, instance_type: str, lifecycle: InstanceLifecycle, tag: str
    ) -> Instance:
        region_obj = self._provider.regions.get(region)
        az_index = int(self._rng.integers(len(region_obj.zones)))
        now = self._engine.now
        instance = Instance(
            instance_id=f"i-{next(self._instance_counter):06d}",
            region=region,
            az=region_obj.zones[az_index].name,
            instance_type=instance_type,
            lifecycle=lifecycle,
            launch_time=now,
            tag=tag,
        )
        slot = self._slot(region, instance_type, lifecycle)
        self._instances[instance.instance_id] = instance
        category = (
            CostCategory.SPOT_INSTANCE
            if lifecycle is InstanceLifecycle.SPOT
            else CostCategory.ON_DEMAND_INSTANCE
        )
        market = self._slot_market[slot]
        self._columns.append(instance, slot, (category, region, tag), now, market is not None)
        if market is not None:
            market.instances_running += 1
        return instance

    def _slot(self, region: str, instance_type: str, lifecycle: InstanceLifecycle) -> int:
        """The price slot of (*region*, *instance_type*, *lifecycle*)."""
        key = (region, instance_type, lifecycle)
        slot = self._slot_index.get(key)
        if slot is not None:
            return slot
        if lifecycle is InstanceLifecycle.SPOT:
            market = self._provider.market(region, instance_type)
            price = market.spot_price
        else:
            market = None
            price = self._provider.price_book.od_price(region, instance_type)
        slot = self._slot_index[key] = len(self._slot_market)
        if market is not None:
            self._spot_slots.append((slot, market))
        if self._cost_counter is None:
            self._cost_counter = self._telemetry.metrics.counter(
                "cost_accrued_usd", "instance spend by region and purchasing option"
            )
        series = self._cost_counter.series_key(region=region, purchasing_option=lifecycle._value_)
        self._slot_market.append(market)
        self._slot_price = np.append(self._slot_price, price)
        self._slot_probability = np.append(self._slot_probability, 0.0)
        self._slot_series = np.append(self._slot_series, None)
        self._slot_series[slot] = series
        return slot

    # ------------------------------------------------------------------
    # Interruption machinery
    # ------------------------------------------------------------------
    def on_interruption_notice(self, callback: NoticeCallback) -> None:
        """Subscribe to two-minute interruption warnings (code path)."""
        self._notice_callbacks.append(callback)

    def _evaluate_interruptions(self) -> None:
        """Bill every live instance and draw every running spot hazard.

        Equivalent, float for float and draw for draw, to walking the
        live instances in launch order and, per instance, billing it and
        then (running spot instances only, no draw at probability zero)
        interrupting it if ``rng.random() < probability``.  Batched:
        one ``rng.random(k)`` covers every remaining draw.  At the first
        hit the stream is stepped back to just after it, the rows up to
        and including the hit are billed, its warning is delivered
        (callbacks may end, launch or interrupt instances and draw from
        the stream), and the sweep resumes after it.  Instances
        launched during the sweep wait for the next one.

        A market's interruption probability is computed when the sweep
        first reaches one of its running spot instances, as the
        per-instance walk memoizes it; probabilities computed ahead of
        a delivered warning are recomputed after it.

        The fixed cost per sweep is a handful of NumPy calls over the
        live rows: the at-risk rows are one state comparison (the row
        state encodes "running spot"), probabilities land in a
        per-slot buffer that every sweep overwrites before reading,
        and rows are filtered for zero probability only in a sweep
        that computed one.
        """
        columns = self._columns
        if columns.n > 2 * columns.live + 64:
            columns.compact()
        now = self._engine.now
        stop = columns.n
        # Slots whose probability was computed before a delivered
        # warning and stays valid after it (the walk had reached them),
        # and whether any probability of this sweep is zero (only then
        # do rows need filtering: a row at probability zero draws
        # nothing).
        reached: Set[int] = set()
        filtered = False
        start = 0
        while start < stop:
            slots = columns.slot[start:stop]
            state = columns.state[start:stop]
            at_risk = state == _AT_RISK
            risk_slots = slots[at_risk]
            # Read after every warning: its callbacks may add slots.
            probability = self._slot_probability
            for slot in np.bincount(risk_slots).nonzero()[0].tolist():
                if slot not in reached:
                    chance = probability[slot] = interruption_probability(
                        self._slot_market[slot].hazard_at(now), EVALUATION_INTERVAL
                    )
                    if not chance > 0.0:
                        filtered = True
            chances = probability[risk_slots]
            if filtered:
                drawn = chances > 0.0
                chances = chances[drawn]
            hits = (self._rng.random(len(chances)) < chances).nonzero()[0]
            if not len(hits):
                self._accrue(start + state.nonzero()[0], now)
                return
            first = int(hits[0])
            self._rewind(len(chances) - first - 1)
            candidates = at_risk.nonzero()[0]
            if filtered:
                candidates = candidates[drawn]
            reach = int(candidates[first]) + 1
            reached.update(slots[:reach][at_risk[:reach]].tolist())
            self._accrue(start + state[:reach].nonzero()[0], now)
            self._begin_interruption(columns.instances[start + reach - 1])
            start += reach

    def _rewind(self, draws: int) -> None:
        """Step the "ec2" stream back over its last *draws* doubles.

        PCG64 state arithmetic is modulo 2**128, so advancing by
        ``-draws`` steps back.  ``advance`` also clears the 32-bit half
        a bounded ``integers`` draw may have buffered, which doubles
        never touch; it is restored, so the whole generator state is
        what it was right after the kept draws.
        """
        if draws == 0:
            return
        bit_generator = self._rng.bit_generator
        before = bit_generator.state
        bit_generator.advance(-draws % (1 << 128))
        after = bit_generator.state
        after["has_uint32"] = before["has_uint32"]
        after["uinteger"] = before["uinteger"]
        bit_generator.state = after

    def _begin_interruption(self, instance: Instance) -> None:
        """Deliver the two-minute warning and schedule the reclaim."""
        now = self._engine.now
        instance.state = InstanceState.INTERRUPTING
        self._columns.state[instance._row] = _LIVE
        self.interruption_log.append((now, instance.instance_id, instance.region, instance.tag))
        self._telemetry.bus.emit(
            EventType.INTERRUPTION_WARNING,
            workload_id=instance.tag,
            region=instance.region,
            instance_id=instance.instance_id,
            option=instance.lifecycle._value_,
            uptime=instance.uptime(now),
        )
        self._telemetry.metrics.counter(
            "interruptions_total", "two-minute interruption warnings"
        ).inc(region=instance.region)
        tracer = self._telemetry.tracer
        warn_ctx = None
        if tracer is not None:
            parent = tracer.peek(("instance", instance.instance_id))
            warn_ctx = tracer.event(
                "ec2:interruption-warning",
                "interruption",
                trace_id=instance.tag or None,
                parent=parent,
                region=instance.region,
                instance_id=instance.instance_id,
            )
        self._provider.eventbridge.put_event(
            source="aws.ec2",
            detail_type="EC2 Spot Instance Interruption Warning",
            detail={
                "instance-id": instance.instance_id,
                "instance-action": "terminate",
                "region": instance.region,
                "instance-type": instance.instance_type,
                "tag": instance.tag,
            },
            trace=warn_ctx,
        )
        for callback in list(self._notice_callbacks):
            callback(instance)
        self._engine.call_in(
            INTERRUPTION_NOTICE,
            lambda: self._finalize_interruption(instance),
            label=f"ec2:reclaim:{instance.instance_id}",
        )

    def force_interruptions(
        self,
        regions: Optional[Sequence[str]] = None,
        fraction: float = 1.0,
        rng=None,
    ) -> int:
        """Interrupt running spot instances on demand (chaos primitives).

        Region blackouts pass ``fraction=1.0`` with one region; reclaim
        storms pass a probability and their own RNG stream.  Instances
        already inside a notice window are skipped.  Iteration follows
        insertion order of the instance table, which is deterministic
        for a given seed.

        Returns:
            The number of instances that received a warning.
        """
        wanted = set(regions) if regions is not None else None
        count = 0
        for instance in [i for i in self._columns.instances if i is not None]:
            if not instance.is_live or instance.state is InstanceState.INTERRUPTING:
                continue
            if instance.lifecycle is not InstanceLifecycle.SPOT:
                continue
            if wanted is not None and instance.region not in wanted:
                continue
            if fraction < 1.0 and rng is not None and float(rng.random()) >= fraction:
                continue
            self._begin_interruption(instance)
            count += 1
        return count

    def _finalize_interruption(self, instance: Instance) -> None:
        if instance.state is not InstanceState.INTERRUPTING:
            return  # terminated during the notice window
        instance.state = InstanceState.INTERRUPTED
        self._end([instance])
        tracer = self._telemetry.tracer
        if tracer is not None:
            attach_ctx = tracer.take(("instance", instance.instance_id))
            if attach_ctx is not None:
                tracer.event(
                    "ec2:reclaim",
                    "interruption",
                    parent=attach_ctx,
                    region=instance.region,
                    instance_id=instance.instance_id,
                )
        self._telemetry.bus.emit(
            EventType.INSTANCE_RECLAIMED,
            workload_id=instance.tag,
            region=instance.region,
            instance_id=instance.instance_id,
        )

    # ------------------------------------------------------------------
    # Termination and billing
    # ------------------------------------------------------------------
    def terminate_instances(self, instance_ids: Sequence[str]) -> None:
        """Terminate instances by id (idempotent for already-ended ones).

        An unknown id raises after the ids before it were terminated.
        """
        ending: List[Instance] = []
        try:
            for instance_id in instance_ids:
                instance = self._instances.get(instance_id)
                if instance is None:
                    raise InstanceNotFoundError(f"unknown instance {instance_id!r}")
                if instance.is_live:
                    instance.state = InstanceState.TERMINATED
                    ending.append(instance)
        finally:
            self._end(ending)

    def _end(self, instances: List[Instance]) -> None:
        """Bill *instances* up to now, in order, then end them."""
        if not instances:
            return
        now = self._engine.now
        self._accrue(np.array([instance._row for instance in instances], dtype=np.intp), now)
        for instance in instances:
            instance.end_time = now
            market = self._slot_market[self._columns.slot[instance._row]]
            self._columns.end(instance)
            if market is not None:
                # Return the spot slot to its market pool.
                market.instances_running = max(0, market.instances_running - 1)

    def _accrue(self, rows: np.ndarray, now: float) -> None:
        """Bill *rows* from their last-billed time up to *now*, in order.

        The one billing path: every row with time to bill is charged
        ``price * dt / HOUR`` at its slot's current price (one
        elementwise expression, so each amount is the float a scalar
        computation gives).  Its accrued cost, the ledger totals and
        the ``cost_accrued_usd`` series then each add the amounts one
        by one in row order.
        """
        columns = self._columns
        since = columns.last_billed[rows]
        due = since < now
        rows, since = rows[due], since[due]
        if not len(rows):
            return
        prices = self._slot_price
        for slot, market in self._spot_slots:
            prices[slot] = market.spot_price
        slots = columns.slot[rows]
        amounts = prices[slots] * (now - since) / HOUR
        columns.cost[rows] = columns.cost[rows] + amounts
        columns.last_billed[rows] = now
        amount_list = amounts.tolist()
        self._provider.ledger.accrue(now, columns.keys[rows].tolist(), amount_list)
        self._cost_counter.add_each(self._slot_series[slots].tolist(), amount_list)

    def settle_billing(self) -> None:
        """Bill every live instance up to the current time."""
        self._accrue(self._columns.live_rows(), self._engine.now)

    # ------------------------------------------------------------------
    # Describe APIs
    # ------------------------------------------------------------------
    def describe_instance(self, instance_id: str) -> Instance:
        """Return the instance record for *instance_id*."""
        instance = self._instances.get(instance_id)
        if instance is None:
            raise InstanceNotFoundError(f"unknown instance {instance_id!r}")
        return instance

    def describe_instances(
        self,
        region: Optional[str] = None,
        states: Optional[Sequence[InstanceState]] = None,
    ) -> List[Instance]:
        """Return instances filtered by region and/or state."""
        result = []
        for instance in self._instances.values():
            if region is not None and instance.region != region:
                continue
            if states is not None and instance.state not in states:
                continue
            result.append(instance)
        return result

    def describe_spot_requests(
        self, states: Optional[Sequence[SpotRequestState]] = None
    ) -> List[SpotRequest]:
        """Return spot requests, optionally filtered by state."""
        if states is None:
            return list(self._requests.values())
        return [request for request in self._requests.values() if request.state in states]

    def describe_spot_price_history(
        self, region: str, instance_type: str
    ) -> Sequence[Tuple[float, float]]:
        """Return the market's recorded ``(time, price)`` series."""
        return self._provider.market(region, instance_type).price_trace()

    def interruption_count(self, tag_prefix: str = "") -> int:
        """Count logged interruptions, optionally filtered by tag prefix."""
        if not tag_prefix:
            return len(self.interruption_log)
        return sum(1 for _, _, _, tag in self.interruption_log if tag.startswith(tag_prefix))

    def shutdown(self) -> None:
        """Stop the periodic hazard evaluation (end of experiment)."""
        self._eval_task.cancel()
