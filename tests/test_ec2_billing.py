"""EC2 billing and hazard sweep: the columnar sweep against a per-instance reference.

The reference below is the per-instance formulation the columnar sweep
replaced: walk the live instances in launch order, bill each one with a
scalar ``price * dt / HOUR`` posted through ``CostLedger.charge``, and
draw one ``rng.random()`` per running spot instance.  Both run on twin
providers driven by the same randomised script; after every tick every
total, every instance bill, the ``cost_accrued_usd`` series, the
interruption log and the "ec2" stream state must be equal with ``==``.
"""

import dataclasses
import random
import types
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos.invariants import NoBillingPastEndCheck, RunContext
from repro.cloud.billing import CostCategory, CostLedger
from repro.cloud.interruptions import EVALUATION_INTERVAL, interruption_probability
from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import InstanceLifecycle, InstanceState
from repro.sim.clock import HOUR

REGIONS = ("us-east-1", "us-west-2", "eu-west-1")
TYPES = ("m5.xlarge", "c5.large")


# ----------------------------------------------------------------------
# The per-instance reference
# ----------------------------------------------------------------------
def _reference_bill(ec2, instance, now):
    columns = ec2._columns
    row = instance._row
    dt = now - float(columns.last_billed[row])
    if dt <= 0:
        return
    if instance.lifecycle is InstanceLifecycle.SPOT:
        price = ec2._provider.market(instance.region, instance.instance_type).spot_price
        category = CostCategory.SPOT_INSTANCE
    else:
        price = ec2._provider.price_book.od_price(instance.region, instance.instance_type)
        category = CostCategory.ON_DEMAND_INSTANCE
    amount = price * dt / HOUR
    columns.cost[row] = float(columns.cost[row]) + amount
    columns.last_billed[row] = now
    ec2._telemetry.metrics.counter("cost_accrued_usd").inc(
        amount, region=instance.region, purchasing_option=instance.lifecycle.value
    )
    ec2._provider.ledger.charge(
        time=now,
        category=category,
        amount=amount,
        region=instance.region,
        tag=instance.tag,
        detail=f"{instance.instance_type} {instance.instance_id}",
    )


def _reference_accrue(ec2, rows, now):
    for row in rows.tolist():
        _reference_bill(ec2, ec2._columns.instances[row], now)


def _reference_sweep(ec2):
    now = ec2._engine.now
    probabilities = {}
    for instance in [i for i in ec2._columns.instances if i is not None]:
        state = instance.state
        if state is not InstanceState.RUNNING and state is not InstanceState.INTERRUPTING:
            continue
        _reference_bill(ec2, instance, now)
        if instance.lifecycle is not InstanceLifecycle.SPOT:
            continue
        if state is InstanceState.INTERRUPTING:
            continue
        key = (instance.region, instance.instance_type)
        probability = probabilities.get(key)
        if probability is None:
            market = ec2._provider.market(*key)
            probability = probabilities[key] = interruption_probability(
                market.hazard_at(now), EVALUATION_INTERVAL
            )
        if probability > 0.0 and ec2._rng.random() < probability:
            ec2._begin_interruption(instance)


# ----------------------------------------------------------------------
# Twin providers driven by one randomised script
# ----------------------------------------------------------------------
def _provider(seed):
    provider = CloudProvider(seed=seed)
    provider.ec2._eval_task.cancel()  # the test drives the sweeps
    for i, (region, itype) in enumerate((r, t) for r in REGIONS for t in TYPES):
        market = provider.market(region, itype)
        # Hazardous markets, some with a finite pool so the fleet's own
        # footprint (which notice callbacks change) moves the hazard.
        market.profile = dataclasses.replace(
            market.profile, hazard_multiplier=4.0 + 3.0 * i, capacity=(0, 20, 50)[i % 3]
        )
    return provider


def _live(ec2):
    return [i for i in ec2._columns.instances if i is not None]


def _notice_callback(ec2, script):
    """Draws from "ec2" and ends a later instance in the middle of a sweep."""

    def callback(instance):
        ec2._rng.random()
        later = [i for i in _live(ec2) if i._row > instance._row]
        if later and script.random() < 0.7:
            ec2.terminate_instances([later[script.randrange(len(later))].instance_id])
        if script.random() < 0.5:
            ec2.run_on_demand(script.choice(REGIONS), script.choice(TYPES), tag="cb")

    return callback


def _snapshot(provider):
    ledger = provider.ledger
    ec2 = provider.ec2
    tags = sorted(ledger._total_by_tag)
    return {
        "by_category": ledger.by_category(),
        "by_region": ledger.by_region(),
        "by_tag": {tag: ledger.total_for_tag(tag) for tag in tags},
        "total": ledger.total(),
        "last_charge_time": ledger.last_charge_time,
        "instances": [
            (i.instance_id, i.state, i.end_time, i.accrued_cost) for i in ec2.describe_instances()
        ],
        "cost_accrued_usd": provider.telemetry.metrics.counter("cost_accrued_usd").series(),
        "interruption_log": list(ec2.interruption_log),
        "rng": ec2._rng.bit_generator.state,
    }


@pytest.mark.parametrize("seed", range(6))
def test_sweep_matches_per_instance_reference(seed):
    fast, slow = _provider(seed), _provider(seed)
    slow.ec2._accrue = types.MethodType(_reference_accrue, slow.ec2)
    fast_script, slow_script = random.Random(seed), random.Random(seed)
    fast.ec2.on_interruption_notice(_notice_callback(fast.ec2, fast_script))
    slow.ec2.on_interruption_notice(_notice_callback(slow.ec2, slow_script))
    plan = random.Random(1000 + seed)
    hits = 0
    buffered = 0
    for tick in range(1, 97):
        now = tick * EVALUATION_INTERVAL
        actions = []
        for _ in range(plan.randrange(4)):
            actions.append(("launch", plan.random()))
        if plan.random() < 0.3:
            actions.append(("terminate", plan.random()))
        if plan.random() < 0.05:
            actions.append(("settle", 0.0))
        for provider in (fast, slow):
            provider.engine.run_until(now - 1.0)
            for kind, draw in actions:
                if kind == "launch":
                    # A launch draws a bounded integer, which leaves half
                    # of a 64-bit draw buffered in the "ec2" stream.
                    region = REGIONS[int(draw * 97) % len(REGIONS)]
                    itype = TYPES[int(draw * 89) % len(TYPES)]
                    lifecycle = (
                        InstanceLifecycle.ON_DEMAND if draw < 0.2 else InstanceLifecycle.SPOT
                    )
                    provider.ec2._launch(region, itype, lifecycle, tag=f"w{int(draw * 13)}")
                elif kind == "terminate":
                    live = _live(provider.ec2)
                    if live:
                        provider.ec2.terminate_instances([live[int(draw * len(live))].instance_id])
                else:
                    provider.ec2.settle_billing()
            provider.engine.run_until(now)
        buffered += fast.ec2._rng.bit_generator.state["has_uint32"]
        fast.ec2._evaluate_interruptions()
        _reference_sweep(slow.ec2)
        hits = len(fast.ec2.interruption_log)
        assert _snapshot(fast) == _snapshot(slow), f"tick {tick}"
    # The script must exercise mid-sweep warnings and a buffered half draw.
    assert hits >= 10
    assert buffered >= 5
    fast.shutdown()
    slow.shutdown()
    assert _snapshot(fast) == _snapshot(slow)


def test_warning_callbacks_move_the_hazard_of_markets_not_yet_reached():
    """A market's probability is taken when the sweep first reaches it.

    The first instance is all but certain to get a warning; its callback
    ends half of a later, finite-pool market, which lowers that market's
    footprint pressure before the sweep reaches it.
    """
    twins = []
    for _ in range(2):
        provider = CloudProvider(seed=21)
        provider.ec2._eval_task.cancel()
        doomed = provider.market("us-east-1", "m5.xlarge")
        doomed.profile = dataclasses.replace(doomed.profile, hazard_multiplier=1e4)
        pooled = provider.market("us-west-2", "m5.xlarge")
        pooled.profile = dataclasses.replace(pooled.profile, hazard_multiplier=20.0, capacity=100)
        ec2 = provider.ec2
        ec2._launch("us-east-1", "m5.xlarge", InstanceLifecycle.SPOT, tag="first")
        later = [
            ec2._launch("us-west-2", "m5.xlarge", InstanceLifecycle.SPOT, tag=f"w{i}")
            for i in range(100)
        ]
        ec2.on_interruption_notice(
            lambda instance, ec2=ec2, later=later: ec2.terminate_instances(
                [i.instance_id for i in later[50:]] if instance.tag == "first" else []
            )
        )
        provider.engine.run_until(EVALUATION_INTERVAL)
        twins.append(provider)
    fast, slow = twins
    slow.ec2._accrue = types.MethodType(_reference_accrue, slow.ec2)
    fast.ec2._evaluate_interruptions()
    _reference_sweep(slow.ec2)
    assert fast.ec2.interruption_log[0][3] == "first"
    assert 1 < len(fast.ec2.interruption_log) < 51
    assert _snapshot(fast) == _snapshot(slow)


def test_rewind_keeps_buffered_half_draw():
    provider = CloudProvider(seed=3)
    ec2 = provider.ec2
    ec2._rng.integers(3)
    before = ec2._rng.bit_generator.state
    assert before["has_uint32"] == 1
    ec2._rng.random(7)
    ec2._rewind(7)
    assert ec2._rng.bit_generator.state == before


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
def test_total_is_a_left_to_right_fold():
    ledger = CostLedger()
    ledger.charge(0.0, CostCategory.LAMBDA, 1.0)
    ledger.charge(0.0, CostCategory.DYNAMODB, 1e-16)
    ledger.charge(0.0, CostCategory.CLOUDWATCH, 1e-16)
    # A compensated sum (builtin ``sum`` from Python 3.12 on) would
    # give 1.0000000000000002.
    assert ledger.total() == (1.0 + 1e-16) + 1e-16


def test_accrue_folds_like_charges_but_itemises_nothing():
    amounts = [0.1, 0.2, 0.30000000000000004, 1e-17, 7.0]
    categories = [CostCategory.SPOT_INSTANCE, CostCategory.ON_DEMAND_INSTANCE] * 2 + [
        CostCategory.SPOT_INSTANCE
    ]
    regions = ["r1", "r2", "r1", "", "r2"]
    tags = ["a", "", "a", "b", "a"]
    one_by_one, batched = CostLedger(), CostLedger()
    for category, amount, region, tag in zip(categories, amounts, regions, tags):
        one_by_one.charge(5.0, category, amount, region=region, tag=tag)
    batched.accrue(5.0, list(zip(categories, regions, tags)), amounts)
    assert batched.by_category() == one_by_one.by_category()
    assert batched.by_region() == one_by_one.by_region()
    for tag in ("a", "b", ""):
        assert batched.total_for_tag(tag) == one_by_one.total_for_tag(tag)
    assert batched.total() == one_by_one.total()
    assert batched.last_charge_time == one_by_one.last_charge_time == 5.0
    assert batched.entries == []


def test_instance_bills_are_not_itemised():
    provider = CloudProvider(seed=11)
    instance = provider.ec2.run_on_demand("us-east-1", "m5.xlarge", tag="w1")
    provider.engine.run_until(2 * HOUR)
    provider.ec2.terminate_instances([instance.instance_id])
    ledger = provider.ledger
    assert ledger.total(CostCategory.ON_DEMAND_INSTANCE) == instance.accrued_cost > 0.0
    assert ledger.total_for_tag("w1") == instance.accrued_cost
    assert all(
        entry.category is not CostCategory.ON_DEMAND_INSTANCE for entry in ledger.entries
    )
    assert ledger.last_charge_time == 2 * HOUR


# ----------------------------------------------------------------------
# NoBillingPastEndCheck
# ----------------------------------------------------------------------
def _billing_context(provider, ended_at):
    result = SimpleNamespace(ended_at=ended_at)
    return RunContext(provider=provider, store=None, result=result, workloads=())


def test_no_billing_past_end_passes_when_charges_stop_in_time():
    provider = CloudProvider(seed=2)
    check = NoBillingPastEndCheck()
    assert check.finalize(_billing_context(provider, 0.0)) == []
    provider.ledger.charge(100.0, CostCategory.LAMBDA, 0.01)
    assert check.finalize(_billing_context(provider, 100.0)) == []


def test_no_billing_past_end_reports_a_late_request_charge():
    provider = CloudProvider(seed=2)
    provider.ledger.charge(50.0, CostCategory.LAMBDA, 0.01)
    provider.ledger.charge(250.0, CostCategory.DYNAMODB, 0.0)
    problems = NoBillingPastEndCheck().finalize(_billing_context(provider, 200.0))
    assert problems == ["charge posted at t=250 (run ended t=200)"]


def test_no_billing_past_end_reports_late_compute_time():
    provider = CloudProvider(seed=2)
    provider.ec2.run_on_demand("us-east-1", "m5.large", tag="w")
    provider.engine.run_until(HOUR)
    provider.ec2.settle_billing()
    check = NoBillingPastEndCheck()
    assert check.finalize(_billing_context(provider, HOUR)) == []
    assert len(check.finalize(_billing_context(provider, HOUR - 1.0))) == 1


# ----------------------------------------------------------------------
# Shutdown releases the lattice's scratch buffers
# ----------------------------------------------------------------------
def test_price_trace_survives_shutdown():
    released, kept = CloudProvider(seed=9), CloudProvider(seed=9)
    for provider in (released, kept):
        provider.engine.run_until(300 * HOUR)  # history grows past its first capacity
    released.shutdown()
    lattice = released.lattice
    assert lattice._noise is None
    for market in kept.lattice.markets:
        mine = released.market(market.region, market.instance_type)
        assert len(mine.price_trace()) == 300
        assert list(mine.price_trace()) == list(market.price_trace())
        assert list(mine.metric_history) == list(market.metric_history)
    with pytest.raises(RuntimeError):
        lattice.step(301 * HOUR)
    assert np.isfinite(lattice.price).all()
