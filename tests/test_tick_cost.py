"""Per-tick work posted as batches: each batch against its one-at-a-time reference.

The Monitor's collect cycle, the CloudWatch batch put and the ledger's
runs of identical charges replace per-item Python work with one call
per batch.  Each test here drives the batched path and a reference
that does the work one item at a time -- the code the batches replaced,
kept below -- and requires every itemised ledger entry, every total
(bit for bit, with its insertion order), every stored DynamoDB row
(with its key order) and every CloudWatch point to be equal.
"""

import pytest

from repro.cloud.billing import CLOUDWATCH_PUT_PRICE, CostCategory, CostLedger
from repro.cloud.provider import CloudProvider
from repro.core.monitor import METRICS_TABLE, NAMESPACE, Monitor
from repro.sim.clock import HOUR

TYPES = ("m5.xlarge", "c5.2xlarge")


def _ledger_state(ledger):
    return (
        ledger.entries,
        ledger.last_charge_time,
        list(ledger.by_category().items()),
        list(ledger.by_region().items()),
        list(ledger._total_by_tag.items()),
        ledger.total(),
    )


# ----------------------------------------------------------------------
# CostLedger.charge(count=...)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [0, 1, 7])
def test_charge_run_equals_single_charges(count):
    batched, single = CostLedger(), CostLedger()
    for ledger in (batched, single):
        # Existing totals make the fold order observable in the last bit.
        ledger.charge(time=1.0, category=CostCategory.LAMBDA, amount=0.1, region="r", tag="t")
    run = dict(
        time=2.0,
        category=CostCategory.DYNAMODB,
        amount=1.1e-6 / 3,
        region="r",
        tag="t",
        detail="batch",
    )
    batched.charge(**run, count=count)
    for _ in range(count):
        single.charge(**run)
    assert _ledger_state(batched) == _ledger_state(single)
    for a, b in zip(_ledger_state(batched)[2:], _ledger_state(single)[2:]):
        assert repr(a) == repr(b)
    assert len(batched.entries) == 1 + count


def test_charge_run_inserts_categories_in_first_charge_order():
    batched, single = CostLedger(), CostLedger()
    batched.charge(0.0, CostCategory.CLOUDWATCH, 0.3, count=2)
    batched.charge(0.0, CostCategory.DYNAMODB, 0.7, count=3)
    runs = ((CostCategory.CLOUDWATCH, 0.3, 2), (CostCategory.DYNAMODB, 0.7, 3))
    for category, amount, count in runs:
        for _ in range(count):
            single.charge(0.0, category, amount)
    assert list(batched.by_category()) == ["cloudwatch", "dynamodb"]
    assert _ledger_state(batched) == _ledger_state(single)


def test_charge_run_rejects_negative_amounts():
    with pytest.raises(ValueError):
        CostLedger().charge(0.0, CostCategory.LAMBDA, -1.0, count=3)


# ----------------------------------------------------------------------
# CloudWatch batches whose alarms charge mid-batch
# ----------------------------------------------------------------------
def _reference_put(cloudwatch, namespace, metric, value, dimensions):
    """One datum as the per-datum path did it: point, alarms, one charge."""
    key = cloudwatch._key(namespace, metric, dimensions)
    cloudwatch._metrics.setdefault(key, []).append((cloudwatch._engine.now, float(value)))
    cloudwatch._evaluate_alarms(key, float(value))
    cloudwatch._provider.ledger.charge(
        time=cloudwatch._engine.now,
        category=CostCategory.CLOUDWATCH,
        amount=CLOUDWATCH_PUT_PRICE,
        detail=f"put-metric {namespace}/{metric}",
    )


def _alarmed_provider():
    provider = CloudProvider(seed=5)
    provider.lambda_.create_function("pager", lambda event, context: None)
    fired = []

    def page(value):
        fired.append(value)
        provider.lambda_.invoke("pager")

    for region in ("r1", "r2"):
        provider.cloudwatch.put_alarm(
            f"hot-{region}",
            "NS",
            "load",
            threshold=10.0,
            comparison=">",
            target=page,
            dimensions={"region": region},
        )
    return provider, fired


def test_cloudwatch_batch_charges_in_per_datum_order():
    data = [
        ("load", 1.0, {"region": "r0"}),
        ("load", 2.0, {"region": "r0"}),
        ("load", 50.0, {"region": "r1"}),  # alarm: the target charges Lambda
        ("load", 3.0, (("region", "r0"),)),  # stored-form dimensions
        ("load", 60.0, {"region": "r2"}),  # second alarm
        ("load", 70.0, {"region": "r2"}),  # still in alarm: no charge from it
        ("depth", 4.0, None),
        ("depth", 5.0, {}),
        ("load", 5.0, {"region": "r1"}),  # recovers
    ]
    batched, batched_fired = _alarmed_provider()
    reference, reference_fired = _alarmed_provider()
    for provider in (batched, reference):
        provider.engine.run_until(HOUR)
    batched.cloudwatch.put_metric_data_batch("NS", data)
    for metric, value, dimensions in data:
        if isinstance(dimensions, tuple):
            dimensions = dict(dimensions)
        _reference_put(reference.cloudwatch, "NS", metric, value, dimensions)
    assert batched_fired == reference_fired == [50.0, 60.0]
    assert [entry.category for entry in batched.ledger.entries] == [
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
        CostCategory.LAMBDA,
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
        CostCategory.LAMBDA,
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
        CostCategory.CLOUDWATCH,
    ]
    assert _ledger_state(batched.ledger) == _ledger_state(reference.ledger)
    assert list(batched.cloudwatch._metrics.items()) == list(
        reference.cloudwatch._metrics.items()
    )


def test_cloudwatch_batch_charges_puts_before_a_failing_datum():
    provider = CloudProvider(seed=5)
    with pytest.raises(ValueError):
        provider.cloudwatch.put_metric_data_batch(
            "NS", [("m", 1.0, None), ("m", 2.0, None), ("m", "not a number", None)]
        )
    assert len(provider.ledger.entries) == 2
    assert provider.cloudwatch.metric_series("NS", "m") == [(0.0, 1.0), (0.0, 2.0)]


# ----------------------------------------------------------------------
# Monitor collect plan vs the per-market collect it replaced
# ----------------------------------------------------------------------
def _reference_collect_once(self):
    """The per-market collect loop, as it read the markets each cycle.

    Kept as it was except for the ``regions_collected`` roll-up, which
    publishes the type's own row count (the old loop published the
    count summed over every type collected so far in the cycle).
    """
    now = self._provider.engine.now
    od_price = self._provider.price_book.od_price
    written = 0
    for instance_type in self._instance_types:
        rows = []
        metric_data = []
        for market in self._provider.markets_for_type(instance_type):
            region = market.region
            frequency = market.interruption_frequency
            rows.append(
                {
                    "region": region,
                    "instance_type": instance_type,
                    "spot_price": market.spot_price,
                    "od_price": od_price(region, instance_type),
                    "placement_score": market.placement_score,
                    "interruption_frequency": frequency,
                    "collected_at": now,
                }
            )
            metric_data.append(
                (
                    "interruption_frequency",
                    frequency,
                    {"region": region, "instance_type": instance_type},
                )
            )
        written += len(rows)
        self._put_snapshot_rows(rows)
        metric_data.append(
            ("regions_collected", float(len(rows)), {"instance_type": instance_type})
        )
        self._provider.cloudwatch.put_metric_data_batch(NAMESPACE, metric_data)
    self.collections += 1
    return written


def _collected(provider):
    table = provider.dynamodb._table(METRICS_TABLE)
    rows = [(key, list(item.items())) for key, item in table.items.items()]
    return rows, list(provider.cloudwatch._metrics.items()), _ledger_state(provider.ledger)


@pytest.mark.parametrize("deploy", [False, True])
def test_monitor_plan_matches_per_market_collect(deploy, monkeypatch):
    planned, reference = CloudProvider(seed=17), CloudProvider(seed=17)
    monitors = [Monitor(provider, list(TYPES), deploy=deploy) for provider in (planned, reference)]
    monkeypatch.setattr(
        monitors[1], "_collect_once", _reference_collect_once.__get__(monitors[1])
    )
    alerts = {}
    for provider, monitor in zip((planned, reference), monitors):
        alerts[id(provider)] = []
        monitor.watch_frequency("m5.xlarge", "us-east-1", alerts[id(provider)].append, 5.0)
    if not deploy:
        # The deployed Monitor primed the table itself (before the
        # patch), so only the manual one starts from an empty table.
        markets = sum(len(planned.markets_for_type(itype)) for itype in TYPES)
        assert [monitor.collect() for monitor in monitors] == [markets, markets]
    for hour in range(1, 6):
        for provider, monitor in zip((planned, reference), monitors):
            provider.engine.run_until(hour * HOUR)
            if not deploy:
                monitor.collect()
        assert _collected(planned) == _collected(reference)
    assert alerts[id(planned)] == alerts[id(reference)]
    assert monitors[0].collections == monitors[1].collections > 5
