"""The Monitor component (Section 3.2 / Section 4).

A CloudWatch-scheduled Lambda collects, per (region, instance type):
spot price, on-demand price, Spot Placement Score, and Interruption
Frequency, writing snapshots to DynamoDB — exactly the paper's data
path (metrics-collector Lambda -> DynamoDB).  The Optimizer reads the
latest snapshot through :meth:`Monitor.snapshot`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.cloud.retry import call_with_retries, note_dead_letter
from repro.cloud.services.cloudwatch import Dims
from repro.core.scoring import RegionMetrics
from repro.errors import CloudError, LambdaError
from repro.obs.tracing import traced_hop
from repro.sim.clock import MINUTE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

METRICS_TABLE = "spotverse-metrics"
NAMESPACE = "SpotVerse"
#: Bucket where the collector code and the SpotInfo executable are
#: staged for Lambda use (Section 4).
TOOLS_BUCKET = "spotverse-tools"
TOOLS_REGION = "us-east-1"


class Monitor:
    """Periodic metric collection into DynamoDB.

    Args:
        provider: The simulated cloud.
        instance_types: Types to collect for.
        collect_interval: Seconds between collections.
        deploy: When true (default), register the collector Lambda and
            its CloudWatch schedule; when false the caller drives
            :meth:`collect` manually (unit tests).
    """

    def __init__(
        self,
        provider: "CloudProvider",
        instance_types: Sequence[str],
        collect_interval: float = 5 * MINUTE,
        deploy: bool = True,
    ) -> None:
        if not instance_types:
            raise CloudError("Monitor needs at least one instance type to watch")
        self._provider = provider
        self._instance_types = list(instance_types)
        self._table = provider.dynamodb.create_table(
            METRICS_TABLE, partition_key="region", sort_key="instance_type"
        )
        # One collect plan per watched type, built once: the per-type
        # market index and the on-demand prices are static, so a cycle
        # reads only each market's live values.  A plan is the type,
        # its ``(market, region, od_price, dims)`` entries in market
        # order, and the type's own dims; dims are in CloudWatch's
        # stored form (sorted ``(name, value)`` pairs).
        od_price = provider.price_book.od_price
        self._plans: List[Tuple[str, List[Tuple[Any, str, float, Dims]], Dims]] = [
            (
                instance_type,
                [
                    (
                        market,
                        market.region,
                        od_price(market.region, instance_type),
                        (("instance_type", instance_type), ("region", market.region)),
                    )
                    for market in provider.markets_for_type(instance_type)
                ],
                (("instance_type", instance_type),),
            )
            for instance_type in self._instance_types
        ]
        self.collections = 0
        if deploy:
            # Section 4: the Python collector code and the SpotInfo
            # executable (placement-score retrieval) are staged in S3
            # so the Lambda functions can use them.
            provider.s3.create_bucket(TOOLS_BUCKET, TOOLS_REGION)
            provider.s3.put_object(
                TOOLS_BUCKET,
                "spotinfo",
                body=b"\x7fELF spotinfo-stub",
                metadata={"purpose": "Spot Placement Score retrieval"},
            )
            provider.s3.put_object(
                TOOLS_BUCKET,
                "collector.py",
                body=b"# metrics collector source staged for Lambda\n",
            )
            provider.lambda_.create_function(
                "spotverse-metrics-collector",
                handler=lambda event, context: self.collect(),
                memory_mb=128,
                simulated_duration=2.0,
            )
            provider.cloudwatch.schedule_rule(
                "spotverse-collect-metrics",
                interval=collect_interval,
                target=self._invoke_collector,
            )
            # Prime the table so the Optimizer has data at t=0.
            self.collect()

    def _invoke_collector(self) -> None:
        """Scheduled collector invocation; a crashed cycle is skipped.

        A real CloudWatch-scheduled Lambda that errors logs a failed
        invocation and the schedule simply fires again next interval —
        the Optimizer reads one-cycle-staler data, nothing crashes.
        """
        try:
            self._provider.lambda_.invoke("spotverse-metrics-collector")
        except LambdaError as exc:
            note_dead_letter(self._provider.telemetry, "monitor:collector", str(exc))

    def _put_snapshot_rows(self, rows: List[Dict[str, Any]]) -> None:
        """Write one cycle's snapshot rows as a single batched request.

        The whole batch rides out DynamoDB throttling together; a batch
        that still throttles after the in-place retry budget is dropped
        wholesale (the next cycle rewrites every row), which mirrors the
        old per-row drop semantics at batch granularity.
        """
        call_with_retries(
            lambda: self._provider.dynamodb.batch_write_item(METRICS_TABLE, puts=rows),
            self._provider.telemetry,
            "monitor:put-metrics",
            drop=True,
        )

    def collect(self) -> int:
        """Collect one snapshot for every watched market; returns rows written."""
        with traced_hop(
            self._provider.telemetry.tracer, "monitor:collect", "monitor", trace_id="monitor"
        ):
            return self._collect_once()

    def _collect_once(self) -> int:
        # One batched DynamoDB write and one batched CloudWatch put per
        # instance type per cycle.  Rows keep their key order and
        # charges their order: DynamoDB row charges, then CloudWatch
        # datum charges in market order followed by the type's
        # regions_collected roll-up (its own row count).
        now = self._provider.engine.now
        cloudwatch = self._provider.cloudwatch
        written = 0
        for instance_type, plan, type_dims in self._plans:
            rows = [
                {
                    "region": region,
                    "instance_type": instance_type,
                    "spot_price": market.spot_price,
                    "od_price": od_price,
                    "placement_score": market.placement_score,
                    "interruption_frequency": market.interruption_frequency,
                    "collected_at": now,
                }
                for market, region, od_price, _ in plan
            ]
            self._put_snapshot_rows(rows)
            metric_data: List[Any] = [
                ("interruption_frequency", row["interruption_frequency"], dims)
                for row, (_, _, _, dims) in zip(rows, plan)
            ]
            metric_data.append(("regions_collected", float(len(rows)), type_dims))
            cloudwatch.put_metric_data_batch(NAMESPACE, metric_data)
            written += len(rows)
        self.collections += 1
        return written

    def snapshot(self, instance_type: str) -> List[RegionMetrics]:
        """Latest per-region metrics for *instance_type* from DynamoDB.

        Raises:
            CloudError: If the type has never been collected.
            ThrottlingError: If an injected throttle outlasted the
                in-place retry budget.
        """
        rows = call_with_retries(
            lambda: self._provider.dynamodb.scan(
                METRICS_TABLE,
                predicate=lambda item: item["instance_type"] == instance_type,
            ),
            self._provider.telemetry,
            "monitor:snapshot",
        )
        if not rows:
            raise CloudError(
                f"Monitor has no metrics for {instance_type!r}; "
                "was it included in instance_types?"
            )
        return [
            RegionMetrics(
                region=row["region"],
                instance_type=row["instance_type"],
                spot_price=row["spot_price"],
                od_price=row["od_price"],
                placement_score=row["placement_score"],
                interruption_frequency=row["interruption_frequency"],
                collected_at=row["collected_at"],
            )
            for row in sorted(rows, key=lambda item: item["region"])
        ]

    def staleness(self, instance_type: str) -> float:
        """Seconds since the *oldest* row in the latest snapshot was collected.

        The Optimizer acts on the last written snapshot, not the live
        markets; this is the worst-case age of the data behind its next
        decision (0 right after a collect cycle, growing until the next
        one).
        """
        now = self._provider.engine.now
        return max(metrics.age(now) for metrics in self.snapshot(instance_type))

    def watch_frequency(
        self,
        instance_type: str,
        region: str,
        callback,
        threshold_pct: float = 20.0,
    ):
        """Alarm when a region's Interruption Frequency crosses a level.

        The paper's "custom rules tailored for automated spot instance
        management": *callback(value)* fires on each OK -> ALARM
        transition of the frequency metric the collector publishes.
        Returns the alarm handle.
        """
        return self._provider.cloudwatch.put_alarm(
            name=f"spotverse-freq-{region}-{instance_type}",
            namespace=NAMESPACE,
            metric="interruption_frequency",
            threshold=threshold_pct,
            comparison=">",
            target=callback,
            dimensions={"region": region, "instance_type": instance_type},
        )

    def region_metrics(self, instance_type: str, region: str) -> RegionMetrics:
        """Latest metrics for one (region, type) pair."""
        for metrics in self.snapshot(instance_type):
            if metrics.region == region:
                return metrics
        raise CloudError(f"no metrics for {instance_type!r} in region {region!r}")
