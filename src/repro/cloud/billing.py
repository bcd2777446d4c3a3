"""Cost accounting for the simulated cloud.

The paper's cost model (Section 5.1.2) sums per-second instance usage
at the prevailing spot or on-demand price, plus the differential costs
of the control plane: Lambda invocations, DynamoDB writes, CloudWatch
rules, and cross-region S3 transfer for checkpoint workloads.  The
:class:`CostLedger` keeps running totals by category, region and tag
for experiments to slice costs per strategy and per workload, and
itemises every per-request charge.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class CostCategory(enum.Enum):
    """What a ledger entry paid for."""

    SPOT_INSTANCE = "spot-instance"
    ON_DEMAND_INSTANCE = "on-demand-instance"
    LAMBDA = "lambda"
    DYNAMODB = "dynamodb"
    S3_STORAGE = "s3-storage"
    S3_TRANSFER = "s3-transfer"
    CLOUDWATCH = "cloudwatch"
    STEP_FUNCTIONS = "step-functions"


#: USD per Lambda GB-second (x86, us-east-1 list price).
LAMBDA_GB_SECOND_PRICE = 0.0000166667
#: USD per Lambda request.
LAMBDA_REQUEST_PRICE = 0.0000002
#: USD per DynamoDB write request unit.
DYNAMODB_WRITE_PRICE = 0.00000125
#: USD per DynamoDB read request unit.
DYNAMODB_READ_PRICE = 0.00000025
#: USD per GB transferred between regions.
S3_CROSS_REGION_TRANSFER_PRICE = 0.02
#: USD per GB-month of S3 standard storage.
S3_STORAGE_PRICE_GB_MONTH = 0.023
#: USD per CloudWatch metric put (custom metrics, amortised).
CLOUDWATCH_PUT_PRICE = 0.0000003
#: USD per Step Functions state transition.
STEP_FUNCTIONS_TRANSITION_PRICE = 0.000025


@dataclass
class CostEntry:
    """One charge in the ledger.

    Attributes:
        time: Virtual time the charge accrued.
        category: What kind of resource was billed.
        amount: USD charged.
        region: Region the charge accrued in ("" for global services).
        tag: Free-form attribution tag, typically a workload id.
        detail: Human-readable description for audit output.
    """

    time: float
    category: CostCategory
    amount: float
    region: str = ""
    tag: str = ""
    detail: str = ""


class CostLedger:
    """Ledger of simulated charges: itemised requests, running totals.

    Two kinds of charge land here.  Per-request charges (Lambda,
    DynamoDB, S3, CloudWatch, Step Functions, EFS) arrive through
    :meth:`charge`, one at a time or as a run of identical charges,
    and are itemised in :attr:`entries`.  Compute time arrives in
    batches through :meth:`accrue` from the EC2 billing sweep; it only
    moves the running totals, because each instance's ``accrued_cost``
    is already its itemised compute bill.

    Every total is a left-to-right fold in posting order, so it is the
    same float however the charges were batched.  Totals are keyed by
    the category's *value* string (hashing an enum member goes through
    two dynamic descriptor lookups per dict operation; a str hash is
    cached).  The hot paths read that string from the member's plain
    ``_value_`` attribute: ``Enum.value`` is a Python-level descriptor
    call on every access.  Entries are stored as plain tuples (one
    tuple shared by every charge of a run) holding that value string
    too, so an entry holds only atomic values and the cyclic garbage
    collector stops tracking it after its first pass; they are
    materialised into :class:`CostEntry` objects only when read.
    """

    __slots__ = (
        "_entries",
        "_total_by_category",
        "_total_by_tag",
        "_total_by_region",
        "last_charge_time",
    )

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._total_by_category: Dict[str, float] = defaultdict(float)
        self._total_by_tag: Dict[str, float] = defaultdict(float)
        self._total_by_region: Dict[str, float] = defaultdict(float)
        #: Latest virtual time any charge (itemised or accrued) was
        #: posted at; ``-inf`` before the first one.
        self.last_charge_time = -math.inf

    def charge(
        self,
        time: float,
        category: CostCategory,
        amount: float,
        region: str = "",
        tag: str = "",
        detail: str = "",
        count: int = 1,
    ) -> None:
        """Record *count* identical itemised charges (one by default).

        A run of ``count`` charges is exactly ``count`` single calls:
        :attr:`entries` gains ``count`` entries (stored as one shared
        tuple), and every total grows by ``count`` float additions of
        *amount* in order — never by a product, which would round
        differently.  Batched services (a DynamoDB batch's per-item
        request units, a CloudWatch batch's per-datum puts) post one
        run instead of one call per item.

        Zero-amount charges are recorded too — they document that a
        billable action occurred, which keeps audit trails complete.
        Negative amounts are rejected.
        """
        if amount < 0:
            raise ValueError(f"cannot charge a negative amount: {amount!r}")
        if count < 1:
            return
        key = category._value_
        entry = (time, key, amount, region, tag, detail)
        if count == 1:
            self._entries.append(entry)
        else:
            self._entries.extend([entry] * count)
        if time > self.last_charge_time:
            self.last_charge_time = time
        for _ in range(count):
            self._total_by_category[key] += amount
            if tag:
                self._total_by_tag[tag] += amount
            if region:
                self._total_by_region[region] += amount

    def accrue(
        self, time: float, keys: Sequence[Tuple[CostCategory, str, str]], amounts: Sequence[float]
    ) -> None:
        """Fold a batch of compute charges posted at *time*, in order.

        ``keys[i]`` is the ``(category, region, tag)`` of the charge
        ``amounts[i]``.  Each total grows by the same float additions,
        in the same order, as one :meth:`charge` per element would
        make; nothing is itemised.  Amounts must be non-negative
        Python floats.
        """
        if not amounts:
            return
        if time > self.last_charge_time:
            self.last_charge_time = time
        by_category = self._total_by_category
        by_tag = self._total_by_tag
        by_region = self._total_by_region
        for (category, region, tag), amount in zip(keys, amounts):
            by_category[category._value_] += amount
            if tag:
                by_tag[tag] += amount
            if region:
                by_region[region] += amount

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[CostEntry]:
        """Every itemised (per-request) charge, in charge order.

        Compute time posted through :meth:`accrue` is not itemised.
        Materialises a fresh :class:`CostEntry` list from the raw
        storage — O(n) per access, so audit/report code should bind it
        once rather than index it repeatedly.
        """
        return [
            CostEntry(
                time=time,
                category=CostCategory(category),
                amount=amount,
                region=region,
                tag=tag,
                detail=detail,
            )
            for time, category, amount, region, tag, detail in self._entries
        ]

    def total(self, category: Optional[CostCategory] = None) -> float:
        """Total USD, optionally restricted to one category."""
        if category is None:
            # An explicit left-to-right fold: builtin ``sum`` of floats
            # is compensated from Python 3.12 on, which would change
            # the last bit of the total between interpreter versions.
            total = 0.0
            for value in self._total_by_category.values():
                total += value
            return total
        return self._total_by_category.get(category.value, 0.0)

    def total_for_tag(self, tag: str) -> float:
        """Total USD attributed to *tag* (e.g. one workload)."""
        return self._total_by_tag.get(tag, 0.0)

    def total_for_region(self, region: str) -> float:
        """Total USD accrued in *region*."""
        return self._total_by_region.get(region, 0.0)

    def instance_total(self) -> float:
        """Total spend on compute (spot + on-demand)."""
        return self.total(CostCategory.SPOT_INSTANCE) + self.total(
            CostCategory.ON_DEMAND_INSTANCE
        )

    def overhead_total(self) -> float:
        """Total spend on control-plane services (everything but compute)."""
        return self.total() - self.instance_total()

    def by_category(self) -> Dict[str, float]:
        """Return ``{category value: total}`` for reporting."""
        return dict(self._total_by_category)

    def by_region(self) -> Dict[str, float]:
        """Return ``{region: total}`` for reporting."""
        return dict(self._total_by_region)
