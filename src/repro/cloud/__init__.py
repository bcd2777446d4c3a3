"""Simulated multi-region cloud substrate.

This package rebuilds, in-process, everything SpotVerse consumes from
AWS: a region/AZ catalog, an instance-type catalog, per-market spot
price processes, interruption hazards, the Spot Placement Score and
Interruption Frequency observables, and boto3-flavoured service
substrates (EC2, S3, DynamoDB, Lambda, CloudWatch, EventBridge, Step
Functions, EFS).  The entry point is
:class:`~repro.cloud.provider.CloudProvider`.
"""

from repro.cloud.billing import CostCategory, CostLedger
from repro.cloud.instances import InstanceType, InstanceTypeCatalog, default_instance_catalog
from repro.cloud.lattice import MarketLattice, TraceView
from repro.cloud.market import SpotMarket
from repro.cloud.pricing import PriceBook
from repro.cloud.profiles import MarketProfile, default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.cloud.regions import AvailabilityZone, Region, RegionCatalog, default_region_catalog

__all__ = [
    "AvailabilityZone",
    "CloudProvider",
    "CostCategory",
    "CostLedger",
    "InstanceType",
    "InstanceTypeCatalog",
    "MarketLattice",
    "MarketProfile",
    "PriceBook",
    "Region",
    "RegionCatalog",
    "SpotMarket",
    "TraceView",
    "default_instance_catalog",
    "default_market_profiles",
    "default_region_catalog",
]
