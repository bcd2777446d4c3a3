"""The cloud provider facade.

:class:`CloudProvider` wires one :class:`~repro.sim.SimulationEngine`
to the region/instance catalogs, a calibrated market per (region,
instance type) stepped by one :class:`~repro.cloud.lattice.MarketLattice`,
the cost ledger, and every service substrate.  It is the single object
experiments construct; everything else hangs off it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cloud.billing import CostLedger
from repro.cloud.instances import InstanceTypeCatalog, default_instance_catalog
from repro.cloud.lattice import STEP_INTERVAL, MarketLattice
from repro.cloud.market import GEOGRAPHY_PEAK_HOURS, SpotMarket
from repro.cloud.pricing import PriceBook
from repro.cloud.profiles import MarketProfileBook, default_market_profiles
from repro.cloud.regions import RegionCatalog, default_region_catalog
from repro.cloud.services.cloudwatch import CloudWatchService
from repro.cloud.services.dynamodb import DynamoDBService
from repro.cloud.services.ec2 import EC2Service
from repro.cloud.services.efs import EFSService
from repro.cloud.services.eventbridge import EventBridgeService
from repro.cloud.services.lambda_ import LambdaService
from repro.cloud.services.s3 import S3Service
from repro.cloud.services.stepfunctions import StepFunctionsService
from repro.errors import CloudError
from repro.obs import MarketObservatory, Telemetry
from repro.sim.engine import SimulationEngine


class CloudProvider:
    """A fully wired simulated cloud.

    Args:
        engine: The simulation engine everything schedules against;
            a fresh one is created when omitted.
        regions: Region catalog (defaults to the paper's twelve).
        instances: Instance-type catalog (defaults to m5/c5/r5/p3).
        profiles: Market calibration book (defaults to the paper-tuned
            regimes; experiments may pass a date-shifted override book).
        seed: Master seed when *engine* is omitted.
        telemetry: Observability bundle (event bus + metrics registry)
            the control plane emits into; a fresh one is created when
            omitted.  Experiment drivers pass a shared bundle to
            stream a run to JSONL or aggregate across fleets.
        observatory: When true, attach a
            :class:`~repro.obs.MarketObservatory` that samples every
            market on each step into the telemetry bundle's
            time-series store and publishes ``market.anomaly`` events.
            Off by default — sampling is pure observation (it never
            feeds back into markets or policies) but costs time on
            large sweeps.
        tracing: When true, enable cross-service causal tracing on the
            telemetry bundle (``telemetry.tracer``).  Off by default:
            every instrumentation site then reduces to one ``None``
            check, and runs stay bit-identical to untraced builds.
    """

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        regions: Optional[RegionCatalog] = None,
        instances: Optional[InstanceTypeCatalog] = None,
        profiles: Optional[MarketProfileBook] = None,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        observatory: bool = False,
        tracing: bool = False,
    ) -> None:
        self.engine = engine or SimulationEngine(seed=seed)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.bus.attach_clock(lambda: self.engine.now)
        if tracing:
            self.telemetry.enable_tracing()
        self.regions = regions or default_region_catalog()
        self.instances = instances or default_instance_catalog()
        self.profiles = profiles or default_market_profiles(self.regions, self.instances)
        self.price_book = PriceBook(self.regions, self.instances)
        self.ledger = CostLedger()
        # Chaos hook.  ``None`` means every substrate takes its infallible
        # fast path (no RNG draws, no extra charges) — zero-fault runs are
        # bit-identical to pre-chaos builds.  ``repro.chaos`` installs a
        # controller here via :meth:`attach_chaos`.
        self.chaos = None

        #: Builds and steps every market, once per ``STEP_INTERVAL`` of
        #: sim time; each market draws from its own named stream.
        self.lattice = MarketLattice(
            [
                (
                    profile,
                    self.price_book.od_price(profile.region, profile.instance_type),
                    self.engine.streams.get(
                        f"market:{profile.region}:{profile.instance_type}"
                    ),
                    GEOGRAPHY_PEAK_HOURS.get(
                        self.regions.get(profile.region).geography, 0.0
                    ),
                )
                for profile in self.profiles
            ]
        )
        self._markets: Dict[Tuple[str, str], SpotMarket] = {
            (market.region, market.instance_type): market for market in self.lattice.markets
        }
        # Static per-type index: markets_for_type sits on the Monitor
        # collect path and every Algorithm-1 evaluation, so it must not
        # rescan the whole market dict per call.  Availability is fixed
        # by the profile, so the index never goes stale.
        self._markets_by_type: Dict[str, List[SpotMarket]] = {}
        for market in self._markets.values():
            if market.available:
                self._markets_by_type.setdefault(market.instance_type, []).append(market)
        self.observatory: Optional[MarketObservatory] = None
        if observatory:
            self.observatory = MarketObservatory(
                self.lattice.markets, store=self.telemetry.timeseries, bus=self.telemetry.bus
            )
        # One engine event per market tick steps the prices, then feeds
        # the observatory (when one is attached) the same step.
        self._market_task = self.engine.every(
            STEP_INTERVAL, self._step_markets, label="markets:step"
        )

        # Service substrates.  Order matters only in that EC2 publishes
        # to EventBridge, which must exist first.
        self.eventbridge = EventBridgeService(self)
        self.ec2 = EC2Service(self)
        self.s3 = S3Service(self)
        self.dynamodb = DynamoDBService(self)
        self.lambda_ = LambdaService(self)
        self.cloudwatch = CloudWatchService(self)
        self.stepfunctions = StepFunctionsService(self)
        self.efs = EFSService(self)

    def attach_chaos(self, chaos) -> None:
        """Install a chaos controller; substrates consult it on every call.

        Raises:
            CloudError: If a controller is already attached.
        """
        if self.chaos is not None:
            raise CloudError("a chaos controller is already attached to this provider")
        self.chaos = chaos

    # ------------------------------------------------------------------
    # Markets
    # ------------------------------------------------------------------
    def market(self, region: str, instance_type: str) -> SpotMarket:
        """Return the market for (*region*, *instance_type*).

        Raises:
            CloudError: If the pair has no market.
        """
        market = self._markets.get((region, instance_type))
        if market is None:
            raise CloudError(
                f"no market for instance type {instance_type!r} in region {region!r}"
            )
        return market

    def markets_for_type(self, instance_type: str) -> List[SpotMarket]:
        """Return every *available* market trading *instance_type*."""
        return list(self._markets_by_type.get(instance_type, ()))

    def _step_markets(self) -> None:
        lattice = self.lattice
        lattice.step(self.engine.now)
        if self.observatory is not None:
            self.observatory.observe(
                self.engine.now, lattice.prices, lattice.placements, lattice.freqs
            )

    def warmup_markets(self, steps: int) -> None:
        """Pre-roll every market *steps* intervals before t=0 data.

        Gives price/metric processes a burn-in so experiments do not
        all start exactly on the calibrated means.  Burn-in history is
        synthetic pre-experiment data and is dropped from the traces.
        """
        self.lattice.warmup(steps, start_time=-steps * STEP_INTERVAL)
        self.lattice.clear_history()

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def spot_price(self, region: str, instance_type: str) -> float:
        """Current spot price for (*region*, *instance_type*)."""
        return self.market(region, instance_type).spot_price

    def cheapest_mean_spot_region(self, instance_type: str) -> Tuple[str, float]:
        """Return ``(region, mean price)`` ranked by *long-run* spot price.

        This is what an experimenter looking at recent price history
        would call "the cheapest region on the experiment date" (Table 1
        of the paper), insulated from instantaneous OU noise.
        """
        markets = self.markets_for_type(instance_type)
        if not markets:
            raise CloudError(f"no region offers instance type {instance_type!r}")
        best = min(markets, key=lambda market: market.mean_price)
        return best.region, best.mean_price

    def shutdown(self) -> None:
        """Cancel periodic machinery, settle billing, free market scratch.

        Price and metric histories stay readable; the markets can no
        longer step.
        """
        self._market_task.cancel()
        self.ec2.settle_billing()
        self.ec2.shutdown()
        self.cloudwatch.remove_all_rules()
        self.lattice.release()
