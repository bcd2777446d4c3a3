"""Baseline placement strategies the paper compares against.

Each baseline implements :class:`~repro.core.policy.PlacementPolicy`
and runs through the same :class:`~repro.core.controller.FleetController`
as SpotVerse, so differences in outcome come purely from placement
decisions:

* :class:`SingleRegionPolicy` — traditional single-region spot
  deployment (relaunch in place).
* :class:`OnDemandPolicy` — cheapest-region on-demand instances.
* :class:`SkyPilotPolicy` — a SkyPilot-style broker: always chase the
  cheapest current spot price, ignoring reliability metrics.
* :class:`NaiveMultiRegionPolicy` — the motivational experiment's
  fixed-region round-robin (Section 2.2).
* :class:`CheapestMigrationPolicy` — SpotVerse's scoring but
  always-cheapest (non-random) migration; the migration ablation.
* :class:`DeadlineAwarePolicy` — Algorithm 1 plus per-workload
  on-demand escalation when a deadline is at risk (the "optimal mix"
  extension, after the paper's cited Can't-Be-Late).

:data:`STRATEGIES` is the one roster of named strategies: the chaos
runner, the CLI and the examples build their policy through
:func:`build_strategy`, and every experiment arm
(:class:`~repro.experiments.harness.ArmSpec`) carries a row, so adding
a strategy is one row there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.policy import PlacementPolicy
from repro.errors import StrategyError
from repro.strategies.deadline import DeadlineAwarePolicy
from repro.strategies.naive_multi_region import NaiveMultiRegionPolicy
from repro.strategies.on_demand import OnDemandPolicy
from repro.strategies.single_region import SingleRegionPolicy
from repro.strategies.skypilot import SkyPilotPolicy
from repro.strategies.variants import CheapestMigrationPolicy


@dataclass(frozen=True)
class Strategy:
    """One roster row.

    Attributes:
        build: ``(config, monitor) -> policy``; *monitor* is ``None``
            unless *reads_monitor*.  A module-level function, so the
            row pickles into process-pool workers.
        reads_monitor: Whether the policy scores regions from the
            Monitor's snapshots (the Algorithm-1 family).
        overrides: :class:`SpotVerseConfig` fields the strategy pins
            on top of the caller's config.
    """

    build: Callable[[SpotVerseConfig, Optional[Monitor]], PlacementPolicy]
    reads_monitor: bool = False
    overrides: Dict[str, Any] = field(default_factory=dict)

    def configure(self, config: SpotVerseConfig) -> SpotVerseConfig:
        """*config* with the strategy's overrides applied."""
        return replace(config, **self.overrides) if self.overrides else config


def _spotverse(config, monitor):
    return SpotVerseOptimizer(monitor, config)


def _single_region(config, _):
    return SingleRegionPolicy(region=config.start_region, instance_type=config.instance_type)


def _naive_multi_region(config, _):
    return NaiveMultiRegionPolicy()


def _on_demand(config, _):
    return OnDemandPolicy(instance_type=config.instance_type)


def _skypilot(config, _):
    return SkyPilotPolicy(instance_type=config.instance_type)


def _cheapest_migration(config, monitor):
    return CheapestMigrationPolicy(monitor, config)


def _deadline(config, monitor):
    return DeadlineAwarePolicy(monitor, config)


#: Name -> strategy, in golden-fixture order.
STRATEGIES: Dict[str, Strategy] = {
    "spotverse": Strategy(_spotverse, reads_monitor=True),
    "spotverse-efs": Strategy(
        _spotverse, reads_monitor=True, overrides={"checkpoint_backend": "efs"}
    ),
    "single-region": Strategy(_single_region),
    "naive-multi-region": Strategy(_naive_multi_region),
    "on-demand": Strategy(_on_demand),
    "skypilot": Strategy(_skypilot),
    "cheapest-migration": Strategy(_cheapest_migration, reads_monitor=True),
    "deadline": Strategy(_deadline, reads_monitor=True),
}


def build_strategy(
    name: str, provider: CloudProvider, config: SpotVerseConfig
) -> Tuple[SpotVerseConfig, Optional[Monitor], PlacementPolicy]:
    """Wire the named strategy onto *provider*.

    Returns:
        ``(config, monitor, policy)`` for a controller: *config* with
        the strategy's overrides applied, a deployed :class:`Monitor`
        (``None`` for strategies that do not read one) and the policy.
    """
    strategy = STRATEGIES.get(name)
    if strategy is None:
        raise StrategyError(f"unknown strategy {name!r}; choose one of {', '.join(STRATEGIES)}")
    config = strategy.configure(config)
    monitor = (
        Monitor(provider, [config.instance_type], collect_interval=config.collect_interval)
        if strategy.reads_monitor
        else None
    )
    return config, monitor, strategy.build(config, monitor)


__all__ = [
    "STRATEGIES",
    "CheapestMigrationPolicy",
    "DeadlineAwarePolicy",
    "NaiveMultiRegionPolicy",
    "OnDemandPolicy",
    "SingleRegionPolicy",
    "SkyPilotPolicy",
    "Strategy",
    "build_strategy",
]
