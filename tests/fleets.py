"""Stand up the SpotVerse strategy the way ``spotverse run`` does."""

from typing import Optional

from repro.cloud.provider import CloudProvider
from repro.core import FleetController, SpotVerseConfig
from repro.strategies import build_strategy


def spotverse_controller(
    provider: CloudProvider, config: Optional[SpotVerseConfig] = None
) -> FleetController:
    """Pre-roll the markets 48 steps, then wire the roster's ``spotverse`` row."""
    provider.warmup_markets(48)
    config, monitor, optimizer = build_strategy(
        "spotverse", provider, config or SpotVerseConfig()
    )
    return FleetController(provider, optimizer, config, monitor=monitor)
