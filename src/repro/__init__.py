"""SpotVerse reproduction library.

A production-quality reimplementation of the MIDDLEWARE 2024 paper
*"SpotVerse: Optimizing Bioinformatics Workflows with Multi-Region Spot
Instances in Galaxy and Beyond"*, built on a fully simulated AWS
substrate so every experiment in the paper can be regenerated offline.

Quickstart::

    from repro import CloudProvider, SpotVerseConfig
    from repro.core import FleetController
    from repro.strategies import build_strategy
    from repro.workloads import standard_general_workload

    provider = CloudProvider(seed=42)
    provider.warmup_markets(48)
    config, monitor, policy = build_strategy(
        "spotverse", provider, SpotVerseConfig(instance_type="m5.xlarge")
    )
    controller = FleetController(provider, policy, config, monitor=monitor)
    result = controller.run([standard_general_workload(f"w{i}") for i in range(8)])
    print(result.summary())
"""

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["CloudProvider", "ReproError", "SpotVerseConfig", "__version__"]
