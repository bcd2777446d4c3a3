#!/usr/bin/env python3
"""Quickstart: run a fleet of bioinformatics workloads under SpotVerse.

Builds a simulated multi-region cloud, asks SpotVerse where it would
place work right now, runs a small fleet of 10-hour Galaxy genome
reconstruction workloads, and prints the outcome next to the
single-region and on-demand alternatives.

Run:
    python examples/quickstart.py
"""

from repro.cloud.provider import CloudProvider
from repro.core import FleetController, PolicyContext, SpotVerseConfig
from repro.strategies import build_strategy
from repro.workloads import genome_reconstruction_workload

#: Roster name -> heading, SpotVerse first.
RUNS = [
    ("spotverse", "SpotVerse"),
    ("single-region", "single-region (cheapest spot region)"),
    ("on-demand", "on-demand (cheapest OD region)"),
]


def build_fleet(n: int = 12):
    """A dozen 10.5-hour standard Galaxy workloads."""
    return [genome_reconstruction_workload(f"wl-{i:02d}") for i in range(n)]


def print_recommendation(optimizer, ctx: PolicyContext) -> None:
    """SpotVerse's current top regions (Algorithm 1's candidate set)."""
    print("SpotVerse's current recommendation for m5.xlarge:")
    for metrics in optimizer.top_regions(ctx):
        print(
            f"  {metrics.region:16s} spot=${metrics.spot_price:.4f}/h "
            f"placement={metrics.placement_score:.1f} "
            f"stability={metrics.stability_score} "
            f"combined={metrics.combined_score:.1f}"
        )
    print()


def main() -> None:
    for strategy, heading in RUNS:
        # A fresh cloud per strategy, so cost ledgers stay separate.
        provider = CloudProvider(seed=42)
        provider.warmup_markets(48)
        config, monitor, policy = build_strategy(
            strategy, provider, SpotVerseConfig(instance_type="m5.xlarge")
        )
        controller = FleetController(provider, policy, config, monitor=monitor)
        if strategy == "spotverse":
            print_recommendation(
                policy,
                PolicyContext(
                    provider=provider,
                    monitor=monitor,
                    rng=provider.engine.streams.get("spotverse:advice"),
                ),
            )
        result = controller.run(build_fleet())
        print(f"=== {heading} ===")
        print(result.summary())
        print()


if __name__ == "__main__":
    main()
