#!/usr/bin/env python3
"""Galaxy integration: the 23-step Genome Reconstruction workflow.

Shows both halves of the paper's Galaxy story:

1. **Standalone Galaxy** — configure an instance with an admin user
   (the paper's ``admin_users`` config change), register the 23-step
   workflow, invoke it through the API with real payloads, and inspect
   the Pangolin-style lineage calls in the history.
2. **Managed by SpotVerse** — the same workload, 20 copies, run as a
   spot fleet that survives interruptions.

Run:
    python examples/galaxy_genome_reconstruction.py
"""

from repro.cloud.provider import CloudProvider
from repro.core import FleetController, SpotVerseConfig
from repro.galaxy import GalaxyInstance
from repro.strategies import build_strategy
from repro.workloads import (
    build_genome_reconstruction_workflow,
    genome_reconstruction_workload,
)


def run_standalone_galaxy() -> None:
    """Invoke the workflow on a local Galaxy instance with real tools."""
    galaxy = GalaxyInstance(admin_users=["admin@spotverse.example"])
    api_key = galaxy.api_key_for("admin@spotverse.example")

    workflow = build_genome_reconstruction_workflow(duration_hours=0.5)
    galaxy.register_workflow(api_key, workflow)
    history = galaxy.create_history(api_key, name="genome-reconstruction-run")

    print(f"Invoking {workflow.name!r} ({len(workflow)} steps) through the Galaxy API...")
    invocation = galaxy.invoke_workflow(
        api_key, workflow.name, history=history, execute_payloads=True
    )
    assert invocation.ok

    print("Lineage calls from the Pangolin steps:")
    for label in workflow.labels():
        if not label.startswith("lineage-"):
            continue
        calls = invocation.results[label].outputs["calls"]
        for call in calls:
            print(
                f"  {call.genome:14s} -> {call.lineage:10s} "
                f"(confidence {call.confidence:.2f})"
            )
    print(f"History {history.name!r} holds {len(history)} datasets.\n")


def run_managed_fleet() -> None:
    """Run the same workload as a SpotVerse-managed spot fleet."""
    provider = CloudProvider(seed=11)
    provider.warmup_markets(48)
    config, monitor, optimizer = build_strategy(
        "spotverse",
        provider,
        SpotVerseConfig(
            instance_type="m5.xlarge",
            initial_distribution=False,
            start_region="ca-central-1",  # the cheapest — and flakiest
        ),
    )
    controller = FleetController(provider, optimizer, config, monitor=monitor)
    fleet = [genome_reconstruction_workload(f"galaxy-{i:02d}") for i in range(20)]
    result = controller.run(fleet)
    print("=== SpotVerse-managed Genome Reconstruction fleet ===")
    print(result.summary())
    worst = max(result.records, key=lambda record: record.n_interruptions)
    print(
        f"\nmost-interrupted workload: {worst.workload_id} "
        f"({worst.n_interruptions} interruptions, visited {worst.regions})"
    )
    from repro.experiments.gantt import render_lifelines

    print()
    print(render_lifelines(result, bin_hours=1.0))


def main() -> None:
    run_standalone_galaxy()
    run_managed_fleet()


if __name__ == "__main__":
    main()
