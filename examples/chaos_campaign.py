#!/usr/bin/env python3
"""Chaos quickstart: break the cloud on purpose, verify nothing breaks.

Runs the built-in default fault campaign (API throttling, dropped event
deliveries, corrupted checkpoints, a reclaim storm, a region blackout)
against SpotVerse, prints the resilience scorecard, then does it again
with a hand-rolled campaign that kills the controller mid-run and
proves crash recovery is bit-identical to an unkilled run.

Everything is seeded: run this twice, get the same bytes.

Run:
    python examples/chaos_campaign.py

See also:
    spotverse chaos run --policy spotverse --export scorecard.json
    spotverse chaos report scorecard.json
"""

from repro.chaos import (
    CampaignSpec,
    Injection,
    render_scorecard,
    run_campaign,
)

HOUR = 3600.0


def main() -> None:
    # 1. The standard battery: every fault mode fires during the first
    #    day while a six-workload fleet runs under SpotVerse.
    outcome = run_campaign(policy="spotverse")
    print(render_scorecard(outcome.scorecard))
    print()

    # 2. A custom campaign: hammer DynamoDB, drop every interruption
    #    notice for two hours, and crash the controller at hour five.
    #    The control plane must reconcile the lost events from its
    #    durable state store and recover from the crash without the
    #    result changing at all (--verify-resume semantics).
    campaign = CampaignSpec(
        name="store-stress",
        injections=(
            Injection(kind="dynamodb-throttle", at=0.5 * HOUR, duration=2 * HOUR, rate=0.5),
            Injection(kind="eventbridge-drop", at=1 * HOUR, duration=2 * HOUR, rate=1.0),
            Injection(kind="controller-kill", at=5 * HOUR),
        ),
    )
    outcome = run_campaign(
        policy="spotverse", campaign=campaign, verify_resume_equivalence=True
    )
    print(render_scorecard(outcome.scorecard))

    # 3. Campaigns serialise: hand the JSON to `spotverse chaos run
    #    --campaign` or commit it next to an experiment.
    print()
    print(f"campaign spec round-trips through JSON: {campaign.to_dict()}")


if __name__ == "__main__":
    main()
