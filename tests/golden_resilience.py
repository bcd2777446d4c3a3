"""Golden client-side resilience output: trace hops, resilience events, retry draws.

The committed fixture (``tests/data/golden_resilience.json``) pins what
the control plane's client-side retries produced for three traced chaos
runs.  ``tests/test_resilience_golden.py`` replays the runs and
compares every digest with ``==``; regenerate the fixture only when the
retry *model* (budgets, schedules, scopes, events) intentionally
changes.

Each run puts a reclaim storm inside fault windows so that every
engine-scheduled retry site (spot-request filing, checkpoint-artifact
writes, EventBridge redelivery) retries and, in the runs with high
fault rates, dead-letters; a DynamoDB throttle window sends the
in-place sites (state store, monitor, checkpoint progress) to retry.

Each run records SHA-256 digests of:

* the full ``CausalTracer.to_payload()`` (JSON, insertion order, so
  hop attribute order is pinned too);
* every ``resilience.*``, ``checkpoint.persisted`` and
  ``ondemand.fallback`` bus event (``to_dict``, JSON);
* the next draw of the ``chaos:retry`` stream (``repr``), which pins
  how many jitter draws the run consumed;

plus, in the clear, the number of those events per event type and
retry site (the scope up to its second ``:``).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.chaos.campaign import CampaignSpec, Injection
from repro.chaos.faults import ChaosController
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.obs import EventType
from repro.sim.clock import HOUR, MINUTE
from repro.strategies import build_strategy
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_resilience.json"

#: Bus events the fixture pins.
PINNED_TYPES = (
    EventType.RESILIENCE_RETRY,
    EventType.RESILIENCE_DEAD_LETTER,
    EventType.CHECKPOINT_PERSISTED,
    EventType.FALLBACK_ON_DEMAND,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resilience_campaign(rate: float) -> CampaignSpec:
    """Three fault phases, each opened a minute before a reclaim storm.

    * 1 h: EventBridge drops interruption notices;
    * 3 h: checkpoint-artifact writes and spot-request filing fail;
    * 5 h: DynamoDB throttles (rate 0.3), storm at 5.5 h.
    """
    storm = partial(Injection, kind="reclaim-storm", rate=1.0)
    return CampaignSpec(
        name=f"resilience@{rate}",
        injections=(
            Injection(kind="eventbridge-drop", at=HOUR - MINUTE, duration=HOUR, rate=rate),
            storm(at=HOUR),
            Injection(kind="checkpoint-write-error", at=3 * HOUR - MINUTE, duration=HOUR, rate=rate),
            Injection(kind="ec2-request-error", at=3 * HOUR - MINUTE, duration=HOUR, rate=rate),
            storm(at=3 * HOUR),
            Injection(kind="dynamodb-throttle", at=5 * HOUR, duration=3 * HOUR, rate=0.3),
            storm(at=5.5 * HOUR),
        ),
    )


def chaos_fleet(policy: str, rate: float, seed: int = 11) -> Tuple[CloudProvider, ChaosController]:
    """A traced six-workload NGS checkpoint fleet under :func:`resilience_campaign`."""
    provider = CloudProvider(seed=seed, tracing=True)
    provider.warmup_markets(24)
    config, monitor, strategy = build_strategy(policy, provider, SpotVerseConfig())
    controller = FleetController(provider, strategy, config, monitor=monitor)
    chaos = ChaosController(provider, resilience_campaign(rate))
    chaos.install()
    controller.run(
        [ngs_preprocessing_workload(f"ckpt-{i}", duration_hours=6.0, n_segments=6) for i in range(6)],
        max_hours=72.0,
    )
    return provider, chaos


RUNS: Dict[str, Callable[[], Tuple[CloudProvider, ChaosController]]] = {
    "seed11-s3-exhausted": partial(chaos_fleet, "spotverse", 1.0),
    "seed11-s3-partial": partial(chaos_fleet, "spotverse", 0.6),
    "seed11-efs-partial": partial(chaos_fleet, "spotverse-efs", 0.8),
}


def _site(event) -> str:
    scope = event.attrs.get("scope", "")
    return f"{event.type.value} {':'.join(scope.split(':')[:2])}".rstrip()


def digest_run(provider: CloudProvider, chaos: ChaosController) -> Dict[str, object]:
    """Digest the run's trace, resilience events and retry stream.

    Draws once from ``chaos:retry``: call it after the run is over.
    """
    events = provider.telemetry.bus.events(PINNED_TYPES)
    return {
        "counts": dict(sorted(Counter(_site(event) for event in events).items())),
        "events": _sha(json.dumps([event.to_dict() for event in events])),
        "next_retry_draw": _sha(repr(float(chaos.retry_rng.random()))),
        "trace": _sha(json.dumps(provider.telemetry.tracer.to_payload())),
    }


def record() -> Dict[str, Dict[str, object]]:
    """Digest every run in :data:`RUNS`."""
    digests = {}
    for name, build in RUNS.items():
        provider, chaos = build()
        digests[name] = digest_run(provider, chaos)
        provider.shutdown()
    return digests


def load_fixture() -> Dict[str, Dict[str, object]]:
    """Read the committed golden digests."""
    return json.loads(FIXTURE_PATH.read_text())


def write_fixture(digests: Dict[str, Dict[str, object]]) -> None:
    """Write *digests* as the golden fixture."""
    FIXTURE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
