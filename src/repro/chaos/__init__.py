"""Deterministic fault injection and resilience verification.

The chaos subsystem stresses the fleet control plane the way real
multi-region spot operations do: regions black out, reclaim storms
sweep correlated markets, control-plane APIs throttle, event deliveries
drop, and checkpoint artifacts arrive corrupted.  Campaigns are seeded
and replayable — the same ``(policy, campaign, seed)`` triple yields a
byte-identical resilience scorecard.

Layers:

* :mod:`repro.chaos.campaign` — declarative, serialisable campaign
  specs (:class:`Injection` / :class:`CampaignSpec`) plus the built-in
  :func:`default_campaign` and seeded :func:`random_campaign`.
* :mod:`repro.chaos.faults` — the :class:`ChaosController` substrates
  consult at each injection point.
* :mod:`repro.chaos.invariants` — incremental invariant checks (live
  via :class:`OnlineInvariantMonitor`, or folded post-run) and the
  scorecard.
* :mod:`repro.chaos.runner` — :func:`run_campaign`, the end-to-end
  entry point behind ``spotverse chaos run``.
"""

from repro.chaos.campaign import (
    FAULT_KINDS,
    CampaignSpec,
    Injection,
    default_campaign,
    random_campaign,
    tenant_storm_campaign,
)
from repro.chaos.faults import ChaosController
from repro.chaos.invariants import (
    InvariantResult,
    OnlineInvariantMonitor,
    OnlineViolation,
    build_scorecard,
    check_invariants,
    render_scorecard,
)
from repro.chaos.runner import (
    DEFAULT_MAX_HOURS,
    DEFAULT_SEED,
    DEFAULT_WARMUP_STEPS,
    ChaosRunOutcome,
    default_fleet,
    run_campaign,
    tenant_fleet,
)
from repro.strategies import STRATEGIES

#: Policies a chaos run can target: every strategy roster name.
POLICY_NAMES = tuple(STRATEGIES)

__all__ = [
    "FAULT_KINDS",
    "CampaignSpec",
    "ChaosController",
    "ChaosRunOutcome",
    "DEFAULT_MAX_HOURS",
    "DEFAULT_SEED",
    "DEFAULT_WARMUP_STEPS",
    "InvariantResult",
    "Injection",
    "OnlineInvariantMonitor",
    "OnlineViolation",
    "POLICY_NAMES",
    "build_scorecard",
    "check_invariants",
    "default_campaign",
    "default_fleet",
    "random_campaign",
    "render_scorecard",
    "run_campaign",
    "tenant_fleet",
    "tenant_storm_campaign",
]
