"""Golden-equivalence gate for the decomposed fleet control plane.

The committed fixture was produced by the monolithic pre-refactor
``FleetController`` (see ``tests/golden_scenarios.py``).  Every float is
compared with ``==``: the service decomposition must not move a single
bit of any ``FleetResult`` — cost, interruption times, migration
regions, completion times — for SpotVerse or any baseline policy, on
either checkpoint backend.

Every scenario replays through two wirings: the hand-written reference
in ``tests/golden_scenarios.py`` and the strategy roster
(:func:`repro.strategies.build_strategy`) the CLI and chaos runner use.

The restart tests assert the tentpole's durability property on top:
tearing the controller down mid-run and rebuilding it from the
``FleetStateStore`` alone must also reproduce the fixture bit for bit.
"""

import json

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.errors import StrategyError
from repro.strategies import STRATEGIES, build_strategy
from tests.golden_scenarios import (
    FIXTURE_PATH,
    MAX_HOURS,
    SCENARIOS,
    SEED,
    WARMUP_STEPS,
    _workloads,
    result_to_dict,
    run_scenario,
    run_scenario_restarted,
)


def run_roster_scenario(name):
    """:func:`run_scenario`, with the policy wired by the strategy roster."""
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(WARMUP_STEPS)
    config, monitor, policy = build_strategy(name, provider, SpotVerseConfig())
    controller = FleetController(provider, policy, config, monitor=monitor)
    result = controller.run(_workloads(), max_hours=MAX_HOURS)
    provider.shutdown()
    return result


# The reference wiring keeps the bare scenario name as its test id.
WIRINGS = {"reference": run_scenario, "roster": run_roster_scenario}


@pytest.fixture(scope="module")
def fixture():
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate ONLY from a pre-refactor "
        "monolith build: PYTHONPATH=src python -m tests.golden_scenarios"
    )
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize(
    "wiring, name",
    [
        pytest.param(wiring, name, id=name if wiring == "reference" else f"{name}-{wiring}")
        for wiring in WIRINGS
        for name in sorted(SCENARIOS)
    ],
)
def test_bit_identical_to_monolith(wiring, name, fixture):
    assert result_to_dict(WIRINGS[wiring](name)) == fixture[name]


def test_roster_is_the_golden_roster():
    assert tuple(STRATEGIES) == tuple(SCENARIOS)


def test_unknown_strategy_names_the_roster():
    with pytest.raises(StrategyError, match="choose one of spotverse, spotverse-efs"):
        build_strategy("bogus", CloudProvider(seed=SEED), SpotVerseConfig())


@pytest.mark.parametrize("name", ["single-region", "spotverse-efs"])
def test_restart_mid_run_is_bit_identical(name, fixture):
    # single-region: the interruption-heaviest scenario (S3 backend);
    # spotverse-efs: exercises EFS file-system registry restore.
    assert result_to_dict(run_scenario_restarted(name)) == fixture[name]


def test_fixture_has_expected_shape(fixture):
    assert set(fixture) == set(SCENARIOS)
    for name, payload in fixture.items():
        assert len(payload["records"]) == 6, name
        assert all(r["completed_at"] is not None for r in payload["records"]), name
