"""The chaos subsystem: campaigns, fault injection, and resilience.

The load-bearing guarantees under test:

* campaigns are declarative, serialisable, and seeded-replayable;
* the default campaign never breaks a single resilience invariant on
  *any* built-in policy;
* an empty campaign (and ``chaos=None``) is bit-identical to the
  pre-chaos golden fixtures — fault injection off means *off*;
* specific fault modes exercise their designed recovery path (retries,
  dead letters, reconciliation, checkpoint fallback);
* a controller kill mid-campaign recovers to a bit-identical result.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    CampaignSpec,
    ChaosController,
    Injection,
    POLICY_NAMES,
    default_campaign,
    random_campaign,
    run_campaign,
)
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.fleet import checkpoint
from repro.errors import ChaosError, CloudError
from repro.obs import EventType
from repro.sim.clock import HOUR
from repro.strategies import build_strategy
from repro.workloads.base import synthetic_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import chaos_kill_sweep  # noqa: E402


def small_fleet():
    fleet = [synthetic_workload(f"std-{i}", duration_hours=3.0, n_segments=3) for i in range(2)]
    fleet += [
        ngs_preprocessing_workload(f"ckpt-{i}", duration_hours=3.0, n_segments=3)
        for i in range(2)
    ]
    return fleet


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            Injection(kind="meteor-strike")

    def test_rate_bounds_enforced(self):
        with pytest.raises(ChaosError, match="rate"):
            Injection(kind="dynamodb-throttle", rate=1.5)

    def test_blackout_requires_region(self):
        with pytest.raises(ChaosError, match="requires a region"):
            Injection(kind="region-blackout", at=10.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ChaosError):
            Injection(kind="lambda-error", at=-1.0)

    def test_round_trip_through_json(self):
        campaign = default_campaign()
        payload = json.dumps(campaign.to_dict(), sort_keys=True)
        rebuilt = CampaignSpec.from_dict(json.loads(payload))
        assert rebuilt == campaign

    def test_without_kills_strips_only_kills(self):
        campaign = CampaignSpec(
            name="k",
            injections=(
                Injection(kind="lambda-error", at=60.0, duration=60.0),
                Injection(kind="controller-kill", at=120.0),
            ),
        )
        assert campaign.kills == (120.0,)
        stripped = campaign.without_kills()
        assert [inj.kind for inj in stripped.injections] == ["lambda-error"]

    def test_random_campaign_is_seed_deterministic(self):
        regions = ("us-east-1", "eu-west-2", "ap-south-1")
        assert random_campaign(5, regions) == random_campaign(5, regions)
        assert random_campaign(5, regions) != random_campaign(6, regions)


# ----------------------------------------------------------------------
# Controller plumbing
# ----------------------------------------------------------------------
class TestChaosController:
    def test_double_install_rejected(self):
        provider = CloudProvider(seed=1)
        controller = ChaosController(provider, CampaignSpec(name="x"))
        controller.install()
        with pytest.raises(ChaosError):
            controller.install()

    def test_second_controller_rejected(self):
        provider = CloudProvider(seed=1)
        ChaosController(provider, CampaignSpec(name="x")).install()
        with pytest.raises(CloudError):
            ChaosController(provider, CampaignSpec(name="y")).install()

    def test_injection_offsets_are_campaign_relative(self):
        provider = CloudProvider(seed=1)
        provider.warmup_markets(24)
        started = provider.engine.now
        controller = ChaosController(
            provider,
            CampaignSpec(
                name="rel",
                injections=(Injection(kind="lambda-error", at=HOUR, duration=HOUR),),
            ),
        )
        controller.install()
        assert controller.started_at == started
        provider.engine.run_until(started + 0.5 * HOUR)
        assert not any(
            e.type is EventType.CHAOS_WINDOW_OPENED for e in provider.telemetry.bus
        )
        provider.engine.run_until(started + 1.5 * HOUR)
        opened = [
            e for e in provider.telemetry.bus if e.type is EventType.CHAOS_WINDOW_OPENED
        ]
        assert len(opened) == 1
        assert opened[0].time == started + HOUR


# ----------------------------------------------------------------------
# Zero-fault equivalence: chaos off (or empty) changes nothing
# ----------------------------------------------------------------------
class TestZeroFaultEquivalence:
    def test_empty_campaign_matches_golden_fixture(self):
        from tests.golden_scenarios import FIXTURE_PATH, result_to_dict

        fixture = json.loads(FIXTURE_PATH.read_text())
        outcome = run_campaign(
            policy="spotverse", campaign=CampaignSpec(name="empty", injections=())
        )
        assert result_to_dict(outcome.result) == fixture["spotverse"]
        assert outcome.all_passed

    def test_empty_campaign_reports_zero_faults(self):
        outcome = run_campaign(
            policy="single-region",
            campaign=CampaignSpec(name="empty"),
            workloads=small_fleet(),
            max_hours=48.0,
        )
        faults = outcome.scorecard["faults"]
        assert faults["total"] == 0
        assert faults["retries"] == 0
        assert faults["dead_letters"] == 0


# ----------------------------------------------------------------------
# The default campaign across every built-in policy
# ----------------------------------------------------------------------
class TestDefaultCampaignInvariants:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_all_invariants_pass(self, policy):
        outcome = run_campaign(policy=policy)
        failed = [
            inv["name"] for inv in outcome.scorecard["invariants"] if not inv["passed"]
        ]
        assert not failed, f"{policy}: {failed}"
        assert outcome.scorecard["faults"]["total"] > 0

    def test_scorecard_replays_bit_for_bit(self):
        first = run_campaign(policy="spotverse").scorecard
        second = run_campaign(policy="spotverse").scorecard
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_different_seeds_diverge(self):
        a = run_campaign(policy="spotverse", seed=11).scorecard
        b = run_campaign(policy="spotverse", seed=12).scorecard
        assert a != b


# ----------------------------------------------------------------------
# Individual fault modes hit their designed recovery paths
# ----------------------------------------------------------------------
class TestFaultModes:
    def test_throttle_storm_retries_and_dead_letters(self):
        campaign = CampaignSpec(
            name="throttle",
            injections=(
                Injection(kind="dynamodb-throttle", at=0.0, duration=48 * HOUR, rate=0.6),
            ),
        )
        outcome = run_campaign(
            policy="single-region",
            campaign=campaign,
            workloads=small_fleet(),
            max_hours=48.0,
        )
        assert outcome.all_passed
        assert outcome.scorecard["faults"]["retries"] > 0

    def test_total_eventbridge_drop_is_reconciled(self):
        # Every interruption notice is lost; the CloudWatch sweep must
        # detect the dead instances and restage the workloads.
        campaign = CampaignSpec(
            name="drop-everything",
            injections=(
                Injection(kind="eventbridge-drop", at=0.0, duration=72 * HOUR, rate=1.0),
            ),
        )
        outcome = run_campaign(
            policy="single-region",
            campaign=campaign,
            workloads=small_fleet(),
            max_hours=72.0,
        )
        assert outcome.all_passed
        interruptions = outcome.scorecard["totals"]["interruptions"]
        if interruptions:
            assert outcome.scorecard["faults"]["reconciled_interruptions"] > 0

    def test_checkpoint_corruption_triggers_fallback(self):
        campaign = CampaignSpec(
            name="corrupt",
            injections=(
                Injection(
                    kind="checkpoint-corruption", at=0.0, duration=72 * HOUR, rate=1.0
                ),
            ),
        )
        outcome = run_campaign(policy="single-region", campaign=campaign)
        assert outcome.all_passed
        # ca-central-1 is interruption-prone enough that checkpointable
        # workloads restore at least once; every artifact is corrupt, so
        # each verified restore demotes to a fallback.
        if outcome.scorecard["totals"]["interruptions"]:
            assert outcome.scorecard["faults"]["checkpoint_fallbacks"] > 0

    def test_region_blackout_forces_interruptions(self):
        campaign = CampaignSpec(
            name="blackout",
            injections=(
                Injection(
                    kind="region-blackout",
                    at=2 * HOUR,
                    duration=HOUR,
                    region="ca-central-1",
                ),
            ),
        )
        outcome = run_campaign(
            policy="single-region",
            campaign=campaign,
            workloads=small_fleet(),
            max_hours=48.0,
        )
        assert outcome.all_passed
        assert outcome.scorecard["faults"]["by_kind"].get("region-blackout") == 1
        assert outcome.scorecard["totals"]["interruptions"] > 0

    def test_reclaim_storm_interrupts_spot_capacity(self):
        campaign = CampaignSpec(
            name="storm",
            injections=(Injection(kind="reclaim-storm", at=HOUR, rate=1.0),),
        )
        outcome = run_campaign(
            policy="single-region",
            campaign=campaign,
            workloads=small_fleet(),
            max_hours=48.0,
        )
        assert outcome.all_passed
        assert outcome.scorecard["totals"]["interruptions"] >= len(small_fleet())


# ----------------------------------------------------------------------
# Checkpoint corruption: one shared damaged body, unchanged verdicts
# ----------------------------------------------------------------------
def _reference_check(entries):
    """Verdict with a fresh SHA-256 per artifact (no digest reuse)."""
    if not entries:
        return None
    corrupt = 0
    for index, (_, body, metadata) in enumerate(sorted(entries, key=lambda e: -e[0])):
        expected = metadata.get("sha256", "")
        if expected and hashlib.sha256(body).hexdigest() == expected:
            return checkpoint.ArtifactCheck(
                newest_valid=index == 0,
                valid_segments=int(metadata.get("segments", "0")),
                corrupt_count=corrupt,
            )
        corrupt += 1
    return checkpoint.ArtifactCheck(newest_valid=False, valid_segments=0, corrupt_count=corrupt)


class TestCheckpointCorruption:
    def _controller(self):
        provider = CloudProvider(seed=1)
        controller = ChaosController(
            provider,
            CampaignSpec(
                name="corrupt",
                injections=(
                    Injection(kind="checkpoint-corruption", at=0.0, duration=HOUR, rate=1.0),
                ),
            ),
        )
        controller.install()
        provider.engine.run_until(provider.engine.now + 1.0)
        return provider, controller

    def test_corruptions_of_one_body_share_one_object(self):
        provider, controller = self._controller()
        body, _ = checkpoint._zero_body(1 << 20)
        first = controller.corrupt_checkpoint("s3", "checkpoints/w/1.bin", body)
        second = controller.corrupt_checkpoint("efs", "checkpoints/w/2.bin", body)
        assert first is second
        expected = bytearray(body[: len(body) // 2])
        expected[0] ^= 0xFF
        assert first == bytes(expected)
        other = controller.corrupt_checkpoint("s3", "checkpoints/w/3.bin", b"\x07" * 5)
        assert other == b"\xf8\x07"
        assert controller.corrupt_checkpoint("s3", "results/w.bin", body) is None
        faults = [
            e for e in provider.telemetry.bus if e.type is EventType.CHAOS_FAULT_INJECTED
        ]
        assert [e.attrs["scope"] for e in faults] == [
            "s3:checkpoints/w/1.bin",
            "efs:checkpoints/w/2.bin",
            "s3:checkpoints/w/3.bin",
        ]

    def test_empty_body_corrupts_to_one_byte(self):
        _, controller = self._controller()
        assert controller.corrupt_checkpoint("s3", "checkpoints/w/1.bin", b"") == b"\xff"

    def test_zero_byte_checkpoints_survive_total_corruption(self):
        fleet = [
            dataclasses.replace(
                ngs_preprocessing_workload(f"ckpt-{i}", duration_hours=3.0, n_segments=3),
                checkpoint_bytes=0,
            )
            for i in range(20)
        ]
        campaign = CampaignSpec(
            name="corrupt-empty",
            injections=(
                Injection(
                    kind="checkpoint-corruption", at=0.0, duration=72 * HOUR, rate=1.0
                ),
            ),
        )
        outcome = run_campaign(
            policy="single-region", campaign=campaign, workloads=fleet, max_hours=72.0
        )
        assert outcome.all_passed
        faults = outcome.scorecard["faults"]
        assert faults["by_kind"]["checkpoint-corruption"] > 0
        assert faults["checkpoint_fallbacks"] > 0

    def test_verdicts_match_a_fresh_hash_per_artifact(self):
        _, controller = self._controller()
        body, digest = checkpoint._zero_body(1 << 20)
        small, small_digest = checkpoint._zero_body(1000)
        corrupted = controller.corrupt_checkpoint("s3", "checkpoints/w/1.bin", body)
        arbitrary = b"payload"
        meta = {"sha256": digest, "segments": "3"}
        arbitrary_meta = {"sha256": hashlib.sha256(arbitrary).hexdigest(), "segments": "7"}
        cases = [
            [],
            [(1, body, meta)],
            [(1, small, {"sha256": small_digest, "segments": "1"})],
            [(1, corrupted, meta), (2, corrupted, dict(meta, segments="5"))],
            [(1, body, dict(meta, segments="2")), (2, corrupted, meta), (3, corrupted, meta)],
            [(4, body, meta), (2, corrupted, meta), (3, b"", {"sha256": ""})],
            [(1, arbitrary, arbitrary_meta), (2, b"x", meta)],
            [(1, body, {"segments": "1"})],
        ]
        for entries in cases:
            assert checkpoint._check_entries(list(entries)) == _reference_check(entries)
            # A second pass reuses digests and must agree.
            assert checkpoint._check_entries(list(entries)) == _reference_check(entries)

    def test_digest_memo_is_bounded(self):
        bodies = [bytes([i]) * 64 for i in range(3 * checkpoint._DIGEST_MEMO_SIZE)]
        for body in bodies:
            assert checkpoint._checksum(body) == hashlib.sha256(body).hexdigest()
        assert len(checkpoint._DIGESTS) <= checkpoint._DIGEST_MEMO_SIZE


# ----------------------------------------------------------------------
# Controller kills: crash recovery under active fault windows
# ----------------------------------------------------------------------
class TestControllerKill:
    @pytest.mark.parametrize("tenants", [None, 3])
    def test_kill_recovers_bit_identically(self, tenants):
        base = default_campaign()
        # 5h sits between the 4h reclaim storm and the 6h blackout, with
        # no rate-based window active — recovery's extra store reads
        # must not consume live window draws for bit-equality to hold.
        # The tenant case compares against an unkilled multi-tenant run.
        killed = CampaignSpec(
            name="default+kill",
            injections=tuple(base.injections)
            + (Injection(kind="controller-kill", at=5 * HOUR),),
        )
        outcome = run_campaign(
            policy="spotverse",
            campaign=killed,
            verify_resume_equivalence=True,
            tenants=tenants,
        )
        by_name = {inv["name"]: inv for inv in outcome.scorecard["invariants"]}
        assert by_name["resume-equivalence"]["passed"], by_name["resume-equivalence"]
        assert outcome.all_passed

    def test_double_kill_still_completes(self):
        killed = CampaignSpec(
            name="two-kills",
            injections=(
                Injection(kind="dynamodb-throttle", at=0.5 * HOUR, duration=HOUR, rate=0.3),
                Injection(kind="controller-kill", at=2 * HOUR),
                Injection(kind="controller-kill", at=4 * HOUR),
            ),
        )
        outcome = run_campaign(
            policy="single-region",
            campaign=killed,
            workloads=small_fleet(),
            max_hours=48.0,
        )
        assert outcome.all_passed


# ----------------------------------------------------------------------
# Client retries die with their controller
# ----------------------------------------------------------------------
class TestRetriesDieWithController:
    def test_dead_controllers_spot_refiling_is_cancelled(self):
        # w2's re-file after an interruption is rejected at about
        # submit + 1500 s and its retry is pending at the kill.  Were the
        # retry to outlive the dead controller, it would put that
        # controller's forgotten execution onto a fifth instance and w2
        # would complete twice.
        provider = CloudProvider(seed=11)
        provider.warmup_markets(48)
        config, monitor, policy = build_strategy("spotverse", provider, SpotVerseConfig())
        controller = FleetController(provider, policy, config, monitor=monitor)
        campaign = CampaignSpec(
            name="spot-api",
            injections=(Injection(kind="ec2-request-error", at=0.0, duration=HOUR, rate=1.0),),
        )
        ChaosController(provider, campaign).install()
        fleet = [synthetic_workload(f"w{i}", duration_hours=2.0, n_segments=4) for i in range(3)]
        controller.submit(fleet)
        provider.engine.run_until(1510.0)
        rejected = [
            (event.workload_id, event.time)
            for event in provider.telemetry.bus.events(EventType.RESILIENCE_RETRY)
        ]
        assert rejected and rejected[0][0] == "w2" and 1500.0 <= rejected[0][1] < 1510.0
        store = controller.state_store
        controller.teardown()
        controller = FleetController(provider, policy, config, monitor=monitor, state_store=store)
        controller.restore(fleet)
        result = controller.wait(fleet, max_hours=24.0)
        assert all(record.completed for record in result.records)
        done = [event.workload_id for event in provider.telemetry.bus.events(EventType.WORKLOAD_DONE)]
        assert sorted(done) == ["w0", "w1", "w2"]
        assert len(provider.ec2.describe_instances()) == 4

    @pytest.mark.parametrize(
        "seed, per_kind", [(0, 200), (1, 200), (18, 200), (59, 200), (45, 100)]
    )
    def test_kill_campaign_completes_each_workload_once(self, seed, per_kind):
        # Seeds 0 and 1 raised ThrottlingError while a fulfillment read
        # its request's tracking row back; 18, 59 and 45 completed a
        # workload twice before client retries died with their controller.
        _, error, failed = chaos_kill_sweep.run_seed(seed, per_kind)
        assert error == ""
        assert not set(failed) & set(chaos_kill_sweep.GATED), failed
