"""Multi-tenant control plane: admission, quotas, durability, goldens.

Covers the tenancy layer end to end: weighted fair-share admission
order and the zero-weight starvation guard at the unit level; quota
exhaustion/release, backpressure telemetry, deterministic replay, and
teardown/resume with a non-empty admission queue against the real
control plane; and the bit-identity gate — every golden scenario
replayed through :class:`MultiTenantController` with one default
tenant at ``n_shards=1`` must match the committed monolith fixture
float for float.
"""

import json
import random
from typing import List

import pytest

from repro.chaos.invariants import TenantFairnessCheck, TenantQuotaCheck
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.tenancy import (
    Admission,
    AdmissionController,
    MultiTenantController,
    TenantRegistry,
    TenantSpec,
    ZERO_WEIGHT_FLOOR,
)
from repro.errors import ExperimentError
from repro.obs.events import EventType
from repro.sim.clock import HOUR
from repro.workloads.base import synthetic_workload
from tests.golden_scenarios import (
    FIXTURE_PATH,
    SCENARIOS,
    result_to_dict,
    run_scenario_tenancy,
)

SEED = 11


def _store_registry():
    provider = CloudProvider(seed=SEED)
    from repro.core.fleet.state import FleetStateStore

    return provider, TenantRegistry(FleetStateStore(provider.dynamodb))


def _plane(provider):
    """Shared config/monitor/policy for one provider (reusable on rebuild)."""
    config = SpotVerseConfig(instance_type="m5.xlarge")
    monitor = Monitor(
        provider, [config.instance_type], collect_interval=config.collect_interval
    )
    policy = SpotVerseOptimizer(monitor, config)
    return config, monitor, policy


def _controller(provider, n_shards=1, state_store=None, admit_interval=0.0):
    config, monitor, policy = _plane(provider)
    return MultiTenantController(
        provider,
        policy,
        config,
        monitor=monitor,
        n_shards=n_shards,
        state_store=state_store,
        admit_interval=admit_interval,
    )


# ----------------------------------------------------------------------
# TenantSpec / TenantRegistry
# ----------------------------------------------------------------------
def test_tenant_spec_validation_and_roundtrip():
    with pytest.raises(ExperimentError):
        TenantSpec(tenant_id="")
    with pytest.raises(ExperimentError):
        TenantSpec(tenant_id="t", max_in_flight=-1)
    spec = TenantSpec(
        tenant_id="lab-a", weight=0.0, max_in_flight=3, max_pending=7, policy="spotverse"
    )
    assert spec.effective_weight == ZERO_WEIGHT_FLOOR
    assert TenantSpec.from_dict(spec.to_dict()) == spec


def test_registry_persists_and_reloads():
    provider, registry = _store_registry()
    registry.register(TenantSpec(tenant_id="b", weight=2.0))
    registry.register(TenantSpec(tenant_id="a", max_in_flight=4))
    rebuilt = TenantRegistry(registry._store)
    rebuilt.reload()
    assert [spec.tenant_id for spec in rebuilt.tenants()] == ["b", "a"]
    assert rebuilt.get("a").max_in_flight == 4
    with pytest.raises(ExperimentError):
        rebuilt.get("nobody")
    provider.shutdown()


# ----------------------------------------------------------------------
# AdmissionController (pure scheduling)
# ----------------------------------------------------------------------
def _admission(specs):
    provider, registry = _store_registry()
    for spec in specs:
        registry.register(spec)
    return provider, AdmissionController(registry)


def test_wfq_shares_track_weights():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", weight=2.0), TenantSpec(tenant_id="b", weight=1.0)]
    )
    for i in range(30):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
        admission.enqueue("b", synthetic_workload(f"b-{i}", 1.0, n_segments=1))
    order = [adm.tenant_id for adm in admission.drain()]
    assert len(order) == 60
    # Weight 2 tenant lands ~2/3 of any contended prefix.
    first = order[:15]
    assert 9 <= first.count("a") <= 11
    provider.shutdown()


def test_quota_holds_admission_until_release():
    provider, admission = _admission([TenantSpec(tenant_id="a", max_in_flight=1)])
    for i in range(3):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
    assert [a.workload.workload_id for a in admission.drain()] == ["a-0"]
    assert admission.drain() == []  # quota exhausted, nothing moves
    assert admission.queued_count("a") == 2
    admission.release("a")
    assert [a.workload.workload_id for a in admission.drain()] == ["a-1"]
    assert admission.in_flight("a") == 1
    provider.shutdown()


def test_zero_weight_tenant_is_never_starved():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", weight=1.0), TenantSpec(tenant_id="z", weight=0.0)]
    )
    for i in range(50):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
    for i in range(5):
        admission.enqueue("z", synthetic_workload(f"z-{i}", 1.0, n_segments=1))
    order = [adm.tenant_id for adm in admission.drain()]
    positions = [i for i, tenant in enumerate(order) if tenant == "z"]
    assert len(positions) == 5  # everything admitted — no outright starvation
    # The floor guarantees one z admission per ~1/ZERO_WEIGHT_FLOOR
    # weight-1 admissions while both stay backlogged.
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    assert positions[0] <= 2
    assert max(gaps) <= int(1.0 / ZERO_WEIGHT_FLOOR) + 2
    provider.shutdown()


def test_bounded_queue_throttles():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", max_pending=1, max_in_flight=1)]
    )
    assert admission.enqueue("a", synthetic_workload("a-0", 1.0, n_segments=1))
    assert not admission.enqueue("a", synthetic_workload("a-1", 1.0, n_segments=1))
    assert admission.throttled_counts["a"] == 1
    provider.shutdown()


class _ReferenceAdmission(AdmissionController):
    """The original drain: rebuild the eligible list per admission."""

    def _eligible(self) -> List[str]:
        eligible = []
        for tenant_id in sorted(self._queues):
            if not self._queues[tenant_id]:
                continue
            spec = self.registry.get(tenant_id)
            if spec.max_in_flight and self._in_flight.get(tenant_id, 0) >= spec.max_in_flight:
                continue
            eligible.append(tenant_id)
        return eligible

    def drain(self) -> List[Admission]:
        admitted: List[Admission] = []
        while True:
            eligible = self._eligible()
            if not eligible:
                break
            chosen = min(
                eligible, key=lambda tenant_id: (self._virtual[tenant_id], tenant_id)
            )
            workload = self._queues[chosen].popleft()
            spec = self.registry.get(chosen)
            self._in_flight[chosen] = self._in_flight.get(chosen, 0) + 1
            self._virtual[chosen] += 1.0 / spec.effective_weight
            self._global_virtual = self._virtual[chosen]
            self.admitted_counts[chosen] = self.admitted_counts.get(chosen, 0) + 1
            admitted.append(
                Admission(
                    tenant_id=chosen,
                    workload=workload,
                    passed_over=tuple(t for t in eligible if t != chosen),
                )
            )
        return admitted

    def queued_count(self, tenant_id=None) -> int:
        if tenant_id is not None:
            return len(self._queues.get(tenant_id, ()))
        return sum(len(queue) for queue in self._queues.values())


class _Roster:
    """The one ``TenantRegistry`` method admission reads."""

    def __init__(self, specs):
        self._specs = {spec.tenant_id: spec for spec in specs}

    def get(self, tenant_id):
        return self._specs[tenant_id]


@pytest.mark.parametrize("seed", range(40))
def test_drain_matches_reference_admission(seed):
    rng = random.Random(seed)
    specs = [
        TenantSpec(
            tenant_id=f"t{index:02d}",
            weight=rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0]),
            max_in_flight=rng.choice([0, 0, 1, 2, 5]),
            max_pending=rng.choice([0, 0, 3, 10]),
        )
        for index in rng.sample(range(30), rng.randint(1, 12))
    ]
    roster = _Roster(specs)
    fast, reference = AdmissionController(roster), _ReferenceAdmission(roster)
    tenant_ids = [spec.tenant_id for spec in specs]
    # In-flight counts seeded by a controller restore.
    for tenant_id in tenant_ids:
        restored = rng.choice([0, 0, 1, 3])
        if restored:
            fast.note_in_flight(tenant_id, restored)
            reference.note_in_flight(tenant_id, restored)
    submitted = 0
    for _ in range(rng.randint(20, 80)):
        op = rng.random()
        if op < 0.6:
            tenant_id = rng.choice(tenant_ids)
            workload = synthetic_workload(f"w-{submitted}", 1.0, n_segments=1)
            submitted += 1
            assert fast.enqueue(tenant_id, workload) == reference.enqueue(tenant_id, workload)
        elif op < 0.8:
            tenant_id = rng.choice(tenant_ids)
            fast.release(tenant_id)
            reference.release(tenant_id)
        else:
            got, want = fast.drain(), reference.drain()
            assert [(a.tenant_id, a.workload.workload_id, a.passed_over) for a in got] == [
                (a.tenant_id, a.workload.workload_id, a.passed_over) for a in want
            ]
        assert fast.queued_count() == reference.queued_count()
        assert fast._virtual == reference._virtual
        assert fast._in_flight == reference._in_flight
    for tenant_id in tenant_ids:
        for _ in range(5):
            fast.release(tenant_id)
            reference.release(tenant_id)
    got, want = fast.drain(), reference.drain()
    assert [(a.tenant_id, a.workload, a.passed_over) for a in got] == [
        (a.tenant_id, a.workload, a.passed_over) for a in want
    ]
    assert fast.queued_count() == reference.queued_count()
    assert fast.admitted_counts == reference.admitted_counts


# ----------------------------------------------------------------------
# MultiTenantController against the real control plane
# ----------------------------------------------------------------------
def test_quota_exhaustion_then_release_end_to_end():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=2))
    for i in range(5):
        assert controller.submit(
            "lab", synthetic_workload(f"wl-{i}", duration_hours=1.0, n_segments=1)
        )
    result = controller.wait(max_hours=72.0)
    assert sum(1 for r in result.records if r.completed_at is not None) == 5
    usage = controller.usage()["lab"]
    assert usage["admitted"] == 5 and usage["done"] == 5 and usage["in_flight"] == 0
    # The stream-reconstructed invariant agrees: never over quota.
    quota_check = TenantQuotaCheck()
    fairness_check = TenantFairnessCheck()
    for event in provider.telemetry.bus:
        assert quota_check.observe(event) == []
        assert fairness_check.observe(event) == []
    assert max(quota_check.in_flight.values(), default=0) <= 2
    provider.shutdown()


def test_throttled_submission_emits_backpressure_event():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(
        TenantSpec(tenant_id="lab", max_in_flight=1, max_pending=1)
    )
    assert controller.submit("lab", synthetic_workload("w-0", 1.0, n_segments=1))
    assert not controller.submit("lab", synthetic_workload("w-1", 1.0, n_segments=1))
    throttled = provider.telemetry.bus.events(EventType.TENANT_THROTTLED)
    assert len(throttled) == 1
    assert throttled[0].attrs["tenant_id"] == "lab"
    assert throttled[0].workload_id == "w-1"
    provider.shutdown()


def test_unknown_tenant_is_rejected():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    with pytest.raises(ExperimentError):
        controller.submit("ghost", synthetic_workload("w", 1.0, n_segments=1))
    provider.shutdown()


def _interleaved_run():
    """One 3-tenant run with interleaved submissions; returns payloads."""
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider, n_shards=4)
    for index, weight in enumerate((3.0, 1.0, 2.0)):
        controller.register_tenant(
            TenantSpec(tenant_id=f"t-{index}", weight=weight, max_in_flight=2)
        )
    for i in range(9):
        controller.submit(
            f"t-{i % 3}",
            synthetic_workload(f"t{i % 3}-wl-{i}", duration_hours=2.0, n_segments=2),
        )
    result = controller.wait(max_hours=72.0)
    payload = (result_to_dict(result), controller.usage())
    provider.shutdown()
    return payload


def test_interleaved_multi_tenant_replay_is_deterministic():
    first_result, first_usage = _interleaved_run()
    second_result, second_usage = _interleaved_run()
    assert first_result == second_result
    assert first_usage == second_usage
    assert all(row["done"] == 3 for row in first_usage.values())


def test_teardown_resume_with_non_empty_admission_queue():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    config, monitor, policy = _plane(provider)
    controller = MultiTenantController(provider, policy, config, monitor=monitor)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=1))
    fleet = [
        synthetic_workload(f"wl-{i}", duration_hours=4.0, n_segments=4)
        for i in range(3)
    ]
    for workload in fleet:
        controller.submit("lab", workload)
    # Drive past the first admission round: one in flight, two queued.
    provider.engine.run_until(provider.engine.now + 1.0 * HOUR)
    assert controller.admission.queued_count("lab") == 2
    store = controller.state_store
    controller.teardown()
    del controller

    rebuilt = MultiTenantController(
        provider, policy, config, monitor=monitor, state_store=store
    )
    rebuilt.restore(fleet)
    result = rebuilt.wait(max_hours=120.0)
    assert sum(1 for r in result.records if r.completed_at is not None) == 3
    usage = rebuilt.usage()["lab"]
    assert usage["done"] == 3 and usage["queued"] == 0 and usage["in_flight"] == 0
    assert rebuilt.tenant_of("wl-2") == "lab"
    # The durable queue fully drained.
    assert list(store.mapping(MultiTenantController.QUEUE_SECTION)) == []
    provider.shutdown()


# ----------------------------------------------------------------------
# Fleet-scale batch audit
# ----------------------------------------------------------------------
AUDIT_TENANTS = 100
AUDIT_LIFECYCLES = 4000
AUDIT_QUOTA = 4  # per-tenant concurrent lifecycles -> up to 400 in flight
AUDIT_DECISION_CAP = 16  # well under the round count, so the ring drops


def test_fleet_scale_admission_batches_one_scoring_pass_per_round():
    # Thousands of lifecycles across 100 quota-bound tenants: every
    # admission must ride an ``initial`` decision, and each admission
    # round must be ONE region-scoring pass however many tenants'
    # workloads it carries.
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider, n_shards=16, admit_interval=300.0)
    decisions = provider.telemetry.decisions
    decisions.cap(AUDIT_DECISION_CAP)
    audit = {"rounds": 0, "batched": 0, "times": set(), "peak_in_flight": 0}

    def observe(event):
        if event.type is EventType.DECISION_EVALUATED:
            payload = event.attrs.get("decision", {})
            if payload.get("kind") == "initial":
                audit["rounds"] += 1
                audit["batched"] += payload.get(
                    "batch_size", len(payload.get("workload_ids", ()))
                )
                audit["times"].add(event.time)
                audit["peak_in_flight"] = max(
                    audit["peak_in_flight"],
                    *(row["in_flight"] for row in controller.usage().values()),
                )

    provider.telemetry.bus.subscribe(observe)
    for index in range(AUDIT_TENANTS):
        controller.register_tenant(
            TenantSpec(
                tenant_id=f"tenant-{index:03d}",
                weight=float(1 + index % 5),
                max_in_flight=AUDIT_QUOTA,
            )
        )
    for index in range(AUDIT_LIFECYCLES):
        assert controller.submit(
            f"tenant-{index % AUDIT_TENANTS:03d}",
            synthetic_workload(f"wl-{index:06d}", duration_hours=0.25, n_segments=1),
        )
    result = controller.wait(max_hours=4000.0)
    provider.shutdown()

    done = sum(1 for record in result.records if record.completed_at is not None)
    assert done == AUDIT_LIFECYCLES
    assert audit["batched"] == AUDIT_LIFECYCLES
    assert len(audit["times"]) == audit["rounds"]
    assert audit["peak_in_flight"] <= AUDIT_QUOTA
    assert done / audit["rounds"] >= 20.0
    assert decisions.decisions_dropped > 0


# ----------------------------------------------------------------------
# Golden equivalence: tenancy façade == plain controller, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture():
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate ONLY from a pre-refactor "
        "monolith build: PYTHONPATH=src python -m tests.golden_scenarios"
    )
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tenancy_facade_is_bit_identical(name, fixture):
    assert result_to_dict(run_scenario_tenancy(name)) == fixture[name]
