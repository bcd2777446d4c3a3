"""Process-pool arm execution: equality with serial, spec plumbing."""

import os
import pickle
from dataclasses import replace

import pytest

from repro.core.config import SpotVerseConfig
from repro.experiments import harness
from repro.experiments.ablations import run_migration_ablation
from repro.experiments.harness import (
    ArmSpec,
    default_jobs,
    indexed_workload_factory,
    mean_over_seeds,
    run_arms,
    run_arms_parallel,
    set_default_jobs,
)
from repro.obs import Telemetry
from repro.strategies import STRATEGIES
from repro.workloads.genome_reconstruction import genome_reconstruction_workload


def _spec(name="arm", seed=3, telemetry=None):
    return ArmSpec(
        name=name,
        strategy=STRATEGIES["single-region"],
        config=SpotVerseConfig(instance_type="m5.xlarge", start_region="ca-central-1"),
        workload_factory=indexed_workload_factory(
            genome_reconstruction_workload, "w-{:02d}", duration_hours=2.0
        ),
        n_workloads=2,
        seed=seed,
        max_hours=20.0,
        telemetry=telemetry,
    )


def _fleet_equal(a, b):
    return (
        a.total_cost == b.total_cost
        and a.total_interruptions == b.total_interruptions
        and a.makespan_hours == b.makespan_hours
        and [r.workload_id for r in a.records] == [r.workload_id for r in b.records]
    )


def test_factories_are_picklable():
    spec = _spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.name == spec.name
    assert clone.workload_factory(3).workload_id == "w-03"


def test_roster_arms_pickle_and_run_in_pool():
    for name, strategy in STRATEGIES.items():
        assert pickle.loads(pickle.dumps(strategy)) == strategy, name
        spec = replace(_spec(name=name), strategy=strategy)
        assert pickle.loads(pickle.dumps(spec)).strategy == strategy, name
    # A driver sweep fans out under the CLI's --jobs default and matches
    # the serial run; with two cores its arms really cross the pool.
    serial = run_migration_ablation(n_workloads=6)
    set_default_jobs(2)
    try:
        pooled = run_migration_ablation(n_workloads=6)
    finally:
        set_default_jobs(1)
    assert list(pooled.arms) == list(serial.arms)
    for name, arm in serial.arms.items():
        assert pooled.arms[name].fleet == arm.fleet, name
        if (os.cpu_count() or 1) >= 2:
            assert pooled.arms[name].provider is None, name


def test_parallel_results_equal_serial():
    specs = [_spec(name=f"arm-{seed}", seed=seed) for seed in (1, 2, 3)]
    serial = run_arms(specs, jobs=1)
    parallel = run_arms_parallel(specs, jobs=2)
    assert list(parallel) == [spec.name for spec in specs]
    # On a multi-core host the arms cross the pool and shed their
    # provider; a 1-core host takes the serial fallback and keeps it.
    pooled = (os.cpu_count() or 1) >= 2
    for name in serial:
        assert _fleet_equal(serial[name].fleet, parallel[name].fleet), name
        assert serial[name].provider is not None
        if pooled:
            assert parallel[name].provider is None
            assert parallel[name].telemetry is None
        else:
            assert parallel[name].provider is not None


def test_non_picklable_spec_falls_back_to_serial():
    safe = _spec(name="safe", seed=1)
    closure = _spec(name="closure", seed=2)
    closure.workload_factory = lambda i: genome_reconstruction_workload(
        f"w-{i:02d}", duration_hours=2.0
    )
    results = run_arms_parallel([safe, closure], jobs=2)
    # The closure arm ran in-process and keeps its provider.
    assert results["closure"].provider is not None
    assert list(results) == ["safe", "closure"]


def test_live_telemetry_pins_arm_to_serial():
    spec = _spec(name="observed", telemetry=Telemetry())
    results = run_arms_parallel([spec, _spec(name="plain", seed=4)], jobs=2)
    assert results["observed"].provider is not None
    assert results["observed"].telemetry is spec.telemetry


def test_duplicate_arm_names_rejected():
    with pytest.raises(ValueError):
        run_arms([_spec(name="dup"), _spec(name="dup", seed=9)])


def test_mean_over_seeds_preserves_spec_fields():
    telemetry = Telemetry()
    spec = _spec(telemetry=telemetry)
    captured = []
    original = harness.run_arms

    def capture(specs, jobs=None):
        captured.extend(specs)
        return original(specs, jobs=jobs)

    harness.run_arms = capture
    try:
        means = mean_over_seeds(spec, seeds=[1, 2])
    finally:
        harness.run_arms = original
    assert len(means) == 3
    assert [clone.seed for clone in captured] == [1, 2]
    for clone in captured:
        assert clone.telemetry is telemetry
        assert clone.max_hours == spec.max_hours


def test_mean_over_seeds_parallel_matches_serial():
    spec = _spec()
    assert mean_over_seeds(spec, seeds=[1, 2], jobs=2) == mean_over_seeds(
        spec, seeds=[1, 2], jobs=1
    )


def test_default_jobs_knob():
    assert default_jobs() == 1
    set_default_jobs(3)
    try:
        assert default_jobs() == 3
        set_default_jobs(0)  # clamped to at least one worker
        assert default_jobs() == 1
    finally:
        set_default_jobs(1)
