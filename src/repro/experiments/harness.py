"""The arm harness: one strategy x one fleet on a fresh provider.

Every experiment arm gets its own :class:`~repro.cloud.provider.CloudProvider`
(so cost ledgers, markets, and event streams never leak between
strategies), a Monitor, and the shared
:class:`~repro.core.controller.FleetController`.  An arm's strategy is
a :class:`~repro.strategies.Strategy` row — usually
``STRATEGIES[name]``, with per-arm parameters (the single-region
``start_region``, the on-demand ``instance_type``) in the arm's config.

Arms are share-nothing by construction, which makes sweeps
embarrassingly parallel: :func:`run_arms` (and :func:`mean_over_seeds`)
accept a ``jobs`` knob that fans independent arms out over a process
pool.  Specs must be picklable to cross the process boundary — roster
rows are, and workload factories should come from
:func:`indexed_workload_factory`.  Specs that cannot travel
(non-picklable closures, or a live ``telemetry`` bundle whose
subscribers must observe the run in *this* process) gracefully fall
back to serial execution; results are keyed and ordered identically
either way.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.cloud.profiles import default_market_profiles
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.monitor import Monitor
from repro.core.result import FleetResult
from repro.obs import Telemetry
from repro.strategies import Strategy
from repro.workloads.base import Workload

#: Builds workload *i* of the fleet.
WorkloadFactory = Callable[[int], Workload]

#: Market pre-roll before every arm's run.
WARMUP_STEPS = 48

#: Fallback worker count when ``jobs`` is not given anywhere.
_default_jobs = 1


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default for ``jobs=None`` calls.

    The CLI's ``--jobs`` knob lands here so every experiment driver in
    the invocation fans out without each one re-plumbing the argument.
    """
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def default_jobs() -> int:
    """The process-wide default worker count."""
    return _default_jobs


def _build_indexed_workload(index, *, builder, id_format, **kwargs):
    return builder(id_format.format(index), **kwargs)


def indexed_workload_factory(builder, id_format, **kwargs) -> WorkloadFactory:
    """A picklable workload factory: ``builder(id_format.format(i))``.

    Args:
        builder: Module-level workload constructor (e.g.
            ``genome_reconstruction_workload``).
        id_format: ``str.format`` pattern for the workload id, applied
            to the fleet index (e.g. ``"std-{:02d}"``).
        **kwargs: Extra keyword arguments for *builder* (e.g.
            ``duration_hours``).
    """
    return partial(_build_indexed_workload, builder=builder, id_format=id_format, **kwargs)


@dataclass
class ArmSpec:
    """One experiment arm.

    Attributes:
        name: Arm label used in reports.
        strategy: The arm's roster row (e.g. ``STRATEGIES["spotverse"]``).
        config: Control-plane configuration for the arm; the strategy's
            overrides are applied on top.
        workload_factory: Builds workload *i*.
        n_workloads: Fleet size (the paper uses 40, or 42 in Fig. 3).
        seed: Provider master seed (same seed across arms = same market
            randomness, the paper's paired-comparison setup).
        max_hours: Simulation deadline.
        profile_overrides: Optional market-regime overrides (e.g. the
            threshold study's collection date).
        telemetry: Observability hook: a bundle the arm's provider
            emits into (e.g. one wired to a JSONL subscriber, or a
            shared registry when a driver wants cross-arm aggregation).
            Each arm gets a fresh bundle when omitted.  A shared bundle
            pins the arm to serial execution — its subscribers live in
            this process.
        live_dir: When set, the arm's
            :class:`~repro.obs.live.LivePlane` streams its telemetry
            into segmented JSONL under ``<live_dir>/<arm name>``.
            Plain strings pickle, so live export works in pool workers
            too (each worker writes its own arm's directory).
        flight_dir: When set, the arm's live plane feeds a
            :class:`~repro.obs.flight.FlightRecorder` writing
            ``BLACKBOX_*.json`` under ``<flight_dir>/<arm name>``.
        trim_bus: With a live plane attached, clear the event bus after
            each export flush so telemetry memory stays bounded by the
            segment/window caps instead of the run length.  Off by
            default — post-run consumers (reports, ``write_jsonl``)
            need the full stream.
    """

    name: str
    strategy: Strategy
    config: SpotVerseConfig
    workload_factory: WorkloadFactory
    n_workloads: int = 40
    seed: int = 7
    max_hours: float = 160.0
    profile_overrides: Optional[Mapping[Tuple[str, str], Mapping[str, float]]] = None
    telemetry: Optional[Telemetry] = None
    live_dir: Optional[str] = None
    flight_dir: Optional[str] = None
    trim_bus: bool = False


@dataclass
class ArmResult:
    """An arm's outcome plus the provider it ran on (for deep dives).

    ``provider`` is ``None`` when the arm executed in a pool worker:
    live providers (engine heaps, service substrates, open callbacks)
    do not cross process boundaries — only the measured
    :class:`~repro.core.result.FleetResult` comes back.
    """

    spec: ArmSpec
    fleet: FleetResult
    provider: Optional[CloudProvider]
    #: The arm's live observability plane, when ``spec.live_dir`` or
    #: ``spec.flight_dir`` asked for one and the arm ran in-process
    #: (``None`` for pool-run arms — the plane's exported segments are
    #: still on disk either way).
    live_plane: Optional[object] = None

    @property
    def name(self) -> str:
        """The arm's label."""
        return self.spec.name

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The arm's observability bundle (``None`` for pool-run arms)."""
        if self.provider is None:
            return self.spec.telemetry
        return self.provider.telemetry


def run_arm(spec: ArmSpec) -> ArmResult:
    """Execute one arm and return its result."""
    profiles = default_market_profiles()
    if spec.profile_overrides is not None:
        profiles = profiles.with_overrides(spec.profile_overrides)
    provider = CloudProvider(
        seed=spec.seed,
        profiles=profiles,
        telemetry=spec.telemetry,
    )
    provider.warmup_markets(WARMUP_STEPS)
    plane = None
    if spec.live_dir is not None or spec.flight_dir is not None:
        from repro.obs.flight import FlightRecorder
        from repro.obs.live import LivePlane

        recorder = None
        if spec.flight_dir is not None:
            recorder = FlightRecorder(
                provider.telemetry, directory=os.path.join(spec.flight_dir, spec.name)
            )
            recorder.guard_engine(provider.engine)
        plane = LivePlane(
            provider.telemetry,
            directory=(
                os.path.join(spec.live_dir, spec.name) if spec.live_dir is not None else None
            ),
            trim_bus=spec.trim_bus,
            recorder=recorder,
        )
    try:
        strategy = spec.strategy
        config = strategy.configure(spec.config)
        # Every arm runs the shared-account Monitor, as in the paper; EXPERIMENTS.md depends on it.
        monitor = Monitor(
            provider, [config.instance_type], collect_interval=config.collect_interval
        )
        policy = strategy.build(config, monitor if strategy.reads_monitor else None)
        controller = FleetController(provider, policy, config, monitor=monitor)
        workloads = [spec.workload_factory(index) for index in range(spec.n_workloads)]
        fleet = controller.run(workloads, max_hours=spec.max_hours)
        # Unbind the control plane before shutdown: a late engine callback
        # (sweep tick, straggler fulfillment) must hit the router's inert
        # path, not a half-dismantled service.
        controller.teardown()
    finally:  # seal the stream and blackbox even when the run raises
        if plane is not None:
            plane.close()
    provider.shutdown()
    return ArmResult(spec=spec, fleet=fleet, provider=provider, live_plane=plane)


def _run_arm_fleet(spec: ArmSpec) -> FleetResult:
    """Pool worker: run one arm, ship only the picklable fleet result."""
    return run_arm(spec).fleet


def _parallel_safe(spec: ArmSpec) -> bool:
    """Whether *spec* can run in a pool worker.

    A live telemetry bundle means the caller wants its subscribers fed
    from the run — that only works in-process.  Everything else just
    needs to survive pickling.
    """
    if spec.telemetry is not None:
        return False
    try:
        pickle.dumps(spec)
    except Exception:
        return False
    return True


def _check_unique_names(specs: Sequence[ArmSpec]) -> None:
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ValueError(f"duplicate arm name {spec.name!r}")
        seen.add(spec.name)


def run_arms(
    specs: Sequence[ArmSpec], jobs: Optional[int] = None
) -> Dict[str, ArmResult]:
    """Run several arms and key the results by arm name.

    Args:
        specs: The arms, in result order.
        jobs: Pool worker count; ``None`` uses :func:`default_jobs`
            (1 unless the CLI's ``--jobs`` raised it), ``1`` forces the
            serial path.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    _check_unique_names(specs)
    if jobs > 1 and len(specs) > 1:
        return run_arms_parallel(specs, jobs=jobs)
    results: Dict[str, ArmResult] = {}
    for spec in specs:
        results[spec.name] = run_arm(spec)
    return results


def run_arms_parallel(
    specs: Sequence[ArmSpec], jobs: Optional[int] = None
) -> Dict[str, ArmResult]:
    """Fan independent arms out over a process pool.

    Parallel-safe specs run in workers; the rest (non-picklable
    factories, live telemetry hooks) run serially in this process after
    the pool drains.  The result dict is keyed and ordered by the input
    spec order regardless of completion order, and same-seed arms
    produce results identical to :func:`run_arms` serial execution —
    every arm owns its provider, engine, and RNG streams.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    _check_unique_names(specs)
    pooled = [spec for spec in specs if _parallel_safe(spec)]
    fleets: Dict[str, FleetResult] = {}
    # Worker-process fork/pickle overhead only pays off with real
    # parallel hardware: on a host with fewer cores than requested
    # workers the pool *time-slices* the arms (a 4-job sweep on 1 core
    # measures ~0.35x serial), so cap workers at the core count and
    # fall through to the serial path when that leaves no parallelism.
    workers = min(jobs, len(pooled), os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(spec, pool.submit(_run_arm_fleet, spec)) for spec in pooled]
                for spec, future in futures:
                    fleets[spec.name] = future.result()
        except (OSError, PermissionError, ImportError):
            # No usable multiprocessing primitives (sandboxes, missing
            # /dev/shm, restricted platforms): degrade to serial.
            fleets.clear()
    results: Dict[str, ArmResult] = {}
    for spec in specs:
        if spec.name in fleets:
            results[spec.name] = ArmResult(spec=spec, fleet=fleets[spec.name], provider=None)
        else:
            results[spec.name] = run_arm(spec)
    return results


def mean_over_seeds(
    spec: ArmSpec, seeds: Sequence[int], jobs: Optional[int] = None
) -> Tuple[float, float, float]:
    """Run an arm at several seeds; return mean (interruptions, hours, cost).

    The paper repeats each experiment three times to absorb market
    variation; this is the equivalent averaging helper.  Each seed's
    clone carries *every* field of the spec — including the
    ``telemetry`` and live-plane hooks — so observability is
    consistent between single-arm runs and seed sweeps.  With
    ``jobs > 1`` the seeds fan out over the process pool.
    """
    clones = [
        replace(spec, name=f"{spec.name}@{seed}", seed=seed) for seed in seeds
    ]
    results = run_arms(clones, jobs=jobs)
    fleets = [results[clone.name].fleet for clone in clones]
    n = len(seeds)
    return (
        sum(fleet.total_interruptions for fleet in fleets) / n,
        sum(fleet.makespan_hours for fleet in fleets) / n,
        sum(fleet.total_cost for fleet in fleets) / n,
    )
