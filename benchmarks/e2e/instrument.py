"""Measurement hooks: a cheap set-up probe and the traced run's span timers.

:class:`Probe` wraps three ``CloudProvider`` methods by class attribute
so every run -- traced or not -- can report the host time spent in
provider set-up (``__init__`` + ``warmup_markets``) and the simulated
hours each engine advanced (read at ``shutdown``).  It adds two timer
calls per provider, nothing per event.

:class:`Tracer` is for the separate traced run only.  It replaces the
public entry points of every layer with span timers (name, start, end,
parent, run), attaches a :class:`~repro.obs.profiler.HotPathProfiler`
to every engine through ``engine.tracer``, and times each fired engine
callback as a ``sim.cb:<label group>`` span so work without a public
entry (the EC2 hazard and billing sweep, segment timers) is still
attributed by its event label.  Spans stay in memory; :meth:`Tracer.ledger`
folds them into per-layer self times and counts once the run is over.
Nothing under ``src/`` changes: every hook is undone by ``uninstall``.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Host-time layers whose self time the ledger reports, in report order.
LAYERS = (
    "sim",
    "cloud.provider",
    "cloud.lattice",
    "cloud.ec2",
    "cloud.dynamodb",
    "core.fleet.state",
    "core.controller",
    "core.tenancy",
    "core.optimizer",
    "core.monitor",
    "core.fleet.capacity",
    "core.fleet.interruption",
    "core.fleet.lifecycle",
    "core.fleet.checkpoint",
    "core.dag",
    "core.fleet.coordinator",
    "obs.bus",
    "obs.consumers",
    "obs.provenance",
    "chaos",
    "other",
)

#: Span-name prefixes that report under another layer's row.
LAYER_ALIASES = {
    "cloud.billing": "cloud.ec2",
    "core.fleet.state.meta": "core.fleet.state",
    "obs.live": "obs.consumers",
    "obs.flight": "obs.consumers",
    "chaos.invariants": "obs.consumers",
}

#: Engine callback label head -> layer that owns the callback's code.
CALLBACK_LAYERS = {
    "markets": "cloud.lattice",
    "ec2": "cloud.ec2",
    "exec": "core.fleet.lifecycle",
    "ami": "core.fleet.lifecycle",
    "capacity": "core.fleet.capacity",
    "eventbridge": "core.fleet.interruption",
    "sfn": "core.fleet.interruption",
    "checkpoint": "core.fleet.checkpoint",
    "efs": "core.fleet.checkpoint",
    "tenancy": "core.tenancy",
    "dag": "core.fleet.coordinator",
    "chaos": "chaos",
    "cloudwatch": "core.monitor",
}

#: CloudWatch rules that run another layer's code.
CLOUDWATCH_RULE_LAYERS = {"spotverse-open-request-sweep": "core.fleet.capacity"}

#: Spans that make up ``cloud.provider.setup_s``.
PROVIDER_SETUP_SPANS = ("cloud.provider.init", "cloud.provider.warmup_markets")
#: Root spans of the set-up phase (``setup_s``, not ``run_s``): provider
#: set-up and compiling the benchmark's own DAG inputs.
SETUP_SPANS = PROVIDER_SETUP_SPANS + ("core.dag.compile_workflow",)

#: Spans timing the benchmark's own bookkeeping, excluded from ``run_s``.
HARNESS_PREFIX = "harness."


def layer_of(name: str) -> str:
    """The ledger layer a span name reports under."""
    if name.startswith("sim.cb:"):
        group = name[len("sim.cb:"):]
        head, _, rest = group.partition(":")
        if head == "cloudwatch":
            return CLOUDWATCH_RULE_LAYERS.get(rest, "core.monitor")
        return CALLBACK_LAYERS.get(head, "other")
    if name.startswith(HARNESS_PREFIX):
        return "harness"
    prefix = name.rsplit(".", 1)[0]
    if prefix == "sim":
        return "sim"
    return LAYER_ALIASES.get(prefix, prefix)


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children count once, so a self time is never negative.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        result[parent] -= union_length(
            (max(starts[kid], lo), min(ends[kid], hi)) for kid in kids
        )
    return result


def unit_of(name: str) -> str:
    """Unit of a ledger metric, from its naming convention."""
    if "wait_s" in name:
        return "sim-s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_x"):
        return "x"
    return "count"


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
    return float(ordered[rank])


# ----------------------------------------------------------------------
# Class-attribute patching
# ----------------------------------------------------------------------
class _Patches:
    """Replace attributes and put every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Probe:
    """Set-up time and simulated hours, from three provider hooks.

    Use as a context manager around one workload run.
    """

    def __init__(self) -> None:
        self.provider_s = 0.0
        self.sim_hours = 0.0
        self.providers = 0
        self._patches = _Patches()

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        from repro.cloud.provider import CloudProvider
        from repro.sim.clock import HOUR

        probe = self

        def timed(original, starts_provider=False):
            def wrapper(provider, *args, **kwargs):
                if starts_provider:
                    probe.providers += 1
                    probe.on_provider()
                started = perf_counter()
                try:
                    return original(provider, *args, **kwargs)
                finally:
                    probe.provider_s += perf_counter() - started

            return wrapper

        def noted_shutdown(original):
            def shutdown(provider, *args, **kwargs):
                result = original(provider, *args, **kwargs)
                probe.sim_hours += provider.engine.now / HOUR
                probe.on_shutdown(provider)
                return result

            return shutdown

        self._patches.replace(CloudProvider, "__init__", lambda fn: timed(fn, True))
        self._patches.replace(CloudProvider, "warmup_markets", timed)
        self._patches.replace(CloudProvider, "shutdown", noted_shutdown)

    def uninstall(self) -> None:
        self._patches.restore()

    def on_provider(self) -> None:
        """Called as each provider starts construction."""

    def on_shutdown(self, provider: Any) -> None:
        """Called after each provider shut down."""


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _rows(args: tuple, result: Any) -> int:
    return len(result)


def _placed(args: tuple, result: Any) -> int:
    return len(args[1])


#: ``module:Class`` (``module:`` for module functions) -> span prefix and
#: the entry points timed.  The span of ``Class.attr`` is
#: ``<prefix>.<attr>`` with surrounding underscores stripped.
SPAN_TARGETS: Dict[str, Tuple[str, str]] = {
    "repro.sim.engine:SimulationEngine": ("sim", "run_until run_until_idle"),
    "repro.cloud.provider:CloudProvider": ("cloud.provider", "__init__ warmup_markets shutdown"),
    "repro.cloud.lattice:MarketLattice": ("cloud.lattice", "__init__ step warmup"),
    "repro.cloud.services.ec2:EC2Service": (
        "cloud.ec2",
        "run_on_demand request_spot_instances retry_open_request cancel_spot_request "
        "terminate_instances force_interruptions settle_billing",
    ),
    "repro.cloud.billing:CostLedger": ("cloud.billing", "charge"),
    "repro.cloud.services.dynamodb:DynamoDBService": (
        "cloud.dynamodb",
        "create_table put_item get_item update_item delete_item batch_write_item "
        "batch_get_item query scan peek_items",
    ),
    "repro.core.fleet.state:FleetStateStore": (
        "core.fleet.state",
        "__init__ flush save_execution workload_item workload_items state_counts "
        "bind_instance pop_instance instance_bindings track_request pop_request "
        "tracked_requests save_dag dag_item dag_items save_tenant tenant_item tenant_items",
    ),
    "repro.core.fleet.state:_MetaMapping": (
        "core.fleet.state.meta",
        "__getitem__ __setitem__ __delitem__ __iter__",
    ),
    "repro.core.controller:FleetController": (
        "core.controller",
        "__init__ run submit wait run_dags submit_dags wait_dags teardown restore",
    ),
    "repro.core.tenancy:MultiTenantController": (
        "core.tenancy",
        "__init__ register_tenant wait teardown restore",
    ),
    "repro.core.tenancy:AdmissionController": ("core.tenancy", "enqueue drain release"),
    "repro.core.optimizer:SpotVerseOptimizer": (
        "core.optimizer",
        "initial_placements migration_placement",
    ),
    "repro.strategies.single_region:SingleRegionPolicy": (
        "core.optimizer",
        "initial_placements migration_placement",
    ),
    "repro.strategies.naive_multi_region:NaiveMultiRegionPolicy": (
        "core.optimizer",
        "initial_placements migration_placement",
    ),
    "repro.core.monitor:Monitor": (
        "core.monitor",
        "__init__ collect snapshot region_metrics staleness watch_frequency",
    ),
    "repro.core.fleet.capacity:CapacityService": (
        "core.fleet.capacity",
        "deploy acquire on_spot_fulfilled sweep_open_requests",
    ),
    "repro.core.fleet.interruption:InterruptionService": (
        "core.fleet.interruption",
        "deploy handle_event reacquire_task reconcile_missed_interruptions",
    ),
    "repro.core.fleet.lifecycle:LifecycleService": (
        "core.fleet.lifecycle",
        "register all_done restore teardown build_result",
    ),
    "repro.core.execution:WorkloadExecution": (
        "core.fleet.lifecycle",
        "attach handle_interruption_notice",
    ),
    "repro.core.fleet.checkpoint:CheckpointBackend": (
        "core.fleet.checkpoint",
        "save_progress load_progress progress_detail",
    ),
    "repro.core.fleet.checkpoint:DynamoCheckpointBackend": (
        "core.fleet.checkpoint",
        "persist_artifact verify_artifacts",
    ),
    "repro.core.fleet.checkpoint:EFSCheckpointBackend": (
        "core.fleet.checkpoint",
        "persist_artifact verify_artifacts",
    ),
    "repro.core.dag:": ("core.dag", "compile_workflow"),
    "repro.core.fleet.coordinator:DagCoordinator": (
        "core.fleet.coordinator",
        "submit all_done released_workloads restore",
    ),
    "repro.obs.events:EventBus": ("obs.bus", "emit"),
    "repro.obs.provenance:DecisionLog": ("obs.provenance", "record"),
    "repro.obs.live:LivePlane": ("obs.live", "observe close"),
    "repro.obs.live:LiveExporter": ("obs.live", "observe close"),
    "repro.obs.flight:FlightRecorder": ("obs.flight", "trigger snapshot_final"),
    "repro.chaos.invariants:OnlineInvariantMonitor": ("chaos.invariants", "observe finalize"),
    "repro.chaos.runner:": ("chaos.invariants", "build_scorecard"),
    "repro.chaos.faults:ChaosController": (
        "chaos",
        "install deactivate region_blacked_out ec2_request_fault dynamodb_fault "
        "lambda_fault eventbridge_extra_delay eventbridge_dropped checkpoint_write_fault "
        "corrupt_checkpoint",
    ),
}

#: Span name -> items one call adds (batch sizes, rows, workloads placed).
ITEM_COUNTERS: Dict[str, Callable[[tuple, Any], int]] = {
    "cloud.dynamodb.batch_write_item": lambda args, result: result,
    "core.fleet.state.workload_items": _rows,
    "core.fleet.state.instance_bindings": _rows,
    "core.fleet.state.tracked_requests": _rows,
    "core.fleet.state.dag_items": _rows,
    "core.fleet.state.tenant_items": _rows,
    "core.fleet.state.state_counts": lambda args, result: sum(result.values()),
    "core.tenancy.drain": _rows,
    "core.fleet.lifecycle.register": _placed,
    "core.optimizer.initial_placements": _placed,
    "core.optimizer.migration_placement": lambda args, result: 1,
}


def span_names() -> List[str]:
    """Every span name the class-attribute patches produce."""
    return [
        f"{prefix}.{attr.strip('_')}"
        for prefix, attrs in SPAN_TARGETS.values()
        for attr in attrs.split()
    ]


class SpanRecorder:
    """In-memory spans in flat arrays (about 30 bytes per span).

    Spans nest through a stack: the open span on top is the parent of
    the next one begun.  ``run`` is the index of the simulation (one
    per provider) the span belongs to.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("i")
        self.run = -1
        self.items: Counter = Counter()
        self.nonzero: Counter = Counter()
        self.errors: Dict[str, Counter] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def begin(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        stack = self._stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.runs.append(self.run)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def note_items(self, name: str, count: int) -> None:
        self.items[name] += count
        if count:
            self.nonzero[name] += 1

    def note_error(self, name: str, exc: BaseException) -> None:
        self.errors.setdefault(name, Counter())[type(exc).__name__] += 1

    def timed(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """Wrap *fn* so each call records one span named *name*.

        *count*, when given, maps ``(args, result)`` to the items the call
        handled (added to :attr:`items`).
        """
        begin, end = self.begin, self.end
        recorder = self

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.note_error(name, exc)
                raise
            finally:
                end(index)
            if count is not None:
                recorder.note_items(name, count(args, result))
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


class Tracer(Probe):
    """Probe plus span timers on every layer (the traced run)."""

    def __init__(self) -> None:
        super().__init__()
        self.recorder = SpanRecorder()
        self.profilers: List[Any] = []
        self._span_patches = _Patches()
        # Facts read from each provider's retained event stream at
        # shutdown (harness time, excluded from run_s).
        self.events: Counter = Counter()
        self.place_waits: List[float] = []
        self.reacquire_waits: List[float] = []
        self.admit_waits: List[float] = []
        self.submitted_at: Dict[str, float] = {}
        self.released_stages = 0
        self.release_batches = 0.0
        self.decisions = 0
        self.fallbacks = 0
        self.decisions_kept = 0
        self.interruptions = 0
        self.spot_requests = 0

    def install(self) -> None:
        self._install_spans()
        super().install()

    def uninstall(self) -> None:
        super().uninstall()
        self._span_patches.restore()

    def on_provider(self) -> None:
        self.recorder.run = self.providers - 1

    def _install_spans(self) -> None:
        from repro.core.tenancy import MultiTenantController
        from repro.obs.profiler import HotPathProfiler
        from repro.sim.engine import SimulationEngine
        from repro.sim.trace import default_group

        recorder = self.recorder
        patches = self._span_patches
        for target, (prefix, attrs) in SPAN_TARGETS.items():
            module, _, owner = target.partition(":")
            holder = importlib.import_module(module)
            if owner:
                holder = getattr(holder, owner)
            for attr in attrs.split():
                name = f"{prefix}.{attr.strip('_')}"
                patches.replace(
                    holder,
                    attr,
                    lambda fn, name=name: recorder.timed(fn, name, ITEM_COUNTERS.get(name)),
                )
        tracer = self

        def submit(original):
            timed = recorder.timed(original, "core.tenancy.submit")

            def wrapper(controller, tenant_id, workload):
                tracer.submitted_at[workload.workload_id] = controller._engine.now
                return timed(controller, tenant_id, workload)

            return wrapper

        patches.replace(MultiTenantController, "submit", submit)

        def engine_init(original):
            def __init__(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                engine.tracer = HotPathProfiler()
                tracer.profilers.append(engine.tracer)

            return __init__

        def fire(original):
            begin, end = recorder.begin, recorder.end

            def _fire(engine, event):
                index = begin("sim.cb:" + default_group(event.label))
                try:
                    original(engine, event)
                finally:
                    end(index)

            return _fire

        patches.replace(SimulationEngine, "__init__", engine_init)
        patches.replace(SimulationEngine, "_fire", fire)

    def on_shutdown(self, provider: Any) -> None:
        from repro.obs.events import EventType
        from repro.obs.slo import latency_series

        index = self.recorder.begin("harness.scan")
        try:
            events = provider.telemetry.bus.events()
            series = latency_series(events)
            self.place_waits.extend(series["submit_to_placed_seconds"])
            self.reacquire_waits.extend(series["interruption_to_reacquire_seconds"])
            for event in events:
                kind = event.type
                self.events[kind.value] += 1
                if kind is EventType.DAG_STEP_RELEASED:
                    self.released_stages += 1
                    self.release_batches += 1.0 / event.attrs["ready_set"]
                elif kind is EventType.DECISION_EVALUATED:
                    self.decisions += 1
                    if event.attrs.get("decision", {}).get("fallback_reason"):
                        self.fallbacks += 1
                elif kind is EventType.TENANT_ADMITTED:
                    submitted = self.submitted_at.get(event.workload_id)
                    if submitted is not None:
                        self.admit_waits.append(event.time - submitted)
            self.decisions_kept += len(provider.telemetry.decisions)
            self.interruptions += len(provider.ec2.interruption_log)
            self.spot_requests += len(provider.ec2.describe_spot_requests())
        finally:
            self.recorder.end(index)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def ledger(self, run_s: float, lifecycles: int) -> Dict[str, Any]:
        """Fold the recorded spans into per-layer self times and counts.

        Args:
            run_s: Traced run time (wall minus set-up, output checks and
                harness spans) -- the denominator of every share.
            lifecycles: Lifecycles the workload attempted.
        """
        from repro.obs.profiler import HotPathProfile

        rec = self.recorder
        selfs = self_times(rec.starts, rec.ends, rec.parents)
        spans: Dict[str, Dict[str, float]] = {}
        layers: Dict[str, Dict[str, float]] = {
            layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
        }
        layers["harness"] = {"self_s": 0.0, "calls": 0}
        covered = []
        for index, name_id in enumerate(rec.name_ids):
            name = rec.names[name_id]
            row = spans.get(name)
            if row is None:
                row = spans[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            duration = rec.ends[index] - rec.starts[index]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += selfs[index]
            layer = layers[layer_of(name)]
            layer["self_s"] += selfs[index]
            layer["calls"] += 1
            if rec.parents[index] < 0 and name not in SETUP_SPANS and not name.startswith(
                HARNESS_PREFIX
            ):
                covered.append((rec.starts[index], rec.ends[index]))
        for name, row in spans.items():
            if name in rec.items:
                row["items"] = rec.items[name]
            if name in rec.errors:
                row["errors"] = dict(rec.errors[name])
        for layer in layers.values():
            layer["share"] = layer["self_s"] / run_s if run_s > 0 else 0.0

        def calls(*names: str) -> int:
            return sum(int(spans.get(name, {}).get("calls", 0)) for name in names)

        def items(*names: str) -> float:
            return sum(rec.items.get(name, 0) for name in names)

        def self_s(layer: str) -> float:
            return layers[layer]["self_s"]

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        profile = HotPathProfile.from_tracers(self.profilers)
        fired = profile.fired_events
        sweep = spans.get("sim.cb:ec2:interruption-eval", {}).get("self_s", 0.0)
        db_reads = ("get_item", "batch_get_item", "query", "scan")
        db_writes = ("put_item", "update_item", "delete_item", "batch_write_item")
        throttled = sum(
            counter.get("ThrottlingError", 0)
            for name, counter in rec.errors.items()
            if name.startswith("cloud.dynamodb.")
        )
        store_ops = sum(
            row["calls"] for name, row in spans.items() if layer_of(name) == "core.fleet.state"
        )
        placements = ("core.optimizer.initial_placements", "core.optimizer.migration_placement")
        unattributed = max(0.0, run_s - union_length(covered))
        metrics = {
            "sim.events": fired,
            "sim.events_per_lifecycle": ratio(fired, lifecycles),
            "sim.run.self_s": self_s("sim"),
            "cloud.provider.setup_s": sum(
                spans.get(name, {}).get("total_s", 0.0) for name in PROVIDER_SETUP_SPANS
            ),
            "cloud.lattice.steps": calls("cloud.lattice.step"),
            "cloud.lattice.self_s": self_s("cloud.lattice"),
            "cloud.ec2.spot_requests": self.spot_requests,
            "cloud.ec2.interruptions": self.interruptions,
            "cloud.ec2.self_s": self_s("cloud.ec2"),
            "cloud.ec2.sweep_s": sweep,
            "cloud.dynamodb.reads": calls(*(f"cloud.dynamodb.{op}" for op in db_reads)),
            "cloud.dynamodb.writes": calls(*(f"cloud.dynamodb.{op}" for op in db_writes)),
            "cloud.dynamodb.items_per_batch": ratio(
                items("cloud.dynamodb.batch_write_item"),
                calls("cloud.dynamodb.batch_write_item"),
            ),
            "cloud.dynamodb.throttled": throttled,
            "cloud.dynamodb.self_s": self_s("cloud.dynamodb"),
            "core.fleet.state.ops": store_ops,
            "core.fleet.state.flushes": calls("core.fleet.state.flush"),
            "core.fleet.state.rows_scanned": sum(
                rec.items.get(name, 0) for name in rec.items
                if name.startswith("core.fleet.state.")
            ),
            "core.fleet.state.self_s": self_s("core.fleet.state"),
            "core.tenancy.submits": calls("core.tenancy.submit"),
            "core.tenancy.admitted_per_round": ratio(
                items("core.tenancy.drain"), rec.nonzero.get("core.tenancy.drain", 0)
            ),
            "core.tenancy.admit_wait_s.p50": percentile(self.admit_waits, 50),
            "core.tenancy.admit_wait_s.p99": percentile(self.admit_waits, 99),
            "core.tenancy.self_s": self_s("core.tenancy"),
            "core.optimizer.calls": calls(*placements),
            "core.optimizer.workloads_per_call": ratio(items(*placements), calls(*placements)),
            "core.optimizer.fallback_frac": ratio(self.fallbacks, self.decisions),
            "core.optimizer.self_s": self_s("core.optimizer"),
            "core.monitor.collects": calls("core.monitor.collect"),
            "core.monitor.self_s": self_s("core.monitor"),
            "core.fleet.capacity.acquires": calls("core.fleet.capacity.acquire"),
            "core.fleet.capacity.fulfill_ratio": ratio(
                self.events["spot.fulfilled"], self.events["spot.requested"]
            ),
            "core.fleet.capacity.place_wait_s.p50": percentile(self.place_waits, 50),
            "core.fleet.capacity.place_wait_s.p99": percentile(self.place_waits, 99),
            "core.fleet.capacity.self_s": self_s("core.fleet.capacity"),
            "core.fleet.interruption.notices": calls("core.fleet.interruption.handle_event"),
            "core.fleet.interruption.reacquire_wait_s.p50": percentile(self.reacquire_waits, 50),
            "core.fleet.interruption.reacquire_wait_s.p99": percentile(self.reacquire_waits, 99),
            "core.fleet.interruption.self_s": self_s("core.fleet.interruption"),
            "core.fleet.lifecycle.registered": items("core.fleet.lifecycle.register"),
            "core.fleet.lifecycle.restores": calls("core.fleet.lifecycle.restore"),
            "core.fleet.lifecycle.self_s": self_s("core.fleet.lifecycle"),
            "core.fleet.checkpoint.saves": calls("core.fleet.checkpoint.save_progress"),
            "core.fleet.checkpoint.fallbacks": self.events["checkpoint.fallback"],
            "core.fleet.checkpoint.self_s": self_s("core.fleet.checkpoint"),
            "core.dag.compile_s": spans.get("core.dag.compile_workflow", {}).get("total_s", 0.0),
            "core.fleet.coordinator.ready_set_mean": ratio(
                self.released_stages, self.release_batches
            ),
            "core.fleet.coordinator.self_s": self_s("core.fleet.coordinator"),
            "obs.bus.emits": calls("obs.bus.emit"),
            "obs.bus.self_s": self_s("obs.bus"),
            "obs.consumers.calls": calls(
                "obs.live.observe", "chaos.invariants.observe", "obs.flight.trigger",
                "obs.flight.snapshot_final",
            ),
            "obs.consumers.self_s": self_s("obs.consumers"),
            "obs.flight.snapshots": calls("obs.flight.trigger", "obs.flight.snapshot_final"),
            "obs.provenance.records": calls("obs.provenance.record"),
            "obs.provenance.kept_frac": ratio(
                self.decisions_kept, calls("obs.provenance.record")
            ),
            "obs.provenance.self_s": self_s("obs.provenance"),
            "chaos.faults_injected": self.events["chaos.fault_injected"],
            "chaos.retries": self.events["resilience.retry"],
            "chaos.dead_letters": self.events["resilience.dead_letter"],
            "unattributed_frac": ratio(unattributed, run_s),
        }
        return {
            "metrics": metrics,
            "layers": layers,
            "spans": spans,
            "span_count": len(rec),
            "engine_profile": profile.to_payload(),
            "wait_samples": {
                "place_wait_s": len(self.place_waits),
                "reacquire_wait_s": len(self.reacquire_waits),
                "admit_wait_s": len(self.admit_waits),
            },
            "events": dict(sorted(self.events.items())),
        }

    def harness_s(self) -> float:
        """Host seconds spent in the benchmark's own spans."""
        rec = self.recorder
        return sum(
            rec.ends[i] - rec.starts[i]
            for i, name_id in enumerate(rec.name_ids)
            if rec.names[name_id].startswith(HARNESS_PREFIX)
        )
