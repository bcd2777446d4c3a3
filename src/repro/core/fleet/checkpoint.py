"""Checkpoint backends: progress rows plus interruption-time artifacts.

The paper has two checkpoint storage designs: the primary S3 path
(Section 4 — per-segment progress in DynamoDB, interruption-time state
uploads to the results bucket) and the Section 7 EFS alternative
(intra-region file systems with a replica toward the results region).
:class:`CheckpointBackend` is the one protocol a
:class:`~repro.core.execution.WorkloadExecution` talks to, whichever
design is in play.

Both designs keep *progress* (the monotonic completed-segment count) as
rows of the ``spotverse-checkpoints`` DynamoDB table, written with a
conditional put so a stale, about-to-die instance can never roll
progress backwards; the backend owns those rows.  The designs differ
only in where the interruption-time *artifact* bytes land: each
subclass supplies the storage calls, and the body, metadata, naming
(``checkpoints/<workload>/<sequence>.bin``) and verification are shared.

Resilience: every artifact carries a SHA-256 checksum and the segment
count it encodes in its (corruption-proof) metadata, so a replacement
instance can detect an artifact whose bytes were damaged in flight and
fall back to the newest one that still verifies
(:meth:`CheckpointBackend.verify_artifacts`).  Writes rejected by an
injected storage outage are retried on a backoff schedule and
dead-lettered past it; progress reads/writes retry synchronously
against injected DynamoDB throttling.  None of this runs — not one
extra call — when no chaos controller is attached, because the
injected error types are never raised then.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, MutableMapping, Optional, Tuple

from repro.cloud.retry import (
    RetryPolicy,
    ScheduledRetries,
    call_with_retries,
    note_dead_letter,
    retry_or_dead_letter,
)
from repro.errors import ConditionalCheckFailedError, ServiceUnavailableError, ThrottlingError
from repro.obs.events import EventType
from repro.obs.tracing import TraceContext, traced_resume

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider

#: DynamoDB table holding every workload's progress row.
PROGRESS_TABLE = "spotverse-checkpoints"

#: Backoff schedule for artifact writes rejected by an injected storage
#: outage; past ``max_attempts`` the artifact is dead-lettered (the
#: checkpoint chain tolerates gaps — older artifacts still verify).
ARTIFACT_RETRY_POLICY = RetryPolicy(max_attempts=4, interval=5.0, backoff_rate=2.0, jitter=0.5)


# Stored artifact bodies are all-zero buffers whose content depends only
# on their (capped) size, so the buffer and its digest are shared per
# size instead of re-allocating and re-hashing ~1 MiB per checkpoint.
# bytes are immutable, so handing the same object to every put is safe.
_ZERO_BODIES: Dict[int, Tuple[bytes, str]] = {}

# Digests of the other bodies verification hashed, keyed by identity;
# an entry pins its body, so the id cannot be reused while it is cached.
# Chaos corruption hands every damaged artifact of one size the same
# replacement object, so a few entries cover every restore, and the cap
# keeps arbitrary bodies from being retained without bound.
_DIGEST_MEMO_SIZE = 8
_DIGESTS: Dict[int, Tuple[bytes, str]] = {}


def _zero_body(stored: int) -> Tuple[bytes, str]:
    cached = _ZERO_BODIES.get(stored)
    if cached is None:
        body = b"\x00" * stored
        cached = _ZERO_BODIES[stored] = (body, hashlib.sha256(body).hexdigest())
    return cached


def _checksum(body: bytes) -> str:
    """SHA-256 of *body*, reusing the digest of a body already hashed."""
    known = _ZERO_BODIES.get(len(body))
    if known is not None and known[0] is body:
        return known[1]
    known = _DIGESTS.get(id(body))
    if known is None:
        if len(_DIGESTS) >= _DIGEST_MEMO_SIZE:
            del _DIGESTS[next(iter(_DIGESTS))]
        known = _DIGESTS[id(body)] = (body, hashlib.sha256(body).hexdigest())
    return known[1]


@dataclass(frozen=True)
class ArtifactCheck:
    """Outcome of verifying a workload's checkpoint artifacts.

    Attributes:
        newest_valid: Whether the most recent artifact's checksum holds
            (the fault-free case; no fallback needed).
        valid_segments: Segment count recorded by the newest artifact
            that verifies (0 when none does).
        corrupt_count: Artifacts newer than the first valid one whose
            bytes no longer match their checksum.
    """

    newest_valid: bool
    valid_segments: int
    corrupt_count: int


def _check_entries(
    entries: List[Tuple[int, bytes, Dict[str, str]]]
) -> Optional[ArtifactCheck]:
    """Verify ``(sequence, body, metadata)`` artifacts, newest first."""
    if not entries:
        return None
    entries.sort(key=lambda entry: entry[0], reverse=True)
    corrupt = 0
    for index, (_sequence, body, metadata) in enumerate(entries):
        expected = metadata.get("sha256", "")
        if expected and _checksum(body) == expected:
            return ArtifactCheck(
                newest_valid=index == 0,
                valid_segments=int(metadata.get("segments", "0")),
                corrupt_count=corrupt,
            )
        corrupt += 1
    return ArtifactCheck(newest_valid=False, valid_segments=0, corrupt_count=corrupt)


class CheckpointBackend(ABC):
    """Progress rows plus interruption-time artifact persistence.

    Subclasses supply the artifact storage calls (``_target``,
    ``_write``, ``_listing``, ``_peek``); progress, the artifact body
    and metadata, retries and verification live here.

    Attributes:
        name: Stable backend identifier used as the ``backend`` attr of
            ``checkpoint.saved`` telemetry events ("s3" or "efs"); the
            artifact retry scope is ``checkpoint:<name>``.
    """

    name: str = ""

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._dynamodb = provider.dynamodb
        self._dynamodb.create_table(PROGRESS_TABLE, partition_key="workload_id")
        self._retries = ScheduledRetries(provider.engine)

    def teardown(self) -> None:
        """Cancel pending artifact-write retries (they die with the controller).

        Each cancelled write's artifact is dead-lettered: no later
        controller writes it again.
        """
        self._retries.cancel()

    # ------------------------------------------------------------------
    # Progress (shared: DynamoDB in both designs)
    # ------------------------------------------------------------------
    def save_progress(
        self, workload_id: str, completed_segments: int, detail: Optional[Dict[str, Any]] = None
    ) -> bool:
        """Record that *workload_id* completed *completed_segments*.

        Returns:
            True when the write advanced progress; False when a newer
            row already existed (the write is discarded) or when
            injected throttling outlasted every retry (the next
            segment's save supersedes it).
        """
        item = {
            "workload_id": workload_id,
            "completed_segments": int(completed_segments),
            "detail": dict(detail or {}),
        }

        def put() -> bool:
            try:
                self._dynamodb.put_item(
                    PROGRESS_TABLE,
                    item,
                    condition=lambda old: old is None
                    or old["completed_segments"] < completed_segments,
                )
            except ConditionalCheckFailedError:
                return False
            return True

        # A dead-lettered put returns None: the save did not advance.
        return bool(
            call_with_retries(
                put, self._provider.telemetry, "checkpoint:progress-save", workload_id, drop=True
            )
        )

    def _progress_row(self, workload_id: str) -> Optional[Dict[str, Any]]:
        return call_with_retries(
            lambda: self._dynamodb.get_item(PROGRESS_TABLE, workload_id),
            self._provider.telemetry,
            "checkpoint:progress-load",
            workload_id,
        )

    def load_progress(self, workload_id: str) -> int:
        """Latest completed-segment count (0 when never saved).

        Raises:
            ThrottlingError: When injected throttling outlasted every
                retry; the caller falls back to its in-memory count.
        """
        row = self._progress_row(workload_id)
        return 0 if row is None else int(row["completed_segments"])

    def progress_detail(self, workload_id: str) -> Dict[str, Any]:
        """Detail payload of the latest progress write ({} when never saved)."""
        row = self._progress_row(workload_id)
        return {} if row is None else dict(row.get("detail", {}))

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def persist_artifact(
        self,
        workload_id: str,
        sequence: int,
        checkpoint_bytes: int,
        region: str,
        segments: int = 0,
    ) -> None:
        """Persist the interruption-time checkpoint state itself.

        The stored body is capped at 1 MiB to keep simulator memory
        flat; the backend bills the remaining logical bytes.

        Args:
            workload_id: Owning workload.
            sequence: Per-workload artifact sequence number (the
                interruption count, so paths never collide).
            checkpoint_bytes: Logical checkpoint size to bill.
            region: Region the dying instance writes from.
            segments: Completed-segment count the artifact encodes,
                recorded in metadata for integrity fallback.
        """
        target = self._target(region, workload_id)
        if target is None:
            return
        body, digest = _zero_body(min(checkpoint_bytes, 1 << 20))
        metadata = {
            "actual_bytes": str(checkpoint_bytes),
            "sha256": digest,
            "segments": str(segments),
        }
        path = f"checkpoints/{workload_id}/{sequence}.bin"
        self._persist_with_retries(
            lambda: self._write(target, path, body, metadata, checkpoint_bytes, region, workload_id),
            scope=f"checkpoint:{self.name}",
            workload_id=workload_id,
        )

    def verify_artifacts(self, workload_id: str) -> Optional[ArtifactCheck]:
        """Checksum-verify the workload's artifacts, newest first.

        Uses uncharged control-plane reads so verification never
        perturbs the billed cost model.  Returns ``None`` when the
        workload has no artifacts at all.
        """
        prefix = f"checkpoints/{workload_id}/"
        entries: List[Tuple[int, bytes, Dict[str, str]]] = []
        for target, path in self._listing(prefix):
            stem = path[len(prefix):]
            if not stem.endswith(".bin"):
                continue
            try:
                sequence = int(stem[:-4])
            except ValueError:
                continue
            stored = self._peek(target, path)
            if stored is not None:
                entries.append((sequence, stored.body, stored.metadata))
        return _check_entries(entries)

    @abstractmethod
    def _target(self, region: str, workload_id: str) -> Optional[str]:
        """Bucket or file system an artifact written from *region* lands in.

        ``None`` means the artifact is lost (already dead-lettered).
        """

    @abstractmethod
    def _write(
        self,
        target: str,
        path: str,
        body: bytes,
        metadata: Dict[str, str],
        checkpoint_bytes: int,
        region: str,
        workload_id: str,
    ) -> None:
        """One storage write of an artifact (retried on an outage)."""

    @abstractmethod
    def _listing(self, prefix: str) -> Iterator[Tuple[str, str]]:
        """``(target, path)`` of every stored object under *prefix*."""

    @abstractmethod
    def _peek(self, target: str, path: str) -> Any:
        """Uncharged read of a stored object (``.body``, ``.metadata``), or None."""

    def _persist_with_retries(
        self,
        write: Callable[[], None],
        scope: str,
        workload_id: str,
        attempt: int = 1,
        started: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Run *write*, rescheduling it on an injected storage outage.

        The first call captures the sim time (and, when tracing is on,
        the ambient trace context) so retried writes report their full
        submit-to-landed latency and stay on the causal chain.
        """
        telemetry = self._provider.telemetry
        tracer = telemetry.tracer
        if started is None:
            started = self._provider.engine.now
            if tracer is not None and trace is None:
                trace = tracer.current
        try:
            with traced_resume(tracer, trace if attempt > 1 else None):
                write()
        except ServiceUnavailableError as exc:
            delay = retry_or_dead_letter(
                self._provider,
                ARTIFACT_RETRY_POLICY,
                attempt,
                exc,
                scope,
                "checkpoint artifact write lost",
                workload_id,
                leg=(scope, "lifecycle") if trace is not None else None,
                parent=trace,
            )
            if delay is not None:
                self._retries.call_in(
                    delay,
                    lambda: self._persist_with_retries(
                        write, scope, workload_id, attempt + 1, started, trace
                    ),
                    label=f"checkpoint:retry:{workload_id}",
                    # Killed mid-retry: no later controller writes this
                    # artifact, so it is lost (older ones still verify).
                    on_cancel=lambda: note_dead_letter(
                        telemetry,
                        scope,
                        f"checkpoint artifact write cancelled at teardown after {attempt} attempts",
                        workload_id=workload_id,
                    ),
                )
            return
        latency = self._provider.engine.now - started
        telemetry.metrics.histogram(
            "checkpoint_write_latency_seconds",
            "sim-time latency of checkpoint artifact writes",
        ).observe(latency, backend=self.name)
        if attempt > 1:
            # Fault-free writes land synchronously and stay silent; an
            # event only appears when the asynchronous retry path ran,
            # so pre-existing fault-free streams are unchanged.
            if tracer is not None and trace is not None:
                tracer.event(
                    scope, "lifecycle", parent=trace,
                    attempt=attempt, latency=latency,
                )
            telemetry.bus.emit(
                EventType.CHECKPOINT_PERSISTED,
                workload_id=workload_id,
                scope=scope,
                attempts=attempt,
                latency=latency,
            )


class DynamoCheckpointBackend(CheckpointBackend):
    """The paper's primary design: DynamoDB progress, S3 artifacts.

    Artifact uploads pay cross-region transfer when the results bucket
    lives elsewhere; the logical bytes past the stored 1 MiB are charged
    directly (same cost, no storage).

    Args:
        provider: The simulated cloud.
        results_bucket: Bucket receiving checkpoint artifacts.
    """

    name = "s3"

    def __init__(self, provider: "CloudProvider", results_bucket: str) -> None:
        super().__init__(provider)
        self._bucket = results_bucket

    def _target(self, region: str, workload_id: str) -> Optional[str]:
        return self._bucket

    def _write(self, target, path, body, metadata, checkpoint_bytes, region, workload_id) -> None:
        from repro.cloud.billing import S3_CROSS_REGION_TRANSFER_PRICE, CostCategory

        s3 = self._provider.s3
        s3.put_object(
            target, path, body=body, metadata=metadata, source_region=region, tag=workload_id
        )
        remaining = checkpoint_bytes - len(body)
        if remaining > 0 and region != s3.bucket_region(target):
            self._provider.ledger.charge(
                time=self._provider.engine.now,
                category=CostCategory.S3_TRANSFER,
                amount=(remaining / (1024 ** 3)) * S3_CROSS_REGION_TRANSFER_PRICE,
                region=region,
                tag=workload_id,
                detail=f"checkpoint transfer remainder {workload_id}",
            )

    def _listing(self, prefix: str) -> Iterator[Tuple[str, str]]:
        for key in self._provider.s3.list_objects(self._bucket, prefix):
            yield self._bucket, key

    def _peek(self, target: str, path: str) -> Any:
        return self._provider.s3.peek_object(target, path)


class EFSCheckpointBackend(CheckpointBackend):
    """Section 7 alternative: regional EFS mounts for artifact state.

    Each region workloads run in gets a file system on first use, with
    a replica toward the results region so the control plane can read
    state without S3.  Writes are intra-region (fast — they comfortably
    fit the two-minute notice window), and replication cost replaces
    the S3 cross-region transfer charge.  Progress still lives in
    DynamoDB (the paper keeps per-file status there in both designs).

    Args:
        provider: The simulated cloud.
        results_region: Region replicas converge toward.
        fs_registry: region -> file-system-id mapping.  Pass a durable
            mapping (``FleetStateStore.mapping``) so a rebuilt control
            plane reuses the file systems the torn-down one created
            instead of provisioning fresh ones.
    """

    name = "efs"

    def __init__(
        self,
        provider: "CloudProvider",
        results_region: str,
        fs_registry: Optional[MutableMapping] = None,
    ) -> None:
        super().__init__(provider)
        self._results_region = results_region
        self._fs_by_region: MutableMapping = fs_registry if fs_registry is not None else {}

    def _target(self, region: str, workload_id: str) -> Optional[str]:
        try:
            fs_id = self._fs_by_region.get(region)
            if fs_id is None:
                fs = self._provider.efs.create_file_system(region)
                if region != self._results_region:
                    self._provider.efs.create_replica(fs.fs_id, self._results_region)
                fs_id = fs.fs_id
                self._fs_by_region[region] = fs_id
        except ThrottlingError as exc:
            # The durable fs registry stayed throttled through every
            # retry: this artifact is lost (older ones still verify).
            note_dead_letter(
                self._provider.telemetry, "checkpoint:efs", str(exc), workload_id=workload_id
            )
            return None
        return fs_id

    def _write(self, target, path, body, metadata, checkpoint_bytes, region, workload_id) -> None:
        self._provider.efs.write_file(
            target,
            path,
            body=body,
            source_region=region,
            tag=workload_id,
            logical_bytes=checkpoint_bytes,
            metadata=metadata,
        )

    def _listing(self, prefix: str) -> Iterator[Tuple[str, str]]:
        for fs_id in sorted(str(fs) for fs in self._fs_by_region.values()):
            for path in self._provider.efs.list_files(fs_id, prefix):
                yield fs_id, path

    def _peek(self, target: str, path: str) -> Any:
        return self._provider.efs.peek_file(target, path)
