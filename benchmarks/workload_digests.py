"""Print the outcome, DynamoDB, ledger and CloudWatch digests of every end-to-end workload.

    PYTHONPATH=src python benchmarks/workload_digests.py > digests.json

Runs each entry of ``benchmarks/e2e/workloads.py::WORKLOADS`` at 20 %
size for seeds 4 and 5 and records five SHA-256 digests per run, plus
``dynamodb_ops``:

* ``fleet`` -- the workload's ``fleet_digest``, over every simulated
  cost, timestamp and placement;
* ``dynamodb`` -- every call the run made to a public
  ``DynamoDBService`` method, in order: the op name, its arguments
  bound through ``inspect.signature`` (defaults applied, so passing a
  default explicitly is the same call), and the result or the
  exception type.  Object addresses (``" at 0x…"``) are stripped and
  sets are sorted, so the digest does not depend on the process;
* ``dynamodb_ops`` -- the same calls counted per op name (name-sorted),
  so a change that adds or deletes store calls shows which calls and
  how many, where the ``dynamodb`` digest only says that they differ;
* ``files`` -- every file the run wrote under its work directory
  (sorted relative paths, each followed by its size and bytes): chaos-recovery's
  stream segments, manifest and ``BLACKBOX_*.json`` artifacts;
* ``ledger`` -- for every ``CloudProvider`` the run built, in
  construction order: each itemised ``CostLedger`` entry (time,
  category, ``repr`` of the amount, region, tag, detail), then the
  by-category, by-region and by-tag totals in insertion order and
  ``total()``;
* ``cloudwatch`` -- for the same providers: every stored CloudWatch
  metric key, sorted, with its ``(time, value)`` points.

Two interpreters (or two commits) that print the same JSON produced
bit-identical simulations through the same state-store traffic, the
same itemised bill and the same published metrics; where two commits'
store traffic differs, the ``dynamodb_ops`` lines of a ``diff`` name
the calls that came or went.  Nothing in the output depends on the
process (hash seed, object addresses), so two runs under different
``PYTHONHASHSEED`` values print the same bytes.
CI runs this on several Python versions, and twice under different
hash seeds, and fails when the outputs differ.  Other sizes: call
:func:`digests` directly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import re
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402

from repro.cloud.provider import CloudProvider  # noqa: E402
from repro.cloud.services.dynamodb import DynamoDBService  # noqa: E402

SCALE = 0.2
SEEDS = (4, 5)

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _canon(value: Any) -> str:
    """A process-independent rendering of one argument or result."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_canon(k)}: {_canon(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canon(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(v) for v in value)) + "}"
    return _ADDRESS.sub("", repr(value))


class DynamoDBCalls:
    """A running SHA-256 over DynamoDB calls, and a call count per op."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.ops: Counter = Counter()

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


@contextmanager
def dynamodb_calls() -> Iterator[DynamoDBCalls]:
    """Hash and count every public ``DynamoDBService`` call made in the block."""
    calls = DynamoDBCalls()
    sha = calls.sha
    originals = {
        name: fn
        for name, fn in vars(DynamoDBService).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    }

    def record(name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            calls.ops[name] += 1
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            call = _canon({k: v for k, v in bound.arguments.items() if k != "self"})
            try:
                result = fn(self, *args, **kwargs)
            except Exception as exc:
                sha.update(f"{name}({call}) raise {type(exc).__name__}\n".encode())
                raise
            sha.update(f"{name}({call}) -> {_canon(result)}\n".encode())
            return result

        return wrapper

    for name, fn in originals.items():
        setattr(DynamoDBService, name, record(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(DynamoDBService, name, fn)


@contextmanager
def providers_built() -> Iterator[List[CloudProvider]]:
    """Collect every ``CloudProvider`` constructed in the block, in order."""
    built: List[CloudProvider] = []
    original = CloudProvider.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    CloudProvider.__init__ = init
    try:
        yield built
    finally:
        CloudProvider.__init__ = original


def ledger_digest(providers: Sequence[CloudProvider]) -> str:
    """SHA-256 over every itemised charge and every total of each ledger."""
    sha = hashlib.sha256()
    for provider in providers:
        ledger = provider.ledger
        for entry in ledger.entries:
            sha.update(
                repr(
                    (
                        entry.time,
                        entry.category.value,
                        repr(entry.amount),
                        entry.region,
                        entry.tag,
                        entry.detail,
                    )
                ).encode()
            )
        # Insertion order is part of the digest: ``total()`` folds the
        # categories in that order.  The tool reads the by-tag totals
        # directly, as the ledger has no public by-tag view.
        totals = (
            list(ledger.by_category().items()),
            list(ledger.by_region().items()),
            list(ledger._total_by_tag.items()),
            ledger.total(),
        )
        sha.update(f"totals {totals!r}\n".encode())
    return sha.hexdigest()


def cloudwatch_digest(providers: Sequence[CloudProvider]) -> str:
    """SHA-256 over every stored metric key and its ``(time, value)`` points."""
    sha = hashlib.sha256()
    for provider in providers:
        # The service has no public key listing; read the store directly.
        metrics = provider.cloudwatch._metrics
        for key in sorted(metrics):
            sha.update(f"{key!r} {metrics[key]!r}\n".encode())
        sha.update(b"--\n")
    return sha.hexdigest()


def files_digest(root: str) -> str:
    """SHA-256 over every file under *root*: relative path, size, bytes."""
    sha = hashlib.sha256()
    base = Path(root)
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        data = path.read_bytes()
        sha.update(f"{path.relative_to(base).as_posix()}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


def digests(
    scale: float = SCALE, seeds: Sequence[int] = SEEDS
) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{workload: {seed: {"fleet", "dynamodb", "dynamodb_ops", "files", "ledger", "cloudwatch"}}}``."""
    result: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name, run in workloads.WORKLOADS.items():
        result[name] = {}
        for seed in seeds:
            out = workloads.Outcome()
            with tempfile.TemporaryDirectory() as workdir:
                with dynamodb_calls() as calls, providers_built() as providers:
                    run(out, seed, scale, workdir)
                result[name][str(seed)] = {
                    "fleet": out.digest,
                    "dynamodb": calls.hexdigest(),
                    "dynamodb_ops": dict(sorted(calls.ops.items())),
                    "files": files_digest(workdir),
                    "ledger": ledger_digest(providers),
                    "cloudwatch": cloudwatch_digest(providers),
                }
                del providers[:]
    return result


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
