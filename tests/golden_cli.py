"""Golden CLI transcript: argv, exit codes, stdout and written files.

The committed fixture (``tests/data/golden_cli.json``) pins what
``repro.cli.main`` printed and wrote for every case in :data:`CASES`
before the CLI's dispatch, readers and writers were folded into one
front door.  ``tests/test_golden_cli.py`` replays each case and compares
the records with ``==``; regenerate the fixture only when a command's
output intentionally changes (``write_fixture(record())``).

A case is a list of argvs run in order, in process, in one fresh
temporary working directory, with relative paths only, so later steps
can read what earlier ones wrote.  A case may first create input files
(``setup``).  For each step the transcript records:

* the argv and the exit code;
* the SHA-256 of stdout and its first line;
* the SHA-256 of every file the step wrote (new or changed), keyed by
  its path relative to the working directory.

Nothing here prints wall-clock time (so no ``obs profile`` tables).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

from repro.cli import main

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_cli.json"

#: The small fleet every fleet-running case uses.
FLEET = ["--workloads", "4", "--duration-hours", "2", "--seed", "7"]
#: ``obs`` with :data:`FLEET` on the synthetic workload.
OBS = ["obs", "--workload", "synthetic", *FLEET]

CASES: Dict[str, dict] = {
    "run-exports": {
        "steps": [
            ["run", *FLEET, "--lifelines",
             "--export-csv", "timeline.csv", "--export-json", "timeline.json"],
        ],
    },
    "obs-stream": {
        "steps": [
            [*OBS, "--events", "run.jsonl"],
            ["obs", "--from-events", "run.jsonl"],
            ["obs", "explain", "wl-001", "--from-events", "run.jsonl"],
            ["obs", "markets", "--from-events", "run.jsonl"],
            ["obs", "slo", "--from-events", "run.jsonl", "--json", "slo.json"],
            ["obs", "watch", "--once", "--from-events", "run.jsonl"],
        ],
    },
    "obs-markets-fresh": {
        "steps": [["obs", "markets", "--days", "1"]],
    },
    "obs-slo-live": {
        "steps": [[*OBS, "slo"]],
    },
    "obs-trace": {
        "steps": [[*OBS, "trace", "wl-001", "--json", "hops.json"]],
    },
    "obs-watch-live": {
        "steps": [[*OBS, "watch", "--live", "--once"]],
    },
    "chaos": {
        "steps": [
            ["chaos", "run", "--seed", "11", "--export", "scorecard.json",
             "--export-stream", "stream", "--blackbox", "blackbox"],
            ["chaos", "report", "scorecard.json"],
            ["chaos", "report", "scorecard.json", "--workload", "ckpt-0"],
            ["obs", "watch", "--once", "--dir", "stream"],
        ],
    },
    "tenants": {
        "steps": [["tenants", "--export", "roster.json"]],
    },
    "datasets": {
        "steps": [["datasets", "--days", "5", "--save", "archives"]],
    },
    "error-missing-file": {
        "steps": [
            ["obs", "--from-events", "missing.jsonl"],
            ["obs", "watch", "--once", "--dir", "missing"],
        ],
    },
    "error-empty-stream": {
        "setup": {"empty.jsonl": ""},
        "steps": [
            ["obs", "--from-events", "empty.jsonl"],
            ["obs", "explain", "wl-000", "--from-events", "empty.jsonl"],
            ["obs", "markets", "--from-events", "empty.jsonl"],
        ],
    },
    "error-unknown-workload": {
        "steps": [
            [*OBS, "--events", "run.jsonl"],
            ["obs", "explain", "wl-999", "--from-events", "run.jsonl"],
            [*OBS, "trace", "wl-999"],
        ],
    },
    "error-unwritable-export": {
        "steps": [
            ["run", *FLEET, "--export-json", "no-such-dir/timeline.json"],
            ["tenants", "--export", "no-such-dir/roster.json"],
        ],
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: str) -> Dict[str, str]:
    """SHA-256 of every file under *root*, keyed by relative path."""
    digests = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as handle:
                digests[rel] = _sha(handle.read())
    return digests


def run_step(argv: Sequence[str]) -> dict:
    """Run one argv in the current directory and record it."""
    before = _snapshot(".")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    after = _snapshot(".")
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": _sha(text.encode("utf-8")),
        "stdout_first_line": text.split("\n", 1)[0],
        "files": {
            path: digest
            for path, digest in sorted(after.items())
            if before.get(path) != digest
        },
    }


def run_case(name: str) -> List[dict]:
    """Run case *name* in a fresh temporary working directory."""
    case = CASES[name]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for path, text in case.get("setup", {}).items():
                Path(path).write_text(text)
            return [run_step(argv) for argv in case["steps"]]
        finally:
            os.chdir(cwd)


def record() -> Dict[str, List[dict]]:
    """Run every case in :data:`CASES`."""
    return {name: run_case(name) for name in CASES}


def load_fixture() -> Dict[str, List[dict]]:
    """Read the committed golden transcript."""
    return json.loads(FIXTURE_PATH.read_text())


def write_fixture(transcript: Dict[str, List[dict]]) -> None:
    """Write *transcript* as the golden fixture."""
    FIXTURE_PATH.write_text(json.dumps(transcript, indent=1, sort_keys=True) + "\n")
