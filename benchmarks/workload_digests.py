"""Print the outcome digest of every end-to-end workload as JSON.

    PYTHONPATH=src python benchmarks/workload_digests.py > digests.json

Runs each entry of ``benchmarks/e2e/workloads.py::WORKLOADS`` at 20 %
size for seeds 4 and 5 and records its ``fleet_digest``: a SHA-256
over every simulated cost, timestamp and placement.  Two interpreters
(or two commits) that print the same JSON produced bit-identical
simulations.  CI runs this on several Python versions and fails when
their outputs differ.  Other sizes: call :func:`digests` directly.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402

SCALE = 0.2
SEEDS = (4, 5)


def digests(scale: float = SCALE, seeds: Sequence[int] = SEEDS) -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: digest}}`` for every workload and seed."""
    result: Dict[str, Dict[str, str]] = {}
    for name, run in workloads.WORKLOADS.items():
        result[name] = {}
        for seed in seeds:
            out = workloads.Outcome()
            with tempfile.TemporaryDirectory() as workdir:
                run(out, seed, scale, workdir)
            result[name][str(seed)] = out.digest
    return result


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
