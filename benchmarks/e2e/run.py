"""End-to-end benchmark: untraced medians per workload plus a traced ledger.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--reps R]
                                 [--seconds T] [--rounds K] [--trace 0|1] [--out FILE]

Every measured run is a fresh ``child.py`` subprocess with tracing off,
started one at a time, so exactly one process generates load and each
run's peak RSS is its own.  The command prints every end-to-end metric
by name with its unit, median and quartiles, checks the outputs, and
then makes one extra **traced** run per workload whose per-layer
ledger is written to ``ledger/PERF_LEDGER_<workload>.json``.

Run counts: ``--reps R`` runs each workload R times (default 5);
``--seconds T`` instead runs as many as take about T seconds on the
reference host (at least ``MIN_REPS``).  Run *i* uses input seed
``seed + REP_SEED_STRIDE * i`` and the last run repeats the first seed,
so medians average over inputs and machine noise alike and every
measurement checks bit-identical replay.
``--rounds K`` repeats the measurement of every workload K times,
reversing the workload order each round, so ``compare.py`` can judge
noise from the spread between measurements (default 1).
``--trace 0`` measures only the untraced runs and reports the
end-to-end metrics; ``--trace 1`` adds the traced run (in the last
round) and reports the per-layer metrics; without ``--trace`` both are
reported.  ``--out`` writes the whole result set as JSON for
``compare.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names,
units and bounds come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from instrument import unit_of
from stats import FAILED_FRAC, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
LEDGER_DIR = HERE / "ledger"
WORK_DIR = HERE / ".work"

#: ``--seed`` default per workload (fig3 keeps the paper figure's seed).
DEFAULT_SEEDS = {
    "fig3-seeds": 7,
    "fleet-tenants": 11,
    "dag-fanout": 11,
    "chaos-recovery": 11,
}
DEFAULT_REPS = 5
MIN_REPS = 3
MAX_REPS = 50
#: Seed spacing between the runs of one measurement.
REP_SEED_STRIDE = 10_001
#: Seconds one untraced run takes, interpreter start included, on the
#: reference host (2-core x86_64 VM, Python 3.11); ``--seconds`` is
#: turned into a fixed run count with these, so the inputs measured
#: never depend on how fast the machine happens to be.
NOMINAL_RUN_S = {
    "fig3-seeds": 1.9,
    "fleet-tenants": 1.8,
    "dag-fanout": 1.7,
    "chaos-recovery": 1.9,
}
#: A child that runs longer than this is killed and the benchmark fails.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the code under test)."""


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json from the repository root."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(name: str, seed: int, trace: bool, attempt: int) -> Dict[str, Any]:
    """One measured run in a fresh interpreter; returns its JSON result."""
    workdir = WORK_DIR / f"{os.getpid()}-{name}-{attempt}"
    cmd = [sys.executable, str(CHILD), name, str(seed), "1" if trace else "0", str(workdir)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: run exceeded {CHILD_TIMEOUT_S}s and was killed") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{name}: child exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_seeds(seed: int, reps: int) -> List[int]:
    """The input seed of each untraced run.

    Runs use distinct seeds (``seed + REP_SEED_STRIDE * i``) so a median
    over runs averages over inputs as well as over machine noise; the
    last run repeats the first seed, so every measurement also checks
    that one input replays to a bit-identical outcome in a new process.
    """
    if reps == 1:
        return [seed]
    return [seed + REP_SEED_STRIDE * index for index in range(reps - 1)] + [seed]


def reps_for(name: str, seconds: float) -> int:
    """How many runs of *name* fill about *seconds* on the reference host."""
    return max(MIN_REPS, min(MAX_REPS, int(seconds // NOMINAL_RUN_S[name])))


def measure(name: str, seed: int, reps: int, traced: bool) -> Dict[str, Any]:
    """Untraced runs of one workload, then (optionally) its traced run.

    The traced run uses *seed*, the input of the first untraced run.
    """
    runs = [
        run_child(name, rep_seed, False, index)
        for index, rep_seed in enumerate(rep_seeds(seed, reps))
    ]
    result: Dict[str, Any] = {"workload": name, "seed": seed, "runs": runs}
    if traced:
        result["traced"] = run_child(name, seed, True, len(runs))
    return result


def evaluate(result: Dict[str, Any]) -> Dict[str, Any]:
    """Medians, quartiles and the cross-run output checks of one workload.

    Adds ``attempted`` / ``failed`` counts, the ``cross_checks`` verdicts
    (runs of the same input have the same outcome digest, and so does the
    traced run) and ``summary`` per end-to-end metric.
    """
    runs = result["runs"]
    digests: Dict[int, str] = {}
    stable = True
    for run in runs:
        stable &= digests.setdefault(run["seed"], run["digest"]) == run["digest"]
    cross = {"outcome_replays_identically": stable}
    traced = result.get("traced")
    if traced is not None:
        cross["traced_outcome_identical"] = traced["digest"] == digests[traced["seed"]]
    attempted = sum(run["lifecycles"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    failed += sum(1 for passed in cross.values() if not passed)
    result["cross_checks"] = cross
    result["attempted"] = attempted
    result["failed"] = failed
    names = sorted({key for run in runs for key in run["metrics"]})
    summary = {
        key: summarize([run["metrics"][key] for run in runs]) for key in names
    }
    summary[FAILED_FRAC["name"]] = summarize([failed / max(1, attempted)])
    result["summary"] = summary
    if traced is not None:
        same_input = [run["metrics"]["run_s"] for run in runs if run["seed"] == traced["seed"]]
        untraced_s = summarize(same_input)["median"]
        traced["ledger"]["metrics"]["trace_overhead_x"] = traced["metrics"]["run_s"] / untraced_s
    return result


def result_record(result: Dict[str, Any]) -> Dict[str, Any]:
    """What a result set keeps of one measurement (``compare.py`` input)."""
    record = {
        key: result[key]
        for key in ("workload", "seed", "attempted", "failed", "cross_checks", "summary")
    }
    record["runs"] = [
        {key: run[key] for key in ("seed", "digest", "failed", "metrics")}
        for run in result["runs"]
    ]
    return record


def write_ledger(result: Dict[str, Any]) -> Path:
    """``ledger/PERF_LEDGER_<workload>.json`` from the traced run."""
    traced = result["traced"]
    ledger = traced["ledger"]
    payload = {
        "format": "spotverse-e2e-ledger/1",
        "workload": result["workload"],
        "seed": result["seed"],
        "host": host_info(),
        "untraced": {
            "runs": len(result["runs"]),
            "run_s_median": result["summary"]["run_s"]["median"],
        },
        "traced": {
            key: traced[key] for key in ("wall_s", "checks_s", "harness_s", "digest")
        },
        "traced_metrics": traced["metrics"],
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in sorted(ledger["metrics"].items())
        },
        "layers": ledger["layers"],
        "spans": ledger["spans"],
        "span_count": ledger["span_count"],
        "wait_samples": ledger["wait_samples"],
        "events": ledger["events"],
        "engine_profile": ledger["engine_profile"],
    }
    LEDGER_DIR.mkdir(exist_ok=True)
    path = LEDGER_DIR / f"PERF_LEDGER_{result['workload']}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def host_info() -> Dict[str, Any]:
    """The hardware and interpreter a measurement was taken on."""
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def render(result: Dict[str, Any], e2e: List[Dict[str, Any]], per_layer: List[Dict[str, Any]],
           show_e2e: bool, show_layers: bool) -> str:
    """Human-readable report of one workload."""
    lines = [
        f"== {result['workload']} (seed {result['seed']}, {len(result['runs'])} untraced runs)"
    ]
    if show_e2e:
        lines.append(f"{'metric':<18s} {'unit':<8s} {'median':>14s} {'q1':>14s} {'q3':>14s}")
        for spec in e2e + [FAILED_FRAC]:
            row = result["summary"][spec["name"]]
            lines.append(
                f"{spec['name']:<18s} {spec['unit']:<8s} {row['median']:>14.6g} "
                f"{row['q1']:>14.6g} {row['q3']:>14.6g}"
            )
    checks: Dict[str, bool] = {}
    for run in result["runs"] + ([result["traced"]] if "traced" in result else []):
        for key, passed in run["checks"].items():
            checks[key] = checks.get(key, True) and passed
    checks.update(result["cross_checks"])
    failing = sorted(key for key, passed in checks.items() if not passed)
    lines.append(
        f"checks: {len(checks) - len(failing)}/{len(checks)} passed"
        + (f" (failing: {', '.join(failing)})" if failing else "")
        + f"; attempted {result['attempted']}, failed {result['failed']}"
    )
    errors = [run["error"] for run in result["runs"] if run["error"]]
    if errors:
        lines.append(f"{len(errors)} run(s) raised; last traceback tail:")
        lines.extend("  " + line for line in errors[-1].strip().splitlines()[-3:])
    if show_layers and "traced" in result:
        metrics = result["traced"]["ledger"]["metrics"]
        lines.append(f"{'per-layer metric (traced run)':<46s} {'unit':<6s} {'value':>14s}")
        for spec in per_layer:
            lines.append(
                f"{spec['name']:<46s} {spec['unit']:<6s} {metrics[spec['name']]:>14.6g}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all, in BENCHMARK.json order)")
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS, help="untraced runs per workload")
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for about this long instead of --reps runs")
    parser.add_argument("--rounds", type=int, default=1,
                        help="measurements per workload, in alternating workload order")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--out", help="write the result set as JSON to this file")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        parser.error("--reps and --rounds must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    order = args.workload or names
    show_e2e = args.trace != 1
    show_layers = args.trace != 0
    measurements: Dict[str, List[Dict[str, Any]]] = {name: [] for name in order}
    try:
        for round_index in range(args.rounds):
            last = round_index == args.rounds - 1
            for name in order if round_index % 2 == 0 else order[::-1]:
                seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
                reps = args.reps if args.seconds is None else reps_for(name, args.seconds)
                result = evaluate(measure(name, seed, reps, show_layers and last))
                if "traced" in result:
                    write_ledger(result)
                print(render(result, spec["end_to_end"], spec["per_layer"], show_e2e,
                             show_layers), flush=True)
                measurements[name].append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics: Dict[str, Dict[str, Any]] = {}
    for name, results in measurements.items():
        prefix = f"{name}/" if len(measurements) > 1 else ""
        if show_e2e:
            for metric in spec["end_to_end"]:
                value = summarize(
                    [result["summary"][metric["name"]]["median"] for result in results]
                )["median"]
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
        if show_layers:
            layer_metrics = results[-1]["traced"]["ledger"]["metrics"]
            for metric in spec["per_layer"]:
                metrics[prefix + metric["name"]] = {
                    "value": layer_metrics[metric["name"]], "unit": metric["unit"]
                }
    everything = [result for results in measurements.values() for result in results]
    if args.out:
        payload = {
            "format": "spotverse-e2e-results/2",
            "host": host_info(),
            "workloads": {
                name: [result_record(result) for result in results]
                for name, results in measurements.items()
            },
        }
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    failed = sum(result["failed"] for result in everything)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in everything),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
