"""Tests of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e``.  The smoke tests drive every
workload at about 2% of its benchmark size through the workload
functions' ``scale`` argument, untraced and traced.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from instrument import (  # noqa: E402
    ITEM_COUNTERS,
    LAYERS,
    SpanRecorder,
    layer_of,
    self_times,
    span_names,
    union_length,
    unit_of,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.02
#: Small enough inputs crash at other seeds (see README "Known failures").
SMOKE_SEED = 4


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 6]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 6], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6, 2, 1, 1])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [1, 5] and [3, 8] overlap (union 7); [9, 12] is clipped to [9, 10].
    starts, ends, parents = [0, 1, 3, 9], [10, 5, 8, 12], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(2)


def test_union_length_merges_touching_and_skips_empty_intervals():
    assert union_length([(5, 6), (0, 2), (1, 3), (3, 4), (7, 7)]) == pytest.approx(5)
    assert union_length([]) == 0.0


def test_recorder_nests_spans_and_counts_errors():
    recorder = SpanRecorder()
    inner = recorder.timed(lambda: 7, "layer.inner")
    outer = recorder.timed(lambda: inner() + 1, "layer.outer", lambda args, result: result)

    def fail():
        raise ValueError("boom")

    failing = recorder.timed(fail, "layer.fail")
    assert outer() == 8
    with pytest.raises(ValueError):
        failing()
    names = [recorder.names[i] for i in recorder.name_ids]
    assert names == ["layer.outer", "layer.inner", "layer.fail"]
    assert list(recorder.parents) == [-1, 0, -1]
    assert recorder.items["layer.outer"] == 8
    assert recorder.errors["layer.fail"]["ValueError"] == 1
    assert all(end >= start for start, end in zip(recorder.starts, recorder.ends))


def test_every_span_reports_under_a_known_layer():
    for name in span_names():
        assert layer_of(name) in LAYERS, name
    assert set(ITEM_COUNTERS) <= set(span_names())
    assert layer_of("sim.cb:ec2:interruption-eval") == "cloud.ec2"
    assert layer_of("sim.cb:cloudwatch:spotverse-open-request-sweep") == "core.fleet.capacity"
    assert layer_of("sim.cb:cloudwatch:spotverse-collect-metrics") == "core.monitor"
    assert layer_of("sim.cb:<unlabeled>") == "other"
    assert layer_of("harness.scan") == "harness"


# ----------------------------------------------------------------------
# Statistics and verdicts
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    assert stats.quartiles(values) == statistics.quantiles(values, n=4)
    assert stats.quartiles([2.5]) == [2.5, 2.5, 2.5]


def test_median_and_iqr():
    summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0 and summary["n"] == 5
    assert stats.iqr_frac([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert stats.iqr_frac([0.0, 0.0]) == 0.0


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        ([10, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", 0.1, "within"),
        ([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1, "worse"),
        ([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1, "better"),
        ([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", 0.1, "better"),
        ([5, 10, 15], [10, 11, 12], "lower", 0.1, "unresolved"),
        ([5, 10, 15], [1, 2, 3], "lower", 0.1, "better"),
        ([0.0], [0.0], "lower", 0.0, "within"),
        ([0.0], [0.01], "lower", 0.0, "worse"),
    ],
)
def test_verdict(base, new, better, bound, expected):
    assert stats.verdict(base, new, better, bound) == expected


# ----------------------------------------------------------------------
# Failure accounting and comparison
# ----------------------------------------------------------------------
def _run(seed, digest, failed=0, lifecycles=10, run_s=1.0, rss=100.0):
    return {
        "seed": seed,
        "digest": digest,
        "failed": failed,
        "lifecycles": lifecycles,
        "checks": {},
        "error": "",
        "metrics": {
            "setup_s": 0.1,
            "run_s": run_s,
            "lifecycles_per_s": lifecycles / run_s,
            "sim_hours_per_s": 1.0 / run_s,
            "peak_rss_mb": rss,
            "failed_frac": failed / lifecycles,
            "sim_cost_usd": 3.0,
            "sim_makespan_h": 2.0,
        },
    }


def test_rep_seeds_are_distinct_and_replay_the_first():
    stride = run.REP_SEED_STRIDE
    assert run.rep_seeds(5, 4) == [5, 5 + stride, 5 + 2 * stride, 5]
    assert run.rep_seeds(5, 1) == [5]


def test_failed_frac_adds_run_failures_and_failed_cross_checks():
    traced = _run(1, "a", run_s=3.0)
    traced["ledger"] = {"metrics": {}}
    result = run.evaluate(
        {
            "workload": "w",
            "seed": 1,
            "scale": 1.0,
            "runs": [_run(1, "a", run_s=1.0), _run(2, "b", failed=3), _run(1, "c", run_s=2.0)],
            "traced": traced,
        }
    )
    assert result["cross_checks"] == {
        "outcome_replays_identically": False,
        "traced_outcome_identical": True,
    }
    assert result["attempted"] == 30
    assert result["failed"] == 4
    assert result["summary"]["failed_frac"]["median"] == pytest.approx(4 / 30)
    assert traced["ledger"]["metrics"]["trace_overhead_x"] == pytest.approx(3.0 / 1.5)


def _measurement(run_s, digest="d", failed=0):
    runs = [_run(seed, digest, run_s=run_s) for seed in range(3)]
    runs[0]["failed"] = failed
    return run.evaluate({"workload": "w", "seed": 0, "scale": 1.0, "runs": runs})


def test_compare_verdict_table():
    base = {
        "workloads": {
            "a": [_measurement(1.0), _measurement(1.01), _measurement(0.99)],
            "b": [_measurement(1.0) for _ in range(3)],
            "c": [_measurement(1.0)],
        }
    }
    new = {
        "workloads": {
            "a": [_measurement(v, digest="e") for v in (1.5, 1.51, 1.49)],
            "b": [_measurement(1.0, failed=1) for _ in range(3)],
            "c": [_measurement(1.1)],
        }
    }
    rows = {(row["workload"], row["metric"]): row["verdict"] for row in compare.compare(base, new, SPEC)}
    assert rows[("a", "run_s")] == "worse"
    assert rows[("a", "lifecycles_per_s")] == "worse"
    assert rows[("a", "setup_s")] == "within"
    assert rows[("b", "run_s")] == "within"
    assert rows[("b", "failed_frac")] == "worse"
    assert rows[("c", "run_s")] == "unresolved"  # one measurement a side: no spread to judge
    assert rows[("c", "sim_cost_usd")] == "within"
    assert len(rows) == 3 * (len(SPEC["end_to_end"]) + 1)
    identity = compare.outcome_identity(base, new)
    assert identity["a"] == "differs"
    assert identity["b"].startswith("identical")


def test_benchmark_spec_matches_the_harness():
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.DEFAULT_SEEDS) == list(run.NOMINAL_RUN_S)
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric["name"]


# ----------------------------------------------------------------------
# Workload smoke runs (~2% size)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    from repro.cloud.provider import CloudProvider
    from repro.sim.engine import SimulationEngine

    originals = (vars(CloudProvider)["__init__"], vars(SimulationEngine)["_fire"])
    plain = child.measure(name, SMOKE_SEED, False, str(tmp_path / "plain"), SMOKE_SCALE)
    traced = child.measure(name, SMOKE_SEED, True, str(tmp_path / "traced"), SMOKE_SCALE)
    assert (vars(CloudProvider)["__init__"], vars(SimulationEngine)["_fire"]) == originals

    assert plain["failed"] == 0, plain["error"] or plain["checks"]
    assert plain["completed"] == plain["lifecycles"] > 0
    for key in ("setup_s", "run_s", "lifecycles_per_s", "sim_hours_per_s", "sim_cost_usd"):
        assert plain["metrics"][key] > 0, key
    assert traced["digest"] == plain["digest"]
    ledger = traced["ledger"]
    wanted = {metric["name"] for metric in SPEC["per_layer"]} - {"trace_overhead_x"}
    assert wanted <= set(ledger["metrics"])
    assert ledger["metrics"]["unattributed_frac"] <= 0.10
    assert ledger["metrics"]["sim.events"] > 0


def test_escaping_exception_is_counted_not_raised(monkeypatch, tmp_path):
    from repro.errors import ThrottlingError

    def crash(out, seed, scale=1.0, workdir=""):
        out.lifecycles = 5
        raise ThrottlingError("injected")

    monkeypatch.setitem(workloads.WORKLOADS, "fig3-seeds", crash)
    result = child.measure("fig3-seeds", 1, False, str(tmp_path), 1.0)
    assert "ThrottlingError" in result["error"]
    assert result["checks"]["no_exception"] is False
    assert result["failed"] == 5 + 1
