"""Tests for the spotverse CLI."""

import argparse
import json
import time

import pytest

from repro.cli import _build_parser, main
from repro.obs.slo import LATENCY_METRICS
from repro.strategies import STRATEGIES


class TestRecommend:
    def test_prints_region_table(self, capsys):
        assert main(["recommend", "--instance-type", "m5.xlarge", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "SpotVerse top regions" in out
        for region in ("ap-northeast-3", "eu-north-1"):
            assert region in out

    def test_on_demand_recommendation_at_high_threshold(self, capsys):
        assert main(["recommend", "--threshold", "9"]) == 0
        out = capsys.readouterr().out
        assert "ON-DEMAND" in out

    def test_stability_only_mode(self, capsys):
        assert main(["recommend", "--no-placement-score", "--threshold", "3"]) == 0
        out = capsys.readouterr().out
        assert "top regions" in out


_HEADER = (
    "region         | spot $/h | od $/h | placement | stability | combined | savings\n"
    "---------------+----------+--------+-----------+-----------+----------+--------\n"
)
_M5_XLARGE_ROWS = (
    "eu-west-1      |   0.0724 | 0.2131 |       4.5 |         3 |      7.5 |     66%\n"
    "eu-north-1     |   0.0818 | 0.2035 |       4.3 |         3 |      7.3 |     60%\n"
    "ap-northeast-3 |   0.0835 | 0.2381 |       4.7 |         3 |      7.7 |     65%\n"
    "us-west-1      |   0.0885 | 0.2246 |       4.2 |         3 |      7.2 |     61%\n"
)


class TestRecommendStdout:
    """Full ``recommend`` stdout, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                [],
                "SpotVerse top regions for m5.xlarge (threshold 6, cheapest first)\n"
                + _HEADER
                + _M5_XLARGE_ROWS,
            ),
            (
                ["--threshold", "9"],
                "No region meets threshold 9 for m5.xlarge; "
                "SpotVerse recommends ON-DEMAND in us-east-1.\n",
            ),
            (
                ["--no-placement-score", "--threshold", "3"],
                "SpotVerse top regions for m5.xlarge (threshold 3, cheapest first)\n"
                + _HEADER
                + _M5_XLARGE_ROWS,
            ),
            (
                ["--instance-type", "m5.2xlarge", "--seed", "7", "--max-regions", "2"],
                "SpotVerse top regions for m5.2xlarge (threshold 6, cheapest first)\n"
                + _HEADER
                + "ap-northeast-3 |   0.0914 | 0.4762 |       4.3 |         3 |      7.3 |     81%\n"
                "eu-north-1     |   0.1597 | 0.4070 |       4.1 |         3 |      7.1 |     61%\n",
            ),
        ],
        ids=["default", "on-demand", "stability-only", "m5.2xlarge-top2"],
    )
    def test_full_stdout(self, argv, expected, capsys):
        assert main(["recommend", *argv]) == 0
        assert capsys.readouterr().out == expected


class TestRun:
    def test_spotverse_run(self, capsys):
        code = main(
            [
                "run",
                "--strategy", "spotverse",
                "--workload", "synthetic",
                "--workloads", "3",
                "--duration-hours", "2",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 complete" in out

    def test_baseline_run(self, capsys):
        code = main(
            [
                "run",
                "--strategy", "on-demand",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "on-demand" in out

    def test_single_region_with_start_region(self, capsys):
        code = main(
            [
                "run",
                "--strategy", "single-region",
                "--start-region", "eu-north-1",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
            ]
        )
        assert code == 0

    def test_lifelines_flag(self, capsys):
        code = main(
            [
                "run",
                "--strategy", "on-demand",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
                "--lifelines",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet lifelines" in out
        assert "wl-000" in out

    def test_timeline_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "timeline.csv"
        json_path = tmp_path / "timeline.json"
        code = main(
            [
                "run",
                "--strategy", "on-demand",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
                "--export-csv", str(csv_path),
                "--export-json", str(json_path),
            ]
        )
        assert code == 0
        assert "workload_id" in csv_path.read_text()
        import json

        document = json.loads(json_path.read_text())
        assert len(document["workloads"]) == 2

    @pytest.mark.parametrize("flag", ["--export-csv", "--export-json"])
    def test_unwritable_export_exits_2(self, capsys, tmp_path, flag):
        target = tmp_path / "missing-dir" / "timeline.out"
        code = main(
            [
                "run",
                "--strategy", "on-demand",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
                flag, str(target),
            ]
        )
        assert code == 2
        assert "error: cannot write timeline" in capsys.readouterr().out
        assert not target.exists()

    def test_incomplete_fleet_nonzero_exit(self, capsys):
        code = main(
            [
                "run",
                "--strategy", "on-demand",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "10",
                "--max-hours", "1",
            ]
        )
        assert code == 1


def _option_choices(commands, dest):
    """``choices`` of option *dest* under the subcommand path *commands*."""
    parser = _build_parser()
    for command in commands:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    return next(a for a in parser._actions if a.dest == dest).choices


def test_every_subcommand_has_one_handler():
    from repro.cli import _HANDLERS

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    pairs = set()
    for command, parser in sub.choices.items():
        nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        pairs |= {(command, name) for name in (nested[0].choices if nested else ())}
        if not nested or not nested[0].required:
            pairs.add((command, None))
    assert pairs == set(_HANDLERS)


class TestStrategyRoster:
    @pytest.mark.parametrize(
        "commands, dest",
        [
            (["run"], "strategy"),
            (["obs"], "strategy"),
            (["chaos", "run"], "policy"),
            (["tenants"], "policy"),
        ],
    )
    def test_choices_are_the_roster(self, commands, dest):
        assert _option_choices(commands, dest) == sorted(STRATEGIES)

    @pytest.mark.parametrize("strategy", ["deadline", "cheapest-migration", "spotverse-efs"])
    def test_run_reaches_monitor_strategies(self, capsys, strategy):
        code = main(
            [
                "run",
                "--strategy", strategy,
                "--workload", "synthetic",
                "--workloads", "3",
                "--duration-hours", "2",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "3/3 complete" in capsys.readouterr().out


class TestObsSubcommands:
    """`spotverse obs explain` / `obs markets` and their failure modes."""

    @pytest.fixture(scope="class")
    def stream_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "run.jsonl"
        code = main(
            [
                "obs",
                "--workload", "synthetic",
                "--workloads", "3",
                "--duration-hours", "2",
                "--seed", "5",
                "--events", str(path),
            ]
        )
        assert code == 0
        return path

    def test_explain_renders_causal_chain(self, capsys, stream_path):
        assert main(["obs", "explain", "wl-000", "--from-events", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "causal chain for wl-000" in out
        assert "workload.submitted" in out
        assert "workload.done" in out

    def test_explain_unknown_workload_lists_known(self, capsys, stream_path):
        code = main(["obs", "explain", "wl-999", "--from-events", str(stream_path)])
        assert code == 2
        out = capsys.readouterr().out
        assert "never appears" in out
        assert "wl-000" in out  # the error names the known workloads

    def test_markets_from_stream(self, capsys, stream_path):
        assert main(["obs", "markets", "--from-events", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "spot_price" in out
        assert "us-east-1" in out

    def test_empty_stream_fails_gracefully(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for argv in (
            ["obs", "--from-events", str(empty)],
            ["obs", "explain", "wl-000", "--from-events", str(empty)],
            ["obs", "markets", "--from-events", str(empty)],
        ):
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert "error:" in out
            assert "empty" in out

    def test_truncated_tail_is_tolerated(self, capsys, tmp_path):
        # A half-written final record (live writer mid-line) is skipped,
        # not fatal; here it leaves nothing behind, so the empty-stream
        # error applies.
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text('{"kind": "event", "seq": 0, "time": 0.0, "ty')
        for argv in (
            ["obs", "--from-events", str(truncated)],
            ["obs", "explain", "wl-000", "--from-events", str(truncated)],
            ["obs", "markets", "--from-events", str(truncated)],
        ):
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert "error:" in out
            assert "empty" in out

    def test_malformed_point_fails_gracefully(self, capsys, tmp_path):
        # A point record without a name, or with labels that are not an
        # object, names its line instead of crashing the market view.
        event = '{"kind": "event", "seq": 0, "time": 0.0, "type": "workload.submitted"}'
        for point, reason in (
            ('{"kind": "point", "time": 1.0, "value": 2.0, "labels": {}}', "no string name"),
            (
                '{"kind": "point", "name": "spot_price", "time": 1.0, "value": 2.0,'
                ' "labels": "region"}',
                "labels are not an object",
            ),
        ):
            path = tmp_path / "points.jsonl"
            path.write_text(f"{event}\n{point}\n")
            assert main(["obs", "markets", "--from-events", str(path)]) == 2
            out = capsys.readouterr().out
            assert f"error: {path}:2: " in out
            assert reason in out

    def test_corrupt_stream_fails_gracefully(self, capsys, tmp_path):
        # A damaged line that is *not* an unterminated tail is real
        # corruption and still names the line.
        corrupt = tmp_path / "trunc.jsonl"
        corrupt.write_text('{"kind": "event", "seq": 0, "time": 0.0, "ty\n')
        for argv in (
            ["obs", "--from-events", str(corrupt)],
            ["obs", "explain", "wl-000", "--from-events", str(corrupt)],
            ["obs", "markets", "--from-events", str(corrupt)],
        ):
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert "error:" in out
            assert "trunc.jsonl:1" in out  # names the damaged line

    def test_missing_stream_fails_gracefully(self, capsys, tmp_path):
        code = main(["obs", "explain", "w", "--from-events", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error: cannot read" in capsys.readouterr().out

    def test_markets_fresh_simulation(self, capsys):
        assert main(["obs", "markets", "--days", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "day(s) of simulated markets" in out
        assert "spot_price" in out


class TestObsDeepCommands:
    """`spotverse obs profile|trace|slo` (PR 6's deep-observability CLI)."""

    #: Parent obs flags describing a tiny, fast fleet.
    _SMALL = [
        "obs",
        "--workload", "synthetic",
        "--workloads", "2",
        "--duration-hours", "2",
        "--max-hours", "24",
        "--seed", "7",
    ]

    def test_profile_runs_and_round_trips_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "profile.json"
        code = main(self._SMALL + ["profile", "--top", "3", "--json", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot label group" in out
        assert "subsystem" in out
        payload = json.loads(artifact.read_text())
        assert payload["entries"]
        # Render the committed artifact without running a fleet.
        assert main(["obs", "profile", "--from-profile", str(artifact)]) == 0
        assert "hot label group" in capsys.readouterr().out

    def test_profile_rejects_bad_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["obs", "profile", "--from-profile", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_trace_renders_causal_tree(self, capsys, tmp_path):
        hops = tmp_path / "hops.json"
        assert main(self._SMALL + ["trace", "wl-001", "--json", str(hops)]) == 0
        out = capsys.readouterr().out
        assert "trace wl-001" in out
        assert "workload:submit" in out
        assert "critical path" in out
        assert json.loads(hops.read_text())

    def test_trace_unknown_workload_lists_known(self, capsys):
        assert main(self._SMALL + ["trace", "wl-999"]) == 2
        out = capsys.readouterr().out
        assert "error: no trace recorded" in out
        assert "wl-000" in out

    def test_slo_default_spec_with_exports(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        card = tmp_path / "scorecard.json"
        code = main(
            self._SMALL
            + ["slo", "--export-metrics", str(metrics), "--json", str(card)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO scorecard" in out
        assert "# TYPE" in metrics.read_text()
        assert json.loads(card.read_text())["results"]

    def test_slo_breached_spec_exits_nonzero(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "breach",
                    "targets": [
                        {
                            "metric": "submit_to_placed_seconds",
                            "threshold": 0.001,
                            "objective": 0.99,
                        }
                    ],
                }
            )
        )
        assert main(self._SMALL + ["slo", "--spec", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "SLO BREACH" in out

    def test_slo_scores_saved_stream(self, capsys, tmp_path):
        stream = tmp_path / "run.jsonl"
        assert main(self._SMALL + ["--events", str(stream)]) == 0
        capsys.readouterr()
        assert main(["obs", "slo", "--from-events", str(stream)]) == 0
        assert "SLO scorecard" in capsys.readouterr().out

    def test_slo_rejects_unknown_metric(self, capsys, tmp_path):
        # An unknown name would score no samples and pass vacuously.
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"name": "typo", "targets": [{"metric": "bogus_metric", "threshold": 1}]}
            )
        )
        assert main(self._SMALL + ["slo", "--spec", str(spec)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") and "bogus_metric" in lines[0]
        for known in LATENCY_METRICS:
            assert known in lines[0]

    def test_slo_rejects_invalid_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "targets": []}))
        assert main(["obs", "slo", "--spec", str(spec)]) == 2
        assert "error:" in capsys.readouterr().out


class TestObsWatch:
    """`spotverse obs watch` — the refreshing terminal dashboard."""

    @pytest.fixture(scope="class")
    def stream_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("watch") / "run.jsonl"
        code = main(
            [
                "obs",
                "--workload", "synthetic",
                "--workloads", "3",
                "--duration-hours", "2",
                "--seed", "5",
                "--events", str(path),
            ]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def chaos_dirs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("chaos-watch")
        stream_dir = base / "stream"
        blackbox_dir = base / "bb"
        main(
            [
                "chaos", "run",
                "--export-stream", str(stream_dir),
                "--blackbox", str(blackbox_dir),
            ]
        )
        return stream_dir, blackbox_dir

    def test_snapshot_from_events_file(self, capsys, stream_path):
        assert main(["obs", "watch", "--from-events", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "spotverse obs watch" in out
        assert "fleet status" in out
        assert "windows (last" in out
        assert "SLO (" in out
        assert "stream complete" in out  # a plain file is a finished run

    def test_once_over_segmented_chaos_stream(self, capsys, chaos_dirs):
        stream_dir, blackbox_dir = chaos_dirs
        capsys.readouterr()
        assert main(["obs", "watch", "--once", "--dir", str(stream_dir)]) == 0
        out = capsys.readouterr().out
        assert "spotverse obs watch" in out
        assert "stream complete" in out  # the sealed manifest is honoured
        assert "done=" in out
        # The chaos run also left its run-end blackbox for CI to upload.
        assert (blackbox_dir / "BLACKBOX_final.json").exists()

    @staticmethod
    def _follow(stream_dir, monkeypatch, on_sleep=None):
        """Follow *stream_dir*; the third wall-clock sleep fails the test."""
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 3:
                raise RuntimeError("obs watch is still polling")
            if on_sleep is not None:
                on_sleep()

        monkeypatch.setattr(time, "sleep", sleep)
        code = main(["obs", "watch", "--dir", str(stream_dir), "--interval", "0"])
        return code, sleeps

    @pytest.mark.parametrize("manifest", ["[]", "{"])
    def test_follow_exits_on_damaged_manifest(self, capsys, tmp_path, monkeypatch, manifest):
        stream_dir = tmp_path / "stream"
        stream_dir.mkdir()
        (stream_dir / "manifest.json").write_text(manifest)
        code, sleeps = self._follow(stream_dir, monkeypatch)
        assert code == 2
        assert sleeps == []
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") and "not a stream manifest" in lines[0]

    def test_follow_polls_until_the_stream_appears(self, capsys, tmp_path, monkeypatch):
        stream_dir = tmp_path / "stream"
        stream_dir.mkdir()

        def finish_run():
            (stream_dir / "segment-000000.jsonl").write_text(_EVENT_LINE)
            (stream_dir / "manifest.json").write_text(
                json.dumps({"complete": True, "segments": [{"name": "segment-000000.jsonl"}]})
            )

        code, sleeps = self._follow(stream_dir, monkeypatch, on_sleep=finish_run)
        assert code == 0
        assert len(sleeps) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and "no stream segments found" in out
        assert "stream complete" in out

    def test_live_once_runs_a_fleet(self, capsys):
        code = main(
            [
                "obs",
                "--workload", "synthetic",
                "--workloads", "2",
                "--duration-hours", "1",
                "--seed", "5",
                "watch", "--live", "--once",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert "workloads 2/2 done" in out

    def test_requires_exactly_one_source(self, capsys, stream_path):
        assert main(["obs", "watch"]) == 2
        assert "exactly one" in capsys.readouterr().out
        assert (
            main(["obs", "watch", "--live", "--from-events", str(stream_path)]) == 2
        )
        assert "exactly one" in capsys.readouterr().out

    def test_missing_stream_dir_fails_gracefully(self, capsys, tmp_path):
        assert main(["obs", "watch", "--once", "--dir", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().out


class TestExperimentAndDatasets:
    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_datasets_summary(self, capsys):
        assert main(["datasets", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "synthetic advisor + placement" in out
        assert "ca-central-1" in out

    def test_datasets_save_archives(self, capsys, tmp_path):
        target = tmp_path / "archive"
        assert main(["datasets", "--days", "3", "--save", str(target)]) == 0
        assert (target / "advisor.jsonl").exists()
        assert (target / "placement.jsonl").exists()
        from repro.data.persist import load_advisor_dataset

        loaded = load_advisor_dataset(target / "advisor.jsonl")
        assert loaded.days == 3

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


#: A minimal scorecard `chaos report` renders; the malformed variants
#: below each break one field of it.
_SCORECARD = {
    "all_passed": True,
    "campaign": {"name": "tiny", "injections": []},
    "faults": {
        "by_kind": {}, "checkpoint_fallbacks": 0, "dead_letters": 0,
        "reconciled_interruptions": 0, "retries": 0, "total": 0,
    },
    "invariants": [{"name": "no-lost-work", "passed": True}],
    "policy": "spotverse",
    "seed": 11,
    "totals": {"ended_at": 0.0, "interruptions": 0, "total_cost": 0.0},
    "workloads": {"wl-000": {"status": "done"}},
}


def _without(key):
    return json.dumps({k: v for k, v in _SCORECARD.items() if k != key})


_EVENT_LINE = '{"kind": "event", "seq": 0, "time": 0.0, "type": "workload.submitted"}\n'

#: (argv, files to create) for every file input the CLI reads, each fed a
#: missing path, invalid JSON and a JSON document of the wrong shape.
_MALFORMED_INPUTS = {
    "stream-missing": (["obs", "--from-events", "run.jsonl"], {}),
    "stream-invalid-json": (["obs", "--from-events", "run.jsonl"], {"run.jsonl": "not json\n"}),
    "stream-string-line": (
        ["obs", "--from-events", "run.jsonl"], {"run.jsonl": _EVENT_LINE + '"a string"\n'},
    ),
    "stream-dir-missing": (["obs", "watch", "--once", "--dir", "stream"], {}),
    "stream-dir-invalid-manifest": (
        ["obs", "watch", "--once", "--dir", "stream"], {"stream/manifest.json": "{"},
    ),
    "stream-dir-list-manifest": (
        ["obs", "watch", "--once", "--dir", "stream"], {"stream/manifest.json": "[]"},
    ),
    "manifest-missing": (["obs", "--from-events", "stream/manifest.json"], {}),
    "manifest-invalid-json": (
        ["obs", "--from-events", "stream/manifest.json"], {"stream/manifest.json": "{"},
    ),
    "manifest-bad-segments": (
        ["obs", "--from-events", "stream/manifest.json"],
        {"stream/manifest.json": '{"segments": [1]}'},
    ),
    "profile-missing": (["obs", "profile", "--from-profile", "p.json"], {}),
    "profile-invalid-json": (["obs", "profile", "--from-profile", "p.json"], {"p.json": "{"}),
    "profile-list": (["obs", "profile", "--from-profile", "p.json"], {"p.json": "[1, 2]"}),
    "profile-bad-entries": (
        ["obs", "profile", "--from-profile", "p.json"], {"p.json": '{"entries": [1]}'},
    ),
    "slo-spec-missing": (["obs", "slo", "--spec", "s.json"], {}),
    "slo-spec-invalid-json": (["obs", "slo", "--spec", "s.json"], {"s.json": "{"}),
    "slo-spec-list": (["obs", "slo", "--spec", "s.json"], {"s.json": "[1]"}),
    "campaign-missing": (["chaos", "run", "--campaign", "c.json"], {}),
    "campaign-invalid-json": (["chaos", "run", "--campaign", "c.json"], {"c.json": "{"}),
    "campaign-list": (["chaos", "run", "--campaign", "c.json"], {"c.json": "[1]"}),
    "campaign-unknown-kind": (
        ["chaos", "run", "--campaign", "c.json"],
        {"c.json": '{"name": "x", "injections": [{"kind": "bogus"}]}'},
    ),
    "scorecard-missing": (["chaos", "report", "sc.json"], {}),
    "scorecard-empty": (["chaos", "report", "sc.json"], {"sc.json": ""}),
    "scorecard-invalid-json": (["chaos", "report", "sc.json"], {"sc.json": "{"}),
    "scorecard-no-campaign": (["chaos", "report", "sc.json"], {"sc.json": _without("campaign")}),
    "scorecard-no-policy": (["chaos", "report", "sc.json"], {"sc.json": _without("policy")}),
    "scorecard-list-workloads": (
        ["chaos", "report", "sc.json", "--workload", "wl-000"],
        {"sc.json": json.dumps({**_SCORECARD, "workloads": []})},
    ),
}


class TestMalformedInput:
    """Every file the CLI reads fails with one `error:` line and exit 2."""

    def test_scorecard_fixture_renders(self, capsys, tmp_path, monkeypatch):
        # The malformed scorecards break one field of a valid one.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sc.json").write_text(json.dumps(_SCORECARD))
        assert main(["chaos", "report", "sc.json"]) == 0
        assert main(["chaos", "report", "sc.json", "--workload", "wl-000"]) == 0
        assert "wl-000 under campaign 'tiny'" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
    def test_one_error_line_and_exit_2(self, case, capsys, tmp_path, monkeypatch):
        argv, files = _MALFORMED_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ")
