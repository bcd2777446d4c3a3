"""CLI front door: replay the golden transcript byte for byte."""

import pytest

from tests import golden_cli


@pytest.mark.parametrize("case", sorted(golden_cli.CASES))
def test_cli_replays_golden_transcript(case):
    expected = golden_cli.load_fixture()[case]
    assert golden_cli.run_case(case) == expected


def test_transcript_covers_every_case():
    assert sorted(golden_cli.load_fixture()) == sorted(golden_cli.CASES)


def test_golden_transcript_is_not_trivial():
    # A transcript of nothing but errors, or of runs that wrote nothing,
    # would pin nothing the commands compute.
    fixture = golden_cli.load_fixture()
    steps = [step for case in fixture.values() for step in case]
    assert sum(step["exit"] == 0 for step in steps) >= 15
    assert sum(step["exit"] == 2 for step in steps) >= 6
    written = {path for step in steps for path in step["files"]}
    assert {"timeline.csv", "run.jsonl", "scorecard.json",
            "stream/manifest.json", "blackbox/BLACKBOX_final.json",
            "archives/advisor.jsonl"} <= written
