"""Market observatory: replay the golden anomaly/series/table digests."""

import pytest

from tests import golden_observatory


@pytest.mark.parametrize("run", sorted(golden_observatory.RUNS))
def test_observatory_replays_golden_digests(run):
    expected = golden_observatory.load_fixture()[run]
    provider = golden_observatory.RUNS[run]()
    got = golden_observatory.digest_provider(provider)
    provider.shutdown()
    assert got == expected


def test_golden_runs_are_not_trivial():
    # A pinned run that detects nothing, or samples no utilization,
    # would pin nothing the observatory's anomaly pass computes.
    fixture = golden_observatory.load_fixture()
    assert fixture["seed10-markets-7d"]["anomaly_count"] == 1774
    assert all(digests["anomaly_count"] > 0 for digests in fixture.values())
