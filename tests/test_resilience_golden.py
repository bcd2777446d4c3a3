"""Client-side resilience: replay the golden trace/event/retry-draw digests."""

import pytest

from tests import golden_resilience


@pytest.mark.parametrize("run", sorted(golden_resilience.RUNS))
def test_resilience_replays_golden_digests(run):
    expected = golden_resilience.load_fixture()[run]
    provider, chaos = golden_resilience.RUNS[run]()
    got = golden_resilience.digest_run(provider, chaos)
    provider.shutdown()
    assert got == expected


def test_golden_runs_reach_every_retry_site():
    # A site no pinned run retries (or, for the engine-scheduled sites,
    # dead-letters) would leave its retry path unpinned.
    seen = set()
    for digests in golden_resilience.load_fixture().values():
        seen.update(digests["counts"])
    scheduled = ("ec2:request-spot", "checkpoint:s3", "checkpoint:efs",
                 "eventbridge:spotverse-on-interruption")
    for site in scheduled:
        assert f"resilience.retry {site}" in seen
        assert f"resilience.dead_letter {site}" in seen
    in_place = ("fleet-state:flush", "fleet-state:tracked-requests", "monitor:put-metrics",
                "monitor:snapshot", "checkpoint:progress-save", "checkpoint:progress-load")
    for site in in_place:
        assert f"resilience.retry {site}" in seen
    assert {"checkpoint.persisted checkpoint:s3", "checkpoint.persisted checkpoint:efs",
            "ondemand.fallback"} <= seen
