"""CampaignReport: the counters a campaign's incidents are tallied in."""

from dataclasses import fields

from repro.exec import CampaignReport, JobFailure

COUNTERS = ("jobs", "memo_hits", "store_hits", "computed", "attempts",
            "retries", "timeouts", "pool_breaks", "degradations",
            "store_errors")


def _failure(label="icfp on mesa_like"):
    return JobFailure(label=label, fingerprint="ab" * 32, kind="exception",
                      error="boom")


def test_counters_are_exactly_the_pool_and_store_tallies():
    names = {f.name for f in fields(CampaignReport)} - {"failures"}
    assert names == set(COUNTERS)
    report = CampaignReport()
    assert set(report.as_dict()) == set(COUNTERS) | {"failures"}
    assert set(report.tallies()) == set(COUNTERS) | {"failed_jobs"}


def test_merge_sums_every_counter_and_keeps_failures():
    a = CampaignReport(**{name: i + 1 for i, name in enumerate(COUNTERS)})
    b = CampaignReport(**{name: 10 for name in COUNTERS})
    a.failures.append(_failure("a"))
    b.failures.append(_failure("b"))
    assert a.merge(b) is a
    assert [getattr(a, name) for name in COUNTERS] == \
        [i + 11 for i in range(len(COUNTERS))]
    assert [f.label for f in a.failures] == ["a", "b"]
    assert a.tallies()["failed_jobs"] == 2 and not a.ok()


def test_summary_names_only_the_incidents_that_happened():
    report = CampaignReport(jobs=4, computed=3, memo_hits=1)
    assert report.incidents() == 0
    assert report.summary() == ("campaign: 4 jobs, 3 computed, "
                                "1 memo hits, 0 store hits")
    report.retries = 2
    report.pool_breaks = 1
    report.failures.append(_failure())
    assert report.incidents() == 4
    summary = report.summary()
    assert "2 retries" in summary and "1 pool breaks" in summary
    assert "timeouts" not in summary and summary.endswith("1 FAILED")
