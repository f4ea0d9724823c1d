"""Trace- and result-cache semantics."""

import pytest

from repro.exec import (
    RESULT_CACHE,
    TRACE_CACHE,
    CampaignReport,
    SimJob,
    TraceCache,
    run_jobs,
)
from repro.harness.experiment import ExperimentConfig
from repro.workloads import trace_by_name


def test_trace_cache_returns_identical_object():
    TRACE_CACHE.clear()
    first = trace_by_name("mesa_like", 300)
    second = trace_by_name("mesa_like", 300)
    assert second is first
    assert TRACE_CACHE.hits == 1 and TRACE_CACHE.misses == 1


def test_trace_cache_keys_on_name_and_budget():
    TRACE_CACHE.clear()
    a = trace_by_name("mesa_like", 300)
    b = trace_by_name("mesa_like", 400)
    c = trace_by_name("crafty_like", 300)
    assert len({id(a), id(b), id(c)}) == 3
    assert len(a) == 300 and len(b) == 400
    assert TRACE_CACHE.misses == 3


def test_trace_cache_lru_bound():
    cache = TraceCache(maxsize=2)
    cache.get("mesa_like", 100)
    cache.get("mesa_like", 120)
    cache.get("mesa_like", 140)  # evicts (mesa_like, 100)
    assert len(cache) == 2
    before = cache.misses
    cache.get("mesa_like", 100)
    assert cache.misses == before + 1  # rebuilt after eviction


@pytest.mark.parametrize("workers", (1, 2))
def test_campaign_builds_each_trace_once(workers):
    TRACE_CACHE.clear()
    cfg = ExperimentConfig(instructions=310)
    jobs = [SimJob(m, w, cfg)
            for w in ("mesa_like", "gzip_like", "crafty_like")
            for m in ("in-order", "icfp")]
    report = CampaignReport()
    run_jobs(jobs, workers=workers, memo=False, store=False, report=report)
    assert report.computed == len(jobs)
    assert TRACE_CACHE.misses == 3


def test_sequential_campaign_never_rebuilds_an_evicted_trace(monkeypatch):
    # Each trace is built just before its own jobs run, so a campaign
    # with more traces than the cache holds still builds each one once.
    TRACE_CACHE.clear()
    monkeypatch.setattr(TRACE_CACHE, "maxsize", 2)
    cfg = ExperimentConfig(instructions=320)
    workloads = ("mesa_like", "gzip_like", "crafty_like", "mcf_like")
    jobs = [SimJob(m, w, cfg) for w in workloads for m in ("in-order", "icfp")]
    report = CampaignReport()
    run_jobs(jobs, workers=1, memo=False, store=False, report=report)
    assert report.computed == len(jobs)
    assert TRACE_CACHE.misses == len(workloads)


def test_result_cache_memoizes_repeat_jobs():
    RESULT_CACHE.clear()
    job = SimJob("in-order", "mesa_like", ExperimentConfig(instructions=300))
    first, = run_jobs([job], workers=1)
    again, = run_jobs([job], workers=1)
    assert again is first
    assert RESULT_CACHE.hits == 1


@pytest.mark.parametrize("workers", (1, 2))
def test_result_cache_dedupes_within_one_batch(workers):
    RESULT_CACHE.clear()
    cfg = ExperimentConfig(instructions=300)
    job = SimJob("in-order", "mesa_like", cfg)
    twin = SimJob("in-order", "mesa_like", ExperimentConfig(instructions=300))
    # A second distinct job, so workers=2 really runs the pool.
    other = SimJob("icfp", "mesa_like", cfg)
    report = CampaignReport()
    a, c, b = run_jobs([job, other, twin], workers=workers, report=report)
    assert a is b and c.model == "icfp"
    assert report.computed == report.attempts == 2
    assert len(RESULT_CACHE) == 2


def test_memo_false_bypasses_cross_call_cache():
    RESULT_CACHE.clear()
    job = SimJob("in-order", "mesa_like", ExperimentConfig(instructions=300))
    first, = run_jobs([job], workers=1, memo=False)
    second, = run_jobs([job], workers=1, memo=False)
    assert first is not second
    assert first.cycles == second.cycles
    assert len(RESULT_CACHE) == 0
