"""Engine scheduling: parallel == sequential, knob resolution."""

import json
import pickle

import pytest

from dataclasses import dataclass

from repro.exec import (
    RESULT_CACHE,
    CampaignReport,
    ResultStore,
    RetryPolicy,
    SimJob,
    default_jobs,
    run_jobs,
)
from repro.exec import engine
from repro.exec.store import result_to_payload
from repro.harness.experiment import ExperimentConfig, run_suite

WORKLOADS = ("mesa_like", "crafty_like", "gzip_like")


def _stats_bytes(result):
    return pickle.dumps((result.model, result.workload, result.stats))


def test_parallel_results_equal_sequential_exactly():
    """The acceptance property: fan-out must be invisible in the data."""
    cfg = ExperimentConfig(instructions=400)
    RESULT_CACHE.clear()
    sequential = run_suite(workloads=WORKLOADS, config=cfg, jobs=1)
    RESULT_CACHE.clear()
    parallel = run_suite(workloads=WORKLOADS, config=cfg, jobs=2)
    assert list(sequential) == list(parallel)
    for workload in sequential:
        assert list(sequential[workload]) == list(parallel[workload])
        for model in sequential[workload]:
            seq, par = sequential[workload][model], parallel[workload][model]
            assert seq.cycles == par.cycles
            assert seq.instructions == par.instructions
            assert _stats_bytes(seq) == _stats_bytes(par), (workload, model)


@pytest.mark.parametrize("workers", (1, 2))
def test_run_jobs_preserves_input_order(workers):
    cfg = ExperimentConfig(instructions=300)
    jobs = [SimJob(m, w, cfg)
            for w in ("crafty_like", "mesa_like")
            for m in ("icfp", "in-order")]
    results = run_jobs(jobs, workers=workers)
    assert [(r.model, r.workload) for r in results] == \
        [(j.model, j.workload) for j in jobs]


def _grid(instructions):
    cfg = ExperimentConfig(instructions=instructions)
    return [SimJob(m, w, cfg)
            for w in ("mesa_like", "gzip_like")
            for m in ("in-order", "runahead", "icfp")]


def _payloads(results):
    return [json.dumps(result_to_payload(r), sort_keys=True)
            for r in results]


def _clean(jobs):
    return run_jobs(jobs, workers=1, memo=False, store=False)


@pytest.mark.parametrize("workers", (1, 2))
def test_campaign_resumes_from_partially_flushed_store(tmp_path, workers):
    jobs = _grid(580)
    clean = _clean(jobs)
    store = ResultStore(str(tmp_path / "store"))
    # An earlier campaign, cut short, flushed its first four cells.
    run_jobs(jobs[:4], workers=1, memo=False, store=store)
    report = CampaignReport()
    results = run_jobs(jobs, workers=workers, memo=False, store=store,
                       report=report)
    assert _payloads(results) == _payloads(clean)
    assert report.store_hits == 4
    assert report.computed == report.attempts == len(jobs) - 4


@pytest.mark.parametrize("workers", (1, 2))
def test_repeat_campaign_is_served_from_the_memo(tmp_path, workers):
    RESULT_CACHE.clear()
    jobs = _grid(600)
    store = ResultStore(str(tmp_path / "store"))
    first = run_jobs(jobs, workers=workers, store=store)
    report = CampaignReport()
    second = run_jobs(jobs, workers=workers, store=store, report=report)
    assert all(a is b for a, b in zip(first, second))
    assert report.memo_hits == len(jobs)
    assert report.store_hits == report.attempts == report.computed == 0


@pytest.mark.parametrize("env,pools", (("1", []), ("2", [2])))
def test_repro_jobs_env_picks_the_executor(monkeypatch, env, pools):
    jobs = _grid(540)
    clean = _clean(jobs)
    made = []
    real_pool = engine._pool

    def counting_pool(workers):
        made.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(engine, "_pool", counting_pool)
    monkeypatch.setenv("REPRO_JOBS", env)
    results = run_jobs(jobs, memo=False, store=False)
    assert made == pools
    assert _payloads(results) == _payloads(clean)


@pytest.mark.parametrize("workers", (1, 2))
def test_unwritable_store_is_counted_once_and_results_survive(
        tmp_path, monkeypatch, workers):
    jobs = _grid(620)
    clean = _clean(jobs)
    store = ResultStore(str(tmp_path / "store"))
    refused = []

    def refuse(fp, result):
        refused.append(fp)
        return False

    monkeypatch.setattr(store, "put_result", refuse)
    report = CampaignReport()
    results = run_jobs(jobs, workers=workers, memo=False, store=store,
                       report=report)
    assert _payloads(results) == _payloads(clean)
    assert len(refused) == 1  # the engine stops writing after a refusal
    assert report.store_errors == 1
    assert report.computed == len(jobs) and report.ok()


def test_simjob_roundtrips_through_pickle():
    job = SimJob("icfp", "mcf_like", ExperimentConfig(instructions=500))
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job
    assert clone.fingerprint == job.fingerprint


def test_default_jobs_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1  # clamped
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


@pytest.mark.parametrize("env,field,value", [
    ({"REPRO_RETRIES": "0"}, "max_attempts", 1),
    ({"REPRO_RETRIES": "2"}, "max_attempts", 3),
    ({"REPRO_JOB_TIMEOUT": "1.5"}, "job_timeout", 1.5),
    ({"REPRO_JOB_TIMEOUT": "0"}, "job_timeout", None),
    ({}, "max_attempts", 4),
])
def test_retry_policy_from_env(monkeypatch, env, field, value):
    for name, text in env.items():
        monkeypatch.setenv(name, text)
    assert getattr(RetryPolicy.from_env(), field) == value


@pytest.mark.parametrize("name", ("REPRO_RETRIES", "REPRO_JOB_TIMEOUT"))
def test_retry_policy_rejects_garbage(monkeypatch, name):
    monkeypatch.setenv(name, "lots")
    with pytest.raises(ValueError, match=name):
        RetryPolicy.from_env()


@dataclass(frozen=True)
class _InterruptedJob(SimJob):
    def run(self):
        raise KeyboardInterrupt


def test_interrupted_attempt_surfaces_and_is_not_a_failure():
    cfg = ExperimentConfig(instructions=300)
    report = CampaignReport()
    with pytest.raises(KeyboardInterrupt):
        run_jobs([_InterruptedJob("in-order", "mesa_like", cfg)], workers=1,
                 memo=False, store=False, report=report, strict=False)
    assert report.failures == [] and report.retries == 0


def test_worker_exceptions_propagate():
    cfg = ExperimentConfig(instructions=300)
    with pytest.raises(KeyError):
        run_jobs([SimJob("in-order", "doom_like", cfg)], workers=1)
