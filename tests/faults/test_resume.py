"""Crash-resume: a SIGKILL'd campaign loses only its unflushed cells.

The engine flushes each computed result to the disk store the moment it
completes, so a campaign killed mid-flight and resumed in a fresh
process must serve every already-flushed cell from the store and
recompute exactly the rest — verified by the store's hit/write
counters, not by timing luck.  The parent flushes every cell whether
it ran in-process or in a pool worker, so both regimes resume the same
way.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec import CampaignReport, ResultStore, SimJob, run_jobs
from repro.exec.store import result_to_payload
from repro.harness.experiment import ExperimentConfig

WORKLOADS = ("mesa_like", "gzip_like")
MODELS = ("in-order", "runahead", "multipass", "sltp", "icfp")
INSTRUCTIONS = 311  # unique budget: no other test shares fingerprints

_CAMPAIGN = """
import sys
sys.path.insert(0, {src!r})
from repro.exec import run_jobs, SimJob
from repro.harness.experiment import ExperimentConfig
cfg = ExperimentConfig(instructions={instructions})
jobs = [SimJob(m, w, cfg) for w in {workloads!r} for m in {models!r}]
run_jobs(jobs, workers={workers})
"""


def _result_records(root):
    pattern = os.path.join(root, "v*", "*", "results", "*", "*.json")
    return glob.glob(pattern)


@pytest.mark.slow
@pytest.mark.parametrize("workers", (1, 2))
def test_sigkill_mid_campaign_resumes_without_recomputing_flushed_cells(
        tmp_path, workers):
    root = str(tmp_path / "shared-store")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = _CAMPAIGN.format(src=os.path.abspath(src),
                              instructions=INSTRUCTIONS,
                              workloads=WORKLOADS, models=MODELS,
                              workers=workers)
    env = dict(os.environ,
               REPRO_CACHE_DIR=root,
               REPRO_STORE="1",
               # every attempt crawls: spaces the per-cell flushes out
               # so the kill lands mid-campaign, not after it
               REPRO_FAULTS="slow=1.0,slow_seconds=0.4")
    # Its own process group, so the kill takes the pool workers with it.
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(_result_records(root)) >= 3 or proc.poll() is not None:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive
            proc.kill()
            proc.wait()

    flushed = len(_result_records(root))
    total = len(WORKLOADS) * len(MODELS)
    assert flushed >= 3  # the kill landed after at least three flushes

    # fresh-process resume (a fresh ResultStore instance is the same
    # thing in-process: zeroed session counters, no RAM memo overlap
    # because this budget's fingerprints are unique to this test)
    store = ResultStore(root)
    cfg = ExperimentConfig(instructions=INSTRUCTIONS)
    jobs = [SimJob(m, w, cfg) for w in WORKLOADS for m in MODELS]
    report = CampaignReport()
    results = run_jobs(jobs, workers=1, memo=False, store=store,
                       report=report)

    assert report.store_hits == flushed
    assert report.computed == total - flushed
    assert store.writes == total - flushed  # zero re-flushed cells
    assert store.corrupt == 0  # atomic writes: a kill never tears one

    # and the resumed table equals a from-scratch computation
    clean = run_jobs(jobs, workers=1, memo=False, store=False)
    assert ([json.dumps(result_to_payload(r), sort_keys=True)
             for r in results]
            == [json.dumps(result_to_payload(r), sort_keys=True)
                for r in clean])
