"""Tests for the experiment runner and aggregation helpers."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from repro.engine.result import SimResult
from repro.exec.store import result_to_payload
from repro.harness import (
    MODELS,
    ExperimentConfig,
    geomean,
    group_geomeans,
    make_core,
    run_workload,
    selected_workloads,
    speedups_over_inorder,
)
from repro.pipeline.stats import CoreStats
from repro.workloads import ALL_KERNELS, trace_by_name


def test_models_list_matches_paper():
    assert MODELS == ("in-order", "runahead", "multipass", "sltp", "icfp")


def test_import_path_does_not_load_numpy():
    """The simulator is pure Python: importing the experiment runner
    (and through it every model, the campaign engine and the store)
    must not pull in numpy."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys, repro.harness.experiment; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0]) == 2.0
    assert geomean([]) == 0.0
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_selected_workloads_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
    assert selected_workloads() == list(ALL_KERNELS)
    monkeypatch.setenv("REPRO_WORKLOADS", "mcf_like, mesa_like")
    assert selected_workloads() == ["mcf_like", "mesa_like"]
    monkeypatch.setenv("REPRO_WORKLOADS", "doom_like")
    with pytest.raises(ValueError):
        selected_workloads()


def test_default_instructions_env(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
    cfg = ExperimentConfig()
    assert cfg.instructions == 1234


def test_make_core_every_model():
    trace = trace_by_name("mesa_like", 300)
    config = ExperimentConfig(instructions=300)
    for model in MODELS:
        core = make_core(model, trace, config)
        assert core.name == model
    with pytest.raises(ValueError):
        make_core("tomasulo", trace, config)


def test_batch_backend_is_gone():
    """Every model runs through the scalar engine alone: there is no
    batched backend, and no constructor takes per-lane parameters."""
    assert importlib.util.find_spec("repro.engine.batch") is None
    trace = trace_by_name("mesa_like", 300)
    config = ExperimentConfig(instructions=300)
    with pytest.raises(TypeError):
        make_core("icfp", trace, config, lane_params=None)


#: Latency extremes: a warm Table 1 machine with an L2 hit of 6 cycles,
#: and a cold one with DRAM-class L2 latency and no stream buffers.
FAST_CONFIG = ExperimentConfig(instructions=300, l2_hit_latency=6)
SLOW_CONFIG = ExperimentConfig(instructions=300, l2_hit_latency=500,
                               stream_buffers=0, warm=False)


@pytest.mark.parametrize("model", MODELS)
def test_core_reads_timing_constants_from_its_own_config(model):
    """Two cores on one trace with opposite configs stay independent:
    the slow one takes longer, and building it first leaves the fast
    one's result byte-identical to a fast core built on its own."""
    trace = trace_by_name("gzip_like", 300)
    alone = make_core(model, trace, FAST_CONFIG).run()
    slow_core = make_core(model, trace, SLOW_CONFIG)
    fast_core = make_core(model, trace, FAST_CONFIG)
    slow = slow_core.run()
    fast = fast_core.run()
    assert slow.cycles > fast.cycles
    assert fast.instructions == slow.instructions == 300
    assert (json.dumps(result_to_payload(fast), sort_keys=True)
            == json.dumps(result_to_payload(alone), sort_keys=True))


def test_machine_config_l2_latency_applied():
    cfg = ExperimentConfig(l2_hit_latency=37)
    assert cfg.machine_config().hierarchy.l2.hit_latency == 37


def test_run_workload_shares_trace_and_counts_match():
    config = ExperimentConfig(instructions=1200)
    runs = run_workload("mesa_like", models=("in-order", "icfp"),
                        config=config)
    assert runs["in-order"].instructions == 1200
    assert runs["icfp"].instructions == 1200
    assert runs["in-order"].workload == "mesa_like"


def test_speedup_helpers():
    def result(model, cycles):
        stats = CoreStats()
        stats.cycles = cycles
        stats.instructions = 100
        return SimResult(model, "w", stats)

    results = {"w": {"in-order": result("in-order", 200),
                     "icfp": result("icfp", 100)}}
    ratios = speedups_over_inorder(results, "icfp")
    assert ratios == {"w": 2.0}


def test_group_geomeans_groups():
    per = {name: 1.1 for name in ALL_KERNELS}
    means = group_geomeans(per)
    assert means["SPEC"] == pytest.approx(1.1)
    assert means["SPECfp"] == pytest.approx(1.1)
    assert means["SPECint"] == pytest.approx(1.1)


def test_simresult_cross_workload_comparison_rejected():
    stats = CoreStats()
    stats.cycles = 10
    a = SimResult("icfp", "w1", stats)
    b = SimResult("in-order", "w2", stats)
    with pytest.raises(ValueError):
        a.speedup_over(b)
