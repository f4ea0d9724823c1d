"""The benchmark's three workloads, built through the public API.

Importing this module imports :mod:`repro`, so the driver imports it
inside the timed set-up region.

* ``fig5`` -- the 24 named kernels x 5 models at 6000 instructions,
  sequential, memo and store off.
* ``miss-sweep`` -- the five memory-bound kernels x 5 models x the two
  ends of Figure 6's L2-hit-latency axis, sequential, memo and store off.
* ``gen-campaign`` -- a seeded generated suite x 5 models at 400
  instructions through a 2-worker pool, cold into a fresh on-disk
  store, then re-served warm from it.

Every cell runs as a :class:`ProbedJob`: a :class:`~repro.exec.SimJob`
whose ``run()`` does exactly what ``SimJob.run`` does and also appends
one timing record per cell to a per-process JSONL file, which is how
per-cell host times come back from pool workers.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import random
import time

import hostspeed
from repro.exec import (RESULT_CACHE, TRACE_CACHE, CampaignReport,
                        ResultStore, SimJob, run_jobs)
from repro.exec.store import result_to_payload
from repro.harness.experiment import MODELS, ExperimentConfig, make_core
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.wgen.generate import ARCHETYPE_POOL, generate_suite
from repro.wgen.spec import WorkloadSpec, workload_name
from repro.workloads import ALL_KERNELS

KB = 1024
MB = 1024 * KB

NAMES = ("fig5", "miss-sweep", "gen-campaign")

#: Kernels whose stall regions dominate (Table 2's high-MPKI set).
MISS_KERNELS = ("mcf_like", "ammp_like", "vpr_like", "art_like", "swim_like")
#: The two ends of Figure 6's 10..50-cycle L2-hit-latency axis.
MISS_L2_LATENCIES = (10, 50)

#: Generator seed the recorded answers were made with.
DEFAULT_GEN_SEED = 2009
GEN_INSTRUCTIONS = 400
GEN_WORKERS = 2
#: Footprint ladder of the generated suite: L1-resident (the L1D is
#: 32 KB), L2-resident, the 1 MB L2 itself, and 4x the L2.
GEN_FOOTPRINTS = (16 * KB, 128 * KB, 1 * MB, 4 * MB)
#: Generated programs per (archetype, footprint) stratum.
GEN_PER_STRATUM = 2


@dataclasses.dataclass(frozen=True)
class ProbedJob(SimJob):
    """A SimJob that logs its own host time, the garbage-collector
    pauses inside it, host-speed probes taken just before and after it,
    and, when span tracing is on, the engine probe's counter deltas, to
    ``log_dir``.

    ``log_dir`` is not part of the fingerprint, so results, memo and
    store identity are those of the plain SimJob.
    """

    log_dir: str = ""

    def run(self):
        probe_before = hostspeed.probe()
        with hostspeed.GcPauses() as gc_pauses:
            start = time.perf_counter()
            trace = TRACE_CACHE.get(self.workload, self.config.instructions)
            core = make_core(self.model, trace, self.config)
            built = time.perf_counter()
            before = _engine_counters() if obs_trace.enabled() else None
            result = core.run()
            done = time.perf_counter()
        record = {"fp": self.fingerprint, "model": self.model,
                  "construct_s": built - start, "run_s": done - built,
                  "gc_s": gc_pauses.seconds,
                  "probe_s": [probe_before, hostspeed.probe()]}
        if before is not None:
            after = _engine_counters()
            record["engine"] = {name: value - before.get(name, 0)
                                for name, value in after.items()}
        path = os.path.join(self.log_dir, f"cells-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return result


def _engine_counters() -> dict:
    counters = obs_metrics.REGISTRY.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("engine.")}


def digest(result) -> str:
    """sha256 of a result's canonical store payload."""
    payload = json.dumps(result_to_payload(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def cell_key(job) -> str:
    """A readable, unique name for one cell (the answers-file key)."""
    return (f"{job.model}|{workload_name(job.workload)}"
            f"|l2={job.config.l2_hit_latency}|n={job.config.instructions}")


def generated_suite(seed: int) -> list[WorkloadSpec]:
    """The generated suite for ``seed``, stratified by archetype and
    footprint.

    ``generate_suite`` draws every knob of each single-phase program
    from ``seed``; the footprint of each is then set from
    :data:`GEN_FOOTPRINTS`, so each seed yields the same archetype x
    footprint shape.  That keeps set-up time, memory and throughput
    comparable across seeds, while the seed still varies compute
    density, strides, branch entropy, trip counts and data layout.
    """
    specs = []
    for archetype in ARCHETYPE_POOL:
        drawn = generate_suite(GEN_PER_STRATUM * len(GEN_FOOTPRINTS), seed,
                               max_phases=1, archetypes=(archetype,))
        for index, spec in enumerate(drawn):
            footprint = GEN_FOOTPRINTS[index % len(GEN_FOOTPRINTS)]
            phase = spec.phases[0]
            params = dataclasses.replace(phase.params,
                                         footprint_bytes=footprint,
                                         arc_bytes=footprint)
            specs.append(dataclasses.replace(
                spec, name=f"{spec.name}_{footprint // KB}k",
                phases=(dataclasses.replace(phase, params=params),)))
    return specs


class Workload:
    """One named workload: its job grid and how a pass executes it."""

    def __init__(self, name: str, seed: int, work_dir: str) -> None:
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.log_dir = os.path.join(work_dir, "cells")
        os.makedirs(self.log_dir, exist_ok=True)
        self._stores = 0
        if name == "fig5":
            configs = [ExperimentConfig(instructions=6000)]
            self.workloads = list(ALL_KERNELS)
        elif name == "miss-sweep":
            configs = [ExperimentConfig(instructions=6000, l2_hit_latency=lat)
                       for lat in MISS_L2_LATENCIES]
            self.workloads = list(MISS_KERNELS)
        else:
            configs = [ExperimentConfig(instructions=GEN_INSTRUCTIONS)]
            self.workloads = generated_suite(seed)
        self.configs = configs
        self.campaign = name == "gen-campaign"
        self.workers = GEN_WORKERS if self.campaign else 1
        jobs = [ProbedJob(model, workload, config, log_dir=self.log_dir)
                for config in configs for workload in self.workloads
                for model in MODELS]
        if not self.campaign:
            # The seed orders the cells; the named-suite cells themselves
            # are fixed by the workload's definition.
            random.Random(seed).shuffle(jobs)
        self.jobs = jobs

    # -- set-up --------------------------------------------------------
    def materialise(self) -> list[float]:
        """Build every trace and warm-hierarchy snapshot up front;
        returns the host-speed probes taken between the builds."""
        probes = []
        for config in self.configs:
            for workload in self.workloads:
                probes.append(hostspeed.probe())
                trace = TRACE_CACHE.get(workload, config.instructions)
                make_core(MODELS[0], trace, config)
        return probes

    def trace_instructions(self) -> int:
        return sum(len(TRACE_CACHE.get(w, self.configs[0].instructions))
                   for w in self.workloads)

    def trace_length(self, job) -> int:
        return len(TRACE_CACHE.get(job.workload, job.config.instructions))

    # -- execution -----------------------------------------------------
    def fresh_store(self) -> ResultStore:
        self._stores += 1
        return ResultStore(os.path.join(self.work_dir,
                                        f"store-{self._stores}"))

    def run_pass(self, report: CampaignReport | None = None):
        """One cold pass over the grid: ``(wall_s, results, cells, store)``.

        ``cells`` are the per-cell records the jobs logged, in no order.
        """
        for path in glob.glob(os.path.join(self.log_dir, "*.jsonl")):
            os.remove(path)
        store = None
        if self.campaign:
            RESULT_CACHE.clear()
            store = self.fresh_store()
        start = time.perf_counter()
        results = run_jobs(self.jobs, workers=self.workers,
                           memo=self.campaign,
                           store=store if self.campaign else False,
                           report=report, strict=False)
        wall = time.perf_counter() - start
        cells = []
        for path in glob.glob(os.path.join(self.log_dir, "*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                cells.extend(json.loads(line) for line in handle)
        return wall, results, cells, store

    def rerun(self, store: ResultStore, report: CampaignReport | None = None):
        """Re-serve the grid from ``store`` with the RAM memo cleared:
        ``(wall_s, results)``."""
        RESULT_CACHE.clear()
        start = time.perf_counter()
        results = run_jobs(self.jobs, workers=self.workers, memo=True,
                           store=store, report=report, strict=False)
        return time.perf_counter() - start, results
