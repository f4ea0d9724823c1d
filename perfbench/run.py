"""Benchmark driver for the iCFP reproduction (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with span tracing off.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer ledger instead.  Every simulated result is checked: against
the digests in ``perfbench/answers.json`` where they apply, otherwise
against the run's own first pass.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record-answers`` recomputes ``answers.json`` (after an intended
timing-model change, alongside an ``ENGINE_VERSION`` bump).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "answers.json")

#: Set-ups per end-to-end run (this process plus fresh subprocesses);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Warm re-runs per end-to-end run; ``rerun_s`` is their median.
RERUNS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fig5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-answers", action="store_true")
    return parser.parse_args(argv)


def hermetic_env(work_dir: str) -> None:
    """Ignore the caller's REPRO_* settings; keep every file the
    program writes inside ``work_dir``."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_STORE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work_dir, "cache")


def set_tracing(obs_dir: str | None) -> None:
    """Point span tracing at ``obs_dir``, or turn it off."""
    from repro.obs import trace as obs_trace

    if obs_dir is None:
        os.environ.pop("REPRO_TRACE", None)
    else:
        os.environ["REPRO_TRACE"] = obs_dir
    obs_trace.refresh()


def setup(name: str, seed: int, work_dir: str, obs_dir: str | None = None):
    """Import the program, build the grid, materialise every trace and
    warm snapshot: ``(workload, host-normalised seconds)``."""
    first = hostspeed.probe()
    start = time.perf_counter()
    import workloads

    if obs_dir is not None:
        set_tracing(obs_dir)
    workload = workloads.Workload(name, seed, work_dir)
    probes = workload.materialise()
    seconds = time.perf_counter() - start - sum(probes)
    return workload, hostspeed.normalise(
        seconds, [first, *probes, hostspeed.probe()])


class Checker:
    """Counts cells attempted and failed.  A cell fails if it raised,
    committed other than its trace length, or its payload digest differs
    from the recorded answer (or, with no answer recorded, from the
    first pass of this run)."""

    def __init__(self, workload, answers: dict | None) -> None:
        self.workload = workload
        self.expected = answers
        self.reference: list | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        import workloads

        digests = []
        for index, (job, result) in enumerate(zip(self.workload.jobs, results)):
            self.attempted += 1
            ok = False
            value = None
            if result is not None:
                value = workloads.digest(result)
                if self.expected is not None:
                    ok = self.expected.get(workloads.cell_key(job)) == value
                elif self.reference is not None:
                    ok = self.reference[index] == value
                else:
                    ok = True
                ok = ok and (result.stats.instructions
                             == self.workload.trace_length(job))
            self.failed += not ok
            digests.append(value)
        if self.reference is None:
            self.reference = digests

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def load_answers(workload) -> dict | None:
    with open(ANSWERS, encoding="utf-8") as handle:
        answers = json.load(handle)
    if workload.campaign and workload.seed != answers["gen_seed"]:
        return None
    return answers["cells"][workload.name]


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def setup_probe_seconds(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as a user would pay it."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def pass_seconds(wall: float, cells, workers: int) -> float:
    """A pass's host-normalised time, less its own calibration probes
    (which ran inside the pass, spread over the workers)."""
    probes = [p for cell in cells for p in cell["probe_s"]]
    return hostspeed.normalise(wall - sum(probes) / workers, probes)


def end_to_end(workload, seconds: float, setup_s: float, checker) -> dict:
    from ledger import icfp_speedup

    pass_s, raw_pass_s, cell_ms = [], [], {}
    start = time.perf_counter()
    while True:
        wall, results, cells, store = workload.run_pass()
        checker.check(results)
        pass_s.append(pass_seconds(wall, cells, workload.workers))
        raw_pass_s.append(wall)
        for cell in cells:
            busy = cell["construct_s"] + cell["run_s"] - cell["gc_s"]
            cell_ms.setdefault(cell["fp"], []).append(
                1000 * hostspeed.normalise(busy, cell["probe_s"]))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pass_s) > seconds:
            break
    instructions = sum(r.stats.instructions for r in results if r)
    if store is None:
        store = workload.fresh_store()
        store.put_results((job.fingerprint, result)
                          for job, result in zip(workload.jobs, results)
                          if result is not None)
    rerun_s = []
    for _ in range(RERUNS):
        first = hostspeed.probe()
        with hostspeed.GcPauses() as gc_pauses:
            wall, again = workload.rerun(store)
        rerun_s.append(hostspeed.normalise(wall - gc_pauses.seconds,
                                           [first, hostspeed.probe()]))
        checker.check(again)
    # One sample per cell, its median over passes: two probes of ~0.2 ms
    # each are noisy, and the fastest of many passes picks their outliers.
    cell_ms = [statistics.median(samples) for samples in cell_ms.values()]
    rss = peak_rss_mb()
    setups = [setup_s] + [setup_probe_seconds(workload.name, workload.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    print(f"passes: {len(pass_s)}  cells per pass: {len(workload.jobs)}  "
          f"cell_ms samples: {len(cell_ms)}  host slowdown vs the "
          "reference (raw / normalised median pass): "
          f"{statistics.median(raw_pass_s) / statistics.median(pass_s):.3f}")
    if checker.correct:
        print(f"icfp_speedup = {icfp_speedup(workload.jobs, results):.6f} x "
              "(simulated gmean cycles, iCFP over in-order)")
    print(f"cells_failed = {checker.failed} of {checker.attempted}")
    return {
        "sims_per_s": len(workload.jobs) / statistics.median(pass_s),
        "sim_kips": instructions / statistics.median(pass_s) / 1000,
        "cell_ms.p50": statistics.median(cell_ms),
        "cell_ms.p90": statistics.quantiles(cell_ms, n=10)[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "rerun_s": statistics.median(rerun_s),
    }


def traced(workload, work_dir: str, setup_obs: str, checker) -> dict:
    """One untraced and one traced pass; the per-layer ledger."""
    import ledger
    from repro.exec import CampaignReport
    from repro.obs.export import merge_logs, summarize
    from repro.wgen.compose import build_workload
    from repro.wgen.spec import WorkloadSpec

    def spans(obs_dir):
        records = merge_logs(obs_dir)
        return records, summarize(records)["spans"]

    def span_s(table, name):
        return table.get(name, {}).get("total_us", 0) / 1e6

    out = ledger.code_lines(os.path.join(os.getcwd(), "src"))
    _records, setup_spans = spans(setup_obs)
    out["trace.build_s"] = span_s(setup_spans, "trace.build")
    out["trace.kinst"] = workload.trace_instructions() / 1000
    generated = [w for w in workload.workloads if isinstance(w, WorkloadSpec)]
    start = time.perf_counter()
    for spec in generated:
        build_workload(spec)
    out["wgen.materialise_s"] = (time.perf_counter() - start
                                 if generated else 0.0)
    set_tracing(None)

    if workload.workers > 1:
        # Pay the pool's one-time start-up costs before either timed pass.
        checker.check(workload.run_pass()[1])
    untraced_wall, results, cells, _store = workload.run_pass()
    untraced_s = pass_seconds(untraced_wall, cells, workload.workers)
    checker.check(results)
    campaign_obs = os.path.join(work_dir, "obs-campaign")
    set_tracing(campaign_obs)
    report = CampaignReport()
    traced_wall, results, cells, store = workload.run_pass(report)
    checker.check(results)
    read_ms = 0.0
    if store is not None:
        rerun_obs = os.path.join(work_dir, "obs-rerun")
        set_tracing(rerun_obs)
        _wall, again = workload.rerun(store, CampaignReport())
        checker.check(again)
        read_ms = 1000 * span_s(spans(rerun_obs)[1], "campaign")
    set_tracing(None)

    records, campaign_spans = spans(campaign_obs)
    campaign_s = span_s(campaign_spans, "campaign")
    compute_s = span_s(campaign_spans, "attempt")
    worker_s = campaign_s * workload.workers
    out.update({
        "exec.campaign_s": campaign_s,
        "exec.compute_s": compute_s,
        "exec.overhead_frac": 1 - compute_s / worker_s,
        "exec.parallel_eff": compute_s / worker_s,
        "exec.retries": report.retries,
        "exec.pool_breaks": report.pool_breaks,
        "exec.degradations": report.degradations,
        "store.writes": store.writes if store else 0,
        "store.hits": store.hits if store else 0,
        "store.misses": store.misses if store else 0,
        "store.corrupt": store.corrupt if store else 0,
        "store.write_ms": 1000 * span_s(campaign_spans, "store.flush"),
        "store.read_ms": read_ms,
        "obs.overhead_frac": (pass_seconds(traced_wall, cells, workload.workers)
                              / untraced_s - 1),
        "obs.span_records": len(records),
    })
    if checker.correct:
        out.update(ledger.engine_and_models(cells))
        out.update(ledger.simulated_design(workload.jobs, results))
    return out


def record_answers(work_dir: str) -> None:
    import workloads

    cells = {}
    for name in workloads.NAMES:
        workload, _ = setup(name, workloads.DEFAULT_GEN_SEED,
                            os.path.join(work_dir, name))
        _wall, results, _cells, _store = workload.run_pass()
        cells[name] = {workloads.cell_key(job): workloads.digest(result)
                       for job, result in zip(workload.jobs, results)}
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump({"gen_seed": workloads.DEFAULT_GEN_SEED, "cells": cells},
                  handle, indent=0, sort_keys=True)
        handle.write("\n")


def manifest_mismatch(metrics: dict, trace: bool) -> str | None:
    """Why the metrics printed differ from BENCHMARK.json, if they do."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if declared != printed:
        return (f"metrics differ from BENCHMARK.json: "
                f"{sorted(set(declared.items()) ^ set(printed.items()))}")
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no src/repro under {os.getcwd()}; run from the "
              "repository root", file=sys.stderr)
        return 2
    work_root = os.path.join(os.getcwd(), ".perfbench-work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(work_dir)
    hermetic_env(work_dir)
    sys.path[:0] = [src, HERE]
    try:
        if args.setup_probe:
            _workload, seconds = setup(args.workload, args.seed, work_dir)
            print(seconds)
            return 0
        if args.record_answers:
            record_answers(work_dir)
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it


def run(args, work_dir: str) -> int:
    import ledger

    setup_obs = os.path.join(work_dir, "obs-setup") if args.trace else None
    workload, setup_s = setup(args.workload, args.seed, work_dir, setup_obs)
    checker = Checker(workload, load_answers(workload))
    print(f"workload {workload.name}: {len(workload.workloads)} programs x "
          f"{len(workload.configs)} configs x 5 models = "
          f"{len(workload.jobs)} cells, {workload.workers} worker(s), "
          f"seed {workload.seed}, host nproc {os.cpu_count()}")
    print("times are host time; simulated figures are marked sim.  The model "
          "is unvalidated (no reference hardware data), so no error figure "
          "is given.  Caches start warm: I$ and L2 pre-filled, the D$ hot "
          "region pre-warmed (ExperimentConfig.warm).")
    if args.trace:
        values = traced(workload, work_dir, setup_obs, checker)
        table = [(name, unit, f"  ({moves})" if moves.startswith("none")
                  else f"  -> {moves} on {shows_on}")
                 for name, unit, _better, moves, shows_on in ledger.PER_LAYER]
    else:
        values = end_to_end(workload, args.seconds, setup_s, checker)
        table = [(name, unit, "") for name, unit, _b, _bound in ledger.END_TO_END]
    metrics = {}
    if checker.correct:
        for name, unit, target in table:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}{target}")
    problem = manifest_mismatch(metrics, bool(args.trace)) if metrics else None
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": checker.correct,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
