"""Metric definitions and the per-layer ledger.

End-to-end metrics come from untraced runs; every per-layer metric
comes from the traced run and names the end-to-end metric it should
move, on which workload.  Layers are ``src/repro`` modules.  Timings
are host time unless the unit says ``sim``-prefixed (simulated).
"""

from __future__ import annotations

import math
import os

MODELS = ("in-order", "runahead", "multipass", "sltp", "icfp")
SUBPACKAGES = ("area", "baselines", "branch", "core", "engine", "exec",
               "functional", "harness", "isa", "memory", "obs", "pipeline",
               "wgen", "workloads")
HORIZON_SOURCES = ("head", "fetch", "store_queue", "hierarchy", "subclass",
                   "completion")
STALLS = ("src_wait", "mshr_full", "store_buffer_full", "frontend")

#: (name, unit, better, bound) -- mirrored in BENCHMARK.json.
END_TO_END = (
    ("sims_per_s", "1/s", "higher", 0.25),
    ("sim_kips", "kinst/s", "higher", 0.25),
    ("cell_ms.p50", "ms", "lower", 0.25),
    ("cell_ms.p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("rerun_s", "s", "lower", 0.25),
)


def _per_layer():
    """``[(name, unit, better, moves, workload)]``: each per-layer
    metric, the end-to-end metric it should move and the workload it
    shows on."""
    rows = [
        ("trace.build_s", "s", "lower", "setup_s", "gen-campaign"),
        ("trace.kinst", "kinst", "lower", "setup_s", "gen-campaign"),
        ("wgen.materialise_s", "s", "lower", "setup_s", "gen-campaign"),
    ]
    for model in MODELS:
        rows += [
            (f"engine.cycles.simulated.{model}", "sim_cycles", "lower",
             "sims_per_s", "fig5"),
            (f"engine.cycles.stepped.{model}", "sim_cycles", "lower",
             "sims_per_s", "fig5"),
            (f"engine.leaps.{model}", "count", "lower",
             "sims_per_s", "miss-sweep"),
            (f"engine.cycles.leapt.{model}", "sim_cycles", "higher",
             "sims_per_s", "miss-sweep"),
            (f"engine.ns_per_stepped_cycle.{model}", "ns", "lower",
             "cell_ms.p50", "fig5"),
        ]
    rows += [(f"engine.horizon.{source}", "count", "lower", "sims_per_s",
              "miss-sweep") for source in HORIZON_SOURCES]
    rows.append(("engine.leapt_frac", "ratio", "higher", "sims_per_s",
                 "miss-sweep"))
    for model in MODELS:
        rows += [
            (f"model.{model}.run_s", "s", "lower", "cell_ms.p90", "miss-sweep"),
            (f"model.{model}.construct_ms", "ms", "lower", "sims_per_s",
             "gen-campaign"),
        ]
    rows += [(name, unit, "lower", "sims_per_s", "miss-sweep")
             for name, unit in (("runahead.advance_per_commit", "ratio"),
                                ("multipass.advance_per_commit", "ratio"),
                                ("icfp.advance_per_commit", "ratio"),
                                ("icfp.rally_per_commit", "ratio"),
                                ("icfp.squashes", "sim_count"),
                                ("icfp.slice_captures", "sim_count"),
                                ("icfp.simple_ra_entries", "sim_count"))]
    for model in MODELS:
        design = [
            (f"mem.l1d_mpki.{model}", "sim_1/kinst", "lower"),
            (f"mem.l2_mpki.{model}", "sim_1/kinst", "lower"),
            (f"mem.secondary_misses.{model}", "sim_count", "lower"),
            (f"mem.l2_mlp.{model}", "sim_fills", "higher"),
            (f"branch.mispredicts_pki.{model}", "sim_1/kinst", "lower"),
        ] + [(f"stall.{stall}_per_kcycle.{model}", "sim_1/kcycle", "lower")
             for stall in STALLS]
        rows += [row + ("icfp_speedup", "miss-sweep") for row in design]
    rows += [
        ("exec.campaign_s", "s", "lower", "sims_per_s", "gen-campaign"),
        ("exec.compute_s", "s", "lower", "sims_per_s", "gen-campaign"),
        ("exec.overhead_frac", "ratio", "lower", "sims_per_s", "gen-campaign"),
        ("exec.parallel_eff", "ratio", "higher", "sims_per_s", "gen-campaign"),
        ("exec.retries", "count", "lower", "sims_per_s", "gen-campaign"),
        ("exec.pool_breaks", "count", "lower", "sims_per_s", "gen-campaign"),
        ("exec.degradations", "count", "lower", "sims_per_s", "gen-campaign"),
        ("store.writes", "count", "lower", "sims_per_s", "gen-campaign"),
        ("store.hits", "count", "higher", "rerun_s", "gen-campaign"),
        ("store.misses", "count", "lower", "rerun_s", "gen-campaign"),
        ("store.corrupt", "count", "lower", "rerun_s", "gen-campaign"),
        ("store.write_ms", "ms", "lower", "sims_per_s", "gen-campaign"),
        ("store.read_ms", "ms", "lower", "rerun_s", "gen-campaign"),
        ("obs.overhead_frac", "ratio", "lower", "none: traced runs only",
         "fig5"),
        ("obs.span_records", "count", "lower", "none: traced runs only",
         "gen-campaign"),
        ("sim.icfp_speedup", "sim_x", "higher", "none: simulated result",
         "miss-sweep"),
    ]
    rows += [(f"code.lines.{module}", "lines", "lower", "none: not gated",
              "fig5") for module in SUBPACKAGES + ("total",)]
    return rows


PER_LAYER = tuple(_per_layer())


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def icfp_speedup(jobs, results) -> float:
    """Simulated gmean cycles speedup of iCFP over in-order, over every
    (workload, config) row of the grid."""
    rows: dict = {}
    for job, result in zip(jobs, results):
        workload = getattr(job.workload, "name", job.workload)
        row = rows.setdefault((workload, job.config.l2_hit_latency), {})
        row[job.model] = result.stats.cycles
    return geomean(row["in-order"] / row["icfp"] for row in rows.values())


def code_lines(src: str) -> dict:
    """Physical lines of Python per ``src/repro`` subpackage, and total."""
    root = os.path.join(src, "repro")
    counts = {}
    for dirpath, _dirs, files in os.walk(root):
        rel = os.path.relpath(dirpath, root).split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    lines = sum(1 for _ in f)
                counts[rel] = counts.get(rel, 0) + lines
    out = {f"code.lines.{module}": counts.get(module, 0)
           for module in SUBPACKAGES}
    out["code.lines.total"] = sum(counts.values())
    return out


def simulated_design(jobs, results) -> dict:
    """Per-model memory, branch, stall and wasted-work figures (all
    simulated; deterministic for a given grid)."""
    by_model = {model: [] for model in MODELS}
    for job, result in zip(jobs, results):
        by_model[job.model].append(result.stats)
    out = {}

    def total(stats, field):
        return sum(getattr(s, field) for s in stats)

    for model, stats in by_model.items():
        insts = total(stats, "instructions")
        cycles = total(stats, "cycles")
        out[f"mem.l1d_mpki.{model}"] = 1000 * total(stats, "l1d_misses") / insts
        out[f"mem.l2_mpki.{model}"] = 1000 * total(stats, "l2_misses") / insts
        out[f"mem.secondary_misses.{model}"] = total(stats, "secondary_misses")
        mlps = [s.l2_mlp.average() for s in stats if s.l2_mlp.count]
        out[f"mem.l2_mlp.{model}"] = sum(mlps) / len(mlps) if mlps else 0.0
        out[f"branch.mispredicts_pki.{model}"] = (
            1000 * total(stats, "branch_mispredicts") / insts)
        for stall in STALLS:
            out[f"stall.{stall}_per_kcycle.{model}"] = (
                1000 * sum(getattr(s.stalls, stall) for s in stats) / cycles)
    for model in ("runahead", "multipass", "icfp"):
        stats = by_model[model]
        out[f"{model}.advance_per_commit"] = (
            total(stats, "advance_instructions") / total(stats, "instructions"))
    icfp = by_model["icfp"]
    out["icfp.rally_per_commit"] = (total(icfp, "rally_instructions")
                                    / total(icfp, "instructions"))
    out["icfp.squashes"] = total(icfp, "squashes")
    out["icfp.slice_captures"] = total(icfp, "slice_captures")
    out["icfp.simple_ra_entries"] = total(icfp, "simple_runahead_entries")
    out["sim.icfp_speedup"] = icfp_speedup(jobs, results)
    for model in MODELS:
        out[f"engine.cycles.simulated.{model}"] = total(by_model[model], "cycles")
    return out


def engine_and_models(cells) -> dict:
    """Engine probe counts and model host times from a traced pass's
    per-cell records."""
    out = {}
    engine_total: dict = {}
    for model in MODELS:
        mine = [c for c in cells if c["model"] == model]
        counts: dict = {}
        for cell in mine:
            for name, value in cell["engine"].items():
                counts[name] = counts.get(name, 0) + value
                engine_total[name] = engine_total.get(name, 0) + value
        run_s = sum(c["run_s"] for c in mine)
        stepped = counts.get("engine.cycles.stepped", 0)
        out[f"engine.cycles.stepped.{model}"] = stepped
        out[f"engine.leaps.{model}"] = counts.get("engine.leaps", 0)
        out[f"engine.cycles.leapt.{model}"] = counts.get("engine.cycles.leapt", 0)
        out[f"engine.ns_per_stepped_cycle.{model}"] = (
            1e9 * run_s / stepped if stepped else 0.0)
        out[f"model.{model}.run_s"] = run_s
        out[f"model.{model}.construct_ms"] = (
            1000 * sum(c["construct_s"] for c in mine) / len(mine))
    for source in HORIZON_SOURCES:
        out[f"engine.horizon.{source}"] = engine_total.get(
            f"engine.horizon.{source}", 0)
    leapt = engine_total.get("engine.cycles.leapt", 0)
    simulated = leapt + engine_total.get("engine.cycles.stepped", 0)
    out["engine.leapt_frac"] = leapt / simulated if simulated else 0.0
    return out
