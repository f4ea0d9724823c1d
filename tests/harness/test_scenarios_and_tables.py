"""Tests for the Figure 1 scenarios, Table 2 generator, and area model."""

import repro.harness.scenarios as scenarios_mod
from repro.area import PAPER_AREA_MM2, Structure, port_factor, scheme_area
from repro.harness import ExperimentConfig, run_scenario, table2
from repro.harness.scenarios import SCENARIOS, run_all_scenarios
from repro.harness.tables import format_area_table, format_table2


def test_all_six_scenarios_build_and_run():
    for key, builder in SCENARIOS.items():
        scenario = builder()
        cycles = run_scenario(scenario, models=("in-order", "icfp"))
        assert cycles["in-order"] > 0 and cycles["icfp"] > 0, key


def test_run_all_scenarios_is_incremental(monkeypatch):
    """A repeated scenario campaign comes entirely from the disk store."""
    models = ("in-order", "icfp")
    first = run_all_scenarios(models=models)
    computed = []
    monkeypatch.setattr(
        scenarios_mod, "run_scenario",
        lambda scenario, *args: computed.append(scenario.key))
    second = run_all_scenarios(models=models)
    assert computed == []
    assert second == first


def test_scenario_edit_invalidates_store_record(monkeypatch):
    """Changing a micro-program's content must bust its store key."""
    models = ("in-order",)
    first = run_all_scenarios(models=models)

    real_builder = SCENARIOS["a"]

    def edited_scenario_a():
        scenario = real_builder()
        scenario.program.instructions.append(
            scenario.program.instructions[-1])
        return scenario

    monkeypatch.setitem(SCENARIOS, "a", edited_scenario_a)
    computed = []
    real_run = scenarios_mod.run_scenario
    monkeypatch.setattr(
        scenarios_mod, "run_scenario",
        lambda scenario, *args: (computed.append(scenario.key),
                                 real_run(scenario, *args))[1])
    run_all_scenarios(models=models)
    assert computed == ["a"], "edited scenario served stale store record"

    # And the untouched scenarios still hit their original records.
    monkeypatch.setitem(SCENARIOS, "a", real_builder)
    computed.clear()
    assert run_all_scenarios(models=models) == first
    assert computed == []


def test_scenario_a_matches_figure_1a():
    """Lone L2 miss: iCFP commits under it; Runahead gains nothing."""
    scenario = SCENARIOS["a"]()
    cycles = run_scenario(scenario, models=("in-order", "runahead", "icfp"))
    assert cycles["icfp"] < cycles["in-order"]
    assert cycles["runahead"] >= cycles["in-order"] - 10


def test_scenario_c_dependent_misses():
    scenario = SCENARIOS["c"]()
    cycles = run_scenario(scenario, models=("in-order", "runahead", "icfp"))
    assert cycles["icfp"] < cycles["in-order"]
    # Runahead cannot shorten a two-long dependent chain materially.
    assert abs(cycles["runahead"] - cycles["in-order"]) < 100


def test_table2_rows_small_budget():
    cfg = ExperimentConfig(instructions=2500)
    rows = table2(config=cfg, workloads=("mesa_like", "gap_like"))
    assert [r.workload for r in rows] == ["mesa_like", "gap_like"]
    assert rows[1].d_miss_per_ki > rows[0].d_miss_per_ki
    text = format_table2(rows)
    assert "gap_like" in text and "Rally/KI" in text


# ----------------------------------------------------------------------
# area model
# ----------------------------------------------------------------------
def test_area_matches_paper_within_15_percent():
    for scheme, paper in PAPER_AREA_MM2.items():
        assert abs(scheme_area(scheme) - paper) / paper < 0.15, scheme


def test_area_orderings():
    assert scheme_area("runahead") < scheme_area("multipass")
    assert scheme_area("multipass") < scheme_area("sltp")
    assert scheme_area("icfp") < scheme_area("sltp")


def test_port_factor_monotone():
    assert port_factor(1) == 1.0
    assert port_factor(2) > port_factor(1)
    assert port_factor(3) > port_factor(2)


def test_structure_area_scales_with_bits():
    small = Structure("s", 16, 8)
    large = Structure("l", 32, 8)
    assert large.area_mm2 == 2 * small.area_mm2


def test_area_table_formatting():
    text = format_area_table()
    assert "icfp" in text and "chain table" in text
