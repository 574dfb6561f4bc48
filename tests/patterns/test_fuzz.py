"""Pattern-fuzzer tests: sampling purity, the campaign grid, the map.

The fuzzer's resumability story rests on one invariant: a point is a
pure function of ``(seed, index)``.  These tests pin that, the DSL
rendering, the grid layout (page-table legs + vanilla probes), the
blind-spot summary and its conditional gates — and run one small real
campaign whose outcome is the TRRespass shape in miniature: every
point flips vanilla, only many-sided points evade chiptrr.
"""

import pytest

from repro.errors import ConfigError
from repro.fleet.runners import fuzz_point_index, run_fleet_cell
from repro.fleet.spec import FleetSpec
from repro.patterns.fuzz import (
    CAMPAIGN_DEFENSE_PARAMS,
    GAPS_NS,
    OFFSET_POOL,
    ORDERS,
    PT_PROBE_POINTS,
    FuzzPoint,
    fuzz_specs,
    pattern_source,
    point_spec,
    run_fuzz_campaign,
    sample_point,
    sample_points,
    summarise_campaign,
)
from repro.scenarios.spec import ScenarioResult

SEED = 11


# ------------------------------------------------------------- sampling
def test_sample_point_is_pure_in_seed_and_index():
    for index in (0, 7, 199):
        assert sample_point(SEED, index) == sample_point(SEED, index)
    assert sample_point(SEED, 3) != sample_point(SEED + 1, 3)
    assert sample_points(SEED, 5) == [sample_point(SEED, i)
                                      for i in range(5)]


def test_sampled_points_respect_the_parameter_space():
    for point in sample_points(SEED, 40):
        assert 1 <= point.sides <= len(OFFSET_POOL)
        assert len(point.offsets) == point.sides
        assert len(set(point.offsets)) == point.sides
        assert -1 in point.offsets
        assert set(point.offsets) <= set(OFFSET_POOL)
        assert point.gap_ns in GAPS_NS
        assert point.order in ORDERS
        if point.order == "near_first":
            assert list(point.offsets) == sorted(
                point.offsets, key=lambda off: (abs(off), off))
        elif point.order == "far_first":
            assert list(point.offsets) == sorted(
                point.offsets, key=lambda off: (-abs(off), off))


def test_max_sides_clamps_and_guards():
    for point in sample_points(SEED, 30, max_sides=2):
        assert point.sides <= 2
    with pytest.raises(ConfigError, match="max_sides"):
        sample_point(SEED, 0, max_sides=0)


# ------------------------------------------------------------ rendering
def test_pattern_source_golden():
    point = FuzzPoint(index=5, sides=2, offsets=(-1, 2), gap_ns=60,
                      order="near_first")
    assert pattern_source(point) == (
        "pattern fuzz_5(victim, rounds, acts)\n"
        "  repeat rounds\n"
        "    act 0, victim - 1, acts\n"
        "    act 0, victim + 2, acts\n"
        "    wait 60\n"
        "    sync\n"
        "  end\n"
        "end\n")


def test_zero_gap_renders_no_wait():
    point = FuzzPoint(index=0, sides=1, offsets=(-1,), gap_ns=0,
                      order="near_first")
    assert "wait" not in pattern_source(point)


# ----------------------------------------------------------------- grid
def test_point_spec_targets_and_naming():
    point = sample_point(SEED, 4)
    spec = point_spec(point, "softtrr", SEED)
    assert spec.name == "fuzz-softtrr-point-4"
    assert spec.params["target"] == "pt"
    probe = point_spec(point, "vanilla", SEED, target="pt")
    assert probe.name == "fuzz-vanilla-pt-point-4"
    rows = point_spec(point, "chiptrr", SEED)
    assert rows.params["target"] == "rows"
    assert rows.params["point"] == point.to_dict()
    misra = point_spec(point, "misra_gries", SEED)
    assert misra.defense_params == CAMPAIGN_DEFENSE_PARAMS["misra_gries"]


def test_fuzz_specs_grid_shape():
    specs = fuzz_specs(defenses=("vanilla", "softtrr"), seed=SEED,
                       count=3)
    # 2 vanilla pt probes + 2 defenses x 3 points.
    assert len(specs) == PT_PROBE_POINTS + 2 * 3
    assert [s.name for s in specs[:PT_PROBE_POINTS]] == [
        "fuzz-vanilla-pt-point-0", "fuzz-vanilla-pt-point-1"]
    # Without softtrr in the sweep, no probes are prepended.
    specs = fuzz_specs(defenses=("vanilla", "chiptrr"), seed=SEED,
                       count=3)
    assert len(specs) == 2 * 3
    with pytest.raises(ConfigError, match="unknown defense"):
        fuzz_specs(defenses=("vanilla", "rowclone"), count=1)
    with pytest.raises(ConfigError, match="unknown machine 'bogus'"):
        fuzz_specs(count=1, machine_name="bogus")


def test_unknown_machine_exits_2_before_any_cell_runs(tmp_path, capsys):
    # Once every cell failed on the bad profile, the CLI wrote their
    # error report and exited 0 (1 under --check, on gate failures).
    from repro.cli_common import EXIT_USAGE
    from repro.patterns.cli import main

    out = tmp_path / "r.json"
    code = main(["--points", "2", "--machine", "bogus", "--defenses",
                 "vanilla", "softtrr", "--out", str(out), "--check"])
    assert code == EXIT_USAGE
    assert "unknown machine 'bogus'" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- summary
def fabricated(name, payload):
    return ScenarioResult(name=name, kind="pattern", group="fuzz",
                          payload=payload)


def test_summarise_campaign_folds_rows_and_conditional_gates():
    points = sample_points(SEED, 2)
    results = [
        fabricated("fuzz-vanilla-point-0",
                   {"defense": "vanilla", "target": "rows",
                    "flip_events": 3, "point": points[0].to_dict()}),
        fabricated("fuzz-vanilla-point-1",
                   {"defense": "vanilla", "target": "rows",
                    "flip_events": 0, "point": points[1].to_dict()}),
        fabricated("fuzz-vanilla-pt-point-0", {"error": "boom"}),
    ]
    summary = summarise_campaign(results, points)
    vanilla = summary["rows"]["vanilla"]
    assert vanilla["cells"] == 2
    assert vanilla["flip_rate"] == 0.5
    [entry] = vanilla["flip_points"]
    assert entry["point"] == 0
    assert entry["sides"] == points[0].sides
    # The errored pt probe lands in its own row, label retained.
    assert summary["rows"]["vanilla-pt"] == {
        "target": "pt", "cells": 1, "errors": 1, "flip_points": [],
        "flip_rate": 0.0}
    # Gates only cover the rows actually swept.
    assert summary["gates"] == {"vanilla_flips": True}


def test_summarise_campaign_softtrr_gates():
    points = sample_points(SEED, 1)
    results = [
        fabricated("fuzz-softtrr-point-0",
                   {"defense": "softtrr", "target": "pt",
                    "flip_events": 0, "point": points[0].to_dict()}),
        fabricated("fuzz-vanilla-pt-point-0",
                   {"defense": "vanilla", "target": "pt",
                    "flip_events": 2, "point": points[0].to_dict()}),
    ]
    gates = summarise_campaign(results, points)["gates"]
    assert gates == {"softtrr_pt_clean": True, "pt_leg_has_teeth": True}
    # A flip on the softtrr row (or a dead pt leg) turns the gate red.
    results[0] = fabricated(
        "fuzz-softtrr-point-0",
        {"defense": "softtrr", "target": "pt", "flip_events": 1,
         "point": points[0].to_dict()})
    gates = summarise_campaign(results, points)["gates"]
    assert gates["softtrr_pt_clean"] is False


# -------------------------------------------------------- real campaign
def test_small_campaign_reproduces_the_trrespass_shape():
    """Six seeded points vs vanilla + chiptrr: every point flips the
    undefended module; chiptrr blocks the double-sided point but is
    evaded by every many-sided one — the blind-spot map in miniature."""
    points = sample_points(SEED, 6)
    results = run_fuzz_campaign(defenses=("vanilla", "chiptrr"),
                                seed=SEED, count=6)
    summary = summarise_campaign(results, points)
    vanilla = summary["rows"]["vanilla"]
    chiptrr = summary["rows"]["chiptrr"]
    assert vanilla["errors"] == chiptrr["errors"] == 0
    assert vanilla["flip_rate"] == 1.0
    blocked = [p.index for p in points
               if p.index not in
               {e["point"] for e in chiptrr["flip_points"]}]
    assert blocked == [3]  # the lone 2-sided point in the first six
    assert points[3].sides == 2
    assert all(e["sides"] >= 3 for e in chiptrr["flip_points"])
    assert summary["gates"] == {"vanilla_flips": True,
                                "chiptrr_evaded_many_sided": True}


# ----------------------------------------------------------------- fleet
def test_fuzz_point_index_parsing():
    assert fuzz_point_index("point-7") == 7
    for bad in ("point7", "point-", "point-x", "cell-3", "7"):
        with pytest.raises(ConfigError, match="point-<index>"):
            fuzz_point_index(bad)


def test_fleet_spec_validates_fuzz_names():
    spec = FleetSpec(scenarios=("point-0", "point-12"), runner="fuzz")
    spec.validate_names()
    bad = FleetSpec(scenarios=("point-0", "window-a"), runner="fuzz")
    with pytest.raises(ConfigError, match="point-<index>"):
        bad.validate_names()


def test_fuzz_fleet_cell_is_deterministic():
    cell = {"scenario": "point-3", "defense": "chiptrr"}
    first = run_fleet_cell(cell, "fuzz", {"fuzz_seed": SEED})
    second = run_fleet_cell(cell, "fuzz", {"fuzz_seed": SEED})
    assert first == second
    assert first["kind"] == "pattern"
    assert first["point"] == sample_point(SEED, 3).to_dict()
    assert first["defense"] == "chiptrr"
    assert first["target"] == "rows"


def test_softtrr_pt_cell_survives_the_l1pt_relocation():
    # Seed 101 point 4 relocates an L1PT whose entries carry SoftTRR
    # trace marks; the hammer then touches a page through a copied
    # mark.  The tracer must own that fault (no KernelPanic) and keep
    # the page table flip-free.
    result = run_fleet_cell({"scenario": "point-4", "defense": "softtrr"},
                            "fuzz", {"fuzz_seed": 101})
    assert "error" not in result
    assert result["target"] == "pt"
    assert result["protected"]
