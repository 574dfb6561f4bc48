"""Cell runners are pure functions of the cell (the resume bedrock)."""

import pytest

from repro.errors import ConfigError
from repro.fleet import (FleetSpec, materialise_scenario, run_fleet_cell,
                         run_window_cell)


def _cells(**overrides):
    base = dict(scenarios=("synth-0", "synth-1"), seeds=(1, 2),
                runner="synthetic")
    base.update(overrides)
    return [c.to_dict() for c in FleetSpec(**base).expand()]


class TestSyntheticRunner:
    def test_payload_is_deterministic_and_attempt_free(self):
        cell = _cells()[0]
        first = run_fleet_cell(cell, "synthetic", {}, attempt=1)
        again = run_fleet_cell(cell, "synthetic", {}, attempt=7)
        assert first == again
        assert first["kind"] == "synthetic"
        assert set(first) >= {"flip_events", "protected", "activations",
                              "refreshes", "span_histograms"}

    def test_distinct_cells_get_distinct_payloads(self):
        cells = _cells()
        payloads = [run_fleet_cell(c, "synthetic", {}) for c in cells]
        assert len({p["activations"] for p in payloads}) > 1

    def test_histogram_shape_matches_metrics_layer(self):
        from repro.trace.metrics import DURATION_BUCKETS_NS

        payload = run_fleet_cell(_cells()[0], "synthetic", {})
        histogram = payload["span_histograms"]["synthetic.tick"]
        assert histogram["boundaries"] == list(DURATION_BUCKETS_NS)
        assert len(histogram["counts"]) == len(DURATION_BUCKETS_NS) + 1
        assert sum(histogram["counts"]) == histogram["total"] == 12

    def test_poison_selector_raises_every_attempt(self):
        cell = _cells()[0]  # synth-0 @ seed 1
        params = {"poison": ["synth-0@1"]}
        for attempt in (1, 2, 5):
            with pytest.raises(RuntimeError, match="poison"):
                run_fleet_cell(cell, "synthetic", params, attempt)
        # Sibling cells are untouched by the selector.
        run_fleet_cell(_cells()[1], "synthetic", params)

    def test_poison_matches_by_cell_id_too(self):
        cell = _cells()[0]
        with pytest.raises(RuntimeError, match="poison"):
            run_fleet_cell(cell, "synthetic",
                           {"poison": [cell["cell_id"]]})

    def test_flaky_fails_then_succeeds(self):
        cell = _cells()[0]
        params = {"flaky": {"synth-0@1": 2}}
        for attempt in (1, 2):
            with pytest.raises(RuntimeError, match="flaky"):
                run_fleet_cell(cell, "synthetic", params, attempt)
        payload = run_fleet_cell(cell, "synthetic", params, attempt=3)
        assert payload == run_fleet_cell(cell, "synthetic", {}, 1)


class TestWindowRunner:
    def test_deterministic_and_shaped(self):
        first = run_window_cell("double_sided", "softtrr", seed=3)
        again = run_window_cell("double_sided", "softtrr", seed=3)
        assert first == again
        assert first["kind"] == "window"
        assert first["aggressors"] == 2
        assert first["windows"] >= 1
        assert first["span_histograms"]  # spans-level tracing was on
        assert first["erosion_ns"] == 0  # no fault plan

    def test_defense_axis_changes_the_window_accounting(self):
        vanilla = run_window_cell("double_sided", "vanilla", seed=3)
        softtrr = run_window_cell("double_sided", "softtrr", seed=3)
        assert vanilla["flip_events"] > 0 and not vanilla["protected"]
        # The bench victim is a plain data row (PT-scoped defenses do
        # not refresh it — the zoo documents the same failure mode);
        # what the axis must change is the protection-window model.
        assert softtrr["window_ns"] < vanilla["window_ns"]
        assert softtrr["windows"] > vanilla["windows"]

    def test_dropped_softtrr_ticks_erode_the_window(self):
        # The hammer leg dispatches kernel timers every round, so
        # SoftTRR ticks during the bench and a dropped tick is lost
        # protection time.
        plan = {"specs": [{"site": "timers", "mode": "drop",
                           "probability": 1.0}], "seed": 1}
        cell = run_window_cell("double_sided", "softtrr", seed=3,
                               fault_plan=plan)
        assert cell["erosion_ns"] > 0

    def test_unknown_pattern(self):
        with pytest.raises(ConfigError, match="unknown window pattern"):
            run_window_cell("sideways")

    def test_agrees_with_the_zoo_pattern_leg(self):
        # At the default seed and budget a window cell hammers exactly
        # what the zoo's pattern leg does; the zoo digests pin the
        # latter, so this pins the former.
        from repro.analysis.zoo import PATTERNS, ZOO_DEFENSES, run_zoo_cell

        shared = ("victim", "victim_threshold", "aggressors",
                  "acts_per_aggressor", "flip_events", "protected",
                  "activations", "refreshes", "refresh_overhead")
        mismatches = []
        for defense in ZOO_DEFENSES:
            for pattern in PATTERNS:
                window = run_window_cell(pattern, defense)
                zoo = run_zoo_cell(defense, pattern)
                mismatches += [(defense, pattern, key) for key in shared
                               if window[key] != zoo[key]]
        assert mismatches == []


class TestRowsLeg:
    def test_pattern_rows_cell_agrees_with_the_zoo_pattern_leg(self):
        # A pattern cell of the zoo's many_sided offsets takes its
        # widest offset (the zoo's margin) as the bank-edge margin, so
        # through the one rows leg it hammers the zoo's victim with the
        # zoo's budget; the zoo digests pin the zoo cell.
        from repro.analysis.zoo import (ZOO_DEFENSES, _PATTERN_OFFSETS,
                                        run_zoo_cell)
        from repro.patterns.fuzz import _render
        from repro.patterns.scenario import run_pattern_cell

        source = _render("many_sided", _PATTERN_OFFSETS["many_sided"], 0)
        shared = ("victim", "victim_threshold", "aggressors",
                  "flip_events", "protected", "activations", "refreshes",
                  "refresh_overhead", "sram_bits", "tracker_counters")
        mismatches = []
        for defense in ZOO_DEFENSES:
            pattern = run_pattern_cell(source, defense, target="rows")
            zoo = run_zoo_cell(defense, "many_sided")
            mismatches += [(defense, key) for key in shared
                           if pattern[key] != zoo[key]]
        assert mismatches == []


class TestScenarioRunner:
    def test_materialise_applies_axis_overrides(self):
        from repro.scenarios.registry import scenario

        base = scenario("smoke-spray-vanilla")
        cell = {"scenario": "smoke-spray-vanilla", "seed": 99,
                "defense": "softtrr", "defense_params": {},
                "fault_plan": {"specs": [{"site": "timers",
                                          "mode": "drop",
                                          "probability": 0.5}],
                               "seed": 1}}
        spec = materialise_scenario(cell)
        assert spec.defense == "softtrr"
        assert spec.params["seed"] == 99
        assert spec.params["fault_plan"]["specs"][0]["site"] == "timers"
        assert spec.name == base.name and spec.attack == base.attack

    def test_materialise_keeps_base_defense_without_override(self):
        cell = {"scenario": "smoke-spray-vanilla", "seed": None,
                "defense": None, "defense_params": {}, "fault_plan": None}
        spec = materialise_scenario(cell)
        assert spec.defense == "vanilla"
        assert "seed" not in spec.params

    def test_scenario_cell_runs_and_is_deterministic(self):
        cell = {"cell_id": "x", "scenario": "smoke-spray-vanilla",
                "seed": None, "defense": None, "defense_params": {},
                "fault_plan": None}
        first = run_fleet_cell(cell, "scenario", {})
        again = run_fleet_cell(cell, "scenario", {})
        assert first == again
        assert first["defense"] == "vanilla"

    def test_zoo_cell_installs_the_fault_plan_axis(self):
        cell = {"cell_id": "x", "scenario": "zoo-softtrr-spray",
                "seed": None, "defense": None, "defense_params": {}}
        plan = {"specs": [{"site": "mmu", "mode": "swallow",
                           "probability": 0.1}], "seed": 0}
        clean = run_fleet_cell(dict(cell, fault_plan=None), "scenario", {})
        faulted = run_fleet_cell(dict(cell, fault_plan=plan), "scenario", {})
        # Swallowed trace faults blind SoftTRR's tracer, so it arms and
        # refreshes less than on the unfaulted machine.
        assert faulted["refreshes"] < clean["refreshes"]


def test_unknown_runner_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown cell runner"):
        run_fleet_cell(_cells()[0], "bogus", {})
